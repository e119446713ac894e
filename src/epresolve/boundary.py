"""Singular-potential family at the continuum boundary.

The model indexed by an integer n >= 0 has potential n(n+1)/(x-z)^2 with a
complex displacement z (Im z != 0, so the singularity sits off the real
line).  At energy zero it carries a finite chain of associated functions; for
generic k the scattering solution is an exponential times a terminating
Laurent polynomial in 1/(k(x-z)).  All functions are produced as exact
:class:`~epresolve.exact.ExpLaurent` data so identities can be checked with
zero floating-point error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .exact import (
    ExpLaurent,
    RationalComplex,
    dfact,
    el_apply_h,
    el_apply_q,
    i_power,
)

__all__ = [
    "ChainClass",
    "BoundaryModel",
    "bm_potential",
    "bm_assoc",
    "bm_growing",
    "bm_scatter",
    "bm_scatter_ladder",
    "bm_classify",
    "bm_apply_h",
]


class ChainClass(enum.Enum):
    """Large-|x| behaviour of a zero-energy chain member."""

    NORMALIZABLE = "normalizable"
    BOUNDED_NON_NORMALIZABLE = "bounded-non-normalizable"
    GROWING = "growing"


@dataclass(frozen=True)
class BoundaryModel:
    """Inverse-square model of integer strength ``n`` displaced by ``z``."""

    n: int
    z: complex = 1j

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"model index must be a nonnegative integer, got {self.n!r}")
        z = complex(self.z)
        if z.imag == 0.0:
            raise ValueError("displacement must have a nonzero imaginary part")
        object.__setattr__(self, "z", z)

    @property
    def coupling(self) -> int:
        return self.n * (self.n + 1)


def bm_potential(model: BoundaryModel, x: np.ndarray | float) -> np.ndarray | complex:
    """Potential n(n+1)/(x-z)^2 evaluated on real coordinates."""
    xz = np.asarray(x, dtype=np.complex128) - model.z
    out = model.coupling / (xz * xz)
    if np.ndim(out) == 0:
        return complex(out)
    return out


def bm_apply_h(model: BoundaryModel, f: ExpLaurent) -> ExpLaurent:
    """Apply the model Hamiltonian -d^2/dx^2 + n(n+1)/(x-z)^2 exactly."""
    return el_apply_h(f, model.coupling)


def bm_classify(model: BoundaryModel, l: int) -> ChainClass:
    """Classify the l-th zero-energy chain member by its power n - 2l.

    Positive inverse power means square-integrable decay, zero means bounded
    but not normalizable, negative means polynomial growth.
    """
    if l < 0:
        raise ValueError("chain position must be nonnegative")
    drop = model.n - 2 * l
    if drop >= 1:
        return ChainClass.NORMALIZABLE
    if drop == 0:
        return ChainClass.BOUNDED_NON_NORMALIZABLE
    return ChainClass.GROWING


def bm_assoc(model: BoundaryModel, l: int) -> ExpLaurent:
    """The l-th member of the decaying zero-energy chain.

    Position l = 0 is annihilated by the Hamiltonian; each later member maps
    to the previous one.  The closed form is

        (-i)**n * (2n-2l-1)!! / (sqrt(2*pi) * (2l)!! * (x-z)**(n-2l)),

    which stays valid past the normalizable range thanks to the extended
    double factorial.
    """
    if l < 0:
        raise ValueError("chain position must be nonnegative")
    n = model.n
    coeff = i_power(-n) * (dfact(2 * n - 2 * l - 1) / dfact(2 * l))
    return ExpLaurent.monomial(coeff, k_pow=0, xz_pow=2 * l - n, unit_pow=1)


def bm_growing(model: BoundaryModel, l: int) -> ExpLaurent:
    """The l-th member of the polynomially growing zero-energy chain.

    Starts at (x-z)**(n+1), the growing solution of the zero-energy equation,
    and continues with the normalization

        (-1)**l (2n+1)!! / ((2l)!! (2n+2l+1)!!) * (x-z)**(n+2l+1)

    so that the Hamiltonian sends member l to member l-1.
    """
    if l < 0:
        raise ValueError("chain position must be nonnegative")
    n = model.n
    sign = Fraction(-1) ** l
    coeff = sign * dfact(2 * n + 1) / (dfact(2 * l) * dfact(2 * n + 2 * l + 1))
    return ExpLaurent.monomial(
        RationalComplex.from_value(coeff), k_pow=0, xz_pow=n + 2 * l + 1, unit_pow=0
    )


def bm_scatter(model: BoundaryModel) -> ExpLaurent:
    """The scattering solution scaled by k**n, as an exact expression.

    The returned object is k**n times the generic-energy solution: a
    terminating series

        (2*pi)**(-1/2) * e^{ikx} * sum_m (n+m)!/(2^m m! (n-m)!) i^m
            k^{n-m} (x-z)^{-m},

    polynomial in k, so the k -> 0 limit machinery applies directly.  Carries
    coordinate and displacement phases (e^{ikx} = e^{ik(x-z)} e^{ikz}).
    """
    n = model.n
    terms: dict[tuple[int, int], RationalComplex] = {}
    for m in range(n + 1):
        c = Fraction(factorial(n + m), (2**m) * factorial(m) * factorial(n - m))
        terms[(n - m, -m)] = i_power(m) * c
    return ExpLaurent(terms, phase_x=1, phase_z=1, unit_pow=1)


def bm_scatter_ladder(model: BoundaryModel) -> ExpLaurent:
    """Same object as :func:`bm_scatter`, built by raising from a plane wave.

    Applies the full tower of raising operators to e^{ikx} and scales by
    i**n; agreement with the closed form is an exact cross-check of the
    ladder algebra.
    """
    f = ExpLaurent.monomial(1, phase_x=1, phase_z=1, unit_pow=1)
    for j in range(1, model.n + 1):
        f = el_apply_q(f, j, +1)
    return f * i_power(model.n)
