"""Green functions, contour-moment pole orders, and the spectral index triple.

Both model families admit the same closed Green function: the product of the
scattering solutions on either side of the diagonal, weighted by pi*i/k at
k = sqrt(E) taken in the upper half plane.  At the exceptional spectral point
the function develops a pole whose order is measured here by contour moments
(integer-valued output with a clean separation criterion, rather than a
log-slope fit), and the three integer indexes of the point are assembled
from the chain structure, the resolution content, and that pole order.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boundary import BoundaryModel, ChainClass, bm_classify, bm_scatter
from .exact import dfact
from .interior import InteriorModel, im_scatter

__all__ = ["IndexTriple", "green", "pole_order", "indexes"]

# off-diagonal probe pairs; the second witness guards against an accidental
# zero of the solution at a single probe point
_PROBES = ((0.7, -0.4), (1.3, 0.2))

_MOMENT_SAMPLES = 256

_OVERFLOW = (
    "the Green function overflows double precision at these inputs "
    "(coupling index, energy or displacement too large)"
)


@dataclass(frozen=True)
class IndexTriple:
    """The three integer characteristics of the exceptional spectral point."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self) -> None:
        for name in ("n1", "n2", "n3"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")


def _k_upper(E: complex) -> complex:
    k = cmath.sqrt(E)
    if k.imag < 0:
        k = -k
    return k


def _green_k(
    model: BoundaryModel | InteriorModel, ks: np.ndarray, x: float, xp: float
) -> np.ndarray:
    """Green function at an array of momenta: one evaluation per solution.

    The product of the scattering solutions at the larger coordinate (momentum
    k) and the smaller one (momentum -k), weighted by pi*i/k.  The boundary
    solution is built once and divided by k**n to undo its scaling.  A value
    past the float range raises ``ValueError`` instead of returning inf or nan.
    """
    hi, lo = (x, xp) if x >= xp else (xp, x)
    # the largest exact coefficient of bm_scatter is its m = n term (2n-1)!!
    # (the ratio of neighbours is (n+m+1)(n-m)/(2m+2) >= 1); past the float
    # range to_complex would refuse it only after the whole exact build
    if isinstance(model, BoundaryModel) and dfact(2 * model.n - 1) > sys.float_info.max:
        raise ValueError(_OVERFLOW)
    try:
        with np.errstate(all="ignore"):
            if isinstance(model, BoundaryModel):
                psi = bm_scatter(model)
                left = psi.eval(ks, hi, model.z) / ks**model.n
                right = psi.eval(-ks, lo, model.z) / (-ks) ** model.n
            else:
                left = im_scatter(model, ks, hi)
                right = im_scatter(model, -ks, lo)
            g = (math.pi * 1j / ks) * left * right
    except OverflowError:  # an exact coefficient of the solution exceeds the float range
        raise ValueError(_OVERFLOW) from None
    if not np.all(np.isfinite(g)):
        raise ValueError(_OVERFLOW)
    return g


def green(
    model: BoundaryModel | InteriorModel, x: float, xp: float, E: complex
) -> complex:
    """Green function at energy E, evaluated off (or on) the diagonal.

    The spectral momentum is sqrt(E) with nonnegative imaginary part.  The
    construction is symmetric in (x, x'); evaluation at the exceptional
    momentum itself (the branch point for the inverse-square family, the
    embedded resonance for the trigonometric one) is refused.
    """
    k = _k_upper(complex(E))
    if abs(k) < 1e-8:  # the pi*i/k weight: both families
        raise ValueError("Green function is singular at the spectral origin (|k| < 1e-8)")
    if isinstance(model, InteriorModel) and abs(k * k - model.alpha**2) < 1e-6:
        raise ValueError("Green function is singular at the embedded momentum")
    return complex(_green_k(model, np.array([k]), x, xp)[0])


def pole_order(
    model: BoundaryModel | InteriorModel,
    center: complex,
    radius: float,
    max_order: int | None = None,
    tol: float = 1e-7,
) -> int:
    """Order of the momentum-plane pole of the Green function at ``center``.

    Contour moments M_j = integral of (k-center)^j G dk on a circle of the
    given radius (uniform trapezoid, spectrally accurate for this analytic
    integrand) vanish exactly for j at and above the order; the order is the
    smallest p with M_{p-1} significant and all later moments below
    tol * |M_{p-1}| * radius^(p-j).  Raises when no p separates cleanly.

    Moments are taken up to ``max_order``; the default bound comes from the
    model: max(12, 2n+3) for the inverse-square family, whose momentum-plane
    order 2n+1 then has two vanishing moments above it as witnesses, and 12
    for the trigonometric one.

    For the trigonometric family probed at center = alpha, the energy map
    E = k**2 is biholomorphic (alpha != 0), so the momentum-plane order *is*
    the energy-plane order there.
    """
    if radius <= 0:
        raise ValueError("probe radius must be positive")
    if max_order is None:
        max_order = max(12, 2 * model.n + 3) if isinstance(model, BoundaryModel) else 12
    theta = np.arange(_MOMENT_SAMPLES) * (2 * math.pi / _MOMENT_SAMPLES)
    offs = radius * np.exp(1j * theta)
    ks = complex(center) + offs
    dk = 1j * offs * (2 * math.pi / _MOMENT_SAMPLES)

    orders = []
    for x, xp in _PROBES:
        g = _green_k(model, ks, x, xp)
        moments = [np.sum(offs**j * g * dk) for j in range(max_order + 1)]
        mags = [abs(m) for m in moments]
        floor = 1e-9 * max(mags)
        found = None
        for p in range(1, max_order + 1):
            if mags[p - 1] <= floor:
                continue
            if all(
                mags[j] < tol * mags[p - 1] * radius ** (p - j)
                for j in range(p, max_order + 1)
            ):
                found = p
                break
        if found is None:
            raise ValueError(
                f"contour moments up to order {max_order} do not separate into a "
                "clean pole order; the pole may be of higher order (raise max_order) "
                "or the contour may enclose another singularity"
            )
        orders.append(found)
    # an accidental solution zero at one probe can only lower the apparent
    # order, never raise it
    return max(orders)


def indexes(model: BoundaryModel | InteriorModel) -> IndexTriple:
    """The (n1, n2, n3) triple of the exceptional point.

    n1 counts linearly independent normalizable members at the exceptional
    energy; n2 counts the functions the resolution's singular term carries;
    n3 is the pole order expressed in the energy variable.  For the
    inverse-square family the exceptional energy is a branch point of E, so
    the energy-plane order is taken as (momentum-plane order - 1) / 2; the
    raw momentum-plane order is available from :func:`pole_order` directly.
    """
    if isinstance(model, BoundaryModel):
        # the pole order first: an out-of-range n fails there, before the
        # chain scans of _boundary_indexes, which grow with n
        return _boundary_indexes(model, pole_order(model, 0j, 0.5))
    # trigonometric family: one square-summable member at the embedded energy
    # (the chain partner is bounded only), and the singular term of the
    # reduced schemes carries that single member
    return IndexTriple(n1=1, n2=1, n3=pole_order(model, complex(model.alpha), 0.25))


def _boundary_indexes(model: BoundaryModel, raw: int) -> IndexTriple:
    """Index triple of the inverse-square family from its momentum-plane order."""
    from .resolution import eps_chain  # local import; resolution sits above this module

    n1 = sum(1 for l in range(model.n) if bm_classify(model, l) is ChainClass.NORMALIZABLE)
    n2 = len(eps_chain(model, Fraction(1, 2)).members)
    return IndexTriple(n1=n1, n2=n2, n3=(raw - 1) // 2)
