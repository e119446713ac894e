"""Regularized resolutions of the identity for both model families.

The module provides three layers:

1. exact combinatorics: the rational coefficient table ``coeff_C``, the
   convolution sequence ``beta_seq``, the scaled small-momentum chains
   (``eps_chain``) and exact symbolic checks of the outer-product and
   convolution identities, including a two-point trigonometric-Laurent
   algebra that decides equality of the two closed forms of the exact
   boundary resolution.  Its term dicts, like every sparse term sum in the
   package, are accumulated and multiplied by the shared core in
   :mod:`epresolve.exact` (``add_terms``, ``mul_terms``);
2. scheme application: ``apply_scheme`` evaluates any of the eleven
   regularized reconstruction schemes on a concrete test function at given
   regulators (puncture radius eps, spectral cutoff A), scalars or one
   radius sweep of 1-D arrays per call.  Every closed block
   of a boundary scheme but the sinc kernel -- the coefficient table, the
   scaled-chain outer product, the index-2 trigonometric terms -- is applied
   by one evaluator, ``_apply_two_point``, from the same exact two-point
   dicts that the gap checks certify.  The moments of
   f(x) e^{i omega x} (x-z)^(-q) that those blocks, the sinc band and the
   boundary spectral transform need come from one evaluator,
   ``_f_osc_moment``, over whole arrays of omega: in closed form for chain
   and rational test functions, from one composite grid for localized ones.
   The interior schemes integrate a localized f's spectral transform; an
   interior chain member's is zero (the Jordan chain at the exceptional
   point is bilinearly orthogonal to the continuum), so its reconstruction
   is the singular blocks alone, built from its pair moments with the
   bounded state;
3. singular-term experiments: the closed-form reproduction coefficients for
   the index-2 boundary model (those trigonometric blocks on the chain head)
   and the interior bound state, and the non-expandability probe for the
   interior chain partner.

Scheme and identity labels (``res3``, ``vych1`` ...) are internal registry
ids used consistently across reports, the CLI, and tests.
"""

from __future__ import annotations

import cmath
import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .boundary import BoundaryModel, bm_assoc, bm_scatter
from .exact import ExpLaurent, RationalComplex, add_terms, i_power, mul_terms
from .greens import check_phase_range
from .interior import (
    PAIR_WINDOW,
    POLE_GUARD,
    TRANSFORM_WINDOW,
    InteriorModel,
    im_member,
    im_psi0,
    im_psi1,
    im_tail_model,
    im_w_bundle,
    im_zero_gap,
)
from .kernels import interior_psi_grid
from .quadrature import (
    ContourSpec,
    OscRational,
    _adaptive,
    _adaptive_oscillatory,
    composite_gauss,
    composite_phase_sums,
    ft_inverse_power,
    hermite_values,
    quad_contour,
)
from .report import VerificationReport

__all__ = [
    "SchemeId",
    "Scheme",
    "TestFunction",
    "EpsChain",
    "coeff_C",
    "beta_seq",
    "eps_chain",
    "outer_product_gap",
    "convolution_gap",
    "closed_form_gap",
    "apply_scheme",
    "apply_base_resolution",
    "reproduce_psi20_terms",
    "reproduce_psi0_term",
    "psi1_expandability",
]


# ---------------------------------------------------------------------------
# rational coefficient layers
# ---------------------------------------------------------------------------

def coeff_C(l: int, m: int, n: int, lower_shift: int = 0) -> RationalComplex:
    """Exact alternating-binomial coefficient of the closed boundary form.

    C(l, m, n) = (1/l) * sum_{j=0}^{m} (-1)^j binom(l, j) binom(n-m-1+2j, l-1).

    The ``lower_shift`` parameter exists for the symbolic adjudication test
    only: shifting the lower binomial index by one reproduces a competing
    transcription of the same table, and the two-point identity check
    (:func:`closed_form_gap`) singles out the correct one.
    """
    if not (1 <= l <= 2 * n - 1):
        raise ValueError(f"first index must lie in 1..2n-1, got l={l} for n={n}")
    if not (0 <= m <= min(l - 1, n - 1)):
        raise ValueError(f"second index must lie in 0..min(l-1,n-1), got m={m}")
    total = Fraction(0)
    for j in range(m + 1):
        total += (-1) ** j * math.comb(l, j) * math.comb(
            max(n - m - 1 + 2 * j + lower_shift, 0), l - 1
        )
    return RationalComplex.from_value(total / l)


def beta_seq(count: int) -> list[Fraction]:
    """Convolution-normalized rational sequence: b0=1, sum_j b_j b_{l-j} = 1/(2l+1)."""
    if count < 1:
        raise ValueError("need at least one term")
    betas = [Fraction(1)]
    for l in range(1, count):
        inner = sum((betas[j] * betas[l - j] for j in range(1, l)), Fraction(0))
        betas.append(Fraction(1, 2) * (Fraction(1, 2 * l + 1) - inner))
    return betas


# ---------------------------------------------------------------------------
# scaled small-momentum chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsChain:
    """Chain of scaled solutions at puncture radius eps.

    The l-th member equals  unit * sqrt(root) * members[l]  where ``unit``
    is the exact fourth root of unity i**(n+1) and ``root`` = 2/eps; the
    irrational square root is kept factored so ``members`` stay exact
    (rational-coefficient) expressions, and every quadratic identity can be
    verified without leaving exact arithmetic.
    """

    n: int
    eps: Fraction
    members: tuple[ExpLaurent, ...]
    unit: RationalComplex
    root: Fraction

    def member_eval(self, l: int, z: complex) -> Callable[[np.ndarray], np.ndarray]:
        """Numeric closure for the full l-th member, prefactor included."""
        scale = complex(self.unit.to_complex()) * math.sqrt(float(self.root))
        f = self.members[l]

        def ev(x: np.ndarray) -> np.ndarray:
            return scale * np.asarray(f.eval(0.0, x, z))

        return ev


def eps_chain(model: BoundaryModel, eps: Fraction | float) -> EpsChain:
    """Build the scaled chain: member l = sum_{j<=l} (b_j / eps^{2j}) * chain[l-j]."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("puncture radius must be positive")
    n = model.n
    betas = beta_seq(max(n, 1))
    members = []
    for l in range(n):
        acc = ExpLaurent.zero()
        for j in range(l + 1):
            acc = acc + bm_assoc(model, l - j) * (betas[j] / eps ** (2 * j))
        members.append(acc)
    return EpsChain(
        n=n, eps=eps, members=tuple(members), unit=i_power(n + 1), root=Fraction(2) / eps
    )


def _pair_basis(n: int) -> dict[tuple[int, int, int], Fraction]:
    """LHS outer products in the basis eps^e * chain[a](x) * chain[b](x').

    Includes the squared prefactor unit^2 * root = (-1)^(n+1) * 2/eps, which
    is exact; keys carry the eps exponent.
    """
    betas = beta_seq(max(n, 1))
    sq = Fraction(2) * (-1) ** (n + 1)  # (i^(n+1))^2 * 2, over one eps power
    return add_terms({}, (
        ((-1 - 2 * j - 2 * jp, l - j, n - 1 - l - jp), sq * betas[j] * betas[jp])
        for l in range(n)
        for j in range(l + 1)
        for jp in range(n - l)
    ))


def outer_product_gap(model: BoundaryModel) -> dict:
    """Exact difference between the two sides of the chain outer-product identity.

    Both sides are expanded in the basis eps^e * chain[a](x) * chain[b](x');
    an empty dict certifies exact equality.  The expansion is graded in eps,
    so no radius enters.
    """
    n = model.n
    lhs = _pair_basis(n)
    # minus the right-hand side, -2(-1)^n / (2n-2l-1) on every (m, l-m) pair
    return add_terms(lhs, (
        ((-(2 * n - 2 * l - 1), m, l - m), Fraction(2 * (-1) ** n, 2 * n - 2 * l - 1))
        for l in range(n)
        for m in range(l + 1)
    ))


def convolution_gap(model: BoundaryModel) -> list[Fraction]:
    """Residuals of the scaled-coefficient convolution system, exactly.

    With a_j = unit * sqrt(2/eps) * b_j / eps^(2j), the products a_j a_{l-j}
    are rational multiples of eps^-(2l+1); the system requires their sum to
    equal -2(-1)^n / ((2l+1) eps^(2l+1)).  Returns one exact residual per
    l = 0..n-1 (all zero when the system holds).
    """
    n = model.n
    betas = beta_seq(max(n, 1))
    sq = Fraction(2) * (-1) ** (n + 1)
    out = []
    for l in range(n):
        s = sum((sq * betas[j] * betas[l - j] for j in range(l + 1)), Fraction(0))
        out.append(s - Fraction(-2 * (-1) ** n, 2 * l + 1))
    return out


# ---------------------------------------------------------------------------
# two-point trigonometric-Laurent algebra (exact closed-form adjudication)
# ---------------------------------------------------------------------------
#
# Terms are keyed (hx, hxp, a, b, e) and denote
#   exp(i*(hx/2)*eps*(x-z)) * exp(i*(hxp/2)*eps*(x'-z)) * (x-z)^a * (x'-z)^b * eps^e
# with RationalComplex coefficients.  All displacement phases exp(+-i eps z)
# cancel between the two points by construction and are tracked separately
# during assembly to prove it.

def _tp_product(*factors: dict) -> dict:
    """Product of two-point term dicts, left to right."""
    return functools.reduce(mul_terms, factors)


def _negated(a: dict) -> Iterable[tuple[tuple, RationalComplex]]:
    return ((key, -v) for key, v in a.items())


_HALF_I = RationalComplex(Fraction(0), Fraction(1, 2))     # i/2


def _tp_sin_delta(halves: int, c: RationalComplex | Fraction | int = 1) -> dict:
    """c * sin((halves/2) * eps * (x - x')) expanded in two-point waves."""
    c = RationalComplex.from_value(c)
    return {(halves, -halves, 0, 0, 0): -_HALF_I * c, (-halves, halves, 0, 0, 0): _HALF_I * c}


def _tp_cos_delta(halves: int, c: RationalComplex | Fraction | int = 1) -> dict:
    """c * cos((halves/2) * eps * (x - x')) expanded in two-point waves."""
    half = RationalComplex.from_value(c) * Fraction(1, 2)
    return {(halves, -halves, 0, 0, 0): half, (-halves, halves, 0, 0, 0): half}


def _tp_mono(a: int = 0, b: int = 0, e: int = 0, c: RationalComplex | Fraction | int = 1) -> dict:
    return {(0, 0, a, b, e): RationalComplex.from_value(c)}


def _solution_at_puncture(m: int, eta: int, var: int, z_units: list[int]) -> dict:
    """The index-m generic solution at spectral value eta*eps, on point ``var``.

    eta = +-1 picks the puncture edge.  The displacement-phase unit count
    (eta per factor) is appended to ``z_units`` so the caller can verify the
    exact cancellation.  The shared (2*pi)^(-1/2) is dropped here; callers
    account for one factor of 1/(2*pi) per solution pair.
    """
    F = bm_scatter(BoundaryModel(m))
    z_units.append(eta)

    def key(p: int, kpow: int) -> tuple:
        # the wave exp(i*eta*eps*(x-z)) is two half-units on point ``var``
        return (2 * eta, 0, p, 0, kpow) if var == 0 else (0, 2 * eta, 0, p, kpow)

    # F has k-power mk; dividing by k^m leaves mk - m <= 0
    return {key(p, mk - m): c * Fraction(eta) ** (mk - m) for (mk, p), c in F.terms.items()}


def _boundary_bracket(n: int) -> dict:
    """The endpoint-difference block of the first closed form, times 2*pi.

    Sum over l of ratio^l * [sol_{n-l-1}(x;k) sol_{n-l}(x';-k) / (i(x-z))]
    evaluated at k = +eps minus k = -eps.  The two solutions carry exactly
    cancelling displacement phases, asserted here.
    """
    total: dict = {}
    for l in range(n):
        for eta in (1, -1):
            z_units: list[int] = []
            left = _solution_at_puncture(n - l - 1, eta, 0, z_units)
            right = _solution_at_puncture(n - l, -eta, 1, z_units)
            assert sum(z_units) == 0  # displacement phases cancel exactly
            # ratio^l / (i(x-z)), and (+eps) minus (-eps) through eta
            factor = _tp_mono(a=-l - 1, b=l, c=RationalComplex(Fraction(0), Fraction(-eta)))
            add_terms(total, _tp_product(left, right, factor).items())
    return total


def _boundary_blocks(n: int, lower_shift: int) -> tuple[dict, dict]:
    """The cos- and sin-proportional coefficient blocks of form 2, times 2*pi."""
    cos_block: dict = {}
    for l in range(n):
        for m in range(min(2 * l, n - 1) + 1):
            c = coeff_C(2 * l + 1, m, n, lower_shift).re * Fraction(
                math.factorial(n + 2 * l + 1 - m), math.factorial(n - 1 - m)
            )
            coeff = Fraction(-1, 4) ** l * c * Fraction(-1)
            mono = _tp_mono(a=-(m + 1), b=m - 2 * l - 1, e=-2 * l - 1, c=coeff)
            add_terms(cos_block, _tp_product(_tp_cos_delta(2), mono).items())
    sin_block: dict = {}
    for l in range(1, n):
        for m in range(min(2 * l - 1, n - 1) + 1):
            c = coeff_C(2 * l, m, n, lower_shift).re * Fraction(
                math.factorial(n + 2 * l - m), math.factorial(n - 1 - m)
            )
            coeff = Fraction(-1, 4) ** l * c * Fraction(2)
            mono = _tp_mono(a=-(m + 1), b=m - 2 * l, e=-2 * l, c=coeff)
            add_terms(sin_block, _tp_product(_tp_sin_delta(2), mono).items())
    return cos_block, sin_block


def _sinc_difference(n: int) -> dict:
    """(ratio^n - 1) * sin(eps*(x-x'))/(x-x'), times 2*pi (i.e. coefficient 2).

    The 1/(x-x') pole cancels against (ratio^n - 1); the quotient expands as
    -sum_j (x'-z)^j (x-z)^(-1-j), a pure two-point Laurent sum.
    """
    quotient = {(0, 0, -1 - j, j, 0): RationalComplex(Fraction(-2)) for j in range(n)}
    return _tp_product(_tp_sin_delta(2), quotient)


def closed_form_gap(n: int, lower_shift: int = 0) -> dict:
    """Exact difference of the two closed forms of the boundary resolution.

    Empty dict <=> the endpoint-difference form and the coefficient-table
    form agree identically (the shared principal-range spectral integral
    cancels).  Running this with ``lower_shift`` of 0 vs 1 adjudicates the
    two transcriptions of the coefficient table.
    """
    cos_block, sin_block = _boundary_blocks(n, lower_shift)
    # form1 - form2 also carries (ratio^n - 1) * sinc
    return add_terms(_boundary_bracket(n), itertools.chain(
        _negated(cos_block), _negated(sin_block), _sinc_difference(n).items()
    ))


def _chain_block(model: BoundaryModel) -> dict:
    """The scaled-chain outer product sum_l member_l(x) member_{n-1-l}(x'), times 2*pi.

    The pair basis with each chain[a] written out as its zero-energy terms;
    the two factors (2*pi)^(-1/2) of the members make the shared 1/(2*pi).
    """
    return add_terms({}, (
        ((0, 0, pa, pb, e), ca * cb * c)
        for (e, a, b), c in _pair_basis(model.n).items()
        for ((_, pa), ca), ((_, pb), cb) in itertools.product(
            bm_assoc(model, a).terms.items(), bm_assoc(model, b).terms.items()
        )
    ))


def _delta_pow(d: int) -> dict:
    """(x - x')^d expanded around z: sum_i binom(d, i) (x-z)^i (-(x'-z))^(d-i)."""
    return {
        (0, 0, i, d - i, 0): RationalComplex(Fraction(math.comb(d, i) * (-1) ** (d - i)))
        for i in range(d + 1)
    }


def _n2_trig_blocks() -> dict[str, dict]:
    """The three explicit index-2 trigonometric terms, times 2*pi (D = x - x').

      pair   : 6 sin^2(eps D/2) / (pi eps (x-z)(x'-z))
      odd    : 12 D sin^2(eps D/4) sin(eps D/2) / (pi eps^2 (x-z)^2 (x'-z)^2)
      square : 3 [eps D - 2 sin(eps D/2)]^2 / (2 pi eps^3 (x-z)^2 (x'-z)^2)
    """
    pair = _tp_product(_tp_sin_delta(1), _tp_sin_delta(1), _tp_mono(a=-1, b=-1, e=-1, c=12))
    # sin^2(eD/4) sin(eD/2) = sin(eD/2)/2 - sin(eD)/4
    trig = add_terms(_tp_sin_delta(1, Fraction(1, 2)), _tp_sin_delta(2, Fraction(-1, 4)).items())
    odd = _tp_product(_delta_pow(1), trig, _tp_mono(a=-2, b=-2, e=-2, c=24))
    # [eD - 2 sin(eD/2)]^2 = e^2 D^2 - 4 e D sin(eD/2) + 2 - 2 cos(eD), exactly
    square = add_terms(_tp_product(_delta_pow(2), _tp_mono(e=2)), itertools.chain(
        _tp_product(_delta_pow(1), _tp_sin_delta(1), _tp_mono(e=1, c=-4)).items(),
        _tp_mono(c=2).items(),
        _tp_cos_delta(2, -2).items(),
    ))
    return {"pair": pair, "odd": odd, "square": _tp_product(square, _tp_mono(a=-2, b=-2, e=-3, c=3))}


def _n2_rearranged_gap() -> dict:
    """Exact gap between the index-2 trigonometric rearrangement and form 1.

    The rearranged kernel replaces the coefficient blocks by the scaled-chain
    outer product plus three explicit trigonometric terms; equality with the
    endpoint-difference form certifies it, again up to the shared spectral
    integral.  All terms times 2*pi.
    """
    # the full sinc sin(eps D)/(pi D) has no two-point Laurent expansion, but
    # rearranged - form1 carries it as (1 - ratio^2) sinc, which has one:
    #   chain + pair + odd + square + (1 - ratio^2) sinc - bracket
    return add_terms(_chain_block(BoundaryModel(2)), itertools.chain(
        *(block.items() for block in _n2_trig_blocks().values()),
        _negated(_sinc_difference(2)), _negated(_boundary_bracket(2)),
    ))


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

# largest order of a hermite:N test function.  The spectral integrals take an
# absolute tolerance while f grows like H_N, about 1e7 at N = 13: the res3
# sweep at n = 2 and eps 0.4 converges at N = 13 (1433 and 3261 panels) and
# at N = 14 hits the 4000-panel cap on both halves in the boundary family
# and in the interior one (res12, res13), returning values 5-30% off.
_MAX_HERMITE_ORDER = 13


def _check_packet(center: float, width: float) -> None:
    if not math.isfinite(center):
        raise ValueError(f"test-function center must be finite, got {center!r}")
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"test-function width must be finite and positive, got {width!r}")


@dataclass(frozen=True)
class TestFunction:
    """Concrete probe for the reconstruction schemes, with known decay class.

    kinds: "gaussian" (center, width), "hermite_gaussian" (order, center,
    width), "rational_decay" (exponent q, f = (1+x^2)^-q), "chain"
    (a member of one of the model families; ref is ("assoc", l), or
    ("psi0",) or ("psi1",), the interior member's name).
    """

    __test__ = False  # not a pytest collection target despite the name

    kind: str
    center: float = 0.0
    width: float = 1.0
    order: int = 0
    exponent: int = 1
    ref: tuple = ()

    @staticmethod
    def gaussian(center: float = 0.0, width: float = 1.0) -> "TestFunction":
        _check_packet(center, width)
        return TestFunction(kind="gaussian", center=center, width=width)

    @staticmethod
    def hermite_gaussian(order: int, center: float = 0.0, width: float = 1.0) -> "TestFunction":
        if order < 0:
            raise ValueError("Hermite order must be >= 0")
        if order > _MAX_HERMITE_ORDER:
            raise ValueError(f"hermite:{order} is out of range (order <= {_MAX_HERMITE_ORDER})")
        _check_packet(center, width)
        return TestFunction(kind="hermite_gaussian", center=center, width=width, order=order)

    @staticmethod
    def rational_decay(exponent: int) -> "TestFunction":
        if exponent < 1:
            raise ValueError("decay exponent must be >= 1")
        return TestFunction(kind="rational_decay", exponent=exponent)

    @staticmethod
    def chain_boundary(l: int) -> "TestFunction":
        return TestFunction(kind="chain", ref=("assoc", l))

    @staticmethod
    def chain_interior(which: int) -> "TestFunction":
        if which not in (0, 1):
            raise ValueError("interior chain members are 0 (bounded) and 1 (partner)")
        return TestFunction(kind="chain", ref=(f"psi{which}",))

    # -- evaluation --------------------------------------------------------
    def make_eval(self, model) -> Callable[[np.ndarray], np.ndarray]:
        if self.kind == "gaussian":
            c, w = self.center, self.width
            return lambda x: np.exp(-(((np.asarray(x) - c) / w) ** 2)) + 0j
        if self.kind == "hermite_gaussian":
            c, w, order = self.center, self.width, self.order

            def ev(x):
                t = (np.asarray(x) - c) / w
                return hermite_values(order, t)[order] * np.exp(-t * t) + 0j

            return ev
        if self.kind == "rational_decay":
            q = self.exponent
            return lambda x: (1.0 + np.asarray(x) ** 2) ** (-q) + 0j
        if self.kind == "chain":
            if self.ref[0] == "assoc":
                f = bm_assoc(model, self.ref[1])
                return lambda x: np.asarray(f.eval(0.0, x, model.z))
            member = self.ref[0]
            return lambda x: np.atleast_1d(im_member(model, member, np.asarray(x, dtype=np.float64)))
        raise ValueError(f"unknown test function kind {self.kind!r}")

    def window(self) -> float:
        """Half-width outside which a localized function is numerically negligible.

        Chain members have none: their integrals split at a fixed window and
        take exact tails beyond it.
        """
        if self.kind == "rational_decay":
            return min(10.0 ** (9.0 / (2 * self.exponent)) + 5.0, 2000.0)
        return abs(self.center) + self.width * (9.0 + 0.6 * self.order)

    @property
    def is_chain(self) -> bool:
        return self.kind == "chain"

    def check_model(self, model: BoundaryModel | InteriorModel) -> None:
        """Raise ValueError unless this function fits ``model``'s family.

        Boundary chain members exist for 0 <= l < n only; the interior members
        belong to the interior family.  Non-chain kinds fit both families.
        """
        if not self.is_chain:
            return
        if self.ref[0] != "assoc":
            if not isinstance(model, InteriorModel):
                raise ValueError("interior chain members apply to the interior family only")
        elif not isinstance(model, BoundaryModel):
            raise ValueError("boundary chain members apply to the boundary family only")
        elif not 0 <= self.ref[1] < model.n:
            raise ValueError(f"boundary chain members at index {model.n} are 0 <= l < {model.n}, got {self.ref[1]}")


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------

class SchemeId(enum.Enum):
    RES3 = "res3"
    RES5 = "res5"
    INT5 = "int5"
    RES9 = "res9"
    RES7 = "res7"
    RES10 = "res10"
    RES6 = "res6"
    RES13 = "res13"
    RES11 = "res11"
    RES12 = "res12"
    INT04 = "int04"


_INTERIOR_IDS = {SchemeId.RES13, SchemeId.RES11, SchemeId.RES12, SchemeId.INT04}
_N2_ONLY = {SchemeId.RES9, SchemeId.RES7, SchemeId.RES10, SchemeId.RES6}
# the boundary schemes built on the scaled-chain outer product, each with the
# index-2 trigonometric terms it adds; res3 and res5 use the coefficient
# table instead
_CHAIN_SCHEMES = {
    SchemeId.INT5: (),
    SchemeId.RES6: (),
    SchemeId.RES10: ("odd", "square"),
    SchemeId.RES7: ("pair", "odd", "square"),
    SchemeId.RES9: ("pair", "odd", "square"),
}


@dataclass(frozen=True)
class Scheme:
    """A reconstruction scheme bound to a concrete model."""

    kind: SchemeId
    model: BoundaryModel | InteriorModel

    def __post_init__(self) -> None:
        interior = isinstance(self.model, InteriorModel)
        if interior != (self.kind in _INTERIOR_IDS):
            raise ValueError(f"scheme {self.kind.value} does not apply to this model family")
        if self.kind in _N2_ONLY and self.model.n != 2:
            raise ValueError(f"scheme {self.kind.value} is defined for the index-2 model only")


# ---------------------------------------------------------------------------
# boundary transforms
# ---------------------------------------------------------------------------

# most panels of a composite grid: 2^15 panels hold 524288 nodes, 8 MB per
# value row, while a far-off or wide packet (gaussian:1e6,1) would ask for
# millions.  The tests' layouts reach 4001 panels (a radius-2000 moment), the
# benchmark's about 100; the interior rational:1 layout, 4000 (71 + 2 alpha)/9
# panels, fits up to alpha = 1.36.
_MAX_PANELS = 2**15


def _panels_for(f: TestFunction, k_max: float, model: InteriorModel | None = None,
                X: float = TRANSFORM_WINDOW) -> tuple[float, float, int]:
    """Equal-panel layout (lo, hi, n_panels) of the 16-point composite Gauss
    grid resolving both f's support and e^{ikx} phases up to k_max.

    For the interior family (``model`` given) an interior chain member spans
    the window [-X, X], and no panel is wider than :func:`im_zero_gap`, the
    distance of W's complex zeros from the real axis.  A layout of more than
    ``_MAX_PANELS`` panels is out of range: ValueError, before any grid is
    built.
    """
    W = X if f.is_chain else f.window()
    h = min(0.5, 9.0 / max(k_max, 1.0))
    gap = math.inf if model is None else im_zero_gap(model)
    n_panels = max(8, math.ceil(2 * W / min(h, gap)))
    if n_panels > _MAX_PANELS:
        if gap < h:
            raise ValueError(
                f"Im z = {model.z.imag:g} (--z) is out of range: W's complex zeros come within {gap:.3g} of the "
                f"real axis, and panels that narrow need {n_panels} over [-{W:g}, {W:g}], more than {_MAX_PANELS}"
            )
        if f.is_chain:
            name = f"chain:{f.ref[1]}" if f.ref[0] == "assoc" else f.ref[0]
            at = "" if model is None else f" at alpha {model.alpha:g}"
            what = f"{name}{at} over the window [-{W:g}, {W:g}]"
        elif f.kind == "rational_decay":
            what = f"rational:{f.exponent}"
        else:
            what = f"{f.kind} at center {f.center!r} with width {f.width!r}"
        raise ValueError(f"test function {what} needs {n_panels} grid panels, more than {_MAX_PANELS}")
    return -W, W, n_panels


def _spectral_reach(f: TestFunction) -> float:
    if f.kind in ("gaussian", "hermite_gaussian"):
        return 6.0 + 16.0 / f.width + 1.2 * f.order
    if f.kind == "rational_decay":
        return 45.0
    # boundary chain members only, whose transforms decay like k^m e^{-k Im z};
    # an interior member has no transform, and its pair grid is sized by the
    # waves it serves (_chain_pair)
    return 42.0


# extra k-range for interior transforms of localized packets, whose decay is
# set by the denominator's complex zeros rather than the packet bandwidth
_INTERIOR_REACH_PAD = 26.0

# largest q of a rational:q test function with closed boundary moments.  The
# moments stay within ~1e-14 of their size up to q = 130 (from q = 171 the
# (q-1)! of the partial fractions overflows a float), but the spectral
# integral stops at _spectral_reach = 45, where the transform of (1+x^2)^-q,
# about e^{-k^2/(4q)}, grows with q: the exact res3 scheme at x' = 0 (n = 1
# and 2) misses by 2.5e-12 at q = 12, 7.6e-11 at q = 16 and 1.0e-9, the
# default quadrature tolerance, at q = 20, doubling per unit of q.  q <= 16
# keeps that truncation a tenth of the tolerance.
_MAX_RATIONAL_EXPONENT = 16

# largest eps * |Im z| of a boundary scheme with oscillating closed blocks:
# a term with frequency h eps/2 applies e^{-i (h/2) eps z} and its partner
# e^{-i (h/2) eps (x'-z)}, each of size up to e^{eps |Im z|} for |h| <= 2.
# Their product has modulus 1, but either factor alone leaves the float range
# at about 709.8, and at 700 both (and their reciprocals) are still normal.
_MAX_BLOCK_GROWTH = 700.0

# (omega, qs) -> the moments of f that _f_osc_moment evaluates, one row per
# q of qs: shape (len(qs),) + shape of omega
_Moment = Callable[[np.ndarray | complex, Sequence[int]], np.ndarray]
# (mu array, xp) -> the interior pair moments of f, one per mu (_pair_moments)
_Pair = Callable[[np.ndarray, float], np.ndarray]


def _tabulated(
    values: Callable[[np.ndarray], np.ndarray], points: Iterable[float],
) -> Callable[[np.ndarray | float], np.ndarray]:
    """``values`` of the distinct ``points``, in first-seen order, from one
    call; the returned function reads any array of them off that table,
    along its last axis.

    A radius sweep's closed blocks read their moments this way, so that
    they cost one moment call per sweep instead of one per radius and wave.
    Each point's value is the one a call with that point alone would give
    (the moments' phase sums and tails are batch-invariant), so a sweep
    stays bitwise equal to its one-radius calls.
    """
    keys = list(dict.fromkeys(points))
    table = values(np.array(keys, dtype=np.float64))
    at = {w: i for i, w in enumerate(keys)}

    def read(w: np.ndarray | float) -> np.ndarray:
        got = table[..., [at[x] for x in np.ravel(w).tolist()]]
        return got.reshape(table.shape[:-1] + np.shape(w))

    return read


def _pf_decompose(centers: Sequence[tuple[complex, int]]) -> list[tuple[complex, int, complex]]:
    """Partial fractions of prod (x-c)^(-p) over distinct centers.

    Returns triples (center, power j, coefficient) with sum c/(x-center)^j
    reproducing the product.  Uses exact Leibniz differentiation of the
    complementary factors in a tiny multi-exponent basis.
    """
    out = []
    for t, (ct, pt) in enumerate(centers):
        # complementary product as dict {exponent vector: coeff}
        others = [(cs, ps) for s, (cs, ps) in enumerate(centers) if s != t]
        # represent g(x) = prod (x-cs)^(-es); derivatives stay in this family
        state: dict[tuple[int, ...], complex] = {tuple(ps for _, ps in others): 1.0 + 0.0j}

        def eval_state(st):
            total = 0.0 + 0.0j
            for exps, coeff in st.items():
                v = coeff
                for (cs, _), e in zip(others, exps):
                    v = v / (ct - cs) ** e
                total += v
            return total

        for j in range(pt, 0, -1):
            out.append((ct, j, eval_state(state) / math.factorial(pt - j)))
            # d/dx of (x-cs)^(-e) raises e by one, with factor -e
            state = add_terms({}, (
                (exps[:idx] + (e + 1,) + exps[idx + 1:], coeff * (-e))
                for exps, coeff in state.items()
                for idx, e in enumerate(exps)
            ))
    return out


def _merged_centers(pairs: Iterable[tuple[complex, int]]) -> list[tuple[complex, int]]:
    # coinciding pole locations must enter the decomposition as one center
    out: list[tuple[complex, int]] = []
    for ct, p in pairs:
        for i, (c0, p0) in enumerate(out):
            if abs(complex(ct) - c0) < 1e-12:
                out[i] = (c0, p0 + int(p))
                break
        else:
            out.append((complex(ct), int(p)))
    return out


def _moment_row(values: np.ndarray, xz: np.ndarray, q: int) -> np.ndarray:
    # f(x) (x-z)^(-q) on the nodes of a grid moment, built once per distinct q
    return values * xz ** (-q)


def _real_frequencies(omega: np.ndarray | complex) -> np.ndarray:
    # the closed moments are residue forms of a real frequency
    w = np.asarray(omega)
    if np.iscomplexobj(w):
        if np.any(np.abs(w.imag) > 1e-12):
            raise ValueError("closed moments are defined on the real spectral axis")
        w = w.real
    return w


def _f_osc_moment(model: BoundaryModel, f: TestFunction, reach: float = 0.0) -> _Moment:
    """(omega, qs) -> integral of f(x) e^{i omega x} (x-z)^(-q) dx for each q of qs.

    The moments of every q come stacked on a leading axis.  Closed for a
    boundary chain member, one Laurent monomial, and for a rational f, whose
    partial fractions times (x-z)^(-q) are built once per q: each term is one
    :func:`ft_inverse_power` call over a whole real omega array.  A localized
    f takes one stacked panel-separable phase sum (:func:`composite_phase_sums`)
    on the 16-point composite grid of :func:`_panels_for`, which resolves
    phases up to the larger of f's spectral reach and ``reach``; the value
    row f(x) (x-z)^(-q) is built once per distinct q, at its first call, and
    omega may be complex there (the deformed contours of
    :func:`apply_base_resolution`).
    """
    z = model.z
    if f.kind == "chain":
        (((_, p), c),) = bm_assoc(model, f.ref[1]).terms.items()
        c = c.to_complex() * (2 * math.pi) ** -0.5

        def chain_moment(omega: np.ndarray | complex, qs: Sequence[int]) -> np.ndarray:
            w = _real_frequencies(omega)
            return np.array([c * ft_inverse_power(q - p, w, z) for q in qs])

        return chain_moment
    if f.kind == "rational_decay":
        Q = f.exponent
        if Q > _MAX_RATIONAL_EXPONENT:
            raise ValueError(f"rational:{Q} is out of range for the boundary family (q <= {_MAX_RATIONAL_EXPONENT})")

        @functools.cache
        def fractions(q: int) -> list[tuple[complex, int, complex]]:
            return _pf_decompose(_merged_centers([(1j, Q), (-1j, Q)] + ([(z, q)] if q > 0 else [])))

        def rational_moment(omega: np.ndarray | complex, qs: Sequence[int]) -> np.ndarray:
            w = _real_frequencies(omega)
            return np.array([sum(c * ft_inverse_power(j, w, ct) for ct, j, c in fractions(q)) for q in qs])

        return rational_moment
    layout = _panels_for(f, max(_spectral_reach(f), reach))
    nodes, _ = composite_gauss(*layout, 16)
    values, xz = f.make_eval(model)(nodes), nodes - z
    row = functools.cache(lambda q: _moment_row(values, xz, q))

    def grid_moment(omega: np.ndarray | complex, qs: Sequence[int]) -> np.ndarray:
        sums = composite_phase_sums(*layout, 16, np.stack([row(q) for q in qs]), np.ravel(omega))
        return sums.reshape(sums.shape[:1] + np.shape(omega))

    return grid_moment


def _boundary_transform(
    model: BoundaryModel, f: TestFunction, moment: _Moment,
) -> Callable[[np.ndarray], np.ndarray]:
    """k-array -> integral of f(x) * (generic solution at k) over x.

    The solution carries the phase e^{ikx}, so its terms c k^m (x-z)^p make
    the closed sum of c k^m moment(k, -p), with ``moment`` the
    :func:`_f_osc_moment` of f, for every kind of f.  The generic solution
    is the k-scaled expression divided by k^n.
    """
    n = model.n
    F = bm_scatter(model)
    ms, ps, cs = F.to_term_arrays()
    scale = (2 * math.pi) ** (-0.5 * F.unit_pow)
    qs = tuple(-int(p) for p in ps)

    def T(k: np.ndarray) -> np.ndarray:
        karr = np.atleast_1d(np.asarray(k, dtype=np.complex128))
        out = sum(c * karr ** int(m) * row for m, c, row in zip(ms, cs, moment(karr, qs)))
        return out * scale / karr**n

    return T


def _spectral_integrand(
    model: BoundaryModel | InteriorModel, transform: Callable[[np.ndarray], np.ndarray], xp: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """k -> transform(k) * psi(x'; -k), the spectral integrand of either family.

    ``transform`` is the family's transform of f; the boundary solution's
    exact expression is built once here, not per quadrature panel.
    """
    if isinstance(model, BoundaryModel):
        F = bm_scatter(model)

        def psi(k: np.ndarray) -> np.ndarray:
            return np.asarray(F.eval(k, xp, model.z)) / k**model.n

    else:
        def psi(k: np.ndarray) -> np.ndarray:
            return interior_psi_grid(np.atleast_1d(k), np.array([xp]), model.alpha, model.z, False)[:, 0]

    def integrand(k: np.ndarray) -> np.ndarray:
        karr = np.asarray(k, dtype=np.complex128)
        return np.asarray(transform(karr)) * psi(-karr)

    return integrand


def _ladder_bands(a: float, eps: float, K: float) -> list[tuple[float, float]]:
    """The k-bands of a range punctured at +-a (the boundary family's k = 0
    at a = 0) at radius eps and cutoff K.

    Around each puncture +-a, the offsets |k -+ a| from eps outward are cut
    at the powers of two above eps: a radius integrates its own band
    [eps, 2^ceil(log2 eps)] and then the shared ladder bands [2^j, 2^(j+1)].
    Away from k = 0 the rungs double up to |k| = K, where the last band
    stops; toward k = 0 they run up to offset a, where the ladders of the
    two punctures meet.  Only the first band depends on eps, so the radii of
    a sweep share the rest (the geometric grading toward a singularity of
    hp-quadrature: Schwab, p- and hp-Finite Element Methods, 1998).  The
    bands are listed by ascending k; empty ones are dropped.
    """
    first = math.ldexp(1.0, math.frexp(eps)[1])  # the least power of two above eps

    def rungs(top: float) -> list[float]:
        # eps, then the powers of two in (eps, top)
        out, r = [eps], first
        while r < top:
            out.append(r)
            r *= 2.0
        return out

    outward = [a + t for t in rungs(K - a)] + [K]
    inward = [0.0] + [a - t for t in reversed(rungs(a))]
    right = list(zip(inward[:-1], inward[1:])) + list(zip(outward[:-1], outward[1:]))
    right = [(lo, hi) for lo, hi in right if hi > lo]
    return [(-hi, -lo) for lo, hi in reversed(right)] + right


def _spectral_range(model: BoundaryModel | InteriorModel, f: TestFunction) -> float:
    """The k-range of f's spectral integral below any cutoff A: its spectral
    reach, for the interior family plus the potential's harmonics and
    :data:`_INTERIOR_REACH_PAD`."""
    if isinstance(model, InteriorModel):
        return _spectral_reach(f) + 3 * model.alpha + _INTERIOR_REACH_PAD
    return _spectral_reach(f)


def _spectral_integrals(
    model: BoundaryModel | InteriorModel, f: TestFunction, integrand: Callable[[np.ndarray], np.ndarray],
    radii: Sequence[float], cutoffs: Sequence[float], tol: float,
) -> list[complex]:
    """The spectral integral of every (radius, cutoff) of a sweep, as the
    pieces of one :func:`_adaptive` call.

    ``integrand`` is the :func:`_spectral_integrand` of f, which does not
    depend on the radius; the range stops at K = min(cutoff, reach).  Both
    families integrate the :func:`_ladder_bands` of each radius, about the
    punctures +-a of the interior family and k = 0 of the boundary family.
    An interior band takes tol * width / (2 max(K, a)), so that one radius's
    bands share less than ``tol``.  A boundary band takes ``tol`` over the
    reference span K: its panels keep the thresholds tol * max(width / K,
    1e-3) of a side (eps, K) in one piece, with the absolute floor that a
    band's own span would shrink next to the pole at k = 0.  A piece is
    keyed by its edges, tolerance and span, so a sweep computes each shared
    band once and a scalar call computes the same pieces: each radius's
    value is bitwise the one of a one-radius call.  Each radius adds its
    pieces by ascending k.
    """
    interior = isinstance(model, InteriorModel)
    a = model.alpha if interior else 0.0
    reach = _spectral_range(model, f)
    keys: dict[tuple[float, float, float, float], int] = {}
    per_radius = []
    for eps, cut in zip(radii, cutoffs):
        K = min(cut, reach)
        share = tol / (2 * max(K, a))
        pieces = [(lo, hi, share * (hi - lo), hi - lo) if interior else (lo, hi, tol, K)
                  for lo, hi in _ladder_bands(a, eps, K)]
        per_radius.append([keys.setdefault(p, len(keys)) for p in pieces])
    lo, hi, tols, spans = np.array(list(keys), dtype=np.float64).reshape(-1, 4).T
    values = _adaptive(integrand, lo, hi, tols, span=spans).value.tolist()
    return [sum((values[i] for i in idx[1:]), values[idx[0]]) if idx else 0.0 + 0.0j for idx in per_radius]


def _sinc_grid(
    model: BoundaryModel, f: TestFunction, eps: float, xp: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The kappa nodes and weights of :func:`_sinc_band` at radius eps, or
    None where the block is f(x') itself."""
    if f.is_chain and 2 * f.ref[1] >= model.n:
        return None
    if f.kind in ("gaussian", "hermite_gaussian"):
        band, extent = min(eps, _spectral_reach(f)), f.window()
    else:
        band, extent = eps, abs(model.z) + 1.0
    per_half = max(1, math.ceil(band * (extent + abs(xp)) / 8.0))
    return composite_gauss(-band, band, 2 * per_half, 16)


def _sinc_band(model: BoundaryModel, f: TestFunction, moment: _Moment, eps: float, xp: float) -> complex:
    """The sinc kernel sin(eps(x-x'))/(pi(x-x')) applied to f, at x'.

    sin(eps u)/(pi u) = (1/2pi) integral of e^{i kappa u} over |kappa| < eps,
    so the block is (1/2pi) integral of e^{-i kappa x'} moment(kappa, 0) over
    the band, with ``moment`` the :func:`_f_osc_moment` of f.  The closed
    chain and rational moments kink at kappa = 0 and are analytic on each
    half, so the band (:func:`_sinc_grid`) takes 16-node Gauss-Legendre on
    [-eps, 0] and on [0, eps] separately, on equal panels that keep the
    phase of e^{i kappa (x - x')} below 8 per panel, with x over f's window
    or, for the closed moments, the poles (one panel per half at the radii
    of the default sweeps).  A localized f's transform is negligible past
    its spectral reach, where the spectral integral stops too, so its band
    stops there: the cost holds still as eps grows.  A chain member
    (x-z)^p with p >= 0 has a moment supported at kappa = 0, inside every
    band, and the kernel reproduces it: the block is f(x').
    """
    grid = _sinc_grid(model, f, eps, xp)
    if grid is None:
        return complex(f.make_eval(model)(np.array([xp]))[0])
    kappa, weights = grid
    (m0,) = moment(kappa, (0,))
    return complex(np.sum(weights * np.exp(-1j * kappa * xp) * m0)) / (2 * math.pi)


def _sinc_applied(model: InteriorModel, f: TestFunction, eps: float, xp: float, alpha: float) -> complex:
    """integral of 2 f(x) cos(alpha (x-xp)) sin(eps (x-xp))/(pi (x-xp)) dx,
    the band kernel of the interior scheme res13."""
    ev = f.make_eval(model)
    W = f.window() if not f.is_chain else max(300.0, 12.0 / eps)

    def integrand(x: np.ndarray) -> np.ndarray:
        u = np.asarray(x) - xp
        base = (eps / math.pi) * np.sinc(eps * u / math.pi) * np.cos(alpha * u)
        return 2.0 * ev(x) * base

    return _adaptive_oscillatory(integrand, -W, W, 1e-11, eps + alpha + 1.0).value


def _partner_cross(model: InteriorModel, f: TestFunction, eps: float, xp: float) -> complex:
    """-(1/pi) integral of f(x) (psi0(x) psi1(xp) + psi1(x) psi0(xp)) J(x - xp) dx,
    the partner cross terms of res13, with the band integral
    J(D) = Ci((2a+eps)|D|) - Ci((2a-eps)|D|), evaluated once per node.

    Ci comes from scipy, imported here, the package's only scipy call, so
    that the other commands load without it; ROADMAP item 4 retires this
    window and the import with it."""
    from scipy.special import sici

    a = model.alpha
    p0_xp, p1_xp = im_psi0(model, xp), im_psi1(model, xp)
    ev_f = f.make_eval(model)
    W = f.window() if not f.is_chain else 400.0
    flat = math.log((2 * a + eps) / (2 * a - eps))

    def integrand(x: np.ndarray) -> np.ndarray:
        d = np.abs(np.asarray(x) - xp)
        j = np.where(d < 1e-12, flat, sici((2 * a + eps) * d)[1] - sici((2 * a - eps) * d)[1])
        return ev_f(x) * (im_psi0(model, x) * p1_xp + im_psi1(model, x) * p0_xp) * j

    return -(1.0 / math.pi) * _adaptive_oscillatory(integrand, -W, W, 1e-11, 2 * a + eps).value


def _two_point_waves(terms: dict, eps: float) -> dict[tuple[int, int], float]:
    """(hx, a) -> mu = (hx/2) eps, the frequency of each distinct moment of
    a two-point term dict at radius eps."""
    return {(hx, a): hx / 2 * eps for hx, _, a, _, _ in terms}


def _apply_two_point(model: BoundaryModel, terms: dict, moment: _Moment, eps: float, xp: float) -> complex:
    """A two-point term dict (times 2*pi) applied as a kernel in x to f, at x'.

    The term c * e^{i(hx/2)eps(x-z)} e^{i(hxp/2)eps(x'-z)} (x-z)^a (x'-z)^b eps^e
    contributes c eps^e (x'-z)^b e^{i(hxp/2)eps(x'-z)} e^{-i mu z} times
    ``moment``, the :func:`_f_osc_moment` of f, at frequency mu = (hx/2) eps
    and q = -a (:func:`_two_point_waves`).  :func:`apply_scheme` hands in
    the moments of a whole radius sweep from one call, so each distinct
    moment is computed once per sweep.
    """
    z = model.z
    moments = {
        (hx, a): cmath.exp(-1j * mu * z) * complex(moment(mu, (-a,))[0])
        for (hx, a), mu in _two_point_waves(terms, eps).items()
    }
    total = 0.0 + 0.0j
    for (hx, hxp, a, b, e), c in terms.items():
        wave = cmath.exp(0.5j * hxp * eps * (xp - z))
        total += c.to_complex() * eps**e * (xp - z) ** b * wave * moments[hx, a]
    return total / (2 * math.pi)


# ---------------------------------------------------------------------------
# interior transforms
# ---------------------------------------------------------------------------

def _interior_transform(
    model: InteriorModel, f: TestFunction,
) -> tuple[Callable[[np.ndarray], np.ndarray] | None, _Pair]:
    """(transform, pair) of f for the interior family, on one composite grid.

    ``transform``: k array -> integral of f(x) psi(x;k) dx, three plane-wave
    transforms assembled with the explicit pole factors; ``pair``: the
    :func:`_pair_moments` of f.  An interior chain member has no transform
    to build: the Jordan chain is bilinearly orthogonal to the continuum, so
    it vanishes at every real k != +-alpha, and ``transform`` is None.  Its
    pair moments are :func:`_chain_pair`'s at TRANSFORM_WINDOW.
    """
    a = model.alpha
    if f.kind == "chain":
        return None, _chain_pair(model, f.ref[0], TRANSFORM_WINDOW)
    if f.kind not in ("gaussian", "hermite_gaussian", "rational_decay"):
        raise ValueError(f"unsupported test function kind {f.kind!r}")
    # the transform inherits an exp(-|k| Im x0) tail from the complex zeros
    # of the denominator, so the k-range outlives the packet's own
    # bandwidth; _INTERIOR_REACH_PAD pushes that tail below 1e-10
    layout = _panels_for(f, _spectral_reach(f) + 2 * a + _INTERIOR_REACH_PAD, model)
    nodes, _ = composite_gauss(*layout, 16)
    fv = f.make_eval(model)(nodes)
    pair = _pair_moments(model, layout, nodes, fv, None, TRANSFORM_WINDOW)
    # plane-wave transforms of f, f W'/W and f W''/W on the 16-point
    # composite grid, one stacked panel-separable phase sum per k array,
    # assembled with the explicit pole factor 1/(k^2 - a^2)
    W, W1, W2 = im_w_bundle(model, nodes)
    rows = np.stack([fv, fv * (W1 / W), fv * (W2 / W)])

    def transform(k: np.ndarray) -> np.ndarray:
        karr = np.atleast_1d(np.asarray(k, dtype=np.complex128))
        g0, g1, g2 = composite_phase_sums(*layout, 16, rows, karr)
        return (g0 + (1j * karr * g1 - 0.5 * g2) / (karr * karr - a * a)) / math.sqrt(2 * math.pi)

    return transform, pair


def _chain_pair(model: InteriorModel, member: str, X: float) -> _Pair:
    """The :func:`_pair_moments` of the chain member ``member`` ("psi0" or
    "psi1"), split at the window X.

    Members settle to O(1) oscillation: the grid spans [-X, X], and the
    exact large-x model of the product psi0 member takes the rest.  The grid
    is sized by the waves it serves, k_max = 5 alpha: its callers ask for
    the bracket waves |mu| <= 2 alpha + eps, and both :func:`apply_scheme`
    and :func:`reproduce_psi0_term` require eps < alpha, so |mu| < 3 alpha;
    the product psi0 member carries harmonics up to 2 alpha on top.  A chain
    member has no transform to resolve, so the spectral reach does not
    enter; W's complex zeros still cap the panel width
    (:func:`im_zero_gap`), and below Im z of about 1.09 at alpha 1 they,
    not the waves, set the layout.
    """
    f = TestFunction(kind="chain", ref=(member,))
    layout = _panels_for(f, 5 * model.alpha, model, X)
    nodes, _ = composite_gauss(*layout, 16)
    values = f.make_eval(model)(nodes)
    return _pair_moments(model, layout, nodes, values, im_tail_model(model, f"psi0*{member}", X), X)


def _pair_moments(model: InteriorModel, layout: tuple[float, float, int], nodes: np.ndarray,
                  values: np.ndarray, tail: OscRational | None, X: float) -> _Pair:
    """(mu array, xp) -> integral of f(x) psi0(x) e^{i mu (x - xp)} dx per mu.

    One :func:`composite_phase_sums` of the row f psi0 on the grid
    ``layout``, whose ``nodes`` carry f's ``values``; a chain f adds the
    exact tails beyond X of ``tail``, the large-x model of f psi0, in one
    ``integral_tails`` call over the mu array.
    """
    row = (values * im_psi0(model, nodes))[None]

    def pair(mu: np.ndarray, xp: float) -> np.ndarray:
        mu = np.asarray(mu, dtype=np.float64)
        out = composite_phase_sums(*layout, 16, row, mu)[0]
        if tail is not None:
            out = out + tail.integral_tails(X, k=mu)
        return out * np.exp(-1j * mu * xp)

    return pair


def _bracket_waves(a: float, eps: float, kind: SchemeId) -> dict[float, float]:
    """mu -> c_mu, the waves of an interior scheme's bracket at radius eps.

    res12 and int04 take the constant 1/eps; res11 takes (1/eps) cos(eps D),
    which res13 extends by
    -(eps cos(2a D) cos(eps D) + 2a sin(2a D) sin(eps D)) / (4a^2 - eps^2).
    """
    if kind in (SchemeId.RES12, SchemeId.INT04):
        return {0.0: 1.0 / eps}
    waves = {eps: 0.5 / eps, -eps: 0.5 / eps}
    if kind == SchemeId.RES13:
        for s1, s2 in itertools.product((1, -1), repeat=2):
            waves[s1 * 2 * a + s2 * eps] = 0.25 * (s1 * s2 * 2 * a - eps) / (4 * a * a - eps * eps)
    return waves


def _interior_singular_terms(
    model: InteriorModel, f: TestFunction, eps: float, xp: float, kind: SchemeId,
    pair: _Pair,
) -> complex:
    """The non-integral blocks of the interior schemes, applied to f.

    Each scheme pairs f with the bounded state in a bracket of waves,
    -(1/(pi a)) psi0(x') sum_mu c_mu P(mu), where P(mu) is the integral of
    f psi0 e^{i mu (x - x')} and the c_mu are :func:`_bracket_waves`:
    ``pair``, the second half of :func:`_interior_transform`, takes every mu
    of the bracket in one call, and :func:`apply_scheme` hands in the pair
    moments of a whole radius sweep from one call.  res13 adds its sinc and
    partner cross terms."""
    a = model.alpha
    waves = _bracket_waves(a, eps, kind)
    bracket = complex(np.dot(list(waves.values()), pair(np.array(list(waves)), xp)))
    p0_xp = im_psi0(model, xp)
    total = -(1.0 / (math.pi * a)) * bracket * p0_xp
    if kind == SchemeId.RES13:
        total += _sinc_applied(model, f, eps, xp, a)
        total += _partner_cross(model, f, eps, xp)
    return total


# ---------------------------------------------------------------------------
# scheme application
# ---------------------------------------------------------------------------

def apply_scheme(
    scheme: Scheme,
    eps: float | Sequence[float] | np.ndarray,
    A: float | Sequence[float] | np.ndarray,
    f: TestFunction,
    xp: float,
    tol: float = 1e-9,
) -> complex | np.ndarray:
    """Evaluate the scheme's reconstruction of f at the probe point.

    The spectral integral runs over the punctured range with cutoff A; the
    scheme's closed blocks are added per its definition.  Exact-identity
    schemes reproduce f(xp) at any eps up to quadrature error; reduced
    schemes approach it as eps decreases (or fail to, when f lies outside
    the scheme's admissible class -- that outcome is the experiment).

    ``eps`` and ``A`` are scalars or 1-D arrays that broadcast against each
    other, one radius sweep per call: scalars give a complex, arrays a
    complex array of the broadcast shape, each entry bitwise equal to the
    scalar call at that (eps, A).  Whatever does not depend on the radius
    is built once per call: the spectral transform of f and the closed
    blocks, and for the interior family the pair moments with their tail
    products.  The spectral integrals of all radii are the pieces of one
    batched bisection (:func:`_spectral_integrals`), whose pieces do not
    depend on the other radii of the call.  The closed blocks' moments are
    one call per sweep too (:func:`_tabulated`): every radius's bracket
    waves in one pair call for the interior family; every radius's
    two-point waves and sinc-band nodes in one :func:`_f_osc_moment` call
    for the boundary family, except at a radius past a localized f's
    spectral reach, which takes one call on a grid of its own.  The moments
    do not depend on the batch they come in.  An interior chain member (psi0
    or psi1) is bilinearly orthogonal to the continuum, so its spectral part
    is exactly zero: only its pair moments and the singular blocks are
    built.
    """
    radii, cutoffs = np.broadcast_arrays(np.asarray(eps, dtype=float), np.asarray(A, dtype=float))
    if radii.ndim > 1:
        raise ValueError("regulators must be scalars or 1-D arrays")
    # NaN fails both comparisons; a cutoff A = inf (none) is valid
    if not (np.all(np.isfinite(radii) & (radii > 0)) and np.all(cutoffs > 0)):
        raise ValueError("regulators must be positive and finite (a cutoff A may be inf: none)")
    kind, model = scheme.kind, scheme.model
    f.check_model(model)
    es, cuts = radii.ravel().tolist(), cutoffs.ravel().tolist()
    # the phases read at x' must keep their digits, as in green: e^{-ikx'}
    # up to the spectral cutoff (an interior chain member has no spectral
    # part), the closed blocks' waves up to eps, and for the interior
    # family psi0(x'), whose W holds sin(2 alpha x')
    top_k = 0.0 if kind in _INTERIOR_IDS and f.is_chain else min(max(cuts), _spectral_range(model, f))
    harmonic = 2 * model.alpha if kind in _INTERIOR_IDS else 0.0
    check_phase_range(max(top_k, max(es), harmonic), abs(xp), "--xp")
    if kind in _INTERIOR_IDS:
        # the spectral integral reaches k = +-(alpha - eps), where
        # |k^2 - alpha^2| = eps (2 alpha - eps) must not fall below POLE_GUARD
        a = model.alpha
        least = POLE_GUARD / (a + math.sqrt(max(a * a - POLE_GUARD, 0.0)))
        bad = radii[(radii < least) | (radii >= a)]
        if bad.size:
            raise ValueError(
                f"puncture radius {bad.flat[0]:g} (--eps-grid) is out of range: the interior schemes need "
                f"{least:.3g} <= eps < alpha = {a:g}, the resonance momentum (below {least:.3g} the spectral "
                f"integral comes within |k^2 - alpha^2| < {POLE_GUARD:g} of the scattering solution's poles)"
            )
        transform, pair = _interior_transform(model, f)
        # an interior chain member has no transform: its spectral part is
        # exactly zero (tests/test_resolution.py certifies it in
        # test_chain_member_transforms_vanish)
        integrand = None if transform is None else _spectral_integrand(model, transform, xp)
        # every radius's bracket reads its waves off one pair call
        shared = _tabulated(lambda mu: pair(mu, xp), (mu for e in es for mu in _bracket_waves(a, e, kind)))

        def at(e: float, spectral: complex) -> complex:
            blocks = _interior_singular_terms(model, f, e, xp, kind, lambda mu, _: shared(mu))
            return blocks if integrand is None else spectral + blocks

    else:
        # boundary family: the spectral integral, the sinc kernel (its
        # 1/(x - x') has no two-point Laurent form) and every other closed
        # block, applied from the exact dicts that the gap checks certify
        if kind in _CHAIN_SCHEMES and f.is_chain and f.ref[1] >= 1:
            # chain[l](x) * chain[n-1](x) ~ (x-z)^(2l-2) is not integrable for l >= 1
            raise ValueError(
                f"scheme {kind.value} pairs the test function with chain member {model.n - 1}, "
                f"which diverges for chain:{f.ref[1]} (and every boundary chain member l >= 1)"
            )
        moment, reach = _f_osc_moment(model, f), _spectral_reach(f)
        localized = f.kind in ("gaussian", "hermite_gaussian")
        integrand = _spectral_integrand(model, _boundary_transform(model, f, moment), xp)
        if kind in _CHAIN_SCHEMES:
            trig = _n2_trig_blocks()
            parts = (trig[p].items() for p in _CHAIN_SCHEMES[kind])
            blocks = add_terms(_chain_block(model), itertools.chain.from_iterable(parts))
        else:
            cos_block, sin_block = _boundary_blocks(model.n, 0)
            blocks = add_terms(cos_block, sin_block.items())
        rate = max((max(abs(hx), abs(hxp)) / 2 for hx, hxp, *_ in blocks), default=0)
        if np.any(rate * radii * abs(model.z.imag) > _MAX_BLOCK_GROWTH):
            raise ValueError(
                f"scheme {kind.value} needs eps * |Im z| <= {_MAX_BLOCK_GROWTH / rate:g}: its closed blocks "
                f"grow like e^(eps |Im z|) and leave the float range past that (Im z = {model.z.imag:g})"
            )
        # a radius past a localized f's spectral reach needs a grid that
        # resolves it; the closed moments hold at every radius
        own = {e for e in es if e > reach and localized}
        sinc = kind in (SchemeId.RES3, SchemeId.RES9)
        grids = [g for g in (_sinc_grid(model, f, e, xp) for e in es if sinc) if g is not None]
        qs = tuple(dict.fromkeys([-a for _, _, a, _, _ in blocks] + ([0] if grids else [])))

        def one_call(m: _Moment, omegas: Iterable[float]) -> _Moment:
            table = _tabulated(lambda omega: m(omega, qs), omegas)
            return lambda omega, want: table(omega)[[qs.index(q) for q in want]]

        waves = (mu for e in es if e not in own for mu in _two_point_waves(blocks, e).values())
        closed = one_call(moment, itertools.chain(waves, *(kappa.tolist() for kappa, _ in grids)))

        def at(e: float, total: complex) -> complex:
            if sinc:
                total += _sinc_band(model, f, closed, e, xp)
            local = closed
            if e in own:
                local = one_call(_f_osc_moment(model, f, e), _two_point_waves(blocks, e).values())
            return total + _apply_two_point(model, blocks, local, e, xp)

    spectral = [0.0 + 0.0j] * len(es)
    if integrand is not None:
        spectral = _spectral_integrals(model, f, integrand, es, cuts, tol)
    out = np.array([at(e, s) for e, s in zip(es, spectral)], dtype=np.complex128)
    return complex(out[0]) if radii.ndim == 0 else out


def apply_base_resolution(
    model: BoundaryModel | InteriorModel,
    f: TestFunction,
    xp: float,
    radius: float,
    cutoff: float,
    direction: str = "up",
    tol: float = 1e-9,
) -> complex:
    """The un-rearranged deformed-contour reconstruction of f at xp.

    The spectral path detours around the singular points (origin for the
    boundary family, both resonance momenta for the interior one) on
    semicircles of the given radius; ``direction`` picks the half-plane.
    Equality of the two directions -- the vanishing of the enclosed residue
    -- is a property of the construction that tests assert.  An interior
    chain member has no transform off the real k axis: ValueError.
    """
    if isinstance(model, BoundaryModel):
        transform = _boundary_transform(model, f, _f_osc_moment(model, f))
        centers, pad = (0.0,), 4.0
    else:
        if f.is_chain:
            # psi(x; k) grows like e^{|Im k x|} on one side off the real k
            # axis, where the detours run, and a chain member does not decay
            raise ValueError(f"the interior base resolution takes no chain member ({f.ref[0]}): its "
                             "transform against psi(x; k) diverges off the real k axis")
        transform = _interior_transform(model, f)[0]
        centers, pad = (-model.alpha, model.alpha), 4.0 + _INTERIOR_REACH_PAD
    K = min(cutoff, _spectral_reach(f) + pad)
    spec = ContourSpec(cutoff=K, epsilon=radius, direction=direction, centers=centers)
    return quad_contour(_spectral_integrand(model, transform, xp), spec, tol).value


# ---------------------------------------------------------------------------
# singular-term reproduction experiments
# ---------------------------------------------------------------------------

def reproduce_psi20_terms(model: BoundaryModel, eps: float) -> tuple[complex, complex]:
    """Closed-form values of the two index-2 singular terms on the bound member.

    The ``odd`` and ``square`` trigonometric blocks applied to the chain head:
    every moment is an exact residue transform, so no quadrature error enters
    and the returned coefficients differ from their limits 3/4 and 1/4 only by
    O(eps) remainders.  Values are normalized by the member at the probe point.
    """
    if model.n != 2:
        raise ValueError("the reproduction experiment is defined for the index-2 model")
    xp = 0.3  # fixed interior probe; the limit is xp-independent
    head = TestFunction.chain_boundary(0)
    target = complex(head.make_eval(model)(np.array([xp]))[0])
    trig, moment = _n2_trig_blocks(), _f_osc_moment(model, head)
    odd, square = (_apply_two_point(model, trig[p], moment, eps, xp) / target for p in ("odd", "square"))
    return odd, square


def reproduce_psi0_term(model: InteriorModel, eps: float, xp: float = 0.0) -> complex:
    """The bound-state reproducing term of the interior schemes, normalized.

    Evaluates (2/(pi eps a)) * integral of sin^2(eps(x-xp)/2) * member(x)^2 dx,
    whose small-eps limit is 1, from the member's pair moments with itself at
    mu = 0 and +-eps, since sin^2(eps D/2) = 1/2 - cos(eps D)/2.  At small eps
    the mass sits far out and the moments' exact tails carry it.
    """
    a = model.alpha
    if not (0 < eps < a):
        raise ValueError("puncture radius must lie in (0, resonance momentum)")
    # PAIR_WINDOW, wider than the transforms', keeps alpha down to about 0.037
    m0, mp, mm = _chain_pair(model, "psi0", PAIR_WINDOW)(np.array([0.0, eps, -eps]), xp)
    return complex((2.0 / (math.pi * eps * a)) * (0.5 * m0 - 0.25 * (mp + mm)))


def psi1_expandability(
    model: InteriorModel, eps_min: float = 0.0125, xp: float = 0.7, coupling: float = 50.0
) -> VerificationReport:
    """Probe whether the chain partner is reconstructed by the reduced scheme.

    Sweeps the puncture radius geometrically down to ``eps_min`` with the
    cutoff coupled as A = coupling/eps, reconstructing both the partner
    and a Gaussian control with one radius-array :func:`apply_scheme` call
    each.  The partner's error must hold a floor while the control's error
    vanishes; the report passes when the floor exceeds ten times the final
    control error.
    """
    if not 0 < eps_min <= 0.4:
        raise ValueError(f"eps_min must lie in (0, 0.4], the sweep's first radius, got {eps_min!r}")
    if not (math.isfinite(coupling) and coupling > 0):
        raise ValueError(f"coupling must be positive and finite, got {coupling!r}")
    scheme = Scheme(SchemeId.RES12, model)
    partner = TestFunction.chain_interior(1)
    control = TestFunction.gaussian(0.0, 1.0)
    radii: list[float] = []
    eps = 0.4
    while eps >= eps_min * 0.999:
        radii.append(eps)
        eps *= 0.5
    cutoffs = [coupling / e for e in radii]
    p1 = im_psi1(model, xp)
    c_xp = complex(control.make_eval(model)(np.array([xp]))[0])
    got_p = apply_scheme(scheme, radii, cutoffs, partner, xp)
    got_c = apply_scheme(scheme, radii, cutoffs, control, xp)
    sweep = [(e, abs(gp - p1), abs(gc - c_xp)) for e, gp, gc in zip(radii, got_p, got_c)]
    floor = min(e for _, e, _ in sweep)
    control_final = sweep[-1][2]
    residual = control_final * 10.0 / floor if floor > 0 else math.inf
    return VerificationReport(
        identity="res12-partner-floor",
        label="chain partner is not reconstructed while the control converges",
        mode="numeric",
        residual=float(residual),
        tolerance=1.0,
        trace=tuple(f"eps {e:.4g}: partner {p:.3e}, control {c:.3e}" for e, p, c in sweep),
    )
