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

__all__ = ["IndexTriple", "check_phase_range", "green", "pole_probe", "pole_order", "indexes"]

# off-diagonal probe pairs; the second witness guards against an accidental
# zero of the solution at a single probe point
_PROBES = ((0.7, -0.4), (1.3, 0.2))

_MOMENT_SAMPLES = 256

# rounding of the phase k*x past which a Green-function value is refused
_PHASE_ROUNDING = 1e-8

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
    model: BoundaryModel | InteriorModel,
    ks: np.ndarray,
    x: np.ndarray | float,
    xp: np.ndarray | float,
) -> np.ndarray:
    """Green function at arrays of momenta and coordinates, broadcast together.

    The product of the scattering solutions at the larger coordinate of each
    pair (momentum k) and the smaller one (momentum -k), weighted by pi*i/k.
    The boundary solution is built once and divided by k**n to undo its
    scaling.  A value past the float range anywhere raises ``ValueError``
    instead of returning inf or nan.
    """
    upper = np.greater_equal(x, xp)
    hi, lo = np.where(upper, x, xp), np.where(upper, xp, x)
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
    model: BoundaryModel | InteriorModel, x: np.ndarray | float, xp: float, E: complex
) -> np.ndarray | complex:
    """Green function at energy E, evaluated off (or on) the diagonal.

    The spectral momentum is sqrt(E) with nonnegative imaginary part.  An
    array ``x`` gives an array of the same shape in one evaluation of each
    solution; a scalar gives a complex.  The construction is symmetric in
    (x, x'); evaluation at the exceptional momentum itself (the branch point
    for the inverse-square family, the embedded resonance for the
    trigonometric one) is refused, and so are coordinates so large that the
    phase k*x keeps no correct digit: its rounding |k| * max(|x|, |x'|) *
    2**-53 must stay below 1e-8, with max(|k|, 2*alpha) in place of |k| for
    the trigonometric family, whose W holds sin(2*alpha*x).
    """
    k = _k_upper(complex(E))
    if abs(k) < 1e-8:  # the pi*i/k weight: both families
        raise ValueError("Green function is singular at the spectral origin (|k| < 1e-8)")
    if isinstance(model, InteriorModel) and abs(k * k - model.alpha**2) < 1e-6:
        raise ValueError("Green function is singular at the embedded momentum")
    g = _green_k(model, np.array([k]), x, xp)
    # after the evaluation, so that an overflow is reported as one
    reach = abs(k) if isinstance(model, BoundaryModel) else max(abs(k), 2 * model.alpha)
    check_phase_range(reach, float(np.max(np.abs(x), initial=abs(xp))), "--x/--xp")
    return complex(g[0]) if np.ndim(x) == 0 else g


def check_phase_range(rate: float, far: float, flags: str) -> None:
    """Refuse a coordinate |x| = ``far`` at which a phase rate * x keeps no
    correct digit: its rounding, rate * |x| * 2**-53, must stay below
    1e-8.  ``rate`` is the largest phase rate read at the coordinate, and
    ``flags`` names the options that set it.  ValueError otherwise.
    """
    if rate * far * 2.0**-53 > _PHASE_ROUNDING:
        raise ValueError(
            f"coordinate {far:.6g} ({flags}) is out of range: the phase's rounding, "
            f"{rate:.6g} * |x| * 2**-53, passes {_PHASE_ROUNDING:g} from |x| = "
            f"{_PHASE_ROUNDING * 2.0**53 / rate:.6g}"
        )


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
    The moments of both probe pairs are one matrix product: the (probes x
    samples) array of G dk times the (samples x (max_order + 1)) powers
    (k - center)^j.  :func:`pole_probe` gives the circle that the package
    reads each family's order on.

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

    # both probe pairs in one evaluation: a (probes, samples) array, whose
    # moments M_0..M_max_order are one product with the power matrix
    x, xp = (np.array(col)[:, None] for col in zip(*_PROBES))
    moments = (_green_k(model, ks, x, xp) * dk) @ (offs[:, None] ** np.arange(max_order + 1))
    orders = []
    for mags in np.abs(moments).tolist():
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


def pole_probe(model: BoundaryModel | InteriorModel) -> tuple[complex, float]:
    """Centre and radius of the circle that :func:`pole_order` reads the
    exceptional point on: k = 0 with radius 0.5 for the inverse-square
    family, k = alpha with radius min(0.25, alpha/2) for the trigonometric
    one.  The pi*i/k weight of the Green function has a pole at k = 0, so
    the trigonometric circle, and the half-radius circle that the verify
    suite reads beside it, must stay clear of the origin: at alpha = 0.26
    a radius of 0.25 passes within 0.01 of it and the moments no longer
    separate.
    """
    if isinstance(model, BoundaryModel):
        return 0j, 0.5
    return complex(model.alpha), min(0.25, model.alpha / 2)


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
        return _boundary_indexes(model, pole_order(model, *pole_probe(model)))
    # trigonometric family: one square-summable member at the embedded energy
    # (the chain partner is bounded only), and the singular term of the
    # reduced schemes carries that single member
    return IndexTriple(n1=1, n2=1, n3=pole_order(model, *pole_probe(model)))


def _boundary_indexes(model: BoundaryModel, raw: int) -> IndexTriple:
    """Index triple of the inverse-square family from its momentum-plane order."""
    from .resolution import eps_chain  # local import; resolution sits above this module

    n1 = sum(1 for l in range(model.n) if bm_classify(model, l) is ChainClass.NORMALIZABLE)
    n2 = len(eps_chain(model, Fraction(1, 2)).members)
    return IndexTriple(n1=n1, n2=n2, n3=(raw - 1) // 2)
