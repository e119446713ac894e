"""Trigonometric model with a spectral singularity inside the continuum.

The denominator function W(x) = sin(2 a x) + 2 a (x - z) never vanishes for
real x when Im z != 0 (its imaginary part is the constant -2 a Im z), so the
potential

    V(x) = 16 a^2 (a (x-z) sin(2 a x) + 2 cos^2(a x)) / W^2
         = 4 a (2 W' - (x-z) W'') / W^2

is regular on the line and decays like 1/x.  At energy a^2 the model carries
a bounded state together with one non-expandable partner; for generic k the
scattering solution has simple poles in k at +-a, removable after scaling by
(k^2 - a^2).

Each function has one value evaluator: :func:`im_psi0`, :func:`im_psi1` and
:func:`im_scatter` return values only, a complex for scalar input and an
ndarray otherwise.  The tests' oracle :func:`im_jet` adds two analytic
x-derivatives in a separate coding, so that the eigen-equation and Jordan
residuals are checked without finite differencing.

Large-|x| asymptotics come as exact :class:`~epresolve.quadrature.OscRational`
tail models from a geometric expansion of 1/W, which keeps slowly decaying
pairings cheap.  Beyond the window X that its caller integrates past
(TRANSFORM_WINDOW or PAIR_WINDOW), every such model keeps the fewest orders
N with (2 a min|+-X - z|)^-(N+1) <= _TAIL_BUDGET; a window that needs more
than _TAIL_ORDER_CAP orders is refused as out of range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import OscRational

__all__ = [
    "InteriorModel",
    "im_W",
    "im_w_bundle",
    "im_potential",
    "im_scatter",
    "im_psi0",
    "im_psi1",
    "im_member",
    "im_jet",
    "im_tail_model",
]


@dataclass(frozen=True)
class InteriorModel:
    """Interior-singularity model with frequency ``alpha`` and displacement ``z``."""

    alpha: float = 1.0
    z: complex = 1j

    def __post_init__(self) -> None:
        if not (self.alpha > 0):
            raise ValueError("frequency must be positive")
        if not math.isfinite(self.alpha * self.alpha):
            raise ValueError(f"frequency {self.alpha!r} is too large: its square overflows a float")
        z = complex(self.z)
        if z.imag == 0.0:
            raise ValueError("displacement must have a nonzero imaginary part")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def energy(self) -> float:
        """The embedded eigenvalue alpha^2."""
        return self.alpha**2


def im_w_bundle(model: InteriorModel, x: np.ndarray | float):
    """W and its first two derivatives at real coordinates."""
    a = model.alpha
    xa = np.asarray(x, dtype=np.float64)
    s = np.sin(2 * a * xa)
    W = s + 2 * a * (xa - model.z)
    return W, 2 * a * np.cos(2 * a * xa) + 2 * a + 0j, -4 * a * a * s + 0j


def im_W(model: InteriorModel, x: np.ndarray | float) -> np.ndarray | complex:
    """The denominator function W(x) = sin(2 a x) + 2 a (x-z)."""
    W = im_w_bundle(model, x)[0]
    if np.ndim(x) == 0:
        return complex(W)
    return W


def im_potential(model: InteriorModel, x: np.ndarray | float) -> np.ndarray | complex:
    """Potential values, coded via the derivative identity 4a(2W' - (x-z)W'')/W^2."""
    a = model.alpha
    xa = np.asarray(x, dtype=np.float64)
    W, W1, W2 = im_w_bundle(model, xa)
    out = 4 * a * (2 * W1 - (xa - model.z) * W2) / (W * W)
    if np.ndim(x) == 0:
        return complex(out)
    return out


def im_scatter(
    model: InteriorModel,
    k: np.ndarray | complex,
    x: np.ndarray | float,
    regularized: bool = False,
) -> np.ndarray | complex:
    """Scattering solution at spectral value(s) k.

    An array of k broadcasts against x.  The plain solution has simple poles
    at k = +-alpha; evaluation inside |k^2 - alpha^2| < ``POLE_GUARD`` is
    refused unless ``regularized=True``, which returns the pole-free multiple
    (k^2 - alpha^2) * psi instead.
    """
    a = model.alpha
    K = np.asarray(k, dtype=np.complex128)
    X = np.asarray(x, dtype=np.float64)
    disp = K * K - a * a
    if not regularized and np.any(np.abs(disp) < POLE_GUARD):
        raise ValueError(
            "spectral value sits on a pole of the solution; "
            "use regularized=True for the pole-free multiple"
        )
    W, W1, W2 = im_w_bundle(model, X)
    num = 1j * K * W1 - 0.5 * W2
    base = np.exp(1j * K * X) / math.sqrt(2 * math.pi)
    out = (disp + num / W) * base if regularized else (1.0 + num / (disp * W)) * base
    return complex(out) if out.ndim == 0 else out


def im_psi0(model: InteriorModel, x: np.ndarray | float) -> np.ndarray | complex:
    """Bounded state at the embedded energy: (2a)^(3/2) cos(a x) / W."""
    a = model.alpha
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    W = im_W(model, xa)
    out = ((np.cos(a * xa) + 0j) * (1.0 / W)) * (2 * a) ** 1.5
    return complex(out[0]) if np.ndim(x) == 0 else out


def im_psi1(model: InteriorModel, x: np.ndarray | float) -> np.ndarray | complex:
    """Chain partner of the bounded state: (2a(x-z) sin(ax) + cos(ax)) / (sqrt(2a) W).

    Bounded but not decaying; the Hamiltonian maps it onto the bounded state
    at the embedded energy (a Jordan chain of length two).
    """
    a = model.alpha
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    W = im_W(model, xa)
    num = ((xa - model.z) * (np.sin(a * xa) + 0j)) * (2 * a) + (np.cos(a * xa) + 0j)
    out = (num * (1.0 / W)) * (1.0 / math.sqrt(2 * a))
    return complex(out[0]) if np.ndim(x) == 0 else out


def im_member(model: InteriorModel, name: str, x: np.ndarray | float) -> np.ndarray | complex:
    """The chain member named ``"psi0"`` (bounded state) or ``"psi1"`` (partner) at x."""
    return im_psi0(model, x) if name == "psi0" else im_psi1(model, x)


def im_jet(model: InteriorModel, kind: str, x: np.ndarray | float, k: complex | None = None,
           regularized: bool = False):
    """Oracle: value and first two x-derivatives of ``"psi0"``, ``"psi1"`` or ``"scatter"``.

    Only the tests call it.  It carries the eigen-equation, Jordan-relation
    and finite-difference checks, which need the derivatives, and it is the
    independent second coding that the value evaluators above are tested
    against: a small value-plus-two-derivatives arithmetic, with the
    scattering solution in half-angle form.  Returns a ``PointEval`` with
    fields ``value``, ``d1`` and ``d2``, complex for scalar input.
    """

    class PointEval:
        """Value and first two x-derivatives, with the arithmetic of such jets."""

        __slots__ = ("value", "d1", "d2")
        # keeps ``ndarray * PointEval`` from building an object array: numpy
        # defers to __rmul__, which scales the three components elementwise
        __array_ufunc__ = None

        def __init__(self, value, d1, d2):
            self.value, self.d1, self.d2 = value, d1, d2

        def __add__(self, o):
            return PointEval(self.value + o.value, self.d1 + o.d1, self.d2 + o.d2)

        def __mul__(self, o):
            if isinstance(o, PointEval):
                v, a, b = self.value, self.d1, self.d2
                return PointEval(v * o.value, a * o.value + v * o.d1, b * o.value + 2 * a * o.d1 + v * o.d2)
            return PointEval(self.value * o, self.d1 * o, self.d2 * o)

        __rmul__ = __mul__

        def inv(self):
            iv = 1.0 / self.value
            return PointEval(iv, -self.d1 * iv * iv, (2 * self.d1 * self.d1 * self.value ** -3) - self.d2 * iv * iv)

    a = model.alpha
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    inv_w = PointEval(*im_w_bundle(model, xa)).inv()
    cos = PointEval(np.cos(a * xa) + 0j, -a * np.sin(a * xa), -a * a * np.cos(a * xa))
    scalar = np.ndim(x) == 0
    if kind == "psi0":
        d = (2 * a) ** 1.5 * (cos * inv_w)
    elif kind == "psi1":
        sin = PointEval(np.sin(a * xa) + 0j, a * np.cos(a * xa), -a * a * np.sin(a * xa))
        lin = PointEval(xa - model.z, np.ones_like(xa) + 0j, np.zeros_like(xa) + 0j)
        d = (1.0 / math.sqrt(2 * a)) * (((2 * a) * (lin * sin) + cos) * inv_w)
    elif kind == "scatter":
        if k is None:
            raise ValueError("the scattering solution needs the spectral value k")
        ka = np.asarray(k, dtype=np.complex128)
        scalar = scalar and ka.ndim == 0
        k = ka if ka.ndim else complex(ka)
        # half-angle coding, kept different from im_scatter's:
        # i k W' - W''/2 = 4 i a k cos^2(a x) + 2 a^2 sin(2 a x)
        sin_two = np.sin(2 * a * xa) + 0j
        cos_two = np.cos(2 * a * xa) + 0j
        cos2 = PointEval(np.cos(a * xa) ** 2 + 0j, -a * sin_two, -2 * a * a * cos_two)
        num = (4j * a * k) * cos2 + (2 * a * a) * PointEval(sin_two, 2 * a * cos_two, -4 * a * a * sin_two)
        disp = k * k - a * a
        phase = np.exp(1j * k * xa) / math.sqrt(2 * math.pi)
        one = PointEval(np.ones_like(phase), np.zeros_like(phase), np.zeros_like(phase))
        core = disp * one + num * inv_w if regularized else one + (1.0 / disp) * (num * inv_w)
        d = core * PointEval(phase, 1j * k * phase, -(k * k) * phase)
    else:
        raise ValueError(f"unknown jet kind {kind!r}")
    if scalar:
        return PointEval(complex(d.value[0]), complex(d.d1[0]), complex(d.d2[0]))
    return d


# ---------------------------------------------------------------------------
# exact asymptotic tail models
# ---------------------------------------------------------------------------

# budget and order cap of the truncation rule in the module docstring
_TAIL_BUDGET = 1e-11
_TAIL_ORDER_CAP = 16

# the windows that the package's interior integrals of chain members split
# at, a core quadrature inside and exact tails beyond: the spectral
# transforms at TRANSFORM_WINDOW, the pair moments and pairings at PAIR_WINDOW
TRANSFORM_WINDOW = 40.0
PAIR_WINDOW = 60.0
# im_scatter refuses |k^2 - alpha^2| below this, next to its poles
POLE_GUARD = 1e-6


def _tail_order(model: InteriorModel, X: float) -> int:
    """Fewest orders of the 1/W expansion that meet the budget for |x| >= X."""
    reach = 2 * model.alpha * min(abs(X - model.z), abs(-X - model.z))
    for order in range(_TAIL_ORDER_CAP + 1):
        if reach ** (order + 1) * _TAIL_BUDGET >= 1:
            return order
    least = _TAIL_BUDGET ** (-1 / (_TAIL_ORDER_CAP + 1)) * model.alpha / reach
    raise ValueError(f"interior tail models beyond |x| = {X:g} need more than {_TAIL_ORDER_CAP} orders of the 1/W "
                     f"expansion at alpha = {model.alpha:g}; alpha must be at least {least:.3g}")


def _inv_w_model(model: InteriorModel, order: int) -> OscRational:
    """Truncated geometric expansion of 1/W in inverse powers of (x-z).

    1/W = 1/(2a(x-z)) * sum_j (-s)^j with s = sin(2ax)/(2a(x-z)); the
    remainder after ``order`` terms is O((x-z)^(-order-2)).
    """
    a, z = model.alpha, model.z
    s = OscRational(z, [(2 * a, 1, 1.0 / (4j * a)), (-2 * a, 1, -1.0 / (4j * a))])
    total = OscRational.constant(z, 0.0)
    power = OscRational.constant(z, 1.0)
    for j in range(order + 1):
        total = total + ((-1.0) ** j) * power
        power = power * s
    return (1.0 / (2 * a)) * total.shift_power(1)


def im_tail_model(model: InteriorModel, kind: str, X: float, k: float | None = None) -> OscRational:
    """Exact large-|x| model of an interior-model function, as an OscRational.

    ``kind`` is one of ``"inv_w"``, ``"psi0"``, ``"psi1"``, ``"scatter"``,
    ``"scatter_reg"``; the scatter kinds require the spectral value ``k``.
    ``X`` is the window the caller integrates beyond; the order of the 1/W
    expansion follows from it by the rule of the module docstring.
    """
    a, z = model.alpha, model.z
    inv_w = _inv_w_model(model, _tail_order(model, X))
    if kind == "inv_w":
        return inv_w
    if kind == "psi0":
        return (2 * a) ** 1.5 * (OscRational.cosine(z, a) * inv_w)
    if kind == "psi1":
        num = (2 * a) * (OscRational.centered_poly(z, [0.0, 1.0]) * OscRational.sine(z, a))
        num = num + OscRational.cosine(z, a)
        return (1.0 / math.sqrt(2 * a)) * (num * inv_w)
    if kind in ("scatter", "scatter_reg"):
        if k is None:
            raise ValueError("scatter tail models require the spectral value k")
        disp = k * k - a * a
        if kind == "scatter" and abs(disp) < 1e-6:
            raise ValueError("scatter tail model undefined on the spectral poles")
        # i k W' - W''/2 as trig sums
        num = OscRational.cosine(z, 2 * a, 2j * k * a) + OscRational.constant(z, 2j * k * a)
        num = num + OscRational.sine(z, 2 * a, 2 * a * a)
        core = num * inv_w
        if kind == "scatter_reg":
            out = OscRational.constant(z, disp) + core
        else:
            out = OscRational.constant(z, 1.0) + (1.0 / disp) * core
        plane = OscRational.wave(z, k, 0, 1.0 / math.sqrt(2 * math.pi))
        return out * plane
    raise ValueError(f"unknown tail-model kind {kind!r}")
