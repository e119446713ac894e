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

Evaluations return :class:`PointEval` bundles (value plus two analytic
derivatives) so the eigen-equation and chain residuals can be checked without
finite differencing.  Large-|x| asymptotics come as exact
:class:`~epresolve.quadrature.OscRational` tail models from a geometric
expansion of 1/W, which keeps slowly decaying pairings cheap.  Beyond the
window X that its caller integrates past, every such model keeps the fewest
orders N with (2 a min|+-X - z|)^-(N+1) <= _TAIL_BUDGET; a window that needs
more than _TAIL_ORDER_CAP orders is refused as out of range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import OscRational

__all__ = [
    "InteriorModel",
    "PointEval",
    "im_W",
    "im_w_bundle",
    "im_potential",
    "im_scatter",
    "im_psi0",
    "im_psi1",
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


@dataclass(frozen=True)
class PointEval:
    """Value and first two spatial derivatives at the evaluation points."""

    value: np.ndarray | complex
    d1: np.ndarray | complex
    d2: np.ndarray | complex


class _D3:
    """Tiny value-plus-two-derivatives arithmetic (internal)."""

    __slots__ = ("v", "a", "b")
    # keeps ``ndarray * _D3`` from building an object array: numpy defers to
    # __rmul__, which scales the three components elementwise
    __array_ufunc__ = None

    def __init__(self, v, a, b):
        self.v, self.a, self.b = v, a, b

    def __add__(self, o):
        return _D3(self.v + o.v, self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return _D3(self.v - o.v, self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        if isinstance(o, _D3):
            return _D3(
                self.v * o.v,
                self.a * o.v + self.v * o.a,
                self.b * o.v + 2 * self.a * o.a + self.v * o.b,
            )
        return _D3(self.v * o, self.a * o, self.b * o)

    __rmul__ = __mul__

    def inv(self):
        iv = 1.0 / self.v
        return _D3(iv, -self.a * iv * iv, (2 * self.a * self.a * self.v ** -3) - self.b * iv * iv)


def im_w_bundle(model: InteriorModel, x: np.ndarray | float):
    """W and its first four derivatives at real coordinates."""
    a = model.alpha
    xa = np.asarray(x, dtype=np.float64)
    s = np.sin(2 * a * xa)
    c = np.cos(2 * a * xa)
    W = s + 2 * a * (xa - model.z)
    return W, 2 * a * c + 2 * a + 0j, -4 * a * a * s + 0j, -8 * a**3 * c + 0j, 16 * a**4 * s + 0j


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
    W, W1, W2, _, _ = im_w_bundle(model, xa)
    out = 4 * a * (2 * W1 - (xa - model.z) * W2) / (W * W)
    if np.ndim(x) == 0:
        return complex(out)
    return out


def _scatter_d3(
    model: InteriorModel, k: np.ndarray | complex, x: np.ndarray, regularized: bool
) -> _D3:
    a = model.alpha
    W, W1, W2, _, _ = im_w_bundle(model, x)
    dW = _D3(W, W1, W2)
    # half-angle coding, kept different from the grid kernel as its oracle:
    # i k W' - W''/2 = 4 i a k cos^2(a x) + 2 a^2 sin(2 a x)
    cos2 = np.cos(a * x) ** 2 + 0j
    sin_two = np.sin(2 * a * x) + 0j
    cos_two = np.cos(2 * a * x) + 0j
    d_cos2 = _D3(cos2, -a * sin_two, -2 * a * a * cos_two)
    d_sin_two = _D3(sin_two, 2 * a * cos_two, -4 * a * a * sin_two)
    num = (4j * a * k) * d_cos2 + (2 * a * a) * d_sin_two
    disp = k * k - a * a
    phase = np.exp(1j * k * x) / math.sqrt(2 * math.pi)
    dphase = _D3(phase, 1j * k * phase, -(k * k) * phase)
    one = _D3(np.ones_like(W), np.zeros_like(W), np.zeros_like(W))
    if regularized:
        core = disp * one + num * dW.inv()
    else:
        core = one + (1.0 / disp) * (num * dW.inv())
    return core * dphase


def im_scatter(
    model: InteriorModel,
    k: np.ndarray | complex,
    x: np.ndarray | float,
    regularized: bool = False,
) -> PointEval:
    """Scattering solution at spectral value(s) k, with analytic derivatives.

    An array of k broadcasts against x.  The plain solution has simple poles
    at k = +-alpha; evaluation inside |k^2 - alpha^2| < 1e-6 is refused unless
    ``regularized=True``, which returns the pole-free multiple
    (k^2 - alpha^2) * psi instead.
    """
    ka = np.asarray(k, dtype=np.complex128)
    disp = ka * ka - model.alpha**2
    if not regularized and np.any(np.abs(disp) < 1e-6):
        raise ValueError(
            "spectral value sits on a pole of the solution; "
            "use regularized=True for the pole-free multiple"
        )
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    d = _scatter_d3(model, ka if ka.ndim else complex(ka), xa, regularized)
    if np.ndim(x) == 0 and ka.ndim == 0:
        return PointEval(complex(d.v[0]), complex(d.a[0]), complex(d.b[0]))
    return PointEval(d.v, d.a, d.b)


def im_psi0(model: InteriorModel, x: np.ndarray | float) -> PointEval:
    """Bounded state at the embedded energy: (2a)^(3/2) cos(a x) / W."""
    a = model.alpha
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    W, W1, W2, _, _ = im_w_bundle(model, xa)
    cos = _D3(np.cos(a * xa) + 0j, -a * np.sin(a * xa), -a * a * np.cos(a * xa))
    d = (2 * a) ** 1.5 * (cos * _D3(W, W1, W2).inv())
    if np.ndim(x) == 0:
        return PointEval(complex(d.v[0]), complex(d.a[0]), complex(d.b[0]))
    return PointEval(d.v, d.a, d.b)


def im_psi1(model: InteriorModel, x: np.ndarray | float) -> PointEval:
    """Chain partner of the bounded state: (2a(x-z) sin(ax) + cos(ax)) / (sqrt(2a) W).

    Bounded but not decaying; the Hamiltonian maps it onto the bounded state
    at the embedded energy (a Jordan chain of length two).
    """
    a = model.alpha
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    W, W1, W2, _, _ = im_w_bundle(model, xa)
    sin = _D3(np.sin(a * xa) + 0j, a * np.cos(a * xa), -a * a * np.sin(a * xa))
    cos = _D3(np.cos(a * xa) + 0j, -a * np.sin(a * xa), -a * a * np.cos(a * xa))
    lin = _D3(xa - model.z, np.ones_like(xa) + 0j, np.zeros_like(xa) + 0j)
    num = (2 * a) * (lin * sin) + cos
    d = (1.0 / math.sqrt(2 * a)) * (num * _D3(W, W1, W2).inv())
    if np.ndim(x) == 0:
        return PointEval(complex(d.v[0]), complex(d.a[0]), complex(d.b[0]))
    return PointEval(d.v, d.a, d.b)


# ---------------------------------------------------------------------------
# exact asymptotic tail models
# ---------------------------------------------------------------------------

# budget and order cap of the truncation rule in the module docstring
_TAIL_BUDGET = 1e-11
_TAIL_ORDER_CAP = 16


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
