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
tail models, which keep slowly decaying pairings cheap.  1/W, each chain
member and the chain pairs psi0 psi0 and psi0 psi1 (:func:`im_tail_model`)
are each a short numerator times one closed series, the negative-binomial
expansion of W^-m (m = 1 or 2) in s = sin(2ax)/(2a(x-z)) with sin^j by the
binomial theorem.  Beyond the window X that its caller integrates past
(TRANSFORM_WINDOW or PAIR_WINDOW), N is the fewest orders with
(2 a min|+-X - z|)^-(N+1) <= _TAIL_BUDGET, and W^-m is summed to s^(N+m-1);
a window that needs more than _TAIL_ORDER_CAP orders is refused as out of
range.
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
    "im_zero_gap",
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


def im_zero_gap(model: InteriorModel) -> float:
    """Least distance |Im x| of a complex zero of W from the real axis.

    Im W(t + iy) = cos(2at) sinh(2ay) + 2a(y - Im z), so every zero has
    |y| >= u/(2a) with sinh u + u = 2a|Im z|.
    """
    c = 2 * model.alpha * abs(model.z.imag)
    # sinh u + u >= c at the start, so Newton descends monotonically
    u = min(0.5 * c, math.asinh(c))
    for _ in range(100 if math.isfinite(c) else 0):
        step = (math.sinh(u) + u - c) / (math.cosh(u) + 1)
        u -= step
        if step <= 1e-16 * u:
            break
    return u / (2 * model.alpha)


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
# transforms and the schemes' pair moments at TRANSFORM_WINDOW, the biortho
# pairings and reproduce_psi0_term at PAIR_WINDOW
TRANSFORM_WINDOW = 40.0
PAIR_WINDOW = 60.0
# im_scatter refuses |k^2 - alpha^2| below this, next to its poles
POLE_GUARD = 1e-6


def _tail_order(model: InteriorModel, X: float) -> int:
    """Fewest orders N of the 1/W expansion that meet the budget for |x| >= X."""
    reach = 2 * model.alpha * min(abs(X - model.z), abs(-X - model.z))
    for order in range(_TAIL_ORDER_CAP + 1):
        if reach ** (order + 1) * _TAIL_BUDGET >= 1:
            return order
    least = _TAIL_BUDGET ** (-1 / (_TAIL_ORDER_CAP + 1)) * model.alpha / reach
    raise ValueError(f"interior tail models beyond |x| = {X:g} need more than {_TAIL_ORDER_CAP} orders of the 1/W "
                     f"expansion at alpha = {model.alpha:g}; alpha must be at least {least:.3g}")


def _w_series(model: InteriorModel, m: int, order: int) -> OscRational:
    """W^-m as the negative-binomial series in s = sin(2ax)/(2a(x-z)), to s^order.

    W^-m = (2a(x-z))^-m sum_j C(j+m-1, j) (-s)^j, and sin^j(2ax) expands by
    the binomial theorem into the waves e^{i(2l-j)2ax}, l = 0..j, so every
    term is closed-form; the remainder after ``order`` is
    O((x-z)^(-m-order-1)).
    """
    a = model.alpha
    terms = []
    for j in range(order + 1):
        # C(j+m-1, j) (-1)^j (2a)^(-m-j) times the (2i)^-j of sin^j
        c = math.comb(j + m - 1, j) * (-1.0) ** j * (2 * a) ** (-m - j) * (-0.5j) ** j
        for l in range(j + 1):
            terms.append(((2 * l - j) * 2 * a, m + j, c * math.comb(j, l) * (-1.0) ** (j - l)))
    return OscRational(model.z, terms)


def im_tail_model(model: InteriorModel, kind: str, X: float) -> OscRational:
    """Exact large-|x| model of an interior-model function, as an OscRational.

    ``kind`` is one of ``"inv_w"``, ``"psi0"``, ``"psi1"`` (numerator times
    W^-1) or one of the chain pairs ``"psi0*psi0"``, ``"psi0*psi1"``
    (numerator times W^-2):

    * psi0 psi0 = (2a)^3 cos^2(ax) W^-2;
    * psi0 psi1 = 2a (a(x-z) sin(2ax) + cos^2(ax)) W^-2.

    ``X`` is the window the caller integrates beyond.  W^-m is summed to
    s^J with J = N + m - 1, N the order that the rule of the module
    docstring gives for X: a pair model keeps the accuracy of the product of
    two single models at order N.
    """
    a, z = model.alpha, model.z
    if kind == "inv_w":
        m, num = 1, OscRational.constant(z, 1.0)
    elif kind == "psi0":
        m, num = 1, OscRational.cosine(z, a, (2 * a) ** 1.5)
    elif kind == "psi1":
        num = (2 * a) * (OscRational.centered_poly(z, [0.0, 1.0]) * OscRational.sine(z, a))
        m, num = 1, (1.0 / math.sqrt(2 * a)) * (num + OscRational.cosine(z, a))
    elif kind in ("psi0*psi0", "psi0*psi1"):
        # cos^2(ax) = (1 + cos(2ax))/2
        cos_sq = OscRational.constant(z, 0.5) + OscRational.cosine(z, 2 * a, 0.5)
        if kind == "psi0*psi0":
            m, num = 2, (2 * a) ** 3 * cos_sq
        else:
            m, num = 2, (2 * a) * (cos_sq + OscRational.centered_poly(z, [0.0, a]) * OscRational.sine(z, 2 * a))
    else:
        raise ValueError(f"unknown tail-model kind {kind!r}")
    return num * _w_series(model, m, _tail_order(model, X) + m - 1)
