"""Quadrature strategies for oscillatory line and contour integrals.

Three layers, all deterministic (fixed panel subdivision and summation
order, no randomness):

* Adaptive Gauss-Kronrod bisection, on intervals (``_adaptive``) and on
  deformed contours (:func:`quad_contour`).  A panel is QUADPACK's embedded
  G10/K21 pair: 21 evaluations give a degree-31 value and, from the 10
  Gauss nodes among them, a degree-19 error estimate, with no evaluation
  spent on the estimate alone.  ``_adaptive`` takes one interval or a list
  of pieces, each with its own tolerance (the equal pieces of an
  ``_adaptive_oscillatory`` pre-split, or every spectral band of a radius
  sweep), and bisects them level by level: the 21 nodes of every pending
  panel of a level, over all pieces, go to the integrand in one call of at
  most ``_BATCH_PANELS`` panels (5376 nodes), which bounds the memory of a
  level that runs into the panel cap.
  :func:`composite_gauss` owns the fixed equal-panel layout;
  :func:`composite_phase_sums` takes plane-wave moments on it with phases
  separated per panel.
* :class:`OscRational` -- finite sums ``sum_t c_t exp(i mu_t x) (x-z)^(-q_t)``
  with one complex pole center.  These admit *exact* full-line values (residue
  evaluation, half-line Abel regularization where classical convergence
  fails) and exact one-sided tail integrals built on the exponential
  integral, so slowly decaying oscillatory integrands never need giant grids.
  :meth:`OscRational.integral_tails` evaluates the tails of ``e * e^{ikx}``
  for a whole array of wave numbers k in one pass: the terms are grouped by
  frequency mu, and per side one table of g_q(w) = e^w E_q(w) over the
  (group x k) frequencies mu + k gives every power q >= 1 that the
  coefficients read.  The table (``_scaled_expn``) seeds each element at a
  pivot order P = clip(floor|w|, 1, max(qmax, 16)), by a power series near
  the branch cut and for small |w| and by a continued fraction elsewhere,
  and runs the recurrence in q away from P, downward below it and upward
  above it, so that rounding is damped in both directions.  The scalar
  :func:`osc_power_tail` reads the same table on a 0-d array and is the
  one-term oracle it is tested against.
* :class:`GaussianPacket` / :func:`quad_packet` -- closed-form smearing of an
  exact Laurent expression against a Gaussian-windowed polynomial weight,
  via one three-term recurrence for the window moments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .exact import ExpLaurent, add_terms

__all__ = [
    "QuadResult",
    "ContourSpec",
    "GaussianPacket",
    "quad_contour",
    "quad_packet",
    "composite_gauss",
    "composite_phase_sums",
    "OscRational",
    "gauss_moment",
    "hermite_values",
    "osc_power_tail",
    "ft_inverse_power",
]


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral together with an error estimate and work count.

    A multi-piece :func:`_adaptive` call carries one value and one error per
    piece; ``evaluations`` and ``capped``, the number of pieces that reached
    the panel cap, count the whole call.
    """

    value: complex | np.ndarray
    error: float | np.ndarray
    evaluations: int
    capped: int = 0

    def __complex__(self) -> complex:  # pragma: no cover - convenience
        return complex(self.value)


# ---------------------------------------------------------------------------
# Gauss-Legendre panels
# ---------------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    got = _GL_CACHE.get(n)
    if got is None:
        got = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = got
    return got


def _panel_layout(lo: float, hi: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    # centres and half-widths of the equal panels of [lo, hi]
    edges = np.linspace(lo, hi, n_panels + 1)
    return 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)


def composite_gauss(lo: float, hi: float, n_panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of an ``order``-point Gauss-Legendre rule on each of
    ``n_panels`` equal panels of [lo, hi]; exact for polynomials of degree
    2*order - 1 on every panel.

    Example
    -------
    >>> import numpy as np
    >>> from epresolve.quadrature import composite_gauss
    >>> x, w = composite_gauss(-8.0, 8.0, 16, 16)
    >>> bool(abs(np.sum(w * np.exp(-x * x)) - np.sqrt(np.pi)) < 1e-14)
    True
    """
    xg, wg = _gl(order)
    mid, half = _panel_layout(lo, hi, n_panels)
    nodes = (mid[:, None] + half[:, None] * xg).ravel()
    weights = (half[:, None] * wg).ravel()
    return nodes, weights


# panels per block of the two-level centre-phase table
_PHASE_BLOCK = 16
# entries of the (wave number x panel) phase table and of the (wave number x
# row x order) panel sums that one chunk of wave numbers may hold.  A level
# of a radius sweep's bisection sends up to 5376 wave numbers at once; 2^14
# entries (256 KB per table) keep its peak memory that of a single radius
_PHASE_ENTRIES = 2**14


def _centre_phases(k: np.ndarray, c0: float, step: float, n_panels: int) -> np.ndarray:
    # e^{ik(c0 + step p)} for p < n_panels, shape (K, n_panels): with
    # p = B a + b, the product of a coarse table e^{ik(c0 + step B a)} and a
    # fine one e^{ik step b}
    blocks = -(-n_panels // _PHASE_BLOCK)
    coarse = np.exp(1j * k[:, None] * (c0 + step * _PHASE_BLOCK * np.arange(blocks)))
    fine = np.exp(1j * k[:, None] * (step * np.arange(_PHASE_BLOCK)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(k.size, -1)[:, :n_panels]


def composite_phase_sums(
    lo: float, hi: float, n_panels: int, order: int, rows: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """sum_j w_j v_j e^{i k x_j} over the :func:`composite_gauss` rule, for
    every value row v of ``rows`` (last axis: the nodes) and every k.

    The phases separate over the equal panels: x_j = c_p + h t_j gives
    e^{ikx_j} = e^{ikc_p} e^{ikh t_j}.  The weighted rows are contracted over
    the panels first, in one (K x n_panels).(n_panels x rows*order) matrix
    product, and then against the K x order local phases e^{ikht}.  The
    centre phases come from a two-level table (:func:`_centre_phases`), so a
    K-point k array costs K*(ceil(n_panels/16) + 16 + order) exponentials
    instead of a dense K x N phase matrix.  The k array is taken in chunks
    whose tables hold about ``_PHASE_ENTRIES`` entries.  The result has shape
    ``rows.shape[:-1] + (K,)``.

    Each k's sums are bitwise those of a call with that k alone, so a batch
    of wave numbers (a radius sweep's closed blocks) returns exactly what
    its members would one by one: see :func:`_panel_product`.
    """
    xg, wg = _gl(order)
    mid, half = _panel_layout(lo, hi, n_panels)
    h = (hi - lo) / (2 * n_panels)
    karr = np.atleast_1d(np.asarray(k, dtype=np.complex128))
    v = np.asarray(rows)
    lead = v.shape[:-1]
    wv = v.reshape(-1, n_panels, order) * (half[:, None] * wg)
    wv = np.swapaxes(wv, 0, 1).reshape(n_panels, -1)  # (n_panels, rows*order)
    out = np.empty((karr.size, wv.shape[1] // order), dtype=np.complex128)
    chunk = max(1, _PHASE_ENTRIES // max(n_panels, wv.shape[1]))
    for s in range(0, karr.size, chunk):
        kc = karr[s:s + chunk]
        sums = _panel_product(_centre_phases(kc, mid[0], 2 * h, n_panels), wv).reshape(kc.size, -1, order)
        local = np.exp(1j * kc[:, None] * (h * xg))
        out[s:s + chunk] = np.einsum("krj,kj->kr", sums, local)
    return out.T.reshape(lead + (karr.size,))


def _panel_product(phases: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """phases @ wv, each row summed the same way whatever the row count.

    numpy sends a one-row product to the BLAS matrix-vector kernel, which
    rounds differently from the matrix product: a lone row goes in twice.
    OpenBLAS sums the inner dimension of a complex product in blocks of 128
    and splits a remainder between 128 and 256 in two halves that differ
    by one between its serial and threaded drivers, and whether a product
    runs threaded depends on its row count.  So the panels are contracted
    in two products, the largest multiple of 128 panels and the rest, whose
    blocks are the same in both drivers.
    """
    rows = phases.shape[0]
    if rows == 1:
        phases = np.concatenate([phases, phases])
    cut = wv.shape[0] // 128 * 128
    if 0 < cut < wv.shape[0]:
        out = phases[:, :cut] @ wv[:cut] + phases[:, cut:] @ wv[cut:]
    else:
        out = phases @ wv
    return out[:rows]


# QUADPACK's qk21 rule on [-1, 1] (Piessens et al., 1983): the abscissae of
# the 21-point Kronrod extension of the 10-point Gauss rule, from the
# outermost to the centre, with the Gauss ones at the odd indices; their K21
# weights; and the G10 weights of the odd-indexed abscissae
_XK21 = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
])
_WK21 = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525873600, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG10 = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])


def _kronrod_panel() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The qk21 literals unfolded onto [-1, 1]: the 21 nodes in ascending
    order, their K21 weights, and the G10 weights of the odd-indexed nodes,
    which are the Gauss nodes.  K21 is exact to degree 31 and G10 to 19.

    Example
    -------
    >>> import numpy as np
    >>> from epresolve.quadrature import _kronrod_panel
    >>> x, wk, wg = _kronrod_panel()
    >>> x.size, wg.size, bool(np.all(np.diff(x) > 0))
    (21, 10, True)
    >>> def miss(nodes, weights, degree):
    ...     return abs(np.sum(weights * nodes**degree) - 2 / (degree + 1))
    >>> bool(miss(x, wk, 30) < 1e-15 and miss(x[1::2], wg, 18) < 1e-15)
    True
    >>> bool(miss(x, wk, 32) > 1e-12 and miss(x[1::2], wg, 20) > 1e-6)
    True
    """
    return (np.concatenate([-_XK21[:-1], _XK21[::-1]]),
            np.concatenate([_WK21, _WK21[-2::-1]]),
            np.concatenate([_WG10, _WG10[::-1]]))


_BATCH_PANELS = 256  # panels per integrand call: at most 256 * 21 = 5376 nodes


def _adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float | np.ndarray,
    b: float | np.ndarray,
    tol: float | np.ndarray,
    max_panels: int = 4000,
) -> QuadResult:
    """Deterministic adaptive bisection on [a, b] with embedded error rule.

    ``a``, ``b`` and ``tol`` are scalars, or equal-length 1-D arrays of
    pieces [a_i, b_i], each bisected over its own span with its own
    tolerance tol_i and its own cap of ``max_panels`` panels; an empty piece
    (b_i <= a_i) integrates to 0.  A panel is QUADPACK's embedded
    Gauss-Kronrod pair (:func:`_kronrod_panel`): 21 evaluations give the
    K21 value, of degree 31, and its 10 Gauss nodes the G10 value, of degree
    19.  The K21 value is accepted when it lies within
    tol * max(width / span, 1e-3) of G10, or when the panel is narrower than
    1e-13 * span; otherwise the panel is halved, while the panels its piece
    has evaluated plus the halves already queued stay below ``max_panels``.
    A piece that reaches the cap evaluates between ``max_panels`` and
    ``max_panels + 1`` panels, and its value is not to be trusted:
    ``capped`` counts the pieces where the cap kept a failing panel from
    being halved.  Bisection runs level by level: all pending panels of a
    level, over every piece, go to ``f`` together, in calls of at most
    ``_BATCH_PANELS`` panels, so ``f`` must act pointwise on a 1-D array.
    Below the cap the accepted panels do not depend on the visiting order or
    on the other pieces.  Each piece sums its accepted panels by left edge.
    Scalars give a complex value and a float error, arrays one of each per
    piece.
    """
    scalar = np.ndim(a) == 0
    if scalar and b <= a:
        return QuadResult(0.0, 0.0, 0)
    starts, ends, tols = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=np.float64))
                                               for v in (a, b, tol)))
    unit, wk, wg = _kronrod_panel()
    pieces = starts.size
    spans = ends - starts
    piece = np.flatnonzero(spans > 0)
    lo, hi = starts[piece], ends[piece]
    counted = np.zeros(pieces, dtype=np.int64)
    capped = np.zeros(pieces, dtype=bool)
    # (piece, left edge, value, error) of the accepted panels, level by level;
    # the empty first entry keeps an all-empty piece list summable
    kept = [(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.complex128), np.empty(0))]
    evals = 0
    while lo.size:
        xm, hl = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vk = np.empty(lo.size, dtype=np.complex128)
        vg = np.empty(lo.size, dtype=np.complex128)
        for s in range(0, lo.size, _BATCH_PANELS):
            c = slice(s, s + _BATCH_PANELS)
            nodes = (xm[c, None] + hl[c, None] * unit).ravel()
            vals = np.asarray(f(nodes), dtype=np.complex128).reshape(-1, unit.size)
            vk[c] = hl[c] * np.sum(wk * vals, axis=1)
            vg[c] = hl[c] * np.sum(wg * vals[:, 1::2], axis=1)
        evals += lo.size * unit.size
        width, span = hi - lo, spans[piece]
        err = np.abs(vk - vg)
        fail = (err > tols[piece] * np.maximum(width / span, 1e-3)) & (width >= 1e-13 * span)
        # a level keeps its panels grouped by piece: the halves queued by the
        # failing panels before this one, in its own piece
        before = np.cumsum(fail) - fail
        queued = 2 * (before - before[np.searchsorted(piece, piece)])
        counted += np.bincount(piece, minlength=pieces)
        split = fail & (counted[piece] + queued < max_panels)
        capped[piece[fail & ~split]] = True
        kept.append((piece[~split], lo[~split], vk[~split], err[~split]))
        mid = xm[split]
        lo = np.stack([lo[split], mid], axis=1).ravel()
        hi = np.stack([mid, hi[split]], axis=1).ravel()
        piece = np.repeat(piece[split], 2)
    piece, lo, vk, err = (np.concatenate(part) for part in zip(*kept))
    order = np.lexsort((lo, piece))
    values, errors = vk[order].tolist(), err[order].tolist()
    bounds = np.searchsorted(piece[order], np.arange(pieces + 1)).tolist()
    runs = list(zip(bounds[:-1], bounds[1:]))
    value = [sum(values[i:j]) for i, j in runs]
    error = [sum(errors[i:j]) for i, j in runs]
    hits = int(capped.sum())
    if scalar:
        return QuadResult(complex(sum(value)), float(sum(error)), evals, hits)
    return QuadResult(np.array(value, dtype=np.complex128), np.array(error, dtype=np.float64), evals, hits)


def _adaptive_oscillatory(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    omega: float,
) -> QuadResult:
    """Integral over [a, b], cut into n equal pieces that each span at most
    ~2 oscillation periods; the pieces are bisected together by one
    :func:`_adaptive` call, at tolerance tol / n each, and their values and
    errors add in order."""
    if omega == 0.0:
        return _adaptive(f, a, b, tol)
    max_len = 4.0 * math.pi / abs(omega)
    n_init = max(1, int(math.ceil((b - a) / max_len)))
    edges = np.linspace(a, b, n_init + 1)
    r = _adaptive(f, edges[:-1], edges[1:], tol / n_init)
    return QuadResult(complex(sum(r.value.tolist())), float(sum(r.error.tolist())), r.evaluations, r.capped)


# ---------------------------------------------------------------------------
# deformed contours
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContourSpec:
    """A real-axis contour with semicircular detours around given centers.

    ``direction`` selects whether every detour passes above ("up") or below
    ("down") its center; ``cutoff`` is the finite truncation |k| <= A.
    """

    cutoff: float
    epsilon: float
    direction: str = "up"
    centers: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        if self.direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {self.direction!r}")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        cs = tuple(sorted(float(c) for c in self.centers))
        object.__setattr__(self, "centers", cs)
        if any(b - a <= 2 * self.epsilon for a, b in zip(cs[:-1], cs[1:])):
            raise ValueError("detour radii overlap between centers")
        if self.cutoff <= max((abs(c) for c in cs), default=0.0) + self.epsilon:
            raise ValueError("cutoff must exceed the outermost detour")


def quad_contour(
    f: Callable[[np.ndarray], np.ndarray],
    spec: ContourSpec,
    tol: float = 1e-8,
) -> QuadResult:
    """Integrate along the deformed contour described by ``spec``.

    The integrand must accept complex arrays.  The straight segments are the
    pieces of one adaptive call, whose ``capped`` count the result carries;
    each semicircular detour uses fixed 40-node (with embedded 20-node error
    check) Gauss-Legendre in the angle.
    """
    eps, A = spec.epsilon, spec.cutoff
    # straight segments between detours
    starts = [-A] + [c + eps for c in spec.centers]
    ends = [c - eps for c in spec.centers] + [A]
    r = _adaptive(lambda t: np.asarray(f(t.astype(np.complex128))), np.array(starts), np.array(ends), tol)
    value = 0.0 + 0.0j
    err = 0.0
    for v, e in zip(r.value.tolist(), r.error.tolist()):
        value += v
        err += e
    evals = r.evaluations
    # semicircular detours
    sgn = 1.0 if spec.direction == "up" else -1.0
    x40, w40 = _gl(40)
    x20, w20 = _gl(20)
    for c in spec.centers:
        for nodes, weights, record in ((x40, w40, True), (x20, w20, False)):
            phi = 0.5 * math.pi * (nodes + 1.0)  # phi in (0, pi)
            k = c + eps * np.exp(1j * sgn * phi)
            dk = 1j * sgn * eps * np.exp(1j * sgn * phi) * (0.5 * math.pi)
            contrib = np.sum(np.asarray(f(k), dtype=np.complex128) * dk * weights)
            if record:
                hi = complex(contrib)
            else:
                err += abs(hi - contrib)
        # traverse from c-eps to c+eps over the detour: the phi in (0, pi)
        # parametrization above runs from c+eps to c-eps, so flip the sign
        value += -hi
        evals += 60
    return QuadResult(value, err, evals, r.capped)


# ---------------------------------------------------------------------------
# exact building blocks: residue transforms and exponential-integral tails
# ---------------------------------------------------------------------------

def ft_inverse_power(q: int, omega: float | np.ndarray, z: complex) -> complex | np.ndarray:
    """Exact whole-line integral of e^{i omega x} (x-z)^(-q), Im z != 0.

    ``omega`` is a real frequency or a real array of them; an array gives an
    array of the same shape, a scalar (the same code on a 0-d array) a
    complex.  For q >= 1 and omega on the pole side (sign(omega) ==
    sign(Im z)) the value is the residue s*2*pi*i*(i*omega)^(q-1)
    e^{i omega z}/(q-1)!; on the other side it vanishes.  At omega == 0 the
    value is 0 for q >= 2 and the principal value i*pi*s, half the residue,
    for q == 1.  For q <= 0 the Abel-regularized value is 0 away from
    omega == 0 and undefined (distributional) at omega == 0.
    """
    w = np.asarray(omega, dtype=np.float64)
    s = 1.0 if z.imag > 0 else -1.0
    if q <= 0:
        if np.any(w == 0.0):
            raise ValueError("whole-line value is distributional for q <= 0 at zero frequency")
        out = np.zeros(w.shape, dtype=np.complex128)
    else:
        # weight 1 on the pole side, 1/2 at omega == 0 and 0 on the other
        # side, where omega is zeroed so that e^{i omega z} cannot overflow
        weight = 0.5 + 0.5 * np.sign(s * w)
        w = np.where(weight > 0.0, w, 0.0)
        residue = s * 2j * math.pi * (1j * w) ** (q - 1) * np.exp(1j * w * z) / math.factorial(q - 1)
        out = weight * residue
    return complex(out) if out.ndim == 0 else out


_EULER_GAMMA = 0.5772156649015329
_DIGITS = -math.log(2.0**-53)  # ln(1/eps): the truncation error each seed aims below
# orders every table runs to: up to this power, the pivot and so every value
# of an element do not depend on the other terms a tails pass stacks with it
_TABLE_TOP = 16


def _expn_series(w: np.ndarray, n: np.ndarray) -> np.ndarray:
    """e^w E_n(w) per element by the power series of DLMF §8.19,

        E_n(w) = (-w)^(n-1)/(n-1)! (psi(n) - ln w) - sum_{k != n-1} (-w)^k / ((k-n+1) k!),

    summed until an element's own term is below an ulp of its own sum, so
    that its value does not depend on the elements it is batched with.  The
    terms peak near e^|w| while E_n is about e^-Re(w)/|w+n|, so cancellation
    costs a factor of about e^s, s = |w| + Re w: the caller keeps s < 2.
    """
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, int(n.max())))))
    log_part = harmonic[n - 1] - _EULER_GAMMA - np.log(w)
    gap = (n - 1).astype(np.float64)  # 1/(n-1-k) is the coefficient of term k
    term = np.ones_like(w)  # (-w)^k / k!
    total = np.zeros_like(w)
    live = np.ones(w.shape, dtype=bool)
    k = 0
    while live.any():
        with np.errstate(divide="ignore"):
            coeff = np.where(gap == k, log_part, 1.0 / (gap - k))
        total += np.where(live, term * coeff, 0.0)
        k += 1
        term = term * (-w / k)  # numpy's in-place complex *= rounds by array length
        if k % 4 == 0:
            live &= (k < n) | (np.abs(term) > 2.0**-54 * np.abs(total))
    return np.exp(w) * total


def _expn_fraction(w: np.ndarray, n: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """e^w E_n(w) per element by the even form of the continued fraction of
    DLMF §8.19,

        1/(w+n - 1*n/(w+n+2 - 2(n+1)/(w+n+4 - ...))),

    the J-fraction of the Stieltjes transform of the Gamma(n) density,
    evaluated backward from each element's own ``depth``.  Sorting by depth
    makes the elements still running at level i a leading slice, so the work
    is the sum of the depths, not their maximum times the count.
    """
    order = np.argsort(-depth, kind="stable")
    wn, n, depth = w[order] + n[order], n[order].astype(np.float64), depth[order]
    running = np.searchsorted(-depth, -np.arange(int(depth[0])), side="left")
    t = wn + 2 * depth
    for i in range(int(depth[0]) - 1, -1, -1):
        m = running[i]  # the elements with depth > i
        t[:m] = (wn[:m] + 2 * i) - ((i + 1) * (n[:m] + i)) / t[:m]
    out = np.empty_like(t)
    out[order] = 1.0 / t
    return out


def _scaled_expn(w: np.ndarray, qmax: int) -> np.ndarray:
    """The table g_q(w) = e^w E_q(w), q = 1..qmax, on a leading axis over w.

    Each element is seeded at its pivot order P = clip(floor|w|, 1, top),
    top = max(qmax, 16), and the recurrence E_{q+1} = (e^-w - w E_q)/q runs
    away from P: downward, g_n = (1 - n g_{n+1})/w, for n < P, and upward,
    g_{n+1} = (1 - w g_n)/n, for n > P.  A step multiplies rounding by n/|w|
    downward and |w|/n upward, so neither direction amplifies it (Gautschi,
    SIAM Review 9, 1967), where the climb from E_1 gains about
    |w|^(q-1)/(q-1)!.

    The seed g_P comes from :func:`_expn_fraction`, at the depth that the
    smaller of two error models asks for (s = |w| + Re w):

    * Laguerre asymptotics of the Stieltjes fraction give an error of about
      exp(-4 Re sqrt(K w)) = exp(-sqrt(8 s K)) after K levels; the second
      term of ``depth`` covers the prefactor, one level per factor 2 + |w|;
    * for large |w| the fraction is the Pade form of the asymptotic series,
      and level i gains |w|^2/(i (n+i-1)), at least |w|^2/(10 (n+9)) over
      the first ten levels, on or off the cut.

    Where s < 2, so that the first model asks for about 100 levels or more,
    and the second does not hold within ten levels (small |w|, and |w| up to
    about 100 near the cut), the seed comes from :func:`_expn_series`.

    Over orders 1..16, 1e-3 <= |w| <= 3e3 and |arg w| <= 3.14 the table is
    within 5e-15 of 90-digit mpmath.
    """
    w = np.asarray(w, dtype=np.complex128)
    flat = w.ravel()
    r = np.abs(flat)
    s = r + flat.real  # 2|w| cos^2(arg(w)/2): 0 on the cut
    top = max(qmax, _TABLE_TOP)
    pivot = np.clip(np.floor(r), 1, top).astype(np.int64)
    with np.errstate(divide="ignore"):
        pade = np.log(r * r / (10.0 * (pivot + 9)))  # gain per level, first ten
    seed = np.empty_like(flat)
    near = (s < 2.0) & (pade <= _DIGITS / 10)
    if near.any():
        seed[near] = _expn_series(flat[near], pivot[near])
    far = ~near
    if far.any():
        sf, rf, pf = s[far], r[far], pade[far]
        with np.errstate(divide="ignore"):
            depth = np.ceil(_DIGITS**2 / (8.0 * sf)) + np.ceil(_DIGITS / np.log(2.0 + rf))
        depth = np.where(pf > _DIGITS / 10, np.minimum(depth, np.ceil(_DIGITS / pf)), depth)
        seed[far] = _expn_fraction(flat[far], pivot[far], depth.astype(np.int64))
    # sorted by pivot, the elements below (above) order n are a leading (trailing) slice
    order = np.argsort(pivot, kind="stable")
    ws, ps = flat[order], pivot[order]
    inv_w = 1.0 / ws
    g = np.empty((top, flat.size), dtype=np.complex128)
    g[ps - 1, np.arange(flat.size)] = seed[order]
    for n in range(top - 1, 0, -1):
        lo = np.searchsorted(ps, n, side="right")
        g[n - 1, lo:] = (1.0 - n * g[n, lo:]) * inv_w[lo:]
    for n in range(2, qmax + 1):
        hi = np.searchsorted(ps, n, side="left")
        g[n - 1, :hi] = (1.0 - ws[:hi] * g[n - 2, :hi]) / (n - 1)
    back = np.empty_like(order)
    back[order] = np.arange(flat.size)
    return np.take(g[:qmax], back, axis=1).reshape((qmax,) + w.shape)


def osc_power_tail(mu: float, z: complex, q: int, X: float, side: int = 1) -> complex:
    """Exact one-sided integral of e^{i mu t} (t-z)^(-q) over t in [X, inf).

    ``side=-1`` gives the left tail over (-inf, -X] instead.  Nonpositive
    powers q are Abel-regularized (legitimate for mu != 0); the classical
    cases reduce to the complex exponential integral.

    This scalar, one-term form is the oracle for the batched evaluator behind
    :meth:`OscRational.integral_tails`, which collects grouped coefficients
    over an array of frequencies; the package itself calls only the batched
    one.  Both read the same ``_scaled_expn`` table (here on a 0-d array),
    which is tested against mpmath on its own.
    """
    if side == -1:
        # t -> -t maps the left tail onto a right tail with reflected data
        return (-1.0) ** q * osc_power_tail(-mu, -z, q, X, side=1)
    if side != 1:
        raise ValueError("side must be +1 or -1")
    if mu == 0.0:
        if q >= 2:
            return (X - z) ** (1 - q) / (q - 1)
        raise ValueError("tail diverges for q <= 1 at zero frequency")
    if q <= 0:
        # Abel-regularized upward recursion from the plain oscillation
        j = -q
        if j == 0:
            return -cmath.exp(1j * mu * X) / (1j * mu)
        return (
            -cmath.exp(1j * mu * X) * (X - z) ** j / (1j * mu)
            - (j / (1j * mu)) * osc_power_tail(mu, z, q + 1, X)
        )
    # q >= 1: e^{i mu X} (X-z)^(1-q) e^w E_q(w) at w = -i mu (X - z)
    d = X - z
    g = _scaled_expn(np.asarray(-1j * mu * d), q)[q - 1]
    return complex(cmath.exp(1j * mu * X) * d ** (1 - q) * g)


def _right_tails(
    nu: np.ndarray, z: complex, terms: tuple[np.ndarray, np.ndarray, np.ndarray], X: float,
) -> np.ndarray:
    """Right tails of grouped terms over a (group x k) frequency array.

    ``nu`` holds one row of frequencies per group, and ``terms`` the flat
    arrays (power q, group, coefficient) of every term.  Returns the
    (group, k) partial sums sum_q c * osc_power_tail(nu, z, q, X) of every
    group: one :func:`_scaled_expn` table over the whole ``nu`` gives every
    q >= 1 as e^{i nu X} (X-z)^(1-q) g_q(-i nu (X-z)), the plain oscillation
    seeds the Abel-regularized recurrence in q <= 0, and each group collects
    its coefficients order by order.  Zero frequencies take the closed form
    (q >= 2 only, as in the oracle) and stay out of the table, whose
    elements do not depend on each other.
    """
    qs, groups, cs = terms
    zero = nu == 0.0
    zero_groups = zero.any(axis=1)
    if zero_groups[groups[qs <= 1]].any():
        raise ValueError("tail diverges for q <= 1 at zero frequency")
    d = X - z
    iw = 1j * np.where(zero, 1.0, nu)  # placeholder at zeros, overwritten below
    ph = np.exp(iw * X)
    out = np.zeros(nu.shape, dtype=np.complex128)

    def collect(q: int, val: np.ndarray, scale: complex = 1.0) -> None:
        at = qs == q
        out[groups[at]] += (scale * cs[at])[:, None] * val[groups[at]]

    qmin, qmax = int(qs.min()), int(qs.max())
    if qmax >= 1:
        g = np.zeros((qmax,) + nu.shape, dtype=np.complex128)
        if not zero.all():
            g[:, ~zero] = _scaled_expn(-iw[~zero] * d, qmax)
        for q in range(1, qmax + 1):
            collect(q, ph * g[q - 1], d ** (1 - q))
    if qmin <= 0:
        val = -ph / iw  # q == 0
        for j in range(0, 1 - qmin):
            if j >= 1:
                val = -ph * d**j / iw - (j / iw) * val
            collect(-j, val)
    if zero_groups.any():
        closed = np.zeros(len(nu), dtype=np.complex128)
        for q, g, c in zip(qs.tolist(), groups.tolist(), cs.tolist()):
            if zero_groups[g]:
                closed[g] += c * d ** (1 - q) / (q - 1)
        out[zero] = closed[np.nonzero(zero)[0]]
    return out


def _osc_product(a: dict, b: dict) -> dict:
    """The product of two OscRational term dicts, every pair of terms in
    order, as :func:`~epresolve.exact.mul_terms` takes them.

    A product frequency is rounded to 12 decimals, as in the constructor,
    once per pair of frequencies rather than once per pair of terms: a tail
    model holds a dozen frequencies over some fifty terms.  A zero sum is
    rounded again on every pair, since its sign follows the signs of the
    operands' zeros, which the memo's keys do not tell apart.
    """
    rows: dict[float, dict[float, float]] = {}

    def products() -> Iterable[tuple[tuple[float, int], complex]]:
        for (mu_a, qa), ca in a.items():
            row = rows.setdefault(mu_a, {})
            for (mu_b, qb), cb in b.items():
                mu = row.get(mu_b)
                if not mu:
                    mu = row[mu_b] = round(mu_a + mu_b, 12)
                yield (mu, qa + qb), ca * cb

    return add_terms({}, products())


class OscRational:
    """Finite sum  sum_t c_t e^{i mu_t x} (x - z)^(-q_t)  with one pole center.

    The exact integration rules above make whole-line and one-sided tail
    integrals of these sums closed-form, which is what renders the slowly
    decaying oscillatory pairings in this package tractable.  Terms are kept
    in a dict keyed by (rounded frequency, power) and accumulated by the
    term core of :mod:`epresolve.exact` (:func:`~epresolve.exact.add_terms`;
    products through :func:`_osc_product`).  Positive powers of (x-z) use
    negative q.
    """

    __slots__ = ("z", "terms")

    def __init__(self, z: complex, terms: Iterable[tuple[float, int, complex]] = ()):
        self.z = complex(z)
        self.terms = add_terms(
            {}, (((round(float(mu), 12), int(q)), complex(c)) for mu, q, c in terms)
        )

    # -- constructors ----------------------------------------------------
    @staticmethod
    def constant(z: complex, c: complex) -> "OscRational":
        return OscRational(z, [(0.0, 0, c)])

    @staticmethod
    def cosine(z: complex, mu: float, c: complex = 1.0) -> "OscRational":
        return OscRational(z, [(mu, 0, 0.5 * c), (-mu, 0, 0.5 * c)])

    @staticmethod
    def sine(z: complex, mu: float, c: complex = 1.0) -> "OscRational":
        return OscRational(z, [(mu, 0, c / 2j), (-mu, 0, -c / 2j)])

    @staticmethod
    def centered_poly(z: complex, coeffs: Sequence[complex]) -> "OscRational":
        """sum_j coeffs[j] (x-z)^j."""
        return OscRational(z, [(0.0, -j, c) for j, c in enumerate(coeffs)])

    # -- algebra -----------------------------------------------------------
    def _require_same_center(self, other: "OscRational") -> None:
        if abs(other.z - self.z) > 1e-12:
            raise ValueError("operands have different pole centers")

    def __add__(self, other: "OscRational") -> "OscRational":
        self._require_same_center(other)
        out = OscRational(self.z)
        out.terms = add_terms(dict(self.terms), other.terms.items())
        return out

    def __neg__(self) -> "OscRational":
        return OscRational(self.z, [(mu, q, -c) for (mu, q), c in self.terms.items()])

    def __sub__(self, other: "OscRational") -> "OscRational":
        return self + (-other)

    def __mul__(self, other: "OscRational | complex | float | int") -> "OscRational":
        if isinstance(other, OscRational):
            self._require_same_center(other)
            out = OscRational(self.z)
            out.terms = _osc_product(self.terms, other.terms)
            return out
        return OscRational(
            self.z, [(mu, q, c * complex(other)) for (mu, q), c in self.terms.items()]
        )

    __rmul__ = __mul__

    def shift_power(self, dq: int) -> "OscRational":
        """Multiply by (x-z)^(-dq)."""
        return OscRational(self.z, [(mu, q + dq, c) for (mu, q), c in self.terms.items()])

    # -- evaluation ----------------------------------------------------------
    def eval(self, x: np.ndarray | float) -> np.ndarray | complex:
        xa = np.asarray(x, dtype=np.float64)
        xz = xa.astype(np.complex128) - self.z
        out = np.zeros(xa.shape, dtype=np.complex128)
        for (mu, q), c in sorted(self.terms.items()):
            out += c * np.exp(1j * mu * xa) * xz ** (-q)
        if np.ndim(x) == 0:
            return complex(out)
        return out

    # -- exact integrals ----------------------------------------------------
    def integral_full_line(self) -> complex:
        """Exact whole-line integral (Abel-regularized where classical fails)."""
        total = 0.0 + 0.0j
        for (mu, q), c in sorted(self.terms.items()):
            total += c * ft_inverse_power(q, mu, self.z)
        return total

    def integral_tails(self, X: float, k: np.ndarray | None = None) -> complex | np.ndarray:
        """Exact value of the two tails |x| >= X of ``self * e^{ikx}``.

        ``k=None`` integrates ``self`` alone (k = 0) and returns a complex.  A
        real array ``k`` returns an array of the same shape, one tail per wave
        number.  The terms are grouped by frequency mu; one
        :func:`_right_tails` pass per side over the (group x k) array of
        frequencies mu + k (rounded like the keys) seeds each frequency once,
        and the groups are summed in ascending mu, the right tail before the
        left.  Raises ``ValueError`` where mu + k vanishes under a power
        q <= 1, whose tail diverges.
        """
        kv = np.asarray(np.zeros(1) if k is None else k, dtype=np.float64)
        total = np.zeros(kv.size, dtype=np.complex128)
        if self.terms:
            mus = sorted({mu for mu, _ in self.terms})
            group = {mu: g for g, mu in enumerate(mus)}
            flat = [(q, group[mu], c) for (mu, q), c in self.terms.items()]
            qs, groups = (np.array([t[i] for t in flat], dtype=int) for i in range(2))
            right = (qs, groups, np.array([t[2] for t in flat], dtype=np.complex128))
            # t -> -t maps the left tail onto a right tail with reflected data
            left = (qs, groups, np.array([(-1.0) ** t[0] * t[2] for t in flat], dtype=np.complex128))
            nu = np.round(np.array(mus)[:, None] + kv.ravel(), 12)
            sides = (_right_tails(nu, self.z, right, X), _right_tails(-nu, -self.z, left, X))
            for g in range(len(mus)):
                for side in sides:
                    total += side[g]
        return complex(total[0]) if k is None else total.reshape(kv.shape)

    def integral_line(self, X: float = 60.0, tol: float = 1e-10) -> QuadResult:
        """Core quadrature on [-X, X] plus exact tails."""
        freqs = [abs(mu) for (mu, _) in self.terms]
        omega = max(freqs) if freqs else 0.0
        core = _adaptive_oscillatory(self.eval, -X, X, tol, omega)
        return QuadResult(core.value + self.integral_tails(X), core.error, core.evaluations, core.capped)


# ---------------------------------------------------------------------------
# Gaussian packets and closed-form smearing
# ---------------------------------------------------------------------------

def hermite_values(order: int, t: np.ndarray | complex) -> np.ndarray:
    """H_0(t) .. H_order(t) stacked on a leading axis of length order + 1.

    Physicists' Hermite polynomials by H_{j+1} = 2t H_j - 2j H_{j-1}
    (DLMF 18.9.1), over the whole array t at once.
    """
    t = np.asarray(t)
    out = np.empty((order + 1,) + t.shape, dtype=np.result_type(t, 1.0))
    out[0] = 1.0
    if order > 0:
        out[1] = 2.0 * t
    for j in range(1, order):
        out[j + 1] = 2.0 * t * out[j] - 2.0 * j * out[j - 1]
    return out


def _window_moments(center: float, width: float, top: int, y: np.ndarray) -> np.ndarray:
    """mu_j(y) = ∫ k^j e^{-((k-c)/w)^2 + i k y} dk for j = 0..top, stacked.

    Integration by parts gives mu_{j+1} = s mu_j + (j w^2/2) mu_{j-1} with
    s = c + i y w^2/2, from mu_0 = w sqrt(pi) e^{i c y - (w y)^2/4}.
    """
    w2 = width * width
    s = center + 0.5j * w2 * y
    mu = np.empty((top + 1,) + y.shape, dtype=np.complex128)
    mu[0] = width * math.sqrt(math.pi) * np.exp(1j * center * y - 0.25 * w2 * y * y)
    if top > 0:
        mu[1] = s * mu[0]
    for j in range(1, top):
        mu[j + 1] = s * mu[j] + (0.5 * j * w2) * mu[j - 1]
    return mu


def gauss_moment(order: int, b: np.ndarray | complex) -> np.ndarray | complex:
    """Exact ∫ t^order e^{-t^2 + i b t} dt: the c = 0, w = 1 window moment."""
    out = _window_moments(0.0, 1.0, order, np.asarray(b, dtype=np.complex128))[order]
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GaussianPacket:
    """Weight g(k) = P(k) exp(-((k - center)/width)^2), P given by ``poly``.

    ``poly`` holds ascending polynomial coefficients in k (default: constant
    1).  These packets admit closed-form plane-wave moments and derivatives,
    which the pairing layer leans on heavily.
    """

    center: float = 0.0
    width: float = 1.0
    poly: tuple[complex, ...] = (1.0 + 0.0j,)

    def __post_init__(self) -> None:
        if not (self.width > 0):
            raise ValueError("packet width must be positive")
        object.__setattr__(self, "poly", tuple(complex(c) for c in self.poly))

    def eval(self, k: np.ndarray | float) -> np.ndarray | complex:
        ka = np.asarray(k, dtype=np.complex128)
        p = np.zeros(ka.shape, dtype=np.complex128)
        for c in reversed(self.poly):
            p = p * ka + c
        out = p * np.exp(-(((ka - self.center) / self.width) ** 2))
        if np.ndim(k) == 0:
            return complex(out)
        return out

    def deriv_at(self, k: float, order: int) -> complex:
        """Exact derivative d^order g / dk^order at a point (Leibniz + Hermite)."""
        t = (k - self.center) / self.width
        herm = hermite_values(order, t)
        total = 0.0 + 0.0j
        for j in range(order + 1):
            # j-th derivative of the Gaussian factor
            gj = (-1.0 / self.width) ** j * herm[j] * math.exp(-t * t)
            # (order-j)-th derivative of the polynomial factor
            pj = 0.0 + 0.0j
            for a, c in enumerate(self.poly):
                if a >= order - j:
                    pj += (
                        c
                        * math.factorial(a)
                        / math.factorial(a - (order - j))
                        * k ** (a - (order - j))
                    )
            total += math.comb(order, j) * pj * gj
        return total

    def plane_moments(self, top: int, y: np.ndarray | complex) -> np.ndarray:
        """Exact ∫ k^m g(k) e^{i k y} dk for m = 0..top, stacked on a leading axis."""
        y = np.asarray(y, dtype=np.complex128)
        mu = _window_moments(self.center, self.width, top + len(self.poly) - 1, y)
        out = np.zeros((top + 1,) + y.shape, dtype=np.complex128)
        for a, c in enumerate(self.poly):
            if c != 0:
                out += c * mu[a : a + top + 1]
        return out

    def norm_l2(self) -> float:
        """Exact L2 norm via the closed-form product moment."""
        conj = GaussianPacket(self.center, self.width, tuple(np.conj(self.poly)))
        return math.sqrt(abs(packet_product_moment(self, conj, 0)))


def packet_product_moment(g1: GaussianPacket, g2: GaussianPacket, power: int) -> complex:
    """Exact ∫ g1(k) g2(k) k^power dk by completing the square.

    The product of the two Gaussian windows is a single Gaussian window with
    combined center and width; the polynomial parts multiply.
    """
    a = 1.0 / g1.width**2 + 1.0 / g2.width**2
    w = 1.0 / math.sqrt(a)
    kc = (g1.center / g1.width**2 + g2.center / g2.width**2) / a
    const = math.exp(-((g1.center - g2.center) ** 2) / (g1.width**2 + g2.width**2))
    p = np.polynomial.polynomial.polymul(np.array(g1.poly), np.array(g2.poly))
    combined = GaussianPacket(kc, w, tuple(p * const))
    return complex(combined.plane_moments(power, 0.0)[power])


def quad_packet(
    g: GaussianPacket, expression: ExpLaurent, z: complex
) -> Callable[[np.ndarray | float], np.ndarray | complex]:
    """Smear an exact Laurent expression against a Gaussian packet in k.

    Returns the closed-form function  x -> ∫ g(k) * expression(k, x) dk.
    The expression must be polynomial in k (no negative spectral powers);
    its phase data determines the plane-wave argument y = sigma (x-z) +
    tau z.
    """
    bad = [key for key in expression.terms if key[0] < 0]
    if bad:
        raise ValueError(
            f"expression has negative spectral powers at {sorted(bad)}; "
            "smearing against a packet has no closed form"
        )
    ms, ps, cs = expression.to_term_arrays()
    top = int(ms.max(initial=0))
    sigma, tau = expression.phase_x, expression.phase_z
    scale = (2.0 * math.pi) ** (-0.5 * expression.unit_pow)

    def smeared(x: np.ndarray | float) -> np.ndarray | complex:
        xa = np.asarray(x, dtype=np.complex128)
        xz = xa - z
        y = sigma * xz + tau * z
        moments = g.plane_moments(top, y)
        out = np.zeros(xa.shape, dtype=np.complex128)
        for m, p, c in zip(ms, ps, cs):
            out += c * xz ** int(p) * moments[m]
        out = out * scale
        if np.ndim(x) == 0:
            return complex(out)
        return out

    return smeared
