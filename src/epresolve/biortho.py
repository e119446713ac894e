"""Biorthogonality pairings between chains and continuum solutions.

Every function returns a :class:`~epresolve.report.VerificationReport`.  The
verification strategy is uniform: smear distribution-valued pairings against
a Gaussian packet *first*, so every actual quadrature runs over an
absolutely convergent integrand; slowly decaying pieces are finished with
exact oscillatory tails.  Both families smear in closed form from the
packet's plane-wave moments: the boundary continuum through
:func:`~epresolve.quadrature.quad_packet`, the interior one through
:func:`smear_interior_scatter`, and the continuum diagonals' targets are
sums of :func:`~epresolve.quadrature.packet_product_moment`.

The boundary pairings integrate off the real axis.  Their integrands are
analytic in x except for the pole of the model at x = z, and they decay
along every horizontal line, so Cauchy's theorem moves the line of
integration anywhere that does not cross the pole (Deaño, Huybrechs and
Iserles, *Computing Highly Oscillatory Integrals*, SIAM 2018; Trefethen and
Weideman, SIAM Review 2014).  On the real axis the pole's coefficients,
which grow like ((2n-1)!!)^2, make the integrand peak far above the value
it integrates to, and rounding noise keeps the bisection from converging
from n = 7 on.  Each pairing's docstring derives its line:

* ort1 (:func:`overlap_zero`) on x = t - 8i sign(Im z), with exact tails;
* ort2 and ort4 (:func:`overlap_chain_scatter`, :func:`scatter_norm`) on
  x = t - ic sign(Im z) with c = max(0, 3 - |Im z|), 3 from the pole;
* ort7 (:func:`overlap_growing`) on the line through z, where its entire
  integrand has packet moments of real argument.

Staying on one side of the pole is more than Cauchy's theorem asks here:
every integrand has zero residue at x = z.  Two solutions f, g of
-u'' + V u = E u at energies E_f != E_g have f g = (f g' - f' g)' /
(E_f - E_g), the derivative of a single-valued function.  A chain member
l >= 1 has H u_l proportional to u_{l-1}, and the same identity reduces its
product with the continuum to u_{l-1}'s plus such a derivative.  ort1's
integrand is one (x - z)^-p with p >= 2, and ort7's is entire.

The interior pairings stay on the real axis: the interior W has complex
zeros on both sides of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .boundary import BoundaryModel, bm_assoc, bm_scatter
from .exact import el_mutate, i_power
from .interior import PAIR_WINDOW, InteriorModel, im_member, im_tail_model, im_w_bundle
from .quadrature import (
    GaussianPacket,
    OscRational,
    _adaptive_oscillatory,
    packet_product_moment,
    quad_packet,
)
from .report import VerificationReport

__all__ = [
    "overlap_zero",
    "overlap_chain_scatter",
    "overlap_growing",
    "scatter_norm",
    "interior_biortho",
    "smear_interior_scatter",
]


# ort1's line lies this far from the real axis, on the side away from the
# pole: the peak of c (x - z)^-p on it falls monotonically in the distance
_ORT1_SHIFT = 8.0
# ort2 and ort4 integrate on the line this far from the pole, or on the real
# axis where the pole is farther: the smeared continuum grows off the real
# axis like e^{(w c)^2 / 4}, which this distance keeps small
_PACKET_DEPTH = 3.0


def _away_from_pole(z: complex, c: float) -> complex:
    """The offset -i c sign(Im z) of the line x = t - i c sign(Im z): for
    c >= 0 the strip between it and the real axis holds no pole at x = z."""
    return -1j * c * math.copysign(1.0, z.imag)


def _contour_trace(contour: str, r) -> str:
    """The trace line of a pairing's quadrature result ``r`` on its contour."""
    return f"contour {contour}: {r.evaluations} evaluations, {r.capped} capped pieces"


def overlap_zero(
    model: BoundaryModel, l: int, lp: int, cutoff_scale: float = 1.0
) -> VerificationReport:
    """Mutual orthogonality of two decaying chain members, l + l' <= n - 1.

    The product is one term c (x - z)^-p with p = 2n - 2(l + l') >= 2, whose
    whole-line integral is zero.  On the line x = t - i c' sign(Im z),
    c' = 8, it reads c (t - z')^-p with z' = z + i c' sign(Im z): the same
    :class:`~epresolve.quadrature.OscRational` term re-centred at z', whose
    core on [-X, X] is bisected and whose tails |t| >= X are exact.  The
    strip between the real axis and the line holds no pole, and the term
    decays like |x|^-2 at least, so Cauchy's theorem keeps the value.  The
    peak |c| (|Im z| + c')^-p is ((2n-1)!!)^2 / (|Im z| + c')^{2n} / (2 pi)
    at l = l' = 0: at n = 8 and Im z = 1 it is 3.5e-4 instead of 6.5e11 on
    the real axis.
    """
    n = model.n
    if l + lp > n - 1:
        raise ValueError(f"pairing requires l + l' <= n-1, got {l}+{lp} for index {n}")
    f = bm_assoc(model, l) * bm_assoc(model, lp)
    # single DC Laurent term: translate to an OscRational and integrate
    ((_, p),) = f.terms.keys()
    scale = (2.0 * math.pi) ** (-0.5 * f.unit_pow)
    coeff = next(iter(f.terms.values())).to_complex() * scale
    osc = OscRational(model.z - _away_from_pole(model.z, _ORT1_SHIFT), [(0.0, -p, coeff)])
    X = 50.0 * cutoff_scale
    r = osc.integral_line(X=X, tol=1e-12)
    residual = abs(r.value)
    return VerificationReport(
        identity="ort1",
        label=f"decaying chain members ({n},{l}) and ({n},{lp}) are mutually orthogonal",
        mode="numeric",
        residual=residual,
        tolerance=1e-8,
        trace=(f"core window {X}", f"quadrature error {r.error:.2e}",
               _contour_trace(f"shift c = {_ORT1_SHIFT:g}", r)),
    )


def _packet_line(z: complex) -> tuple[float, complex]:
    """ort2's and ort4's shift c = max(0, 3 - |Im z|) and its offset."""
    c = max(0.0, _PACKET_DEPTH - abs(z.imag))
    return c, _away_from_pole(z, c)


def overlap_chain_scatter(
    model: BoundaryModel, l: int, g: GaussianPacket | None = None, cutoff_scale: float = 1.0
) -> VerificationReport:
    """A decaying chain member annihilates the smeared continuum, 0 <= l <= n-1.

    The member c (x - z)^{2l-n} and the smeared continuum, a Gaussian in x
    times powers of (x - z)^-1 (:func:`~epresolve.quadrature.quad_packet`,
    whose closed form holds at complex x), are analytic off x = z.  So the
    pairing integrates on x = t - i c sign(Im z), c = max(0, 3 - |Im z|):
    the strip between it and the real axis holds no pole, and the smearing
    decays along every horizontal line.  On the line the pole is at least 3
    away, and the packet moments grow by at most e^{(3 w)^2 / 4}.
    """
    n = model.n
    if not (0 <= l <= n - 1):
        raise ValueError(f"chain-continuum orthogonality needs 0 <= l <= n-1, got {l}")
    if g is None:
        g = GaussianPacket(center=0.8, width=0.9)
    smeared = quad_packet(g, bm_scatter(model), model.z)
    chain = bm_assoc(model, l)
    R = max(25.0, 10.0 / g.width) * cutoff_scale
    c, offset = _packet_line(model.z)

    def integrand(t: np.ndarray) -> np.ndarray:
        x = t + offset
        return np.asarray(chain.eval(0.0, x, model.z)) * np.asarray(smeared(x))

    r = _adaptive_oscillatory(integrand, -R, R, 1e-11, abs(g.center) + 1.0)
    scale = g.norm_l2()
    residual = abs(r.value) / scale
    return VerificationReport(
        identity="ort2",
        label=f"chain member ({n},{l}) against the packet-smeared continuum",
        mode="numeric",
        residual=residual,
        tolerance=1e-6,
        trace=(f"window {R}", f"packet ({g.center},{g.width})", f"norm scale {scale:.3e}",
               _contour_trace(f"shift c = {c:g}", r)),
    )


def overlap_growing(
    model: BoundaryModel, l: int, g: GaussianPacket | None = None, cutoff_scale: float = 1.0
) -> VerificationReport:
    """Pairing of a growing chain continuation (l >= n) with the continuum.

    With the displacement phase stripped from the scaled solution, the
    pairing against a packet evaluates the packet's derivative of order
    2(l-n) at the origin, divided by (2(l-n))!.

    The member (x - z)^{2l-n} times the stripped continuum, whose terms are
    k^{n-m} (x - z)^-m e^{ik(x - z)} with m <= n, is one exact
    :class:`~epresolve.exact.ExpLaurent` with no negative power of x - z: it
    is entire in x.  It is smeared once, and integrated on the line through
    z, x = z + t, where the packet moments take the real argument t and
    decay like e^{-(w t)^2 / 4}.  On the real axis they grow like
    e^{(w Im z)^2 / 4} instead.  The smearing decays along every horizontal
    line, so Cauchy's theorem keeps the value.  The product is formed
    exactly: the two factors evaluated apart give 0 * inf at x = z.
    """
    n = model.n
    if l < n:
        raise ValueError(f"growing-side pairing needs l >= n, got {l}")
    if g is None:
        g = GaussianPacket(center=0.0, width=1.0)
    order = 2 * (l - n)
    smeared = quad_packet(g, bm_assoc(model, l) * bm_scatter(model).phase_shift_z(-1), model.z)
    R = max(30.0, 11.0 / g.width) * cutoff_scale

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.asarray(smeared(model.z + t))

    r = _adaptive_oscillatory(integrand, -R, R, 1e-11, abs(g.center) + 1.0)
    target = g.deriv_at(0.0, order) / math.factorial(order)
    scale = g.norm_l2()
    residual = abs(r.value - target) / scale
    return VerificationReport(
        identity="ort7",
        label=f"growing continuation ({n},{l}) extracts the packet derivative of order {order}",
        mode="numeric",
        residual=residual,
        tolerance=1e-6,
        trace=(
            f"target {target:.6e}",
            f"value {r.value:.6e}",
            f"window {R}",
            "displacement phase applied to the continuum side of the pairing",
            _contour_trace("line through z", r),
        ),
    )


def scatter_norm(
    model: BoundaryModel,
    g1: GaussianPacket | None = None,
    g2: GaussianPacket | None = None,
    cutoff_scale: float = 1.0,
    delta: Fraction | float = 0,
) -> VerificationReport:
    """Continuum self-pairing: double smearing reproduces the diagonal moment.

    Both sides of  <F(.;k), F(.;-k')> = k'^{2n} delta(k-k')  are smeared, so
    the check is  int dx Phi1(x) Phi2(x) == int dk g1 g2 k^{2n}.  A nonzero
    ``delta`` injects a relative coefficient defect into the continuum
    solution before checking -- the residual must then come out proportional
    to delta (sensitivity control, not a pass case).

    Phi1 Phi2 is analytic off x = z, where it has a pole of order up to 2n,
    and decays like a Gaussian along every horizontal line.  So it is
    integrated on x = t - i c sign(Im z), c = max(0, 3 - |Im z|), as in
    :func:`overlap_chain_scatter`: on the real axis its peak at n = 5, z = i
    is 4.1e5 against a target of 9.4.  The quadrature tolerance is 1e-11 of
    the scale |target| + |g1| |g2| that the residual is divided by.
    """
    n = model.n
    if g1 is None:
        g1 = GaussianPacket(center=0.7, width=0.8)
    if g2 is None:
        g2 = GaussianPacket(center=0.4, width=1.1)
    F = bm_scatter(model)
    if delta:
        F = el_mutate(F, Fraction(delta))
    phi1 = quad_packet(g1, F, model.z)
    phi2 = quad_packet(g2, F.subst_neg_k() * i_power(2 * n), model.z)
    R = max(30.0, 10.0 / min(g1.width, g2.width)) * cutoff_scale
    c, offset = _packet_line(model.z)

    def integrand(t: np.ndarray) -> np.ndarray:
        x = t + offset
        return np.asarray(phi1(x)) * np.asarray(phi2(x))

    beat = abs(g1.center - g2.center) + 1.0
    target = packet_product_moment(g1, g2, 2 * n)
    scale = abs(target) + g1.norm_l2() * g2.norm_l2()
    r = _adaptive_oscillatory(integrand, -R, R, 1e-11 * scale, beat)
    residual = abs(r.value - target) / scale
    return VerificationReport(
        identity="ort4",
        label=f"doubly smeared continuum diagonal at index {n}",
        mode="numeric",
        residual=residual,
        tolerance=1e-6,
        trace=(f"target {target:.6e}", f"value {r.value:.6e}", f"window {R}",
               _contour_trace(f"shift c = {c:g}", r)),
    )


# ---------------------------------------------------------------------------
# interior model pairings
# ---------------------------------------------------------------------------

def smear_interior_scatter(
    model: InteriorModel, g: GaussianPacket, negate_k: bool = False
) -> Callable[[np.ndarray], np.ndarray]:
    """x -> ∫ g(k) (k^2 - a^2) psi(x; s k) dk in closed form, s = -1 if ``negate_k`` else 1.

    The pole-free multiple is (k^2 - a^2 + (i s k W' - W''/2) / W) e^{i s k x}
    / sqrt(2 pi), a polynomial of degree two in k times a plane wave, so the
    smearing is [P2 - a^2 P0 + (i s W' P1 - W'' P0 / 2) / W] / sqrt(2 pi)
    with P_m = ∫ k^m g(k) e^{i k s x} dk, the packet's
    :meth:`~epresolve.quadrature.GaussianPacket.plane_moments` at y = s x:
    the interior twin of :func:`~epresolve.quadrature.quad_packet`.  It
    decays like a Gaussian in x.
    """
    s = -1.0 if negate_k else 1.0
    a2 = model.alpha**2

    def smeared(x: np.ndarray) -> np.ndarray:
        xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
        p0, p1, p2 = g.plane_moments(2, s * xa)
        W, W1, W2 = im_w_bundle(model, xa)
        return (p2 - a2 * p0 + (1j * s * W1 * p1 - 0.5 * W2 * p0) / W) / math.sqrt(2 * math.pi)

    return smeared


def interior_biortho(
    model: InteriorModel,
    which: str,
    g: GaussianPacket | None = None,
    cutoff_scale: float = 1.0,
) -> VerificationReport:
    """Interior-model pairings around the embedded eigenvalue.

    ``which`` selects the relation:

    * ``"zero_zero"``   -- self-pairing of the bounded state vanishes;
    * ``"zero_one"``    -- bounded state against its chain partner vanishes;
    * ``"zero_scatter"``, ``"one_scatter"`` -- either chain member against
      the packet-smeared pole-free continuum vanishes;
    * ``"scatter_scatter"`` -- doubly smeared continuum diagonal equals the
      one-dimensional moment ∫ g^2 (k^2-a^2)^2 dk.
    """
    aliases = {
        "ort11": "zero_zero",
        "ort11p": "zero_one",
        "ort11'": "zero_one",
        "ort12": "scatter_scatter",
    }
    which = aliases.get(which, which)
    if g is None:
        g = GaussianPacket(center=model.alpha + 0.55, width=0.25)
    if which in ("zero_zero", "zero_one"):
        X = PAIR_WINDOW * cutoff_scale
        second = "psi0" if which == "zero_zero" else "psi1"

        def integrand(x: np.ndarray) -> np.ndarray:
            return im_member(model, "psi0", x) * im_member(model, second, x)

        core = _adaptive_oscillatory(integrand, -X, X, 1e-12, 2 * model.alpha)
        tail_model = im_tail_model(model, f"psi0*{second}", X)
        value = core.value + tail_model.integral_tails(X)
        residual = abs(value)
        tol = 1e-6
        trace = (f"core window {X}", f"tail terms {len(tail_model.terms)}")
    elif which in ("zero_scatter", "one_scatter"):
        smeared = smear_interior_scatter(model, g)
        member = "psi0" if which == "zero_scatter" else "psi1"
        R = max(40.0, 10.0 / g.width) * cutoff_scale

        def integrand(x: np.ndarray) -> np.ndarray:
            return im_member(model, member, x) * np.asarray(smeared(x))

        r = _adaptive_oscillatory(integrand, -R, R, 1e-11, abs(g.center) + model.alpha)
        residual = abs(r.value) / g.norm_l2()
        tol = 1e-5
        trace = (f"window {R}", f"packet ({g.center},{g.width})")
    elif which == "scatter_scatter":
        phi1 = smear_interior_scatter(model, g)
        phi2 = smear_interior_scatter(model, g, negate_k=True)
        R = max(40.0, 10.0 / g.width) * cutoff_scale

        def integrand(x: np.ndarray) -> np.ndarray:
            return np.asarray(phi1(x)) * np.asarray(phi2(x))

        r = _adaptive_oscillatory(integrand, -R, R, 1e-11, 2 * abs(g.center))
        # (k^2 - a^2)^2 = k^4 - 2 a^2 k^2 + a^4, moment by moment
        a2 = model.alpha**2
        target = sum(c * packet_product_moment(g, g, m) for m, c in ((4, 1.0), (2, -2 * a2), (0, a2 * a2)))
        residual = abs(r.value - target) / (abs(target) + g.norm_l2() ** 2)
        tol = 1e-5
        trace = (f"target {target:.6e}", f"value {r.value:.6e}", f"window {R}")
    else:
        raise ValueError(f"unknown interior pairing {which!r}")
    ids = {
        "zero_zero": "ort11",
        "zero_one": "ort11p",
        "zero_scatter": "ort11s",
        "one_scatter": "ort11ps",
        "scatter_scatter": "ort12",
    }
    return VerificationReport(
        identity=ids[which],
        label=f"interior pairing {which}",
        mode="numeric",
        residual=float(residual),
        tolerance=tol,
        trace=trace,
    )
