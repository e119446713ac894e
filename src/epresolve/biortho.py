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


def overlap_zero(
    model: BoundaryModel, l: int, lp: int, cutoff_scale: float = 1.0
) -> VerificationReport:
    """Mutual orthogonality of two decaying chain members, l + l' <= n - 1.

    The product decays at least like 1/x^2, so the whole-line integral is
    evaluated as a finite core plus exact inverse-power tails and compared
    against zero.
    """
    n = model.n
    if l + lp > n - 1:
        raise ValueError(f"pairing requires l + l' <= n-1, got {l}+{lp} for index {n}")
    f = bm_assoc(model, l) * bm_assoc(model, lp)
    # single DC Laurent term: translate to an OscRational and integrate
    ((_, p),) = f.terms.keys()
    scale = (2.0 * math.pi) ** (-0.5 * f.unit_pow)
    coeff = next(iter(f.terms.values())).to_complex() * scale
    osc = OscRational(model.z, [(0.0, -p, coeff)])
    X = 50.0 * cutoff_scale
    r = osc.integral_line(X=X, tol=1e-12)
    residual = abs(r.value)
    return VerificationReport(
        identity="ort1",
        label=f"decaying chain members ({n},{l}) and ({n},{lp}) are mutually orthogonal",
        mode="numeric",
        residual=residual,
        tolerance=1e-8,
        trace=(f"core window {X}", f"quadrature error {r.error:.2e}"),
    )


def overlap_chain_scatter(
    model: BoundaryModel, l: int, g: GaussianPacket | None = None, cutoff_scale: float = 1.0
) -> VerificationReport:
    """A decaying chain member annihilates the smeared continuum, 0 <= l <= n-1."""
    n = model.n
    if not (0 <= l <= n - 1):
        raise ValueError(f"chain-continuum orthogonality needs 0 <= l <= n-1, got {l}")
    if g is None:
        g = GaussianPacket(center=0.8, width=0.9)
    smeared = quad_packet(g, bm_scatter(model), model.z)
    chain = bm_assoc(model, l)
    R = max(25.0, 10.0 / g.width) * cutoff_scale

    def integrand(x: np.ndarray) -> np.ndarray:
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
        trace=(f"window {R}", f"packet ({g.center},{g.width})", f"norm scale {scale:.3e}"),
    )


def overlap_growing(
    model: BoundaryModel, l: int, g: GaussianPacket | None = None, cutoff_scale: float = 1.0
) -> VerificationReport:
    """Pairing of a growing chain continuation (l >= n) with the continuum.

    With the displacement phase stripped from the scaled solution, the
    pairing against a packet evaluates the packet's derivative of order
    2(l-n) at the origin, divided by (2(l-n))!.
    """
    n = model.n
    if l < n:
        raise ValueError(f"growing-side pairing needs l >= n, got {l}")
    if g is None:
        g = GaussianPacket(center=0.0, width=1.0)
    order = 2 * (l - n)
    smeared = quad_packet(g, bm_scatter(model).phase_shift_z(-1), model.z)
    chain = bm_assoc(model, l)
    R = max(30.0, 11.0 / g.width) * cutoff_scale

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.asarray(chain.eval(0.0, x, model.z)) * np.asarray(smeared(x))

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

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.asarray(phi1(x)) * np.asarray(phi2(x))

    beat = abs(g1.center - g2.center) + 1.0
    r = _adaptive_oscillatory(integrand, -R, R, 1e-11, beat)
    target = packet_product_moment(g1, g2, 2 * n)
    scale = abs(target) + g1.norm_l2() * g2.norm_l2()
    residual = abs(r.value - target) / scale
    return VerificationReport(
        identity="ort4",
        label=f"doubly smeared continuum diagonal at index {n}",
        mode="numeric",
        residual=residual,
        tolerance=1e-6,
        trace=(f"target {target:.6e}", f"value {r.value:.6e}", f"window {R}"),
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
        tail_model = im_tail_model(model, "psi0", X) * im_tail_model(model, second, X)
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
