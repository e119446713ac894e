"""Pairing-layer checks: every relation verified against an independent oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epresolve import biortho
from epresolve.biortho import (
    interior_biortho,
    overlap_chain_scatter,
    overlap_growing,
    overlap_zero,
    scatter_norm,
    smear_interior_scatter,
)
from epresolve.boundary import BoundaryModel
from epresolve.interior import InteriorModel, im_scatter
from epresolve.quadrature import GaussianPacket, _adaptive, composite_gauss, packet_product_moment

UNIT = GaussianPacket(0.0, 1.0)


# ---------------------------------------------------------------------------
# decaying chain members pair to zero among themselves
# ---------------------------------------------------------------------------

ZERO_PAIRS = [
    (n, l, lp)
    for n in range(1, 5)
    for l in range(n)
    for lp in range(n)
    if l + lp <= n - 1
]


@pytest.mark.parametrize("n,l,lp", ZERO_PAIRS)
def test_overlap_zero_all_pairs_up_to_n4(n, l, lp):
    rep = overlap_zero(BoundaryModel(n), l, lp)
    assert rep.mode == "numeric"
    assert rep.residual < 1e-8
    assert rep.passed


def test_overlap_zero_rejects_out_of_range_pair():
    with pytest.raises(ValueError):
        overlap_zero(BoundaryModel(2), 1, 1)  # 1+1 > n-1


@given(
    n=st.integers(min_value=1, max_value=5),
    l=st.integers(min_value=0, max_value=4),
    lp=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_overlap_zero_exchange_symmetry(n, l, lp):
    if l + lp > n - 1:
        return
    m = BoundaryModel(n)
    assert overlap_zero(m, l, lp).residual == overlap_zero(m, lp, l).residual


# ---------------------------------------------------------------------------
# chain members annihilate the smeared continuum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,l", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_chain_scatter_orthogonality(n, l):
    # (3, 2) exercises a non-normalizable (merely bounded/growing-free) member
    rep = overlap_chain_scatter(BoundaryModel(n), l, UNIT)
    assert rep.residual < 1e-6


def test_chain_scatter_rejects_growing_side():
    with pytest.raises(ValueError):
        overlap_chain_scatter(BoundaryModel(2), 2, UNIT)


# ---------------------------------------------------------------------------
# growing continuations extract packet derivatives at the spectral origin
# ---------------------------------------------------------------------------

def test_growing_order_zero_picks_packet_value():
    # order 2(l-n) = 0: the pairing is g(0) = 1 for the unit packet
    rep = overlap_growing(BoundaryModel(1), 1, UNIT)
    assert rep.residual < 1e-6


def test_growing_order_two_picks_second_derivative():
    # g(k) = exp(-k^2) has g''(0)/2! = -1; pairing must land there
    assert UNIT.deriv_at(0.0, 2) == pytest.approx(-2.0, abs=1e-14)
    rep = overlap_growing(BoundaryModel(1), 2, UNIT)
    assert rep.residual < 1e-6


def test_growing_shifted_packet_value():
    g = GaussianPacket(1.0, 1.0)  # g(0) = exp(-1)
    assert complex(g.eval(0.0)).real == pytest.approx(math.exp(-1), abs=1e-15)
    rep = overlap_growing(BoundaryModel(2), 2, g)
    assert rep.residual < 1e-6


def test_growing_rejects_decaying_side():
    with pytest.raises(ValueError):
        overlap_growing(BoundaryModel(2), 1, UNIT)


# ---------------------------------------------------------------------------
# continuum self-pairing (doubly smeared diagonal)
# ---------------------------------------------------------------------------

def test_scatter_norm_free_particle_oracle():
    # n=0 diagonal moment: int exp(-2k^2) dk = sqrt(pi/2)
    target = packet_product_moment(UNIT, UNIT, 0)
    assert target == pytest.approx(math.sqrt(math.pi / 2), abs=1e-13)
    rep = scatter_norm(BoundaryModel(0), UNIT, UNIT)
    assert rep.residual < 1e-6


def test_scatter_norm_first_moment_oracle():
    # n=1: int k^2 exp(-2k^2) dk = sqrt(pi/2)/4
    target = packet_product_moment(UNIT, UNIT, 2)
    assert target == pytest.approx(math.sqrt(math.pi / 2) / 4, abs=1e-13)
    rep = scatter_norm(BoundaryModel(1), UNIT, UNIT)
    assert rep.residual < 1e-6


def test_scatter_norm_mixed_packets_against_quadrature_oracle():
    g2 = GaussianPacket(1.0, 1.0)

    def w(k):
        return np.asarray(UNIT.eval(k)) * np.asarray(g2.eval(k)) * k**4

    oracle = _adaptive(w, -9.0, 10.0, 1e-12).value
    assert packet_product_moment(UNIT, g2, 4) == pytest.approx(oracle, abs=1e-10)
    rep = scatter_norm(BoundaryModel(2), UNIT, g2)
    assert rep.residual < 1e-6


@pytest.mark.parametrize("n", [0, 1, 2])
def test_scatter_norm_detects_injected_coefficient_error(n):
    m = BoundaryModel(n)
    r_small = scatter_norm(m, delta=Fraction(1, 1000)).residual
    r_big = scatter_norm(m, delta=Fraction(1, 100)).residual
    assert r_small > 1e-4  # a defect this size must not pass unnoticed
    assert 9.5 < r_big / r_small < 10.5  # linear response to the defect size


# ---------------------------------------------------------------------------
# interior pairings
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def interior():
    return InteriorModel(1.0, 1j)


@pytest.mark.parametrize("which,tol", [
    ("zero_zero", 1e-6),
    ("zero_one", 1e-6),
    ("zero_scatter", 1e-5),
    ("one_scatter", 1e-5),
    ("scatter_scatter", 1e-5),
])
def test_interior_relations(interior, which, tol):
    rep = interior_biortho(interior, which)
    assert rep.residual < tol
    assert rep.passed


def test_interior_identity_aliases(interior):
    assert (
        interior_biortho(interior, "ort11").residual
        == interior_biortho(interior, "zero_zero").residual
    )
    assert interior_biortho(interior, "ort11p").identity == "ort11p"
    assert interior_biortho(interior, "ort12").identity == "ort12"


def test_interior_unknown_relation_rejected(interior):
    with pytest.raises(ValueError):
        interior_biortho(interior, "mystery")


def _packet_half_width(g):
    # half-width beyond which g's envelope is below 1e-20 of its peak
    return g.width * math.sqrt(-math.log(1e-20)) + 0.5 * g.width * len(g.poly)


def test_interior_diagonal_matches_moment_formula(interior):
    # oracle: the former target, adaptive quadrature of g^2 (k^2-a^2)^2 over
    # the packet's truncated support; the report's target is the closed
    # moment sum k^4 - 2 a^2 k^2 + a^4
    a2 = interior.alpha**2
    for g in (GaussianPacket(interior.alpha + 0.55, 0.25), GaussianPacket(0.4, 0.3),
              GaussianPacket(1.2, 1.0, (0.3, 1.0))):
        half = _packet_half_width(g)
        oracle = _adaptive(lambda k: np.asarray(g.eval(k)) ** 2 * (k * k - a2) ** 2,
                           g.center - half, g.center + half, 1e-12).value
        moments = (
            packet_product_moment(g, g, 4)
            - 2 * a2 * packet_product_moment(g, g, 2)
            + a2 * a2 * packet_product_moment(g, g, 0)
        )
        scale = abs(oracle) + g.norm_l2() ** 2
        assert abs(moments - oracle) < 1e-12 * scale
        rep = interior_biortho(interior, "scatter_scatter", g)
        assert rep.residual < 1e-12


# ---------------------------------------------------------------------------
# the smeared interior continuum in closed form
# ---------------------------------------------------------------------------

SMEAR_ALPHAS = (0.5, 1.0, 1.5, 3.0)
SMEAR_ZS = (1j, 0.3 + 0.7j, 0.5j, -0.4 + 1.5j)


def _grid_smear_oracle(model, g, negate_k=False, density=4):
    """Oracle: the former smearing, a composite 16-point Gauss grid in k over
    the packet's truncated support, max(12, int(density * half)) panels,
    applied to the pole-free multiple of the scattering solution.  At
    density 4 (the former rule) its panels are too wide for the phase kx
    far out; a finer density resolves |x| <= 80."""
    half = _packet_half_width(g)
    nodes, weights = composite_gauss(g.center - half, g.center + half, max(12, int(density * half)), 16)
    gw = np.asarray(g.eval(nodes)) * weights
    knodes = (-nodes if negate_k else nodes).astype(np.complex128)

    def smeared(x):
        xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return gw @ im_scatter(model, knodes[:, None], xa[None, :], True)

    return smeared


@pytest.mark.parametrize("alpha", SMEAR_ALPHAS)
def test_closed_form_smearing_matches_a_fine_grid(alpha):
    x = np.linspace(-80.0, 80.0, 161)
    for z in SMEAR_ZS:
        model = InteriorModel(alpha, z)
        for width in (0.25, 0.5, 1.0):
            for g in (GaussianPacket(alpha + 0.55, width), GaussianPacket(0.4, width, (0.3, 1.0))):
                for negate_k in (False, True):
                    fine = _grid_smear_oracle(model, g, negate_k, density=16)(x)
                    got = smear_interior_scatter(model, g, negate_k)(x)
                    assert np.max(np.abs(got - fine)) < 1e-13 * np.max(np.abs(fine)), (z, width, negate_k)


def test_former_grid_smearing_misses_far_out():
    # the width-1 packet at x = 60: the former 4-panels-per-unit rule misses
    # by about 2e-8, the closed form agrees with the fine grid
    model, g = InteriorModel(1.0, 1j), GaussianPacket(1.55, 1.0)
    x = np.array([60.0])
    fine = _grid_smear_oracle(model, g, density=16)(x)
    peak = np.max(np.abs(_grid_smear_oracle(model, g, density=16)(np.linspace(-5, 5, 101))))
    assert abs(_grid_smear_oracle(model, g)(x) - fine)[0] > 1e-9
    assert abs(smear_interior_scatter(model, g)(x) - fine)[0] < 1e-13 * peak


@pytest.mark.parametrize("alpha", SMEAR_ALPHAS)
@pytest.mark.parametrize("z", SMEAR_ZS)
def test_interior_scatter_pairings_on_the_grid(alpha, z):
    # ort11s, ort11ps and ort12 pass at both cutoff scales, and doubling the
    # window leaves each residual within its tolerance
    model = InteriorModel(alpha, z)
    for which in ("zero_scatter", "one_scatter", "scatter_scatter"):
        base = interior_biortho(model, which)
        doubled = interior_biortho(model, which, cutoff_scale=2.0)
        assert base.passed and doubled.passed, (which, base.residual, doubled.residual)
        assert abs(base.residual - doubled.residual) <= base.tolerance


def test_interior_smearing_mutation_control(monkeypatch):
    # W's linear coefficient 2 -> 2.001 in the smeared continuum only: the
    # chain members keep the true W, so ort11s and ort12 must fail
    def mutated(model, x):
        a = model.alpha
        xa = np.asarray(x, dtype=np.float64)
        s = np.sin(2 * a * xa)
        return s + 2.001 * a * (xa - model.z), 2 * a * np.cos(2 * a * xa) + 2.001 * a + 0j, -4 * a * a * s + 0j

    models = [InteriorModel(1.5, 0.3 + 0.7j), InteriorModel(3.0, 0.3 + 0.7j)]
    assert all(interior_biortho(m, w).passed for m in models for w in ("zero_scatter", "scatter_scatter"))
    monkeypatch.setattr(biortho, "im_w_bundle", mutated)
    for m in models:
        for which in ("zero_scatter", "scatter_scatter"):
            assert not interior_biortho(m, which).passed, (m, which)


def test_interior_packet_below_resonance_still_orthogonal(interior):
    g = GaussianPacket(0.4, 0.3)
    assert interior_biortho(interior, "zero_scatter", g).residual < 1e-5


# ---------------------------------------------------------------------------
# stability and determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("maker", [
    lambda s: overlap_zero(BoundaryModel(2), 0, 1, cutoff_scale=s),
    lambda s: overlap_chain_scatter(BoundaryModel(2), 0, UNIT, cutoff_scale=s),
    lambda s: overlap_growing(BoundaryModel(1), 1, UNIT, cutoff_scale=s),
    lambda s: scatter_norm(BoundaryModel(1), UNIT, UNIT, cutoff_scale=s),
], ids="ort1 ort2 ort7 ort4".split())
def test_cutoff_doubling_stability(maker):
    base = maker(1.0)
    doubled = maker(2.0)
    assert abs(base.residual - doubled.residual) <= base.tolerance


def test_interior_cutoff_doubling_stability(interior):
    for which in ("zero_one", "scatter_scatter"):
        base = interior_biortho(interior, which)
        doubled = interior_biortho(interior, which, cutoff_scale=2.0)
        assert abs(base.residual - doubled.residual) <= base.tolerance


def test_reports_are_deterministic():
    a = scatter_norm(BoundaryModel(1), UNIT, UNIT)
    b = scatter_norm(BoundaryModel(1), UNIT, UNIT)
    assert a.residual == b.residual
    assert a.to_dict() == b.to_dict()
