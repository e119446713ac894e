"""Pairing-layer checks: every relation verified against an independent oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epresolve import biortho, quadrature
from epresolve.biortho import (
    interior_biortho,
    overlap_chain_scatter,
    overlap_growing,
    overlap_zero,
    scatter_norm,
    smear_interior_scatter,
)
from epresolve.boundary import BoundaryModel, bm_assoc, bm_scatter
from epresolve.exact import el_mutate, i_power
from epresolve.interior import (
    PAIR_WINDOW,
    InteriorModel,
    im_jet,
    im_member,
    im_scatter,
    im_tail_model,
    im_w_bundle,
)
from epresolve.quadrature import (
    GaussianPacket,
    OscRational,
    _adaptive,
    _adaptive_oscillatory,
    composite_gauss,
    packet_product_moment,
    quad_packet,
)

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
# the boundary pairings off the real axis
# ---------------------------------------------------------------------------

# Oracles: the boundary pairings as they were integrated on the real axis,
# each returning the value of its integral.  They agree with the shifted
# lines while the real axis still converges (n <= 3, |Im z| >= 1).

def _real_axis_ort1(model, l, lp):
    f = bm_assoc(model, l) * bm_assoc(model, lp)
    ((_, p),) = f.terms.keys()
    c = next(iter(f.terms.values())).to_complex() * (2.0 * math.pi) ** (-0.5 * f.unit_pow)
    return OscRational(model.z, [(0.0, -p, c)]).integral_line(X=50.0, tol=1e-12).value


def _real_axis_ort2(model, l, g):
    smeared = quad_packet(g, bm_scatter(model), model.z)
    chain = bm_assoc(model, l)
    R = max(25.0, 10.0 / g.width)
    return _adaptive_oscillatory(lambda x: chain.eval(0.0, x, model.z) * smeared(x),
                                 -R, R, 1e-11, abs(g.center) + 1.0).value


def _real_axis_ort4(model, g1, g2):
    F = bm_scatter(model)
    phi1 = quad_packet(g1, F, model.z)
    phi2 = quad_packet(g2, F.subst_neg_k() * i_power(2 * model.n), model.z)
    R = max(30.0, 10.0 / min(g1.width, g2.width))
    return _adaptive_oscillatory(lambda x: phi1(x) * phi2(x), -R, R, 1e-11,
                                 abs(g1.center - g2.center) + 1.0).value


def _real_axis_ort7(model, l, g):
    # the two factors evaluated apart: no real node falls on x = z
    smeared = quad_packet(g, bm_scatter(model).phase_shift_z(-1), model.z)
    chain = bm_assoc(model, l)
    R = max(30.0, 11.0 / g.width)
    return _adaptive_oscillatory(lambda x: chain.eval(0.0, x, model.z) * smeared(x),
                                 -R, R, 1e-11, abs(g.center) + 1.0).value


def _line_values(monkeypatch, make):
    """The report of ``make()`` and the values of the line integrals it took."""
    values = []
    osc, line = biortho._adaptive_oscillatory, OscRational.integral_line

    def spy_osc(*args):
        r = osc(*args)
        values.append(r.value)
        return r

    def spy_line(self, *args, **kwargs):
        r = line(self, *args, **kwargs)
        values.append(r.value)
        return r

    with monkeypatch.context() as m:
        m.setattr(biortho, "_adaptive_oscillatory", spy_osc)
        m.setattr(OscRational, "integral_line", spy_line)
        rep = make()
    (value,) = values
    return rep, value


G1, G2 = GaussianPacket(0.7, 0.8), GaussianPacket(0.4, 1.1)
G_CHAIN, G_GROW = GaussianPacket(0.8, 0.9), GaussianPacket(0.3, 1.0)
ORACLE_ZS = (1j, 1.5j, -1j, 0.3 + 2j, -0.4 - 1.2j)


def _pairings(model):
    """(name, maker of the report, real-axis value, scale of the residual)."""
    n = model.n
    out = [("ort4", lambda: scatter_norm(model, G1, G2), lambda: _real_axis_ort4(model, G1, G2),
            abs(packet_product_moment(G1, G2, 2 * n)) + G1.norm_l2() * G2.norm_l2())]
    for l in range(n):
        for lp in range(l, n - l):
            out.append((f"ort1({l},{lp})", lambda l=l, lp=lp: overlap_zero(model, l, lp),
                        lambda l=l, lp=lp: _real_axis_ort1(model, l, lp), 1.0))
        out.append((f"ort2({l})", lambda l=l: overlap_chain_scatter(model, l, G_CHAIN),
                    lambda l=l: _real_axis_ort2(model, l, G_CHAIN), G_CHAIN.norm_l2()))
    for l in range(max(n, 1), n + 2):
        out.append((f"ort7({l})", lambda l=l: overlap_growing(model, l, G_GROW),
                    lambda l=l: _real_axis_ort7(model, l, G_GROW), G_GROW.norm_l2()))
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_shifted_lines_match_the_real_axis_oracle(n, monkeypatch):
    for z in ORACLE_ZS:
        model = BoundaryModel(n, z)
        for name, make, oracle, scale in _pairings(model):
            rep, value = _line_values(monkeypatch, make)
            assert rep.passed, (z, name, rep.residual)
            assert abs(value - oracle()) <= 1e-12 * scale, (z, name)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_second_shift_gives_the_same_value(n, monkeypatch):
    # ort1 at 5 instead of 8 from the real axis; ort2 and ort4 at 4.5
    # instead of 3 from the pole (c 3.5 instead of 2 at Im z = 1)
    for z in (1j, -0.5j, 0.3 + 2j):
        model = BoundaryModel(n, z)
        base = {name: _line_values(monkeypatch, make)[1] for name, make, _, _ in _pairings(model)}
        monkeypatch.setattr(biortho, "_ORT1_SHIFT", 5.0)
        monkeypatch.setattr(biortho, "_PACKET_DEPTH", 4.5)
        for name, make, _, scale in _pairings(model):
            if not name.startswith("ort7"):
                assert abs(_line_values(monkeypatch, make)[1] - base[name]) <= 1e-12 * scale, (z, name)
        monkeypatch.undo()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_line_across_the_pole_gives_the_same_value(n, monkeypatch):
    # crossing the pole at x = z is no mutation control for these pairings,
    # because every integrand has zero residue there.  Two solutions f, g of
    # -u'' + n(n+1)/(x-z)^2 u = E u at E_f != E_g have f g = (f g' - f' g)' /
    # (E_f - E_g); a chain member l >= 1 reduces to l - 1 by the same
    # identity; ort1 is a single (x - z)^-p with p >= 2.  At z = i, ort1's
    # line 9 above the pole gives the value of its line 9 below, and ort2's
    # and ort4's line 3 above that of their line 3 below, for ort4's pole of
    # order 2n too
    model = BoundaryModel(n, 1j)
    base = {name: _line_values(monkeypatch, make)[1] for name, make, _, _ in _pairings(model)}
    monkeypatch.setattr(biortho, "_ORT1_SHIFT", -10.0)
    monkeypatch.setattr(biortho, "_packet_line", lambda z: (-4.0, biortho._away_from_pole(z, -4.0)))
    for name, make, _, scale in _pairings(model):
        rep, value = _line_values(monkeypatch, make)
        if not name.startswith("ort7"):
            assert _contour_line(rep).startswith("contour shift c = -")
        assert abs(value - base[name]) <= 1e-12 * scale, name


def _residue_at_z(model, delta):
    """Residue of ort4's Phi1 Phi2 at x = z, with the continuum defect
    ``delta``: the trapezoid rule on a circle of radius 1/2 about z."""
    F = el_mutate(bm_scatter(model), delta) if delta else bm_scatter(model)
    phi1 = quad_packet(G1, F, model.z)
    phi2 = quad_packet(G2, F.subst_neg_k() * i_power(2 * model.n), model.z)
    u = 0.5 * np.exp(2j * math.pi * np.arange(256) / 256)
    return np.mean(phi1(model.z + u) * phi2(model.z + u) * u)


@pytest.mark.parametrize("n", [1, 3])
def test_ort4_across_a_pole_with_a_residue_fails(n, monkeypatch):
    # mutation control: a line across the pole at x = z is caught exactly
    # when the integrand has a residue there.  The continuum's Phi1 Phi2 has
    # none; with a coefficient defect of 1e-6 the continuum is no solution
    # and its pole (a double pole at n = 1) has one.  ort4 then passes on
    # its own line, fails on the line 3 above z, and the two values differ
    # by 2 pi i times the residue
    model = BoundaryModel(n, 1j)
    delta = Fraction(1, 10**6)
    scale = abs(packet_product_moment(G1, G2, 2 * n)) + G1.norm_l2() * G2.norm_l2()
    assert abs(_residue_at_z(model, 0)) <= 1e-12 * scale
    residue = _residue_at_z(model, delta)
    assert abs(2j * math.pi * residue) > 1e-6 * scale
    below, value = _line_values(monkeypatch, lambda: scatter_norm(model, G1, G2, delta=delta))
    monkeypatch.setattr(biortho, "_packet_line", lambda z: (-4.0, biortho._away_from_pole(z, -4.0)))
    across, crossed = _line_values(monkeypatch, lambda: scatter_norm(model, G1, G2, delta=delta))
    assert below.passed and not across.passed
    assert abs(value - crossed - 2j * math.pi * residue) <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 3, 8])
def test_ort1_needs_its_exact_tails(n, monkeypatch):
    # mutation control: the core alone misses the tails |t| >= 50 of
    # c (t - z')^-p, of order |c| / 50 at p = 2, the pair (0, n - 1).
    # Crossing the pole cannot bite ort1: a single (x - z)^-p with p >= 2
    # has zero residue, so a line on either side gives the same value
    model = BoundaryModel(n, 1j)
    assert overlap_zero(model, 0, n - 1).passed
    monkeypatch.setattr(OscRational, "integral_tails", lambda self, X, k=None: 0j)
    assert not overlap_zero(model, 0, n - 1).passed


@pytest.mark.parametrize("n,l", [(1, 1), (2, 3), (4, 4)])
def test_ort7_detects_a_mutated_chain_coefficient(n, l, monkeypatch):
    # mutation control: one coefficient of the growing member off by 1e-3
    model = BoundaryModel(n, 1j)
    assert overlap_growing(model, l).passed
    monkeypatch.setattr(biortho, "bm_assoc", lambda m, j: el_mutate(bm_assoc(m, j), Fraction(1, 1000)))
    assert not overlap_growing(model, l).passed


@pytest.mark.parametrize("im", [0.5, 1.0, 2.0, -0.5])
def test_boundary_pairings_pass_up_to_n8(im):
    # on the real axis ort1 failed from n = 7 at z = i and ort4 at n = 8,
    # Im z = 0.5
    for n in range(1, 9):
        model = BoundaryModel(n, complex(0.0, im))
        reports = [overlap_zero(model, l, lp) for l in range(n) for lp in range(l, n - l)]
        reports += [overlap_growing(model, n), scatter_norm(model)]
        bad = [(r.identity, r.residual) for r in reports if not r.passed]
        assert not bad, (n, im, bad)


@pytest.mark.parametrize("im", [10.0, 20.0, 1e4, -30.0])
def test_ort7_on_the_line_through_z(im):
    # on the real axis the packet moments grew like e^{(w Im z)^2 / 4}:
    # 2.0e-4 at Im z 10, 8.1e28 at 20 and NaN at 1e4
    for n, l in ((1, 1), (1, 2), (2, 2), (3, 4)):
        rep = overlap_growing(BoundaryModel(n, complex(0.2, im)), l)
        assert rep.passed, (n, l, rep.residual)
        assert _contour_line(rep).startswith("contour line through z: ")


def _contour_line(rep):
    (line,) = (t for t in rep.trace if t.startswith("contour "))
    return line


def test_boundary_traces_name_contour_evaluations_and_caps(monkeypatch):
    # ort4 at n = 9, z = i caps one piece of its line and still passes
    model = BoundaryModel(2, 1j)
    for make, contour, caps in ((lambda: overlap_zero(model, 0, 1), "shift c = 8", 0),
                                (lambda: overlap_chain_scatter(model, 0), "shift c = 2", 0),
                                (lambda: scatter_norm(model), "shift c = 2", 0),
                                (lambda: overlap_growing(model, 2), "line through z", 0),
                                (lambda: scatter_norm(BoundaryModel(9, 1j)), "shift c = 2", 1)):
        results = []
        osc = biortho._adaptive_oscillatory
        monkeypatch.setattr(biortho, "_adaptive_oscillatory", lambda *a: results.append(osc(*a)) or results[-1])
        monkeypatch.setattr(quadrature, "_adaptive_oscillatory", biortho._adaptive_oscillatory)
        rep = make()
        monkeypatch.undo()
        (r,) = results
        assert r.evaluations > 0 and r.capped == caps
        assert _contour_line(rep) == f"contour {contour}: {r.evaluations} evaluations, {caps} capped pieces"


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


ORT11_MODELS = ((1.0, 1j), (1.5, 1j), (0.5, 0.3 + 0.7j), (1.2, -0.4 + 1.9j), (0.06, 1j))


def _bracket_core(model, X):
    # ort11's core on [-X, X]: the Lagrange bracket -2 a^2 / W between -X and X
    w_left, w_right = im_w_bundle(model, np.array([-X, X]))[0]
    return 2 * model.alpha**2 * (1.0 / w_left - 1.0 / w_right)


@pytest.mark.parametrize("alpha,z", ORT11_MODELS)
def test_ort11_bracket_matches_the_core_quadrature_oracle(alpha, z):
    # oracle: ort11's former core, psi0^2 bisected over [-X, X]; the
    # report's residual is the bracket plus the same exact tails
    model = InteriorModel(alpha, z)
    for X in (40.0, 60.0):
        core = _adaptive_oscillatory(lambda x: im_member(model, "psi0", x) ** 2, -X, X, 1e-12, 2 * alpha)
        assert abs(_bracket_core(model, X) - core.value) < 1e-14, (X, core.value)
        tails = im_tail_model(model, "psi0*psi0", X).integral_tails(X)
        rep = interior_biortho(model, "zero_zero", cutoff_scale=X / PAIR_WINDOW)
        assert abs(rep.residual - abs(core.value + tails)) < 1e-14, (X, rep.residual)


@pytest.mark.parametrize("alpha,z", ORT11_MODELS)
def test_ort11_bracket_is_the_jet_oracles_lagrange_bracket(alpha, z):
    # -2 a^2 / W is psi1 psi0' - psi0 psi1' of the im_jet coding
    model = InteriorModel(alpha, z)
    x = np.array([-60.0, -40.0, -3.7, -0.2, 0.0, 0.9, 2.5, 40.0, 60.0])
    psi0, psi1 = im_jet(model, "psi0", x), im_jet(model, "psi1", x)
    want = psi1.value * psi0.d1 - psi0.value * psi1.d1
    got = -2 * alpha**2 / im_w_bundle(model, x)[0]
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_ort11_mutation_controls(monkeypatch):
    # -2.002 a^2 / W in place of -2 a^2 / W, through a W scaled by 1/1.001,
    # and the bracket without its exact tails: both must fail ort11
    models = [InteriorModel(a, z) for a, z in ORT11_MODELS]
    assert all(interior_biortho(m, "zero_zero").passed for m in models)
    bundle = biortho.im_w_bundle
    monkeypatch.setattr(biortho, "im_w_bundle", lambda m, x: tuple(v / 1.001 for v in bundle(m, x)))
    for m in models:
        rep = interior_biortho(m, "zero_zero")
        assert not rep.passed and rep.residual > rep.tolerance, (m, rep.residual)
    monkeypatch.undo()
    monkeypatch.setattr(biortho, "im_tail_model", lambda m, kind, X: OscRational(m.z))
    for m in models:
        assert not interior_biortho(m, "zero_zero").passed, m


def test_ort11_trace_names_the_bracket(interior):
    rep = interior_biortho(interior, "zero_zero")
    assert rep.trace == ("bracket at +-60.0", "tail terms 60")
    assert interior_biortho(interior, "zero_zero", cutoff_scale=2.0).trace[0] == "bracket at +-120.0"


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
