"""Resolution layer: exact coefficient tables, the scaled chain, closed-form
gap certificates, and the numeric reconstruction schemes."""

import cmath
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from epresolve.boundary import BoundaryModel, bm_apply_h, bm_assoc, bm_scatter
from epresolve.exact import i_power
from epresolve.interior import InteriorModel, im_member, im_psi0, im_psi1, im_tail_model
from epresolve import interior, kernels, quadrature
from epresolve import resolution as rs
from epresolve.resolution import (
    Scheme,
    SchemeId,
    TestFunction,
    apply_base_resolution,
    apply_scheme,
    beta_seq,
    closed_form_gap,
    coeff_C,
    convolution_gap,
    eps_chain,
    outer_product_gap,
    psi1_expandability,
    reproduce_psi0_term,
    reproduce_psi20_terms,
)
from test_interior import _product_tail_oracle


def quad_c(f, a, b, **kw):
    """Complex-valued scipy.quad, used for independent oracles only."""
    re = quad(lambda t: f(t).real, a, b, **kw)[0]
    im = quad(lambda t: f(t).imag, a, b, **kw)[0]
    return re + 1j * im


# ---------------------------------------------------------------------------
# coefficient table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "l m n expected".split(),
    [
        (1, 0, 1, Fraction(1)),
        (1, 0, 4, Fraction(1)),
        (2, 0, 2, Fraction(1, 2)),
        (2, 1, 2, Fraction(-2)),
        (3, 0, 2, Fraction(0)),
        (3, 1, 2, Fraction(-1)),
        (3, 2, 3, Fraction(5)),
    ],
)
def test_coefficient_table(l, m, n, expected):
    got = coeff_C(l, m, n)
    assert got.im == 0
    assert got.re == expected


@pytest.mark.parametrize(
    "l m n".split(),
    [(0, 0, 1), (2, 2, 2), (4, 0, 2), (1, 1, 3), (2, -1, 2)],
)
def test_coefficient_table_rejects_out_of_range(l, m, n):
    with pytest.raises(ValueError):
        coeff_C(l, m, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6], ids=[f"n{k}" for k in range(1, 7)])
def test_closed_form_gap_empty(n):
    # the full endpoint-difference bracket minus its closed double-sum form,
    # expanded exactly: empty dict == identical expressions at every eps
    assert closed_form_gap(n) == {}


def test_closed_form_gap_detects_index_shift():
    """Shifting the inner binomial's lower index by one breaks the identity.

    This is the discriminating check between the two transcriptions of the
    coefficient table; the shipped table is the one that closes the gap.
    """
    for n in (2, 3):
        assert closed_form_gap(n, lower_shift=1) != {}


def test_n2_trig_rearrangement_certified():
    # chain outer product + the three trigonometric corrections equals the
    # endpoint-difference bracket, exactly, term by term
    assert rs._n2_rearranged_gap() == {}


# ---------------------------------------------------------------------------
# smoothing coefficients and the scaled chain
# ---------------------------------------------------------------------------


def test_smoothing_coefficients_frozen():
    assert beta_seq(5) == [
        Fraction(1),
        Fraction(1, 6),
        Fraction(31, 360),
        Fraction(863, 15120),
        Fraction(76813, 1814400),
    ]


@given(st.integers(min_value=0, max_value=16))
def test_smoothing_convolution_identity(l):
    b = beta_seq(l + 1)
    assert sum(b[j] * b[l - j] for j in range(l + 1)) == Fraction(1, 2 * l + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6], ids=[f"n{k}" for k in range(1, 7)])
def test_scaled_convolution_system_exact(n):
    assert convolution_gap(BoundaryModel(n)) == [Fraction(0)] * n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6], ids=[f"n{k}" for k in range(1, 7)])
def test_outer_product_identity_exact(n):
    assert outer_product_gap(BoundaryModel(n)) == {}


def test_eps_chain_n2_members_match_display():
    m = BoundaryModel(2)
    eps = Fraction(1, 2)
    ch = eps_chain(m, eps)
    assert ch.unit == i_power(3)
    assert ch.root == Fraction(4)
    assert ch.members[0] == bm_assoc(m, 0)
    assert ch.members[1] == bm_assoc(m, 1) + bm_assoc(m, 0) * (Fraction(1, 6) / eps**2)


def test_eps_chain_numeric_prefactor():
    m = BoundaryModel(2)
    ch = eps_chain(m, Fraction(1, 10))
    x = np.array([0.7, -1.3])
    z = m.z
    base = -3.0 / (np.sqrt(2 * np.pi) * (x - z) ** 2)
    got = ch.member_eval(0, z)(x)
    want = -1j * np.sqrt(2 / 0.1) * base
    assert np.allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4], ids="n1 n2 n3 n4".split())
def test_eps_chain_ladder_property(n):
    """The operator annihilates the scaled head and steps members down."""
    m = BoundaryModel(n)
    ch = eps_chain(m, Fraction(2, 7))
    assert not bm_apply_h(m, ch.members[0]).terms
    for l in range(1, n):
        assert bm_apply_h(m, ch.members[l]) == ch.members[l - 1]


def test_eps_chain_rejects_bad_radius():
    with pytest.raises(ValueError):
        eps_chain(BoundaryModel(1), 0)


# ---------------------------------------------------------------------------
# partial fractions helper (numeric reconstruction property)
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    p1=st.integers(min_value=1, max_value=3),
    p2=st.integers(min_value=1, max_value=3),
    p3=st.integers(min_value=0, max_value=2),
    x=st.floats(min_value=-3.0, max_value=3.0),
)
def test_partial_fractions_reconstruct(p1, p2, p3, x):
    centers = [(1j, p1), (-1j, p2)]
    if p3:
        centers.append((0.4 + 0.9j, p3))
    direct = 1.0 + 0.0j
    for c, p in centers:
        direct *= (x - c) ** (-p)
    rebuilt = sum(w * (x - ct) ** (-j) for ct, j, w in rs._pf_decompose(centers))
    assert abs(rebuilt - direct) <= 1e-10 * abs(direct)


def test_merged_centers_collapses_coincident_poles():
    merged = rs._merged_centers([(1j, 2), (-1j, 2), (1j, 3)])
    assert merged == [(1j, 5), (-1j, 2)]


# ---------------------------------------------------------------------------
# exact schemes at finite radius
# ---------------------------------------------------------------------------


GAUSS = TestFunction.gaussian(0.0, 1.0)
XP = 0.3
TARGET = float(np.exp(-(XP**2)))


@pytest.mark.parametrize("n", [1, 2, 3], ids="n1 n2 n3".split())
@pytest.mark.parametrize("eps", [0.3, 0.7], ids="eps03 eps07".split())
def test_closed_reconstruction_is_exact(n, eps):
    val = apply_scheme(Scheme(SchemeId.RES3, BoundaryModel(n)), eps, 50.0 / eps, GAUSS, XP)
    assert abs(val - TARGET) < 5e-6


def test_closed_reconstruction_radius_independent():
    m = BoundaryModel(2)
    a = apply_scheme(Scheme(SchemeId.RES3, m), 0.3, 50.0 / 0.3, GAUSS, XP)
    b = apply_scheme(Scheme(SchemeId.RES3, m), 0.7, 50.0 / 0.7, GAUSS, XP)
    assert abs(a - b) < 1e-8


@pytest.mark.parametrize(
    "probe",
    [
        TestFunction.hermite_gaussian(2, 0.4, 1.1),
        TestFunction.rational_decay(2),
        TestFunction.rational_decay(3),
    ],
    ids="hermite2 rational2 rational3".split(),
)
def test_closed_reconstruction_other_probes(probe):
    m = BoundaryModel(1)
    want = complex(probe.make_eval(m)(np.array([XP]))[0])
    val = apply_scheme(Scheme(SchemeId.RES3, m), 0.5, 120.0, probe, XP)
    assert abs(val - want) < 1e-8


def test_rational_probe_with_displacement_on_probe_pole():
    # probe poles at +-i coincide with the default displacement: the merged
    # partial-fraction path must handle the doubled pole
    m = BoundaryModel(1, 1j)
    probe = TestFunction.rational_decay(3)
    want = complex(probe.make_eval(m)(np.array([XP]))[0])
    val = apply_scheme(Scheme(SchemeId.RES3, m), 0.5, 120.0, probe, XP)
    assert abs(val - want) < 1e-8


@pytest.mark.parametrize("n", [2, 3], ids="n2 n3".split())
def test_closed_reconstruction_needs_the_certified_table(n, monkeypatch):
    """Applying the table that fails the exact gap check breaks the numbers.

    The scheme reads its coefficient blocks from ``_boundary_blocks``; the
    competing transcription (``lower_shift=1``, rejected by
    ``closed_form_gap``) must miss f(x') by far more than the exact scheme's
    tolerance, so the symbolic verdict and the numeric one agree.
    """
    m, eps = BoundaryModel(n), 0.4
    scheme = Scheme(SchemeId.RES3, m)
    assert abs(apply_scheme(scheme, eps, 50.0 / eps, GAUSS, XP) - TARGET) < 5e-6
    shipped = rs._boundary_blocks
    monkeypatch.setattr(rs, "_boundary_blocks", lambda n, lower_shift: shipped(n, 1))
    assert abs(apply_scheme(scheme, eps, 50.0 / eps, GAUSS, XP) - TARGET) > 1.0


def test_pair_block_oracle_finite_radius():
    """The index-2 ``pair`` block on a Gaussian against direct quadrature."""
    m = BoundaryModel(2)
    eps, z = 0.25, m.z

    def kernel(x):
        d = x - XP
        return 6.0 * np.sin(eps * d / 2) ** 2 / (np.pi * eps * (x - z) * (XP - z))

    oracle = quad_c(lambda x: kernel(x) * np.exp(-(x**2)), -12.0, 12.0, epsabs=1e-13, limit=200)
    got = rs._apply_two_point(m, rs._n2_trig_blocks()["pair"], rs._f_osc_moment(m, GAUSS), eps, XP)
    assert abs(got - oracle) < 1e-10


def test_n2_rearranged_scheme_exact_at_finite_radius():
    m = BoundaryModel(2)
    for eps in (0.4, 0.1):
        val = apply_scheme(Scheme(SchemeId.RES9, m), eps, 50.0 / eps, GAUSS, XP)
        assert abs(val - TARGET) < 1e-9


def test_interior_exact_scheme_at_finite_radius():
    m = InteriorModel(1.0, 1j)
    for eps in (0.5, 0.2):
        val = apply_scheme(Scheme(SchemeId.RES13, m), eps, 50.0 / eps, GAUSS, XP)
        assert abs(val - TARGET) < 1e-9


# ---------------------------------------------------------------------------
# reduced schemes: first-order convergence, shared limits
# ---------------------------------------------------------------------------


def test_reduced_schemes_share_the_limit():
    m = BoundaryModel(2)
    errs = {}
    for sid in (SchemeId.RES7, SchemeId.RES10, SchemeId.RES6):
        errs[sid] = [
            abs(apply_scheme(Scheme(sid, m), eps, 50.0 / eps, GAUSS, XP) - TARGET)
            for eps in (0.4, 0.1)
        ]
    for sid, (coarse, fine) in errs.items():
        assert fine < 0.6 * coarse, sid
        assert fine < 0.1


def test_limit_scheme_sweep_boundary():
    # narrow probe: the dropped remainder acts like eps * integral(f), so the
    # sub-1e-3 endpoint needs a packet whose mass is small; coupling must
    # outrun the packet bandwidth at the coarse end
    f = TestFunction.gaussian(0.0, 0.01)
    xp = 0.005
    want = float(np.exp(-((xp / 0.01) ** 2)))
    m = BoundaryModel(1)
    errs = [
        abs(apply_scheme(Scheme(SchemeId.RES5, m), eps, 400.0 / eps, f, xp) - want)
        for eps in (0.4, 0.2, 0.1, 0.05)
    ]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-3


def test_limit_scheme_sweep_interior():
    f = TestFunction.gaussian(0.0, 0.01)
    xp = 0.005
    want = float(np.exp(-((xp / 0.01) ** 2)))
    m = InteriorModel(1.0, 1j)
    errs = [
        abs(apply_scheme(Scheme(SchemeId.RES12, m), eps, 400.0 / eps, f, xp) - want)
        for eps in (0.4, 0.2, 0.1, 0.05)
    ]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-3


def test_res12_example_sweep_decreases():
    m = InteriorModel(1.0, 1j)
    errs = [
        abs(apply_scheme(Scheme(SchemeId.RES12, m), eps, 50.0 / eps, GAUSS, XP) - TARGET)
        for eps in (0.4, 0.2, 0.1, 0.05)
    ]
    assert all(a > b for a, b in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# chain members as test functions: floors and recoveries
# ---------------------------------------------------------------------------


def test_truncated_scheme_cannot_see_the_chain_head():
    """The chain-only scheme returns exactly zero on the n=2 chain head."""
    m = BoundaryModel(2)
    f20 = TestFunction.chain_boundary(0)
    head = complex(-3.0 / (np.sqrt(2 * np.pi) * (XP - m.z) ** 2))
    for eps in (0.2, 0.05):
        val = apply_scheme(Scheme(SchemeId.RES6, m), eps, 50.0 / eps, f20, XP)
        assert abs(val) < 1e-12
        assert abs(val - head) > 0.9 * abs(head)


def test_partially_reduced_scheme_recovers_the_chain_head():
    m = BoundaryModel(2)
    f20 = TestFunction.chain_boundary(0)
    head = complex(-3.0 / (np.sqrt(2 * np.pi) * (XP - m.z) ** 2))
    errs = [
        abs(apply_scheme(Scheme(SchemeId.RES10, m), eps, 50.0 / eps, f20, XP) - head)
        for eps in (0.2, 0.05)
    ]
    assert errs[1] < 0.4 * errs[0]


def test_partner_floor_validates_before_sweeping(monkeypatch):
    # eps_min -0.1 never returned, 0 ran out of memory and 1.0 found no radius
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(rs, "apply_scheme", no_sweep)
    model = InteriorModel(1.0, 1j)
    for eps_min in (-0.1, 0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match=r"eps_min must lie in \(0, 0\.4\]"):
            psi1_expandability(model, eps_min=eps_min)
    for coupling in (0.0, -50.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="coupling must be positive and finite"):
            psi1_expandability(model, coupling=coupling)


def test_partner_function_floor_quick():
    rep = psi1_expandability(InteriorModel(1.0, 1j), eps_min=0.1)
    assert rep.residual <= rep.tolerance
    assert len(rep.trace) == 3


# ---------------------------------------------------------------------------
# singular-term weights, with independent quadrature oracles
# ---------------------------------------------------------------------------


def test_pair_weight_oracle_finite_radius():
    """Cross-check the odd-term weight against direct quadrature at eps=0.25."""
    m = BoundaryModel(2)
    eps = 0.25
    z = m.z
    xp = 0.3

    def member(x):
        return -3.0 / (np.sqrt(2 * np.pi) * (x - z) ** 2)

    def term12(x):
        d = x - xp
        return (
            12.0
            * d
            * np.sin(eps * d / 4) ** 2
            * np.sin(eps * d / 2)
            / (np.pi * eps**2 * (x - z) ** 2 * (xp - z) ** 2)
        )

    oracle = quad_c(lambda x: member(x) * term12(x), -4000, 4000, limit=4000) / member(xp)
    got = reproduce_psi20_terms(m, eps)[0]
    assert abs(got - oracle) < 5e-5


def test_square_weight_oracle_finite_radius():
    m = BoundaryModel(2)
    eps = 0.25
    z = m.z
    xp = 0.3

    def member(x):
        return -3.0 / (np.sqrt(2 * np.pi) * (x - z) ** 2)

    def term3sq(x):
        d = x - xp
        return (
            3.0
            * (eps * d - 2 * np.sin(eps * d / 2)) ** 2
            / (2 * np.pi * eps**3 * (x - z) ** 2 * (xp - z) ** 2)
        )

    oracle = quad_c(lambda x: member(x) * term3sq(x), -8000, 8000, limit=8000) / member(xp)
    got = reproduce_psi20_terms(m, eps)[1]
    # the integrand settles like 1/x^2, so the truncated oracle is the loose side
    assert abs(got - oracle) < 5e-4


def test_pair_and_square_weights_reach_their_limits():
    m = BoundaryModel(2)
    c1_coarse, c2_coarse = reproduce_psi20_terms(m, 1e-2)
    c1, c2 = reproduce_psi20_terms(m, 1e-3)
    assert abs(c1 - 0.75) < 0.01 * 0.75
    assert abs(c2 - 0.25) < 0.01 * 0.25
    assert abs(c1 - 0.75) < 0.2 * abs(c1_coarse - 0.75)
    assert abs(c2 - 0.25) < 0.2 * abs(c2_coarse - 0.25)


def test_interior_overlap_weight_oracle():
    m = InteriorModel(1.0, 1j)
    eps = 0.1
    xp = 0.0

    def integrand(x):
        p0 = im_psi0(m, x)
        return np.sin(eps * (x - xp) / 2) ** 2 * p0 * p0

    oracle = quad_c(integrand, -10000, 10000, limit=10000) * 2.0 / (np.pi * eps * m.alpha)
    got = reproduce_psi0_term(m, eps, xp)
    assert abs(got - oracle) < 2e-3 * abs(oracle)


def test_interior_overlap_weight_reaches_one():
    m = InteriorModel(1.0, 1j)
    coarse = reproduce_psi0_term(m, 1e-2)
    for xp in (0.0, 1.7):
        v = reproduce_psi0_term(m, 1e-3, xp)
        assert abs(v - 1.0) < 0.01
    assert abs(reproduce_psi0_term(m, 1e-3) - 1.0) < 0.2 * abs(coarse - 1.0)


# ---------------------------------------------------------------------------
# deformed-contour base resolution
# ---------------------------------------------------------------------------


def test_base_resolution_direction_invariance_boundary():
    m = BoundaryModel(1)
    up = apply_base_resolution(m, GAUSS, XP, 0.5, 60.0, "up")
    dn = apply_base_resolution(m, GAUSS, XP, 0.5, 60.0, "down")
    assert abs(up - dn) < 1e-12
    assert abs(up - TARGET) < 1e-9


def test_base_resolution_direction_invariance_interior():
    m = InteriorModel(1.0, 1j)
    up = apply_base_resolution(m, GAUSS, XP, 0.3, 80.0, "up")
    dn = apply_base_resolution(m, GAUSS, XP, 0.3, 80.0, "down")
    assert abs(up - dn) < 1e-12
    assert abs(up - TARGET) < 1e-9


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------


def test_scheme_family_consistency_enforced():
    with pytest.raises(ValueError):
        Scheme(SchemeId.RES12, BoundaryModel(1))
    with pytest.raises(ValueError):
        Scheme(SchemeId.RES5, InteriorModel(1.0, 1j))
    with pytest.raises(ValueError):
        Scheme(SchemeId.RES9, BoundaryModel(1))  # rearranged family needs n=2


def test_apply_scheme_regulator_validation():
    s = Scheme(SchemeId.RES3, BoundaryModel(1))
    with pytest.raises(ValueError):
        apply_scheme(s, 0.0, 100.0, GAUSS, XP)
    with pytest.raises(ValueError):
        apply_scheme(s, 0.2, -1.0, GAUSS, XP)
    si = Scheme(SchemeId.RES12, InteriorModel(1.0, 1j))
    with pytest.raises(ValueError):
        apply_scheme(si, 1.5, 100.0, GAUSS, XP)  # radius must stay below alpha


@pytest.mark.parametrize("sid model".split(), [(SchemeId.RES3, BoundaryModel(1)),
                                               (SchemeId.RES12, InteriorModel(1.0, 1j))], ids=["res3", "res12"])
def test_apply_scheme_rejects_non_finite_regulators(sid, model):
    # a NaN radius or cutoff once ended in an unpacking error (res3) or a
    # silent value 20% off (res12); an infinite cutoff means none and stays
    s = Scheme(sid, model)
    for eps, A in ((math.nan, 100.0), (math.inf, 100.0), (0.4, math.nan), ([0.4, math.nan], 100.0)):
        with pytest.raises(ValueError, match="positive and finite"):
            apply_scheme(s, eps, A, GAUSS, XP)
    # past the spectral reach a cutoff changes nothing
    assert apply_scheme(s, 0.4, math.inf, GAUSS, XP) == apply_scheme(s, 0.4, 1e6, GAUSS, XP)


_PSI0, _PSI1 = TestFunction.chain_interior(0), TestFunction.chain_interior(1)


@pytest.mark.parametrize(
    "sid model f radii coupling".split(),
    [
        (SchemeId.RES11, InteriorModel(1.0, 1j), _PSI1, (0.4, 0.1), 50.0),
        (SchemeId.RES11, InteriorModel(1.0, 1j), GAUSS, (0.4, 0.1), 50.0),
        (SchemeId.RES12, InteriorModel(1.0, 1j), _PSI1, (0.4, 0.2, 0.1), 50.0),
        (SchemeId.RES12, InteriorModel(1.5, 0.5 + 1.2j), GAUSS, (0.4, 0.2, 0.1), 50.0),
        (SchemeId.RES13, InteriorModel(1.0, 1j), _PSI1, (0.4, 0.1), 50.0),
        (SchemeId.RES13, InteriorModel(1.0, 1j), GAUSS, (0.4, 0.1), 50.0),
        (SchemeId.RES3, BoundaryModel(2), GAUSS, (0.4, 0.2, 0.05), 50.0),
        (SchemeId.RES5, BoundaryModel(1), TestFunction.gaussian(0.3, 1.1), (0.4, 0.1), 50.0),
        (SchemeId.INT5, BoundaryModel(1), TestFunction.rational_decay(4), (0.4, 0.1), 50.0),
        # a power-of-two grid, whose own bands are empty
        (SchemeId.RES12, InteriorModel(1.0, 1j), GAUSS, (0.5, 0.25, 0.125), 50.0),
        # cutoffs c/eps put K below the spectral reach (51 and 52.5 for these
        # interior models, 22 in the boundary family) at all radii but one
        (SchemeId.RES11, InteriorModel(1.0, 1j), GAUSS, (0.5, 0.25, 0.125), 2.0),
        (SchemeId.RES12, InteriorModel(1.5, 0.5 + 1.2j), GAUSS, (0.4, 0.2, 0.1, 0.05), 3.0),
        (SchemeId.RES3, BoundaryModel(2), GAUSS, (0.4, 0.2, 0.05), 2.0),
        # the closed blocks of a sweep read their moments off one call
        (SchemeId.RES11, InteriorModel(1.0, 1j), _PSI0, (0.4, 0.2, 0.1), 50.0),
        (SchemeId.INT04, InteriorModel(1.0, 1j), _PSI0, (0.4, 0.2, 0.1, 0.05), 50.0),
        (SchemeId.RES9, BoundaryModel(2), TestFunction.gaussian(0.5, 1.2), (0.4, 0.2, 0.1, 0.05), 50.0),
        # 2926 grid panels take wave numbers in chunks of five: a radius's six
        # res13 waves leave a chunk of one, as do the sweep's six res11 waves
        (SchemeId.RES13, InteriorModel(0.5, 0.3 + 0.7j), TestFunction.rational_decay(2), (0.4, 0.2), 50.0),
        (SchemeId.RES11, InteriorModel(0.5, 0.3 + 0.7j), TestFunction.rational_decay(2), (0.4, 0.2, 0.1), 50.0),
    ],
    ids=["res11-psi1", "res11-gauss", "res12-psi1", "res12-gauss", "res13-psi1", "res13-gauss",
         "res3", "res5", "int5", "res12-gauss-pow2", "res11-gauss-cut", "res12-gauss-cut", "res3-cut",
         "res11-psi0", "int04-psi0", "res9", "res13-rational2-chunk-of-one", "res11-rational2-chunk-of-one"],
)
def test_radius_array_equals_scalar_calls_bitwise(sid, model, f, radii, coupling):
    scheme = Scheme(sid, model)
    cutoffs = [coupling / e for e in radii]
    got = apply_scheme(scheme, np.array(radii), cutoffs, f, XP)
    want = [apply_scheme(scheme, e, c, f, XP) for e, c in zip(radii, cutoffs)]
    assert isinstance(want[0], complex) and got.shape == (len(radii),)
    assert got.tolist() == want


def _per_radius_blocks_oracle(model, f, eps, xp, kind, pair):
    """Oracle: the interior singular blocks as each radius built them before a
    sweep read every bracket off one pair call: the radius's own waves and
    its own call of ``pair``."""
    a = model.alpha
    if kind in (SchemeId.RES12, SchemeId.INT04):
        waves = {0.0: 1.0 / eps}
    else:
        waves = {eps: 0.5 / eps, -eps: 0.5 / eps}
        if kind == SchemeId.RES13:
            for s1, s2 in itertools.product((1, -1), repeat=2):
                waves[s1 * 2 * a + s2 * eps] = 0.25 * (s1 * s2 * 2 * a - eps) / (4 * a * a - eps * eps)
    bracket = complex(np.dot(list(waves.values()), pair(np.array(list(waves)), xp)))
    total = -(1.0 / (math.pi * a)) * bracket * im_psi0(model, xp)
    if kind == SchemeId.RES13:
        total += rs._sinc_applied(model, f, eps, xp, a) + rs._partner_cross(model, f, eps, xp)
    return total


@pytest.mark.parametrize("kind", [SchemeId.RES11, SchemeId.RES12, SchemeId.INT04, SchemeId.RES13],
                         ids=lambda k: k.value)
def test_sweep_blocks_match_the_per_radius_oracle(kind):
    # one pair call over the union of a sweep's waves, against a pair call per
    # radius; a Gaussian adds the spectral integral both ways
    model, xp = InteriorModel(1.0, 1j), 0.7
    radii = (0.4, 0.1) if kind == SchemeId.RES13 else (0.4, 0.2, 0.1, 0.05)
    cutoffs = [50.0 / e for e in radii]
    for f in (_PSI0, _PSI1, GAUSS):
        transform, pair = rs._interior_transform(model, f)
        spectral = [0.0] * len(radii)
        if transform is not None:
            integrand = rs._spectral_integrand(model, transform, xp)
            spectral = rs._spectral_integrals(model, f, integrand, radii, cutoffs, 1e-9)
        got = apply_scheme(Scheme(kind, model), radii, cutoffs, f, xp)
        want = [_per_radius_blocks_oracle(model, f, e, xp, kind, pair) + s for e, s in zip(radii, spectral)]
        assert np.max(np.abs(got - np.array(want))) <= 1e-14, f


@pytest.mark.parametrize("kind, waves", [(SchemeId.RES12, 1), (SchemeId.INT04, 1), (SchemeId.RES11, 8),
                                         (SchemeId.RES13, 24)], ids=lambda v: getattr(v, "value", v))
def test_interior_sweep_makes_one_pair_call_and_one_tails_pass(kind, waves, monkeypatch):
    # four radii read the union of their waves (+-eps, and +-2a +-eps for
    # res13) off one pair call, whose exact tails are one integral_tails pass
    pairs, tails = [], []
    real_transform, real_tails = rs._interior_transform, quadrature.OscRational.integral_tails

    def counting_transform(model, f):
        transform, pair = real_transform(model, f)

        def counting_pair(mu, xp):
            pairs.append(np.size(mu))
            return pair(mu, xp)

        return transform, counting_pair

    def counting_tails(self, X, k=None):
        tails.append(np.size(k))
        return real_tails(self, X, k)

    monkeypatch.setattr(rs, "_interior_transform", counting_transform)
    monkeypatch.setattr(quadrature.OscRational, "integral_tails", counting_tails)
    radii = [0.4, 0.2, 0.1, 0.05]
    apply_scheme(Scheme(kind, InteriorModel(1.0, 1j)), radii, [50.0 / e for e in radii], _PSI1, 0.7)
    assert pairs == [waves] and tails == [waves]


def test_boundary_sweep_makes_one_closed_moment_call(monkeypatch):
    # the two-point blocks (hx = +-2 at each radius) and the four sinc bands
    # (two 16-node panels each) of a res3 sweep read one moment call; a
    # radius past the packet's spectral reach keeps a moment of its own
    made, calls = [], []
    real = rs._f_osc_moment

    def counting(model, f, reach=0.0):
        made.append(reach)
        moment = real(model, f, reach)

        def wrapped(omega, qs):
            calls.append((reach, np.size(omega), tuple(qs)))
            return moment(omega, qs)

        return wrapped

    monkeypatch.setattr(rs, "_f_osc_moment", counting)
    # no spectral integral: its transform reads the same moment function
    monkeypatch.setattr(rs, "_spectral_integrals", lambda model, f, integrand, es, cuts, tol: [0j] * len(es))
    scheme = Scheme(SchemeId.RES3, BoundaryModel(2))
    radii = [0.4, 0.2, 0.1, 0.05]
    apply_scheme(scheme, radii, [50.0 / e for e in radii], GAUSS, XP)
    assert made == [0.0] and calls == [(0.0, 4 * 2 + 4 * 32, (1, 2, 0))]
    made.clear(), calls.clear()
    far = 30.0  # past the spectral reach of 22
    apply_scheme(scheme, [0.4, far], [125.0, 2 * far], GAUSS, XP)
    assert made == [0.0, far]
    assert [c[0] for c in calls] == [0.0, far] and calls[1][1] == 2


def test_radius_array_broadcasts_a_scalar_cutoff():
    scheme = Scheme(SchemeId.RES12, InteriorModel(1.0, 1j))
    got = apply_scheme(scheme, [0.4, 0.2], 100.0, GAUSS, XP)
    assert got.tolist() == [apply_scheme(scheme, e, 100.0, GAUSS, XP) for e in (0.4, 0.2)]


def test_radius_array_validation():
    si = Scheme(SchemeId.RES12, InteriorModel(1.0, 1j))
    with pytest.raises(ValueError, match="resonance momentum"):
        apply_scheme(si, [0.4, 0.2, 1.5, 0.1], 100.0, GAUSS, XP)  # one radius at or past alpha
    with pytest.raises(ValueError, match="resonance momentum"):
        apply_scheme(si, [0.2, 1.0], 100.0, GAUSS, XP)
    s = Scheme(SchemeId.RES3, BoundaryModel(1))
    with pytest.raises(ValueError, match="positive"):
        apply_scheme(s, [0.4, 0.0], 100.0, GAUSS, XP)
    with pytest.raises(ValueError, match="positive"):
        apply_scheme(s, [0.4, 0.2], [100.0, -1.0], GAUSS, XP)
    with pytest.raises(ValueError, match="1-D"):
        apply_scheme(s, [[0.4, 0.2]], 100.0, GAUSS, XP)
    with pytest.raises(ValueError):
        apply_scheme(s, [0.4, 0.2, 0.1], [100.0, 50.0], GAUSS, XP)  # shapes do not broadcast


def test_radius_sweep_builds_pair_tail_models_once(monkeypatch):
    # res12 pairs f with psi0 on every radius: the tail model beyond the
    # transform window, of the product f psi0, is built once per call rather
    # than per radius (a chain member has no transform, so no 1/W model)
    built = []
    real = rs.im_tail_model

    def counting(model, kind, X):
        if X == interior.TRANSFORM_WINDOW:
            built.append(kind)
        return real(model, kind, X)

    monkeypatch.setattr(rs, "im_tail_model", counting)
    scheme = Scheme(SchemeId.RES12, InteriorModel(1.0, 1j))
    radii = [0.4, 0.2, 0.1, 0.05]
    apply_scheme(scheme, radii, [50.0 / e for e in radii], _PSI1, 0.7)
    assert built == ["psi0*psi1"]
    # control: scalar calls rebuild it on every radius
    built.clear()
    for e in radii[:2]:
        apply_scheme(scheme, e, 50.0 / e, _PSI1, 0.7)
    assert built == ["psi0*psi1", "psi0*psi1"]


def _three_segment_oracle(model, f, integrand, eps, A, tol):
    """Oracle: the interior spectral integral before the band ladder, the
    segments (-K, -a-eps), (-a+eps, a-eps) and (a+eps, K), each one
    ``_adaptive`` call at the whole tolerance."""
    a = model.alpha
    K = min(A, rs._spectral_reach(f) + 3 * a + rs._INTERIOR_REACH_PAD)
    total = 0.0 + 0.0j
    for lo, hi in [(-K, -a - eps), (-a + eps, a - eps), (a + eps, K)]:
        if hi > lo:
            total += quadrature._adaptive(integrand, lo, hi, tol).value
    return total


def _merged(bands):
    # runs of bands that touch, joined
    out = []
    for lo, hi in bands:
        if out and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


@pytest.mark.parametrize("alpha", [0.06, 0.3, 1.0, 2.0])
def test_ladder_bands_tile_the_punctured_range(alpha):
    # exact powers of two (whose own bands are empty), radii close to alpha,
    # and cutoffs far out, within offset 1 of a puncture, inside its radius
    # and below alpha
    radii = [2.0**-j for j in range(0, 9) if 2.0**-j < alpha] + [0.37 * alpha, 0.999 * alpha, alpha * (1 - 1e-9)]
    for eps, K in ((e, K) for e in radii for K in (51.0, alpha + 2.5, alpha + 0.5, alpha + 0.5 * e, 0.5 * alpha)):
        bands = rs._ladder_bands(alpha, eps, K)
        assert all(hi > lo for lo, hi in bands) and bands == sorted(bands)
        segments = [(-K, -alpha - eps), (-alpha + eps, alpha - eps), (alpha + eps, K)]
        assert _merged(bands) == [(lo, hi) for lo, hi in segments if hi > lo], (eps, K)
        # only the bands at offset eps from a puncture depend on the radius:
        # a smaller radius has every other band too
        edges = {alpha + eps, alpha - eps, -alpha + eps, -alpha - eps}
        own = [b for b in bands if edges & set(b)]
        assert len(own) == 4 if K >= alpha + 2.5 else len(own) >= 2
        for smaller in (e for e in radii if e < eps):
            assert set(bands) - set(own) <= set(rs._ladder_bands(alpha, smaller, K))


# (model, f, radii, cutoffs): alpha 0.3 to 2, Im z 0.5 to 2, radii close to
# alpha, a power of two, and a cutoff between alpha and alpha + 1
_LADDER_CASES = [
    (InteriorModel(0.3, 0.5j), GAUSS, (0.27, 0.125, 0.03), (185.0, 400.0, 0.8)),
    (InteriorModel(1.0, 1j), TestFunction.hermite_gaussian(2, 0.4, 1.1), (0.9, 0.4, 0.125, 0.1),
     (55.0, 125.0, 1.7, 500.0)),
    (InteriorModel(1.5, 0.5 + 1.2j), TestFunction.gaussian(0.2, 0.9), (1.4, 0.5, 0.15), (35.0, 100.0, 2.1)),
    (InteriorModel(2.0, 2j), TestFunction.rational_decay(4), (1.9, 0.25, 0.2), (26.0, 200.0, 2.9)),
]


def _ladder_miss(model, f, radii, cutoffs):
    transform = rs._interior_transform(model, f)[0]
    integrand = rs._spectral_integrand(model, transform, XP)
    got = rs._spectral_integrals(model, f, integrand, list(radii), list(cutoffs), 1e-9)
    want = [_three_segment_oracle(model, f, integrand, e, A, 1e-12) for e, A in zip(radii, cutoffs)]
    return np.abs(np.array(got) - np.array(want))


@pytest.mark.parametrize("model f radii cutoffs".split(), _LADDER_CASES,
                         ids=["a0.3-gauss", "a1-hermite2", "a1.5-gauss", "a2-rational4"])
def test_ladder_bands_match_the_three_segment_oracle(model, f, radii, cutoffs):
    # the banded sweep at the default tolerance against the three-segment
    # oracle at tol 1e-12
    assert np.max(_ladder_miss(model, f, radii, cutoffs)) < 1e-10


def test_ladder_without_a_radius_own_band_is_caught(monkeypatch):
    # mutation control: dropping each radius's first band outward of the
    # right puncture leaves a gap in the integral
    model, f, radii, cutoffs = _LADDER_CASES[1]
    real = rs._ladder_bands

    def dropped(a, eps, K):
        return [b for b in real(a, eps, K) if b[0] != a + eps]

    monkeypatch.setattr(rs, "_ladder_bands", dropped)
    # at the power of two 0.125 the first band is the ladder's [a + 1/8, a + 1/4]
    assert np.all(_ladder_miss(model, f, radii, cutoffs) > 1e-6)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 2.0])
def test_ladder_rungs_double_up_to_the_cutoff(alpha):
    # outward of the right puncture each band past the radius's own one
    # spans offsets [r, s] with s <= 2r, the last one included: no band runs
    # on from offset 1 to K.  At alpha = 0 (the boundary family's puncture
    # k = 0) the bands tile (-K, -eps) and (eps, K), two of them the
    # radius's own, and a smaller radius has every other band too
    radii = [0.9, 0.5, 0.4, 0.125, 0.05, 0.0125] if alpha == 0 else [0.37 * alpha, 0.25 * alpha, 0.05]
    for eps, K in ((e, K) for e in radii for K in (125.0, 51.0, alpha + 8.0, alpha + 2.5, alpha + 0.3)):
        bands = rs._ladder_bands(alpha, eps, K)
        outer = [(lo - alpha, hi - alpha) for lo, hi in bands if lo > alpha + eps]
        assert all(s <= 2 * r * (1 + 1e-12) for r, s in outer), (eps, K)  # a + t - a rounds
        if alpha == 0:
            assert _merged(bands) == ([(-K, -eps), (eps, K)] if K > eps else [])
            own = [b for b in bands if {eps, -eps} & set(b)]
            assert len(own) == (2 if K > eps else 0)
            for smaller in (e for e in radii if e < eps):
                assert set(bands) - set(own) <= set(rs._ladder_bands(0.0, smaller, K))


def _two_piece_oracle(model, f, integrand, eps, A, tol):
    """Oracle: the boundary spectral integral before the band ladder, the
    pieces (-K, -eps) and (eps, K) of one ``_adaptive`` call at the whole
    tolerance each, over their own spans."""
    K = min(A, rs._spectral_reach(f))
    if K <= eps:
        return 0.0 + 0.0j
    pieces = quadrature._adaptive(integrand, np.array([-K, eps]), np.array([-eps, K]), tol)
    return complex(sum(pieces.value.tolist()))


# (n, f, coupling c of the cutoffs A = c / eps): every kind of boundary f,
# and the cutoffs 2 / eps below a Gaussian's spectral reach and a rational
# f's, where K is no power of two
_BOUNDARY_LADDER_CASES = {
    "gaussian": (2, GAUSS, 50.0),
    "hermite2-n3": (3, TestFunction.hermite_gaussian(2), 50.0),
    "rational4": (1, TestFunction.rational_decay(4), 50.0),
    "chain0-n2": (2, TestFunction.chain_boundary(0), 50.0),
    "chain1-n3": (3, TestFunction.chain_boundary(1), 50.0),
    "gaussian-c2": (2, GAUSS, 2.0),
    "rational4-c2": (1, TestFunction.rational_decay(4), 2.0),
}


def _boundary_ladder(name, radii=(0.4, 0.2, 0.1, 0.05), tol=1e-9):
    n, f, c = _BOUNDARY_LADDER_CASES[name]
    model = BoundaryModel(n)
    integrand = rs._spectral_integrand(model, rs._boundary_transform(model, f, rs._f_osc_moment(model, f)), XP)
    got = rs._spectral_integrals(model, f, integrand, list(radii), [c / e for e in radii], tol)
    want = [_two_piece_oracle(model, f, integrand, e, c / e, tol) for e in radii]
    return np.array(got), np.array(want)


@pytest.mark.parametrize("name", sorted(_BOUNDARY_LADDER_CASES))
def test_boundary_ladder_matches_the_two_piece_oracle(name):
    # the banded sweep against the two pieces per radius at the same
    # tolerance: within 10 tol of the value's size
    tol = 1e-9
    got, want = _boundary_ladder(name, tol=tol)
    assert np.all(np.abs(got - want) <= 10 * tol * np.maximum(1.0, np.abs(want))), name


def test_boundary_ladder_without_a_radius_own_band_is_caught(monkeypatch):
    # mutation control: dropping each radius's band [eps, 2^ceil(log2 eps)]
    # on the right of k = 0 leaves a gap that the oracle sees
    real = rs._ladder_bands
    monkeypatch.setattr(rs, "_ladder_bands", lambda a, eps, K: [b for b in real(a, eps, K) if b[0] != a + eps])
    got, want = _boundary_ladder("gaussian", radii=(0.4, 0.1, 0.05))
    assert np.all(np.abs(got - want) > 1e-6)


class _OverBudget(Exception):
    pass


# (n, scheme, f, radii, evaluations): the boundary-sweep jobs of the
# benchmark and a res5 Gaussian sweep down to radius 0.0125, at the CLI's
# cutoffs 50 / eps.  The two-piece layout took 2,856, 6,678 and 38,346
_SWEEP_BUDGETS = {
    "res3-gaussian": (2, SchemeId.RES3, GAUSS, (0.4, 0.2, 0.1, 0.05), 1000),
    "res5-gaussian-0.0125": (2, SchemeId.RES5, GAUSS, (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125), 3000),
    "res5-hermite2-n3": (3, SchemeId.RES5, TestFunction.hermite_gaussian(2), (0.4, 0.2, 0.1, 0.05), 38346),
}


def _sweep_evaluations(name, monkeypatch, adaptive=rs._adaptive):
    """The spectral integrand evaluations of a sweep through ``adaptive``;
    _OverBudget as soon as they pass the case's budget."""
    n, kind, f, radii, budget = _SWEEP_BUDGETS[name]
    count = [0, 0]  # evaluations, capped pieces

    def counting(integrand, *args, **kw):
        def counted(k):
            count[0] += np.size(k)
            if count[0] > budget:
                raise _OverBudget(name)
            return integrand(k)

        result = adaptive(counted, *args, **kw)
        count[1] += result.capped
        return result

    monkeypatch.setattr(rs, "_adaptive", counting)
    apply_scheme(Scheme(kind, BoundaryModel(n)), radii, [50.0 / e for e in radii], f, XP)
    return count


@pytest.mark.parametrize("name", sorted(_SWEEP_BUDGETS))
def test_boundary_sweep_stays_within_its_evaluation_budget(name, monkeypatch):
    evaluations, capped = _sweep_evaluations(name, monkeypatch)
    assert evaluations <= _SWEEP_BUDGETS[name][-1] and capped == 0


@pytest.mark.parametrize("name", ["res5-gaussian-0.0125", "res5-hermite2-n3"])
def test_a_floor_that_scales_with_the_band_breaks_the_budget(name, monkeypatch):
    # mutation control: each boundary band at its width's share of the
    # side's tolerance over its own span, so that the floor 1e-3 tol shrinks
    # with the band next to k = 0 (198,744 and 520,548 evaluations run out)
    real = rs._adaptive

    def band_floor(f, a, b, tol, max_panels=4000, span=None):
        return real(f, a, b, tol * (b - a) / span, max_panels)

    with pytest.raises(_OverBudget):
        _sweep_evaluations(name, monkeypatch, band_floor)


def test_the_two_piece_layout_breaks_the_res3_budget(monkeypatch):
    # mutation control: (-K, -eps) and (eps, K) for each radius, as before the
    # boundary ladder, take 2,856 evaluations
    real = rs._ladder_bands
    monkeypatch.setattr(rs, "_ladder_bands", lambda a, eps, K: real(a, eps, K) if a else [(-K, -eps), (eps, K)])
    with pytest.raises(_OverBudget):
        _sweep_evaluations("res3-gaussian", monkeypatch)


def _pair_moments_oracle(model, f, xp):
    """Oracle: (member, mu) -> integral of f member e^{i mu (x - xp)} dx by
    adaptive bisection on [-PAIR_WINDOW, PAIR_WINDOW] (f's own window for a
    localized f) plus, for a chain f, the exact tails of its large-x product
    with the member.  The package took the pair moments this way before it
    read them off the spectral transform's grid."""
    moments, tails = {}, {}
    ev_f = f.make_eval(model)
    X = interior.PAIR_WINDOW if f.is_chain else f.window()

    def pair(member, mu):
        if (member, mu) not in moments:
            def integrand(x):
                return ev_f(x) * im_member(model, member, x) * np.exp(1j * mu * np.asarray(x))

            value = quadrature._adaptive_oscillatory(integrand, -X, X, 1e-12, abs(mu) + 2 * model.alpha).value
            if f.is_chain:
                if member not in tails:
                    tails[member] = im_tail_model(model, f.ref[0], X) * im_tail_model(model, member, X)
                value += (tails[member] * quadrature.OscRational(model.z, [(mu, 0, 1.0)])).integral_tails(X)
            moments[member, mu] = value * cmath.exp(-1j * mu * xp)
        return moments[member, mu]

    return pair


_PAIR_TESTFNS = {
    "psi0": TestFunction.chain_interior(0),
    "psi1": _PSI1,
    "gaussian:0.2,1.1": TestFunction.gaussian(0.2, 1.1),
    "hermite:5": TestFunction.hermite_gaussian(5),
    "rational:2": TestFunction.rational_decay(2),
}


def _pair_mus(alpha):
    # every wave of the interior brackets, at a wide and a narrow radius
    radii = (0.4 * alpha, 0.0125 * alpha)
    return np.array(sorted({0.0} | {s * e for e in radii for s in (1, -1)}
                           | {s1 * 2 * alpha + s2 * e for e in radii for s1 in (1, -1) for s2 in (1, -1)}))


def _pair_miss(model, f, xp=0.3):
    mus = _pair_mus(model.alpha)
    got = rs._interior_transform(model, f)[1](mus, xp)
    oracle = _pair_moments_oracle(model, f, xp)
    want = np.array([oracle("psi0", mu) for mu in mus])
    return np.max(np.abs(got - want) / (1 + np.abs(want)))


@pytest.mark.parametrize("alpha", [0.06, 0.2, 1.0, 1.5, 3.0])
def test_pair_moments_on_the_transform_grid_match_the_adaptive_oracle(alpha):
    # the pair moments are one more row of the transform's grid, with the
    # chain tails beyond its window; the panels stay below W's zero distance
    for im_z, (name, f) in itertools.product((0.02, 0.1, 0.5, 1.0, 2.0), _PAIR_TESTFNS.items()):
        model = InteriorModel(alpha, 1j * im_z)
        if name == "rational:2" and im_z == 0.02:
            # 36,566 panels no wider than the zero distance 0.01
            with pytest.raises(ValueError, match=r"Im z = 0\.02 \(--z\)"):
                rs._interior_transform(model, f)
            continue
        assert _pair_miss(model, f) < 1e-12, (alpha, im_z, name)


def test_pair_moments_need_the_zero_distance_and_the_chain_tail(monkeypatch):
    # mutation controls: panels as wide as the k-resolution alone allows
    # (0.18 against W's zero distance of 0.05), or no tails past the window
    model = InteriorModel(1.0, 0.1j)
    with monkeypatch.context() as m:
        m.setattr(rs, "im_zero_gap", lambda model: math.inf)
        assert _pair_miss(model, _PSI1) > 1e-7
    with monkeypatch.context() as m:
        m.setattr(quadrature.OscRational, "integral_tails", lambda self, X, k=None: np.zeros(np.shape(k)))
        assert _pair_miss(model, _PSI1) > 1e-3


def test_interior_layouts_of_the_benchmark_range_keep_their_width():
    # a packet's transform grid: the zero distance binds only below the
    # benchmark's Im z: at alpha 1 from Im z 0.5 and at alpha 1.5 from 1.2
    # the layouts are the ones the k-resolution alone gives
    for alpha, im_z in ((1.0, 0.5), (1.5, 1.2)):
        model = InteriorModel(alpha, 1j * im_z)
        for f in (TestFunction.gaussian(0.3, 0.8), TestFunction.gaussian(-0.3, 1.2)):
            reach = rs._spectral_reach(f) + 2 * alpha + rs._INTERIOR_REACH_PAD
            assert rs._panels_for(f, reach, model) == rs._panels_for(f, reach)
    # a chain member's grid is sized by its waves, 5 alpha: half-unit panels
    # at alpha 1, which W's zero distance undercuts below Im z = 1.0876
    # (sinh 1 + 1 = 2 Im z), so the gap sets most of the benchmark's chain
    # grids.  Either way they stay below the reach-sized grid they replace
    for im_z in (0.5, 0.8, 1.0, 1.08, 1.09, 1.5, 2.0):
        model = InteriorModel(1.0, 1j * im_z)
        layout = rs._panels_for(_PSI1, 5.0, model)
        assert (layout != rs._panels_for(_PSI1, 5.0)) == (im_z < 1.0876), im_z
        assert layout[2] < rs._panels_for(_PSI1, rs._spectral_reach(_PSI1) + 8.0, model)[2], im_z


@pytest.mark.parametrize("alpha", [0.1, 0.2])
def test_partner_sweep_matches_tails_at_the_order_cap(monkeypatch, alpha):
    # the tail orders follow from the window and alpha: at small alpha the
    # former fixed orders left these sweeps 5e-6 (0.1) and 2e-8 (0.2) off
    scheme = Scheme(SchemeId.RES12, InteriorModel(alpha, 1j))
    radii = [0.05, 0.025]
    base = apply_scheme(scheme, radii, [50.0 / e for e in radii], _PSI1, 0.7)
    # reference: every tail model at the order cap, whatever the budget
    monkeypatch.setattr(interior, "_tail_order", lambda model, X: interior._TAIL_ORDER_CAP)
    deep = apply_scheme(scheme, radii, [50.0 / e for e in radii], _PSI1, 0.7)
    assert np.max(np.abs(deep - base)) < 1e-10


# ---------------------------------------------------------------------------
# the interior chain members' spectral part is zero
# ---------------------------------------------------------------------------

_CHAIN = (_PSI0, _PSI1)


def _chain_transform_oracle(model, f, tails=True):
    """Labelled oracle: real k array -> integral of the interior chain member
    f against psi(x; k), as the package took it before it set that transform
    to zero.

    A core of plane-wave moments of f, f W'/W and f W''/W on the composite
    grid of the pair moments over [-X, X], X = TRANSFORM_WINDOW, plus the
    exact Abel-regularized tails beyond X of the same three from the large-x
    models: the member, p1 = member W'/W and p2 = -member W''/W / 2, each
    assembled with the pole factor 1/(k^2 - a^2).  ``tails=False`` drops the
    tails (a mutation control)."""
    a, z, X = model.alpha, model.z, interior.TRANSFORM_WINDOW
    layout = rs._panels_for(f, rs._spectral_reach(f) + 8 * a, model, X)
    nodes, _ = quadrature.composite_gauss(*layout, 16)
    fv = f.make_eval(model)(nodes)
    W, W1, W2 = interior.im_w_bundle(model, nodes)
    rows = np.stack([fv, fv * (W1 / W), fv * (W2 / W)])
    member = im_tail_model(model, f.ref[0], X)
    inv_w = im_tail_model(model, "inv_w", X)
    osc = quadrature.OscRational
    p1 = member * ((osc.cosine(z, 2 * a, 2 * a) + osc.constant(z, 2 * a)) * inv_w)
    p2 = member * (osc.sine(z, 2 * a, 2 * a * a) * inv_w)

    def transform(k):
        kr = np.real(np.atleast_1d(k))
        g0, g1, g2 = quadrature.composite_phase_sums(*layout, 16, rows, kr + 0j)
        total = g0 + (1j * kr * g1 - 0.5 * g2) / (kr * kr - a * a)
        if tails:
            t0, t1, t2 = (e.integral_tails(X, kr) for e in (member, p1, p2))
            total = total + t0 + (1j * kr * t1 + t2) / (kr * kr - a * a)
        return total / math.sqrt(2 * math.pi)

    return transform


def _chain_spectral_oracle(model, f, transform, eps, A, xp):
    """The spectral integral of the oracle path: ``transform`` against
    psi(x'; -k) over the punctured axis up to min(A, reach + 3 alpha), on
    fixed 12-point composite grids of about 0.4 panels per unit of k, the
    rule the package once took for chain members."""
    a = model.alpha
    integrand = rs._spectral_integrand(model, transform, xp)
    K = min(A, rs._spectral_reach(f) + 3 * a)
    total = 0.0 + 0.0j
    for lo, hi in [(-K, -a - eps), (-a + eps, a - eps), (a + eps, K)]:
        if hi > lo:
            nodes, weights = quadrature.composite_gauss(lo, hi, max(6, math.ceil((hi - lo) * 0.4)), 12)
            total += np.sum(integrand(nodes) * weights)
    return total


_CHAIN_KS = np.linspace(-7.3, 11.0, 9)


def _chain_transform_peak(model, f, tails=True):
    return np.max(np.abs(_chain_transform_oracle(model, f, tails)(_CHAIN_KS)))


@pytest.mark.parametrize("alpha", [0.06, 0.5, 1.0, 1.5, 3.0])
def test_chain_member_transforms_vanish(alpha):
    # the Jordan chain at the exceptional point is bilinearly orthogonal to
    # the continuum: psi0's and psi1's transforms vanish at every real
    # k != +-alpha.  The oracle gets this zero as an O(1) core (up to 7.6 for
    # psi1 at alpha 0.5) minus O(1) exact tails; apply_scheme relies on it
    for im_z, f in itertools.product((0.1, 0.5, 1.0, 2.0), _CHAIN):
        assert _chain_transform_peak(InteriorModel(alpha, 1j * im_z), f) <= 1e-10, (im_z, f.ref)


def _psi1_with(coef):
    # psi1 recoded with W's linear coefficient 2 -> coef; at 2 it is bitwise im_psi1
    def psi1(model, x):
        a = model.alpha
        xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
        W = np.sin(2 * a * xa) + coef * a * (xa - model.z)
        num = ((xa - model.z) * (np.sin(a * xa) + 0j)) * (2 * a) + (np.cos(a * xa) + 0j)
        return (num * (1.0 / W)) * (1.0 / math.sqrt(2 * a))

    return psi1


def test_chain_member_transforms_vanish_mutation_controls(monkeypatch):
    # the oracle's tails dropped leave the O(1) core; psi1 alone recoded with
    # W's linear coefficient 2.001, while psi0 and psi(x; k) keep W, breaks
    # the orthogonality (a W changed everywhere at once might keep it)
    model = InteriorModel(1.0, 1j)
    psi0, psi1 = _CHAIN
    for f in _CHAIN:
        assert _chain_transform_peak(model, f, tails=False) > 1e-2, f.ref
    monkeypatch.setattr(interior, "im_psi1", _psi1_with(2.0))
    assert _chain_transform_peak(model, psi1) <= 1e-10
    monkeypatch.setattr(interior, "im_psi1", _psi1_with(2.001))
    assert _chain_transform_peak(model, psi1) > 1e-5
    assert _chain_transform_peak(model, psi0) <= 1e-10


_CHAIN_RADII = (0.4, 0.2, 0.1, 0.05)


def _chain_path_miss(model, kinds, radii, xp=0.7):
    """Largest move of apply_scheme on psi0 and psi1 against the oracle path:
    the same singular blocks plus the oracle's spectral integral."""
    cutoffs = [50.0 / e for e in radii]
    miss = 0.0
    for f in _CHAIN:
        transform, pair = _chain_transform_oracle(model, f), rs._interior_transform(model, f)[1]
        spectral = [_chain_spectral_oracle(model, f, transform, e, A, xp) for e, A in zip(radii, cutoffs)]
        for kind in kinds:
            got = apply_scheme(Scheme(kind, model), radii, cutoffs, f, xp)
            want = [rs._interior_singular_terms(model, f, e, xp, kind, pair) + s for e, s in zip(radii, spectral)]
            miss = max(miss, np.max(np.abs(got - np.array(want))))
    return miss


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_chain_sweeps_match_the_oracle_path(alpha):
    for z in (0.5j, 1.3j, 0.3 + 0.7j):
        model = InteriorModel(alpha, z)
        assert _chain_path_miss(model, (SchemeId.RES11, SchemeId.RES12, SchemeId.INT04), _CHAIN_RADII) <= 1e-10, z


def test_res13_chain_sweep_matches_the_oracle_path():
    assert _chain_path_miss(InteriorModel(1.0, 1j), (SchemeId.RES13,), _CHAIN_RADII[:2]) <= 1e-10


def _inline_chain_pair_oracle(model, member, X, tail=im_tail_model):
    """Oracle: a chain member's pair moments as _interior_transform and
    reproduce_psi0_term each built them in place before they shared
    _chain_pair: layout, nodes, member values and the tail model of the
    product psi0 member, from ``tail``; the layout is sized by the waves the
    grid serves, 5 alpha, as _chain_pair's."""
    f = TestFunction(kind="chain", ref=(member,))
    layout = rs._panels_for(f, 5 * model.alpha, model, X)
    nodes, _ = quadrature.composite_gauss(*layout, 16)
    values = im_member(model, member, nodes)
    return rs._pair_moments(model, layout, nodes, values, tail(model, f"psi0*{member}", X), X)


@pytest.mark.parametrize("X", [interior.TRANSFORM_WINDOW, interior.PAIR_WINDOW])
def test_chain_pair_equals_the_inline_build_bitwise(X):
    mus = np.array([0.0, 0.05, -0.05, 2.1, -1.9, 0.4])
    for model in (InteriorModel(1.0, 1j), InteriorModel(0.5, 0.3 + 0.7j)):
        for member in ("psi0", "psi1"):
            got = rs._chain_pair(model, member, X)(mus, 0.7)
            assert got.tolist() == _inline_chain_pair_oracle(model, member, X)(mus, 0.7).tolist()


@pytest.mark.parametrize("X", [interior.TRANSFORM_WINDOW, interior.PAIR_WINDOW])
def test_chain_pair_matches_the_product_tail_oracle(X):
    # the pair moments with the closed-series pair model against those with
    # the former product of two truncated member models
    for alpha, z in itertools.product((0.06, 0.5, 1.0, 3.0), (1j, 0.3 + 0.7j, 0.1j)):
        model = InteriorModel(alpha, z)
        mus = _pair_mus(alpha)
        for member in ("psi0", "psi1"):
            got = rs._chain_pair(model, member, X)(mus, 0.7)
            want = _inline_chain_pair_oracle(model, member, X, _product_tail_oracle)(mus, 0.7)
            assert np.max(np.abs(got - want)) < 1e-12, (alpha, z, member)


def _reach_grid_chain_pair_oracle(model, member, X):
    """Labelled oracle: a chain member's pair moments on the grid sized by
    the chain transform's reach plus the potential's harmonics, 42 + 8 alpha,
    as _chain_pair built them before it sized its grid by the waves it
    serves.  Returns the pair and the scale of its sums, the integral of
    |member psi0| over the window, to which the rounding of either grid's
    sums is proportional."""
    f = TestFunction(kind="chain", ref=(member,))
    layout = rs._panels_for(f, rs._spectral_reach(f) + 8 * model.alpha, model, X)
    nodes, weights = quadrature.composite_gauss(*layout, 16)
    values = im_member(model, member, nodes)
    scale = float(np.sum(np.abs(values * im_psi0(model, nodes)) * weights))
    return rs._pair_moments(model, layout, nodes, values, im_tail_model(model, f"psi0*{member}", X), X), scale


def _chain_bracket_waves(alpha):
    # every wave of the interior brackets: 0, +-eps and +-2 alpha +- eps, at
    # the widest radius eps = 0.9 alpha and at eps = min(0.4, 0.9 alpha)
    radii = (0.9 * alpha, min(0.4, 0.9 * alpha))
    return np.array(sorted({0.0} | {s * e for e in radii for s in (1, -1)}
                           | {s1 * 2 * alpha + s2 * e for e in radii for s1 in (1, -1) for s2 in (1, -1)}))


_WAVE_GRID_CASES = list(itertools.product(
    (0.06, 0.5, 1.0, 3.0, 10.0), (1j, 0.3 + 0.7j, 0.1j, 2j),
    (interior.TRANSFORM_WINDOW, interior.PAIR_WINDOW), ("psi0", "psi1")))


def _wave_grid_misses(monkeypatch=None):
    """Per case, |_chain_pair - reach-grid oracle| over the bracket waves in
    units of the oracle's scale (at least 1).  ``monkeypatch`` builds
    _chain_pair's layout without the zero-distance cap (a mutation control);
    the oracle keeps it."""
    misses = {}
    for alpha, z, X, member in _WAVE_GRID_CASES:
        model, mus = InteriorModel(alpha, z), _chain_bracket_waves(alpha)
        pair, scale = _reach_grid_chain_pair_oracle(model, member, X)
        want = pair(mus, 0.7)
        if monkeypatch is None:
            got = rs._chain_pair(model, member, X)(mus, 0.7)
        else:
            with monkeypatch.context() as m:
                m.setattr(rs, "im_zero_gap", lambda model: math.inf)
                got = rs._chain_pair(model, member, X)(mus, 0.7)
        misses[alpha, z, X, member] = float(np.max(np.abs(got - want))) / max(1.0, scale)
    return misses


def test_chain_pair_on_its_wave_grid_matches_the_reach_grid_oracle():
    # 173 instead of 445 panels at alpha 1, z = i; the misses are the two
    # grids' rounding (worst 6.3e-14, at alpha 10), not their resolution
    misses = _wave_grid_misses()
    worst = max(misses, key=misses.get)
    assert misses[worst] <= 1e-13, (worst, misses[worst])


def test_chain_pair_wave_grid_mutation_control(monkeypatch):
    # panels as wide as the waves alone allow, past W's zero distance (0.05
    # at alpha 1, Im z 0.1), must miss: every Im z 0.1 case by 1.7e-6 to
    # 1.7e-5 of the scale
    misses = _wave_grid_misses(monkeypatch)
    assert all(misses[case] > 1e-7 for case in misses if case[1] == 0.1j)


def test_chain_pair_serves_both_callers(monkeypatch):
    model, mus = InteriorModel(1.0, 1j), np.array([0.0, 0.2, -0.2])
    direct = (reproduce_psi0_term(model, 0.1, 0.3), rs._interior_transform(model, _PSI1)[1](mus, 0.7))
    windows = []

    def spy(model, member, X):
        windows.append((member, X))
        return _inline_chain_pair_oracle(model, member, X)

    monkeypatch.setattr(rs, "_chain_pair", spy)
    inline = (reproduce_psi0_term(model, 0.1, 0.3), rs._interior_transform(model, _PSI1)[1](mus, 0.7))
    assert windows == [("psi0", interior.PAIR_WINDOW), ("psi1", interior.TRANSFORM_WINDOW)]
    assert direct[0] == inline[0] and direct[1].tolist() == inline[1].tolist()


def _two_pass_cross_oracle(model, f, eps, xp):
    """Oracle: res13's partner cross terms as two member passes, one
    integral of f member J over the window per member, each evaluating J
    at its own nodes."""
    from scipy.special import sici

    a = model.alpha
    ev_f = f.make_eval(model)
    W = f.window() if not f.is_chain else 400.0

    def j_of(x):
        d = np.abs(np.asarray(x) - xp)
        out = sici((2 * a + eps) * d)[1] - sici((2 * a - eps) * d)[1]
        return np.where(d < 1e-12, math.log((2 * a + eps) / (2 * a - eps)), out)

    total = 0.0 + 0.0j
    for member, other in (("psi0", im_psi1(model, xp)), ("psi1", im_psi0(model, xp))):
        def integrand(x, member=member):
            return ev_f(x) * im_member(model, member, x) * j_of(x)

        val = quadrature._adaptive_oscillatory(integrand, -W, W, 1e-11, 2 * a + eps).value
        total += -(1.0 / math.pi) * val * other
    return total


_CROSS_FUNCTIONS = _CHAIN + (GAUSS, TestFunction.rational_decay(2), TestFunction.hermite_gaussian(3))


@pytest.mark.parametrize("alpha,z", [(1.0, 1j), (0.5, 0.3 + 0.7j)])
def test_partner_cross_matches_the_two_pass_oracle(alpha, z):
    model = InteriorModel(alpha, z)
    for f in _CROSS_FUNCTIONS:
        for eps in _CHAIN_RADII:
            got, want = rs._partner_cross(model, f, eps, 0.7), _two_pass_cross_oracle(model, f, eps, 0.7)
            assert abs(got - want) <= 1e-14, (f, eps)


def test_partner_cross_oracle_mutation_control(monkeypatch):
    # without the partner's own pass the single integral misses the oracle
    model = InteriorModel(1.0, 1j)
    monkeypatch.setattr(rs, "im_psi1", lambda m, x: 0.0 * im_psi1(m, x))
    assert abs(rs._partner_cross(model, _PSI1, 0.2, 0.7) - _two_pass_cross_oracle(model, _PSI1, 0.2, 0.7)) > 1e-4


def test_res13_sweep_takes_its_cross_terms_from_one_pass(monkeypatch):
    # the psi1 sweep with the two-pass oracle in place of the single pass
    model = InteriorModel(1.0, 1j)
    args = (Scheme(SchemeId.RES13, model), list(_CHAIN_RADII), 250.0, _PSI1, 0.7)
    got = apply_scheme(*args)
    monkeypatch.setattr(rs, "_partner_cross", _two_pass_cross_oracle)
    want = apply_scheme(*args)
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_res13_evaluates_j_once_per_node(monkeypatch):
    import scipy.special

    points, evals = [], []
    real_sici, real_osc = scipy.special.sici, rs._adaptive_oscillatory

    def counting_sici(x):
        points.append(np.size(x))
        return real_sici(x)

    def counting_osc(*args):
        r = real_osc(*args)
        evals.append(r.evaluations)
        return r

    monkeypatch.setattr(scipy.special, "sici", counting_sici)
    monkeypatch.setattr(rs, "_adaptive_oscillatory", counting_osc)
    rs._partner_cross(InteriorModel(1.0, 1j), _PSI1, 0.2, 0.7)
    # J = Ci((2a+eps)|D|) - Ci((2a-eps)|D|): two Ci per node, one integral
    assert len(evals) == 1 and sum(points) == 2 * evals[0]


def test_base_resolution_refuses_interior_chain_members():
    # their transform exists on the real k axis only: the deformed contour
    # once read its tails at Re k, and psi1 at radius 0.3 gave -0.104+0.017i
    # on the upper detours against 0.090-0.010i on the lower ones
    for f, direction in itertools.product(_CHAIN, ("up", "down")):
        with pytest.raises(ValueError, match=f"chain member \\({f.ref[0]}\\)"):
            apply_base_resolution(InteriorModel(1.0, 1j), f, 0.7, 0.3, 80.0, direction)


def test_rational_sweep_decomposes_each_power_once(monkeypatch):
    # the spectral transform and the closed blocks share one closed-moment
    # evaluator per call, which builds the partial fractions of
    # f (x-z)^(-q) once per power q, not per panel, term or radius, also
    # at a radius past the spectral reach
    calls = []
    real = rs._pf_decompose

    def counting(centers):
        calls.append(tuple(centers))
        return real(centers)

    monkeypatch.setattr(rs, "_pf_decompose", counting)
    radii = np.array([60.0, 0.4, 0.2, 0.1, 0.05])
    apply_scheme(Scheme(SchemeId.INT5, BoundaryModel(1)), radii, 50.0 / radii, TestFunction.rational_decay(4), XP)
    assert calls and len(calls) == len(set(calls))


# ---------------------------------------------------------------------------
# the one moment evaluator of the boundary schemes
# ---------------------------------------------------------------------------


def quadrature_moment(model, f, mu, q):
    """Adaptive 1e-11 quadrature of f(x) e^{i mu x} (x-z)^(-q) over f's window,
    one scalar frequency at a time: the labelled oracle of the grid moment,
    which replaced it in the package."""
    ev, W = f.make_eval(model), f.window()

    def integrand(x):
        return ev(x) * np.exp(1j * mu * x) * (x - model.z + 0j) ** (-q)

    return quadrature._adaptive_oscillatory(integrand, -W, W, 1e-11, abs(mu) + 1.0).value


_LOCALIZED = [TestFunction.gaussian(0.2, 0.9), TestFunction.hermite_gaussian(2, 0.4, 1.1)]


@pytest.mark.parametrize("f", _LOCALIZED, ids=["gaussian", "hermite2"])
@pytest.mark.parametrize("n", [1, 3], ids=["n1", "n3"])
def test_grid_moment_against_the_adaptive_oracle(f, n):
    # relative to the size of the integrand, integral of |f| |x-z|^(-q): the
    # moment itself vanishes for hermite:2 at mu = q = 0
    m = BoundaryModel(n, 0.3 + 0.8j)
    moment = rs._f_osc_moment(m, f)
    ev, W = f.make_eval(m), f.window()
    qs = tuple(range(n + 2))
    sizes = [
        quadrature._adaptive(lambda x, q=q: np.abs(ev(x) * (x - m.z) ** (-q)), -W, W, 1e-11).value.real
        for q in qs
    ]
    for mu in (-2.0, -0.4, -0.05, 0.0, 0.05, 0.4, 2.0):
        for q, got, size in zip(qs, moment(mu, qs), sizes):
            assert abs(got - quadrature_moment(m, f, mu, q)) < 1e-12 * size, (mu, q)


def test_grid_moment_batches_long_frequency_arrays():
    # a grid for radius 2000 has 4000 panels: one (frequency x panel) phase
    # array over 3000 frequencies would take 190 MB
    moment = rs._f_osc_moment(BoundaryModel(2), GAUSS, 2000.0)
    omega = np.linspace(-3.0, 3.0, 3000)
    tracemalloc.start()
    try:
        whole = moment(omega, (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6
    parts = np.concatenate([moment(omega[i:i + 100], (0,)) for i in range(0, omega.size, 100)], axis=-1)
    assert np.max(np.abs(whole - parts)) < 1e-15 * np.max(np.abs(whole))


def test_panel_layout_bound():
    # GAUSS spans [-9, 9]; k_max = 16384 asks for 2 * 16384 panels, the bound
    assert rs._panels_for(GAUSS, 16384.0) == (-9.0, 9.0, rs._MAX_PANELS)
    with pytest.raises(ValueError, match=r"center 0\.0 with width 1\.0 needs 32769 grid panels"):
        rs._panels_for(GAUSS, 16384.5)
    # rational:1 spans [-2000, 2000], past the bound once k_max > 73.728
    assert rs._panels_for(TestFunction.rational_decay(1), 73.7)[2] == 32756
    with pytest.raises(ValueError, match="test function rational:1 needs 32778 grid panels"):
        rs._panels_for(TestFunction.rational_decay(1), 73.75)


@pytest.mark.parametrize("f", [GAUSS, TestFunction.hermite_gaussian(2)], ids=["gaussian", "hermite2"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5], ids=[f"n{k}" for k in range(1, 6)])
def test_boundary_transform_against_the_laurent_tensor(f, n):
    """T(k) from the grid moments against the dense (k, x) Laurent tensor it
    replaced, on the same composite grid; relative to integral |f psi_k|."""
    m = BoundaryModel(n)
    F = bm_scatter(m)
    ms, ps, cs = F.to_term_arrays()
    scale = (2 * np.pi) ** (-0.5 * F.unit_pow)
    nodes, weights = quadrature.composite_gauss(*rs._panels_for(f, rs._spectral_reach(f)), 16)
    fw = f.make_eval(m)(nodes) * weights
    k = np.concatenate([-np.geomspace(0.05, 20.0, 25), np.geomspace(0.05, 20.0, 25)]).astype(complex)
    grid = kernels.el_eval_grid(ms, ps, cs, F.phase_x, F.phase_z, scale, k, nodes, m.z)
    want = grid @ fw / k**n
    size = np.abs(grid) @ np.abs(fw) / np.abs(k) ** n
    got = rs._boundary_transform(m, f, rs._f_osc_moment(m, f))(k)
    assert np.max(np.abs(got - want) / size) < 1e-13


@pytest.mark.parametrize("sid", [SchemeId.RES3, SchemeId.RES9], ids=["res3", "res9"])
def test_localized_boundary_scheme_takes_every_term_from_one_grid(sid, monkeypatch):
    # neither the dense Laurent tensor nor per-frequency adaptive quadrature
    # is reached, and the value rows f (x-z)^(-q) are built once per q
    def boom(*args, **kwargs):
        raise AssertionError("reached a replaced evaluator")

    for module, name in ((kernels, "el_eval_grid"), (rs, "_adaptive_oscillatory"), (quadrature, "_adaptive_oscillatory")):
        monkeypatch.setattr(module, name, boom)
    built = []
    real = rs._moment_row

    def counting(values, xz, q):
        built.append(q)
        return real(values, xz, q)

    monkeypatch.setattr(rs, "_moment_row", counting)
    radii = np.array([0.4, 0.2, 0.1])
    got = apply_scheme(Scheme(sid, BoundaryModel(2)), radii, 50.0 / radii, GAUSS, XP)
    assert np.all(np.abs(got - TARGET) < 1e-9)
    assert sorted(built) == [0, 1, 2]


def test_radius_past_the_spectral_reach_stays_exact():
    # the spectral integral is empty there, and the blocks and the sinc band
    # read moments at frequencies the transform's grid does not resolve
    radii = np.array([30.0, 100.0])
    got = apply_scheme(Scheme(SchemeId.RES3, BoundaryModel(2)), radii, 2.0 * radii, GAUSS, XP)
    assert np.all(np.abs(got - TARGET) < 1e-9)


def test_localized_sinc_band_stops_at_the_spectral_reach():
    # a packet's transform is negligible past its spectral reach, so a wider
    # band reads the same frequencies: its cost holds still as eps grows
    model, reach = BoundaryModel(2), rs._spectral_reach(GAUSS)
    moment, sizes = rs._f_osc_moment(model, GAUSS), []

    def counting(omega, qs):
        sizes.append(np.size(omega))
        return moment(omega, qs)

    at_reach = rs._sinc_band(model, GAUSS, counting, reach, XP)
    far = rs._sinc_band(model, GAUSS, counting, 600.0, XP)
    assert far == at_reach and sizes[0] == sizes[1]
    assert abs(far - TARGET) < 1e-13


@functools.cache
def _sinc_oracle(model, f, eps, xp):
    """30-digit mpmath quadosc of f(x) sin(eps (x-x'))/(pi (x-x')) over the line."""
    import mpmath as mp

    with mp.workdps(30):
        z = mp.mpc(model.z.real, model.z.imag)
        if f.is_chain:
            F = bm_assoc(model, f.ref[1])
            (((_, p), c),) = F.terms.items()
            coeff = mp.mpc(mp.mpf(c.re.numerator) / c.re.denominator, mp.mpf(c.im.numerator) / c.im.denominator)
            norm = (2 * mp.pi) ** (-mp.mpf(F.unit_pow) / 2)

            def fx(x):
                return norm * coeff * (x - z) ** p

        else:
            def fx(x):
                return (1 + x * x) ** (-f.exponent)

        e, x0 = mp.mpf(eps), mp.mpf(xp)

        def g(x):
            return fx(x) * mp.sin(e * (x - x0)) / (mp.pi * (x - x0))

        return complex(mp.quadosc(g, [x0, mp.inf], omega=e) + mp.quadosc(g, [-mp.inf, x0], omega=e))


_SINC_CASES = [
    (2, TestFunction.chain_boundary(0)),
    (3, TestFunction.chain_boundary(1)),
    (2, TestFunction.rational_decay(3)),
    (2, TestFunction.rational_decay(4)),
    # members (x-z)^0 and (x-z)^1, whose moments sit at kappa = 0 (Abel sense)
    (2, TestFunction.chain_boundary(1)),
    (3, TestFunction.chain_boundary(2)),
]


def _sinc_misses(eps=0.05, xp=XP):
    out = []
    for n, f in _SINC_CASES:
        m = BoundaryModel(n)
        got = rs._sinc_band(m, f, rs._f_osc_moment(m, f), eps, xp)
        out.append(abs(got - _sinc_oracle(m, f, eps, xp)))
    return out


def test_sinc_band_against_mpmath():
    # a window cut at max(300, 12/eps) misses by 3.4e-7 (chain:0), 8.9e-7
    # (chain:1), 3.4e-11 (rational:3) and 6e-3 (the polynomial members)
    assert max(_sinc_misses()) < 1e-12


def test_sinc_band_without_its_negative_half_is_caught(monkeypatch):
    # mutation control: zero the weights of the kappa < 0 half of the band
    real = rs.composite_gauss

    def upper_half_only(lo, hi, n_panels, order):
        nodes, weights = real(lo, hi, n_panels, order)
        return nodes, np.where(nodes < 0, 0.0, weights)

    monkeypatch.setattr(rs, "composite_gauss", upper_half_only)
    assert max(_sinc_misses()) > 1e-6


def test_closed_moments_refuse_large_rational_exponents():
    # the interior family's numeric transform takes the same function
    f = TestFunction.rational_decay(rs._MAX_RATIONAL_EXPONENT + 1)
    with pytest.raises(ValueError, match="rational:"):
        apply_scheme(Scheme(SchemeId.RES3, BoundaryModel(1)), 0.4, 125.0, f, XP)
    assert np.isfinite(apply_scheme(Scheme(SchemeId.RES12, InteriorModel(1.0, 1j)), 0.4, 125.0, f, XP))


def test_base_resolution_rejects_unknown_direction():
    with pytest.raises(ValueError):
        apply_base_resolution(BoundaryModel(1), GAUSS, XP, 0.5, 60.0, "sideways")
