"""Interior-singularity model: eigen/Jordan identities, poles, asymptotics."""

import itertools
import math

import numpy as np
import pytest

from epresolve import interior
from epresolve.interior import (
    InteriorModel,
    im_W,
    im_jet,
    im_potential,
    im_psi0,
    im_psi1,
    im_scatter,
    im_tail_model,
    im_w_bundle,
)
from epresolve.kernels import interior_psi_grid
from epresolve.quadrature import OscRational


@pytest.fixture(scope="module")
def model():
    return InteriorModel(1.0, 1j)


def _stress_x():
    # log-dense near the origin, reaching into the asymptotic region
    pos = np.concatenate([np.geomspace(1e-3, 40.0, 25), np.linspace(0.1, 40.0, 20)])
    return np.unique(np.concatenate([-pos, [0.0], pos]))


def test_model_validation():
    with pytest.raises(ValueError):
        InteriorModel(-1.0, 1j)
    with pytest.raises(ValueError):
        InteriorModel(1.0, 2.0)
    assert InteriorModel(2.0, 1j).energy == 4.0


def test_w_never_vanishes_on_line(model):
    # Im W = -2 a Im z is constant, so |W| is bounded below
    xs = _stress_x()
    W = im_W(model, xs)
    assert np.min(np.abs(W)) >= 2 * model.alpha * abs(model.z.imag) - 1e-12


@pytest.mark.parametrize("alpha", [0.06, 1.0, 3.0])
@pytest.mark.parametrize("im_z", [1e-3, 0.1, 1.0, 2.0])
def test_zero_gap_bounds_the_zeros_of_w(alpha, im_z):
    # on the imaginary axis (z purely imaginary) the bound is attained: W
    # vanishes at i * gap; inside the strip |Im x| < gap, Im W keeps the
    # sign of -Im z everywhere
    model = InteriorModel(alpha, 1j * im_z)
    a, gap = alpha, interior.im_zero_gap(model)

    def w(x):
        return np.sin(2 * a * x) + 2 * a * (x - model.z)

    assert abs(w(1j * gap)) < 1e-13 * (1 + 2 * a * im_z)
    t, y = np.meshgrid(np.linspace(-3, 3, 301) / a, np.linspace(-0.999, 0.999, 41) * gap)
    assert np.all(w(t + 1j * y).imag < 0)


def test_w_derivative_bundle_consistency(model):
    xs = np.linspace(-5, 5, 11)
    W, W1, W2 = im_w_bundle(model, xs)
    h = 1e-5
    Wp = im_w_bundle(model, xs + h)[0]
    Wm = im_w_bundle(model, xs - h)[0]
    assert np.max(np.abs((Wp - Wm) / (2 * h) - W1)) < 1e-8
    assert np.max(np.abs((Wp - 2 * W + Wm) / h**2 - W2)) < 1e-4


def test_potential_value_at_origin(model):
    # V(0) = 32 a^2 / W(0)^2 with W(0) = -2 a z: for z = i this is -8
    assert abs(im_potential(model, 0.0) - (-8.0)) < 1e-13


def test_potential_two_codings_agree(model):
    # direct trig transcription vs the derivative-identity coding in the package
    a, z = model.alpha, model.z
    xs = _stress_x()
    W = im_W(model, xs)
    direct = (
        16 * a**2 * (a * (xs - z) * np.sin(2 * a * xs) + 2 * np.cos(a * xs) ** 2) / W**2
    )
    assert np.max(np.abs(direct - im_potential(model, xs))) < 1e-12


def test_potential_decays(model):
    assert abs(im_potential(model, 500.0)) < 0.1
    assert abs(im_potential(model, -500.0)) < 0.1


# ---------------------------------------------------------------------------
# scattering solution
# ---------------------------------------------------------------------------

def _coding_misses():
    """(alpha, Im z, function) where a value evaluator disagrees with the
    im_jet oracle on the stress grid: psi0 and psi1 must agree bitwise, the
    scattering solution (two codings) within 1e-12 (1 + |value|)."""
    xs = _stress_x()
    misses = []
    for alpha, im_z in itertools.product((0.5, 1.0, 1.5), (0.5, 1.0, 2.0)):
        m = InteriorModel(alpha, 1j * im_z)
        for kind, value in (("psi0", interior.im_psi0), ("psi1", interior.im_psi1)):
            if not np.array_equal(value(m, xs), im_jet(m, kind, xs).value):
                misses.append((alpha, im_z, kind))
        cases = [(k, False) for k in (0.35, 1.7, -2.4)] + [(k, True) for k in (alpha, -alpha, 0.35, -2.4)]
        for k, reg in cases:
            got = interior.im_scatter(m, k, xs, regularized=reg)
            want = im_jet(m, "scatter", xs, k=k, regularized=reg).value
            if not np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want))):
                misses.append((alpha, im_z, ("scatter", k, reg)))
    return misses


def test_scatter_two_codings_agree(model):
    assert _coding_misses() == []
    # scalar input gives a complex, equal to the array entry
    xs = _stress_x()
    assert isinstance(im_psi1(model, 0.41), complex)
    assert isinstance(im_scatter(model, 1.7, 0.41), complex)
    assert im_psi1(model, xs[7]) == im_psi1(model, xs)[7]
    # the grid kernel is the outer (k, x) grid of the same evaluator
    for reg in (False, True):
        k = np.array([0.35, 1.7, -2.4, 0.9 + 0.2j])
        grid = interior_psi_grid(k, xs, model.alpha, model.z, reg)
        assert np.array_equal(grid, im_scatter(model, k[:, None], xs[None, :], reg))


def test_value_evaluators_fail_against_the_oracle_under_mutation(monkeypatch):
    # mutation control: psi1 with W's linear coefficient 2 -> 2.001 fails;
    # the same recoding at 2 is bitwise the package's and passes
    def psi1_with(coef):
        def psi1(model, x):
            a = model.alpha
            xa = np.asarray(x, dtype=np.float64)
            W = np.sin(2 * a * xa) + coef * a * (xa - model.z)
            num = ((xa - model.z) * (np.sin(a * xa) + 0j)) * (2 * a) + (np.cos(a * xa) + 0j)
            return (num * (1.0 / W)) * (1.0 / math.sqrt(2 * a))

        return psi1

    monkeypatch.setattr(interior, "im_psi1", psi1_with(2.0))
    assert _coding_misses() == []
    monkeypatch.setattr(interior, "im_psi1", psi1_with(2.001))
    assert {kind for _, _, kind in _coding_misses()} == {"psi1"}


def test_scatter_pole_guard(model):
    with pytest.raises(ValueError):
        im_scatter(model, model.alpha, 0.3)
    # regularized evaluation is fine on the pole
    im_scatter(model, model.alpha, 0.3, regularized=True)


def test_eigen_equation_on_stress_grid(model):
    xs = _stress_x()
    V = im_potential(model, xs)
    ks = [k for k in np.linspace(-3.0, 3.0, 25) if abs(abs(k) - model.alpha) > 1e-3]
    for k in ks:
        pe = im_jet(model, "scatter", xs, k=k)
        res = -pe.d2 + (V - k * k) * pe.value
        assert np.max(np.abs(res)) < 1e-8 * (1 + np.max(np.abs(pe.value)))


def test_regularized_eigen_equation(model):
    # (h - k^2) applied to the pole-free multiple also vanishes, including at k=alpha
    xs = _stress_x()
    V = im_potential(model, xs)
    for k in (model.alpha, -model.alpha, 0.9):
        pe = im_jet(model, "scatter", xs, k=k, regularized=True)
        res = -pe.d2 + (V - k * k) * pe.value
        assert np.max(np.abs(res)) < 1e-8 * (1 + np.max(np.abs(pe.value)))


def test_derivatives_match_finite_differences(model):
    h = 1e-5
    for k in (0.6, 2.1):
        for x0 in (-3.3, 0.41, 7.9):
            p0 = im_jet(model, "scatter", x0, k=k)
            pp = im_jet(model, "scatter", x0 + h, k=k)
            pm = im_jet(model, "scatter", x0 - h, k=k)
            assert abs((pp.value - pm.value) / (2 * h) - p0.d1) < 1e-4
            assert abs((pp.value - 2 * p0.value + pm.value) / h**2 - p0.d2) < 1e-4


# ---------------------------------------------------------------------------
# embedded eigenvalue and its chain
# ---------------------------------------------------------------------------

def test_bounded_state_eigen_equation(model):
    xs = _stress_x()
    V = im_potential(model, xs)
    p = im_jet(model, "psi0", xs)
    res = -p.d2 + (V - model.energy) * p.value
    assert np.max(np.abs(res)) < 1e-8 * (1 + np.max(np.abs(p.value)))


def test_chain_partner_jordan_relation(model):
    xs = _stress_x()
    V = im_potential(model, xs)
    p0 = im_jet(model, "psi0", xs)
    p1 = im_jet(model, "psi1", xs)
    res = -p1.d2 + (V - model.energy) * p1.value - p0.value
    assert np.max(np.abs(res)) < 1e-8 * (1 + np.max(np.abs(p1.value)))


def test_bounded_state_value_at_origin(model):
    # (2a)^{3/2} / W(0) with W(0) = -2 a z
    want = (2 * model.alpha) ** 1.5 / (-2 * model.alpha * model.z)
    assert abs(im_psi0(model, 0.0) - want) < 1e-14


def test_chain_partner_is_bounded_not_decaying(model):
    # psi1 approaches (i/(2 sqrt(2a))) (e^{-iax} - e^{iax}) with O(1/x) error
    a = model.alpha
    for X in (1e4, 1e5):
        asym = (1j / (2 * math.sqrt(2 * a))) * (
            np.exp(-1j * a * X) - np.exp(1j * a * X)
        )
        diff = abs(im_psi1(model, X) - asym)
        assert diff < 5.0 / X


def test_removable_singularity_radial_sampling(model):
    # (k^2 - a^2) psi is analytic at k = a: its average over a small circle
    # equals the center value, which matches i sqrt(a/pi) psi0 exactly
    a = model.alpha
    x0 = 0.7
    want = 1j * math.sqrt(a / math.pi) * im_psi0(model, x0)
    for r in (1e-2, 1e-3):
        thetas = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        vals = [
            im_scatter(model, a + r * np.exp(1j * t), x0, regularized=True)
            for t in thetas
        ]
        avg = np.mean(vals)
        assert abs(avg - want) < 1e-6
    # and the mirrored pole with the opposite sign
    want_neg = -1j * math.sqrt(a / math.pi) * im_psi0(model, x0)
    got = im_scatter(model, -a, x0, regularized=True)
    assert abs(got - want_neg) < 1e-12


def test_chain_partner_from_spectral_derivative(model):
    # d/dk of the pole-free multiple at k = -a reconstructs the chain partner
    # up to an explicit multiple of the bounded state
    a, x0 = model.alpha, 0.43
    h = 1e-5

    def reg(k):
        return im_scatter(model, k, x0, regularized=True)

    dreg = (reg(-a + h) - reg(-a - h)) / (2 * h)
    lim = dreg / (2 * (-a))
    got = 1j * math.sqrt(math.pi / a) * lim - ((1 - 2j * a * model.z) / (4 * a**2)) * im_psi0(model, x0)
    assert abs(got - im_psi1(model, x0)) < 1e-6


# ---------------------------------------------------------------------------
# asymptotic tail models
# ---------------------------------------------------------------------------

_EXACT = {
    "psi0": im_psi0,
    "psi1": im_psi1,
    "inv_w": lambda model, x: 1.0 / im_W(model, x),
    "psi0*psi0": lambda model, x: im_psi0(model, x) ** 2,
    "psi0*psi1": lambda model, x: im_psi0(model, x) * im_psi1(model, x),
}
_PAIR_KINDS = ("psi0*psi0", "psi0*psi1")


def _tail_misses(kind):
    """(alpha, Im z, X, x) where the model built for window X misses the exact
    function by more than the budget times (1 + |value|), for |x| = X, 1.5 X."""
    misses = []
    for alpha, im_z, X in itertools.product((0.2, 0.5, 1.0, 1.5), (0.5, 1.0, 2.0), (40.0, 60.0)):
        model = InteriorModel(alpha, 1j * im_z)
        tm = im_tail_model(model, kind, X)
        for x in (X, -X, 1.5 * X, -1.5 * X):
            want = _EXACT[kind](model, x)
            if abs(tm.eval(x) - want) > interior._TAIL_BUDGET * (1 + abs(want)):
                misses.append((alpha, im_z, X, x))
    return misses


@pytest.mark.parametrize("kind", list(_EXACT))
def test_tail_models_match_exact_functions(kind):
    assert _tail_misses(kind) == []


def test_tail_model_refusals(model):
    with pytest.raises(ValueError, match="unknown tail-model kind"):
        im_tail_model(model, "nope", 40.0)
    # a window where the expansion would need more orders than the cap
    with pytest.raises(ValueError, match=r"\|x\| = 60 .* alpha = 0\.03"):
        im_tail_model(InteriorModel(0.03, 1j), "psi0", 60.0)


def test_tail_order_one_lower_misses_the_budget(monkeypatch):
    # mutation control: the derived order is the fewest that meet the budget
    real = interior._tail_order
    monkeypatch.setattr(interior, "_tail_order", lambda model, X: real(model, X) - 1)
    assert any(_tail_misses(kind) for kind in _EXACT)


def _product_tail_oracle(model, kind, X):
    """Labelled oracle: the tail model of ``kind`` as the package built it
    before the closed W^-m series, by OscRational products of truncated
    expansions.  1/W = (1/(2a(x-z))) sum_j (-s)^j with s = sin(2ax)/(2a(x-z)),
    summed to s^N by repeated products; a member is its numerator times that,
    and a pair ``"psi0*member"`` the product of the two member models."""
    a, z = model.alpha, model.z
    s = OscRational(z, [(2 * a, 1, 1.0 / (4j * a)), (-2 * a, 1, -1.0 / (4j * a))])
    total, power = OscRational.constant(z, 0.0), OscRational.constant(z, 1.0)
    for j in range(interior._tail_order(model, X) + 1):
        total = total + ((-1.0) ** j) * power
        power = power * s
    inv_w = (1.0 / (2 * a)) * total.shift_power(1)

    def member(name):
        if name == "inv_w":
            return inv_w
        if name == "psi0":
            return (2 * a) ** 1.5 * (OscRational.cosine(z, a) * inv_w)
        num = (2 * a) * (OscRational.centered_poly(z, [0.0, 1.0]) * OscRational.sine(z, a))
        return (1.0 / math.sqrt(2 * a)) * ((num + OscRational.cosine(z, a)) * inv_w)

    if "*" in kind:
        first, second = kind.split("*")
        return member(first) * member(second)
    return member(kind)


def _pair_waves(alpha):
    # the interior brackets' waves at a wide and a narrow radius: 0, +-eps and
    # +-2 alpha +- eps, clear of the divergent tails at -+2 alpha
    radii = (0.4 * alpha, 0.0125 * alpha)
    return np.array(sorted({0.0} | {s * e for e in radii for s in (1, -1)}
                           | {s1 * 2 * alpha + s2 * e for e in radii for s1 in (1, -1) for s2 in (1, -1)}))


# alpha x Im z x Re z x X of the pair-series checks
_SERIES_GRID = list(itertools.product((0.06, 0.5, 1.0, 1.5, 3.0), (0.1, 0.5, 1.0, 2.0), (0.0, 0.3), (40.0, 60.0)))


def _series_tail_misses(monkeypatch, *builds):
    """Largest |integral_tails| difference per tail-model function in
    ``builds``, over _SERIES_GRID, the pair kinds and the bracket waves,
    between its pair model at window X and the package's series summed 8
    orders further."""
    real = interior._tail_order
    misses = [0.0] * len(builds)
    for alpha, im_z, re_z, X in _SERIES_GRID:
        model, k = InteriorModel(alpha, complex(re_z, im_z)), _pair_waves(alpha)
        for kind in _PAIR_KINDS:
            with monkeypatch.context() as m:
                m.setattr(interior, "_tail_order", lambda model, X: real(model, X) + 8)
                deep = im_tail_model(model, kind, X).integral_tails(X, k)
            for i, build in enumerate(builds):
                misses[i] = max(misses[i], float(np.max(np.abs(build(model, kind, X).integral_tails(X, k) - deep))))
    return misses


def test_pair_series_tails_meet_a_deeper_series(monkeypatch):
    # a pair model sums W^-2 to N + 1 orders, within 1e-12 of 8 more (4.0e-13
    # at most), where the former products of two order-N models stay within
    # 6.8e-13
    series, product = _series_tail_misses(monkeypatch, im_tail_model, _product_tail_oracle)
    assert series < 1e-12 and product < 1e-12


def test_pair_series_mutation_controls(monkeypatch):
    real = interior._w_series
    # the pair kinds at order N, as the single models: 3.1e-12 off
    with monkeypatch.context() as m:
        m.setattr(interior, "_w_series", lambda model, mm, order: real(model, mm, order - mm + 1))
        assert _series_tail_misses(monkeypatch, im_tail_model)[0] > 1e-12

    # the negative binomial's (-1)^j flipped: every odd power of s changes sign
    def flipped(model, mm, order):
        out = real(model, mm, order)
        return OscRational(model.z, [(mu, q, c * (-1.0) ** (q - mm)) for (mu, q), c in out.terms.items()])

    with monkeypatch.context() as m:
        m.setattr(interior, "_w_series", flipped)
        assert all(_tail_misses(kind) for kind in _EXACT)


def test_series_models_match_the_product_oracle():
    # the single models keep order N, the pair models take N + 1: each is
    # within the budget of the product it replaces, pointwise at |x| = X, 2X
    for alpha, im_z, re_z, X in _SERIES_GRID:
        model = InteriorModel(alpha, complex(re_z, im_z))
        for kind in _EXACT:
            xs = np.array([X, -X, 2 * X, -2 * X])
            got, want = im_tail_model(model, kind, X).eval(xs), _product_tail_oracle(model, kind, X).eval(xs)
            assert np.all(np.abs(got - want) <= interior._TAIL_BUDGET * (1 + np.abs(want))), (alpha, im_z, re_z, X, kind)
    # a single model is numerator times one series of the same order: the
    # same keys as the product
    model = InteriorModel(1.0, 0.2 + 1j)
    for kind in ("inv_w", "psi0", "psi1"):
        assert set(im_tail_model(model, kind, 40.0).terms) == set(_product_tail_oracle(model, kind, 40.0).terms)
    # psi0 psi1 at alpha 1, X = 40: 71 terms against the product's 157
    assert len(im_tail_model(model, "psi0*psi1", 40.0).terms) < len(_product_tail_oracle(model, "psi0*psi1", 40.0).terms)
