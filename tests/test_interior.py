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
    "scatter": lambda model, x: im_scatter(model, 1.7, x),
    "scatter_reg": lambda model, x: im_scatter(model, 1.7, x, regularized=True),
}


def _tail_misses(kind):
    """(alpha, Im z, X, x) where the model built for window X misses the exact
    function by more than the budget times (1 + |value|), for |x| = X, 1.5 X."""
    misses = []
    for alpha, im_z, X in itertools.product((0.2, 0.5, 1.0, 1.5), (0.5, 1.0, 2.0), (40.0, 60.0)):
        model = InteriorModel(alpha, 1j * im_z)
        tm = im_tail_model(model, kind, X, k=1.7 if kind.startswith("scatter") else None)
        for x in (X, -X, 1.5 * X, -1.5 * X):
            want = _EXACT[kind](model, x)
            if abs(tm.eval(x) - want) > interior._TAIL_BUDGET * (1 + abs(want)):
                misses.append((alpha, im_z, X, x))
    return misses


@pytest.mark.parametrize("kind", ["psi0", "psi1", "inv_w"])
def test_tail_models_match_exact_functions(kind):
    assert _tail_misses(kind) == []


def test_tail_model_scatter(model):
    for kind in ("scatter", "scatter_reg"):
        assert _tail_misses(kind) == []
    with pytest.raises(ValueError):
        im_tail_model(model, "scatter", 40.0, k=None)
    with pytest.raises(ValueError):
        im_tail_model(model, "nope", 40.0)
    # a window where the expansion would need more orders than the cap
    with pytest.raises(ValueError, match=r"\|x\| = 60 .* alpha = 0\.03"):
        im_tail_model(InteriorModel(0.03, 1j), "psi0", 60.0)


def test_tail_order_one_lower_misses_the_budget(monkeypatch):
    # mutation control: the derived order is the fewest that meet the budget
    real = interior._tail_order
    monkeypatch.setattr(interior, "_tail_order", lambda model, X: real(model, X) - 1)
    assert any(_tail_misses(kind) for kind in _EXACT)
