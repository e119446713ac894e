"""Green functions, pole orders at the exceptional point, and the indexes."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import epresolve.greens as greens
from epresolve import cli
from epresolve.boundary import BoundaryModel, bm_potential, bm_scatter_ladder
from epresolve.exact import el_mutate
from epresolve.greens import (
    _MOMENT_SAMPLES,
    _PROBES,
    IndexTriple,
    _green_k,
    green,
    indexes,
    pole_order,
)
from epresolve.interior import InteriorModel, im_jet, im_potential
from epresolve.resolution import eps_chain

INTERIOR = InteriorModel(1.0, 1j)


def test_free_particle_oracle():
    # n=0 collapses to plane waves: (pi*i/k) e^{ik}/(2 pi) at k=1
    got = green(BoundaryModel(0), 1.0, 0.0, 1.0)
    assert abs(got - 0.5j * cmath.exp(1j)) < 1e-14


@pytest.mark.parametrize(
    "model",
    [BoundaryModel(1), BoundaryModel(3), INTERIOR],
    ids="boundary1 boundary3 interior".split(),
)
def test_symmetry_in_the_pair(model):
    for x, xp, E in ((0.7, -0.4, 2.3), (1.3, 0.2, 0.6), (-0.9, -0.1, 5.0)):
        assert green(model, x, xp, E) == green(model, xp, x, E)


def test_branch_choice_decays_below_the_spectrum():
    m = BoundaryModel(1)
    # E < 0 must pick the decaying momentum (Im k > 0)
    vals = [abs(green(m, s, 0.0, -1.0)) for s in (1.0, 3.0, 6.0)]
    assert vals[0] > 5 * vals[1] > 100 * vals[2]


# The scalar stencil: the oracle of cli._jump_extrapolated, which takes the
# same 60 stencil points in one array call to green.

def _side_deriv(model, x, xp, E, h):
    """One-sided fourth-order derivative from five scalar green calls (oracle)."""
    c = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
    return sum(ci * green(model, x + s * h, xp, E) for ci, s in zip(c, (-2, -1, 0, 1, 2)))


def _neville_zero(ds, vs):
    """Neville extrapolation of vs(ds) to d = 0 (oracle)."""
    t = list(vs)
    n = len(t)
    for lvl in range(1, n):
        for i in range(n - lvl):
            t[i] = t[i + 1] + (t[i + 1] - t[i]) * ds[i + lvl] / (ds[i] - ds[i + lvl])
    return t[0]


_JUMP_OFFSETS = [0.08, 0.04, 0.02, 0.01, 0.005, 0.0025]


def _oracle_jump(model, xp, E):
    js = [
        _side_deriv(model, xp + d, xp, E, d / 8) - _side_deriv(model, xp - d, xp, E, d / 8)
        for d in _JUMP_OFFSETS
    ]
    return _neville_zero(_JUMP_OFFSETS, js)


@pytest.mark.parametrize(
    "model",
    [BoundaryModel(0), BoundaryModel(1), BoundaryModel(2), INTERIOR],
    ids="boundary0 boundary1 boundary2 interior".split(),
)
def test_derivative_jump_is_minus_one(model):
    """Finite-difference probe of the delta normalization across the diagonal."""
    assert abs(_oracle_jump(model, 0.3, 2.0) + 1.0) < 1e-6


def _stencil_points(xp):
    # cli._jump_extrapolated's points: offset x bank (right, left) x step
    return np.array([
        [[x + s * (d / 8) for s in (-2, -1, 0, 1, 2)] for x in (xp + d, xp - d)]
        for d in _JUMP_OFFSETS
    ])


# the jump checks' grid: both families at Im z 0.5..2 and Re z 0, 0.3
_STENCIL_ZS = [complex(re, im) for im in (0.5, 1.0, 1.2, 1.6, 2.0) for re in (0.0, 0.3)]
_STENCIL_MODELS = [BoundaryModel(n) for n in range(7)] + [
    InteriorModel(a, 1j) for a in (0.5, 1.0, 1.5, 2.0)
]
_STENCIL_IDS = [f"n{n}" for n in range(7)] + ["a0.5", "a1", "a1.5", "a2"]


def _at(model, z):
    if isinstance(model, BoundaryModel):
        return BoundaryModel(model.n, z)
    return InteriorModel(model.alpha, z)


@pytest.mark.parametrize("model", _STENCIL_MODELS, ids=_STENCIL_IDS)
def test_array_stencil_matches_the_scalar_oracle(model):
    for z in _STENCIL_ZS:
        m = _at(model, z)
        got = cli._jump_extrapolated(m, 0.3, 2.0)
        want = _oracle_jump(m, 0.3, 2.0)
        assert abs(got - want) < 1e-9, (z, got, want)
        # the report's verdict: the same on both paths
        assert (abs(got + 1.0) < 1e-6) == (abs(want + 1.0) < 1e-6), (z, got, want)


@pytest.mark.parametrize("model", _STENCIL_MODELS, ids=_STENCIL_IDS)
def test_array_green_equals_scalar_calls(model):
    """Both banks (x > x' and x < x') and the diagonal itself.

    The interior family matches bitwise.  The boundary family's one
    difference is numpy's array reciprocal for the (x-z)**-1 term, one ulp
    of one term, which cancellation in the Laurent sum grows with n: within
    1e-15 relative up to n = 2, and 4.8e-15 at worst on this grid.
    """
    for z in _STENCIL_ZS:
        m = _at(model, z)
        xs = np.append(_stencil_points(0.3), 0.3)
        got = green(m, xs, 0.3, 2.0)
        assert got.shape == xs.shape
        scalars = [green(m, float(x), 0.3, 2.0) for x in xs]
        assert all(type(w) is complex for w in scalars)
        want = np.array(scalars)
        if isinstance(m, InteriorModel):
            assert np.array_equal(got, want), z
        else:
            rtol = 1e-15 if m.n <= 2 else 1e-14
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


def test_array_stencil_mutation_control(monkeypatch):
    # the left-bank points shifted by 1e-3 must fail both the oracle
    # agreement and the jump's own tolerance
    def shifted(model, x, xp, E):
        return green(model, np.where(x < xp, x + 1e-3, x), xp, E)

    monkeypatch.setattr(cli, "green", shifted)
    for model in (BoundaryModel(2), INTERIOR):
        got = cli._jump_extrapolated(model, 0.3, 2.0)
        assert abs(got - _oracle_jump(model, 0.3, 2.0)) > 1e-3
        assert abs(got + 1.0) > 1e-6


@pytest.mark.parametrize(
    "model",
    [BoundaryModel(1), InteriorModel(1.0, 1j), InteriorModel(0.01, 1j), InteriorModel(30.0, 1j)],
    ids="boundary1 interior-a1 interior-a0.01 interior-a30".split(),
)
def test_green_refuses_coordinates_past_the_phase_rounding(model):
    # the phase k*x keeps no correct digit once |k| |x| 2**-53 passes 1e-8;
    # the interior family's W holds sin(2 alpha x), so 2 alpha counts too
    k = math.sqrt(2.0)
    reach = k if isinstance(model, BoundaryModel) else max(k, 2 * model.alpha)
    edge = 1e-8 * 2.0**53 / reach
    for x, xp in ((0.999 * edge, 0.0), (0.0, -0.999 * edge)):
        assert cmath.isfinite(green(model, x, xp, 2.0))
    for x, xp in ((1.001 * edge, 0.0), (0.0, -1.001 * edge), (1e300, 0.0)):
        with pytest.raises(ValueError, match="--x/--xp"):
            green(model, x, xp, 2.0)
    with pytest.raises(ValueError, match="--x/--xp"):
        green(model, np.array([0.3, 1.001 * edge]), 0.0, 2.0)


@pytest.mark.parametrize(
    "model potential".split(),
    [
        (BoundaryModel(2), lambda x: bm_potential(BoundaryModel(2), x)),
        (INTERIOR, lambda x: im_potential(INTERIOR, x)),
    ],
    ids="boundary2 interior".split(),
)
def test_eigen_residual_off_diagonal(model, potential):
    # (h - E) G = 0 away from x = x'; fourth-order stencil for the curvature
    h = 1e-2
    for x, xp, E in ((0.9, -0.4, 2.0), (-1.4, 0.6, 5.0), (1.7, 0.1, 1.3)):
        g = lambda t: green(model, t, xp, E)
        d2 = (-g(x + 2 * h) + 16 * g(x + h) - 30 * g(x) + 16 * g(x - h) - g(x - 2 * h)) / (
            12 * h * h
        )
        G = g(x)
        assert abs(-d2 + potential(x) * G - E * G) < 1e-6 * (1 + abs(G))


def test_green_refuses_the_singular_momentum():
    with pytest.raises(ValueError):
        green(BoundaryModel(1), 0.7, -0.4, 0.0)
    with pytest.raises(ValueError):
        green(INTERIOR, 0.7, -0.4, 1.0)  # E = alpha^2


@pytest.mark.parametrize(
    "n expected".split(),
    # n >= 6 needs more than 12 moments: the default bound follows the model
    [(1, 3), (2, 5), (3, 7), (6, 13), (7, 15)],
    ids="n1 n2 n3 n6 n7".split(),
)
def test_boundary_pole_orders(n, expected):
    m = BoundaryModel(n)
    assert pole_order(m, 0j, 0.5) == expected
    assert pole_order(m, 0j, 0.25) == expected  # radius-halving stability


def test_interior_pole_order():
    assert pole_order(INTERIOR, 1.0 + 0j, 0.25) == 2
    assert pole_order(INTERIOR, 1.0 + 0j, 0.125) == 2


@pytest.mark.parametrize("im", [0.5, 1.0, 2.0], ids="z0.5i z1i z2i".split())
def test_pole_orders_of_the_batched_probes(im, monkeypatch):
    # both probe pairs go to _green_k in one call per radius; the orders are
    # those of one call per pair: 2n+1 for the boundary family, 2 at alpha
    calls = []
    measure = greens._green_k

    def counting(model, ks, x, xp):
        calls.append(np.broadcast(ks, x, xp).shape)
        return measure(model, ks, x, xp)

    monkeypatch.setattr(greens, "_green_k", counting)
    shape = (len(_PROBES), _MOMENT_SAMPLES)
    for n in range(13):
        for radius in (0.5, 0.25):
            calls.clear()
            assert pole_order(BoundaryModel(n, complex(0, im)), 0j, radius) == 2 * n + 1
            assert calls == [shape]
    for alpha in (0.5, 1.0, 1.5):
        for radius in (0.25, 0.125):
            calls.clear()
            assert pole_order(InteriorModel(alpha, complex(0, im)), complex(alpha), radius) == 2
            assert calls == [shape]


def _contour(center, radius):
    # the momenta pole_order evaluates the Green function on
    theta = np.arange(_MOMENT_SAMPLES) * (2 * math.pi / _MOMENT_SAMPLES)
    return center + radius * np.exp(1j * theta)


def _oracle(model, k, x, xp, psi=None):
    """Scalar Green function at one momentum, off the array code path.

    Boundary: the ladder-built solution ``psi`` (default
    bm_scatter_ladder), one ExpLaurent.eval per scalar k.  Interior: the
    half-angle coding of the im_jet oracle, one call per scalar k.
    """
    hi, lo = max(x, xp), min(x, xp)
    if isinstance(model, BoundaryModel):
        psi = bm_scatter_ladder(model) if psi is None else psi
        left = psi.eval(k, hi, model.z) / k**model.n
        right = psi.eval(-k, lo, model.z) / (-k) ** model.n
    else:
        left = im_jet(model, "scatter", hi, k=k).value
        right = im_jet(model, "scatter", lo, k=-k).value
    return (math.pi * 1j / k) * left * right


def _oracle_contour(model, ks, x, xp, psi=None):
    return np.array([_oracle(model, complex(k), x, xp, psi) for k in ks])


@pytest.mark.parametrize("radius", [0.5, 0.25], ids="r0.5 r0.25".split())
@pytest.mark.parametrize("n", range(6), ids=[f"n{n}" for n in range(6)])
def test_array_green_matches_scalar_oracle_boundary(n, radius):
    m = BoundaryModel(n)
    ks = _contour(0j, radius)
    mutated = el_mutate(bm_scatter_ladder(m), Fraction(1, 10**6))
    for x, xp in _PROBES:
        got = _green_k(m, ks, x, xp)
        np.testing.assert_allclose(got, _oracle_contour(m, ks, x, xp), rtol=1e-12, atol=0)
        # mutation control: one coefficient off by 1e-6 fails the same check
        bad = _oracle_contour(m, ks, x, xp, mutated)
        assert not np.allclose(got, bad, rtol=1e-12, atol=0)


@pytest.mark.parametrize("radius", [0.25, 0.125], ids="r0.25 r0.125".split())
@pytest.mark.parametrize("alpha", [1.0, 1.5], ids="a1 a1.5".split())
def test_array_green_matches_scalar_oracle_interior(alpha, radius):
    m = InteriorModel(alpha, 1j)
    ks = _contour(alpha, radius)
    moved = InteriorModel(alpha, 1j + 1e-6)
    for x, xp in _PROBES:
        got = _green_k(m, ks, x, xp)
        np.testing.assert_allclose(got, _oracle_contour(m, ks, x, xp), rtol=1e-12, atol=0)
        # control: a displacement moved by 1e-6 fails the same check
        bad = _oracle_contour(moved, ks, x, xp)
        assert not np.allclose(got, bad, rtol=1e-12, atol=0)


def test_pole_order_reports_an_explicit_bound_that_is_too_low():
    with pytest.raises(ValueError, match="up to order 12") as exc:
        pole_order(BoundaryModel(6), 0j, 0.5, max_order=12)
    assert "radius" not in str(exc.value)


def test_pole_order_validates_radius():
    with pytest.raises(ValueError):
        pole_order(BoundaryModel(1), 0j, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4], ids="n1 n2 n3 n4".split())
def test_boundary_index_triples(n):
    t = indexes(BoundaryModel(n))
    assert (t.n1, t.n2, t.n3) == ((n + 1) // 2, n, n)


def test_interior_index_triple():
    t = indexes(INTERIOR)
    assert (t.n1, t.n2, t.n3) == (1, 1, 2)


@pytest.mark.parametrize("n", [1, 2, 3], ids="n1 n2 n3".split())
def test_n2_matches_the_scaled_chain_content(n):
    # cross-module consistency: the middle index counts exactly the chain
    # functions the scaled outer product carries
    m = BoundaryModel(n)
    assert indexes(m).n2 == len(eps_chain(m, 0.5).members)


def test_index_triple_validation():
    with pytest.raises(ValueError):
        IndexTriple(n1=-1, n2=0, n3=0)
