"""Quadrature layer: composite and contour integrals, exact tails, packet smearing."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

import epresolve.quadrature as quadrature
from epresolve import resolution
from epresolve.boundary import BoundaryModel, bm_assoc, bm_scatter
from epresolve.exact import ExpLaurent, add_terms, mul_terms
from epresolve.interior import InteriorModel, im_tail_model
from epresolve.quadrature import (
    ContourSpec,
    GaussianPacket,
    OscRational,
    composite_gauss,
    ft_inverse_power,
    gauss_moment,
    osc_power_tail,
    packet_product_moment,
    quad_contour,
    quad_packet,
)
from epresolve.resolution import Scheme, SchemeId, TestFunction, apply_scheme


# ---------------------------------------------------------------------------
# composite rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [3, 12, 16])
def test_composite_gauss_is_exact_to_degree_2_order_minus_1(order):
    lo, hi, n_panels = -1.3, 2.1, 5
    nodes, weights = composite_gauss(lo, hi, n_panels, order)
    assert nodes.shape == weights.shape == (n_panels * order,)
    assert abs(weights.sum() - (hi - lo)) < 1e-13
    coeffs = np.cos(np.arange(2 * order))  # degree 2*order - 1
    anti = np.polynomial.polynomial.polyint(coeffs)
    exact = np.polynomial.polynomial.polyval(hi, anti) - np.polynomial.polynomial.polyval(lo, anti)
    got = np.sum(weights * np.polynomial.polynomial.polyval(nodes, coeffs))
    assert abs(got - exact) < 1e-12 * max(1.0, abs(exact))
    # control: one degree higher on a single panel is no longer exact
    x1, w1 = composite_gauss(lo, hi, 1, order)
    top = np.sum(w1 * x1 ** (2 * order))
    assert abs(top - (hi ** (2 * order + 1) - lo ** (2 * order + 1)) / (2 * order + 1)) > 1e-8


def _phase_rows(nodes):
    # three complex value rows of different shape and scale on the nodes
    return np.stack([np.exp(-0.01 * nodes**2), np.cos(0.3 * nodes) / (nodes - 1j), (1 + 0.5j) * nodes])


def _dense_phase_sums(nodes, weights, rows, k):
    """Oracle: the dense K x N phase matrix that composite_phase_sums avoids."""
    return (np.exp(1j * k[:, None] * nodes[None, :]) @ (rows * weights).T).T


def _separable_phase_sums_oracle(lo, hi, n_panels, order, rows, k):
    """Oracle: the panel-separable sum that the two-level table and the one
    matrix product replaced, with every centre phase e^{ikc_p} its own
    exponential and a (rows, K, n_panels) temporary."""
    xg, wg = quadrature._gl(order)
    mid, half = quadrature._panel_layout(lo, hi, n_panels)
    h = (hi - lo) / (2 * n_panels)
    karr = np.atleast_1d(np.asarray(k, dtype=np.complex128))
    v = np.asarray(rows)
    wv = v.reshape(v.shape[:-1] + (n_panels, order)) * (half[:, None] * wg)
    wv = np.swapaxes(wv, -1, -2)  # (..., order, n_panels)
    local = np.exp(1j * karr[:, None] * (h * xg)[None, :])
    centre = np.exp(1j * karr[:, None] * mid[None, :])
    sums = local @ wv  # (..., K, n_panels)
    sums *= centre
    return sums.sum(axis=-1)


def _phase_rounding_bound(nodes, weights, rows, k):
    # each path rounds every phase k*x to within a few ulps of |k x| (node,
    # product, argument reduction) and sums N terms; 64 eps per unit phase
    # covers both paths, N eps the two summation orders
    kx = float(np.max(np.abs(k), initial=0.0)) * float(np.max(np.abs(nodes)))
    mass = np.sum(np.abs(rows * weights), axis=-1)
    return np.finfo(float).eps * (64.0 * (1.0 + kx) + nodes.size) * mass


@given(
    st.floats(-40.0, 39.0),
    st.floats(0.5, 80.0),
    st.integers(1, 40),
    st.sampled_from([12, 16]),
    st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=8),
)
@settings(max_examples=120, deadline=None)
def test_composite_phase_sums_match_dense_oracle(lo, width, n_panels, order, ks):
    hi = min(40.0, lo + width)
    nodes, weights = composite_gauss(lo, hi, n_panels, order)
    rows, k = _phase_rows(nodes), np.array(ks)
    got = quadrature.composite_phase_sums(lo, hi, n_panels, order, rows, k)
    want = _dense_phase_sums(nodes, weights, rows, k)
    assert got.shape == want.shape == (3, k.size)
    bound = _phase_rounding_bound(nodes, weights, rows, k)
    assert np.all(np.abs(got - want) <= bound[:, None])


def test_composite_phase_sums_single_row_and_complex_k():
    # one value row gives one K-vector; an off-axis k (contour detours) too
    lo, hi, n_panels = -12.0, 9.5, 15
    nodes, weights = composite_gauss(lo, hi, n_panels, 16)
    row = _phase_rows(nodes)[1]
    k = np.array([0.0, -3.25 + 0.1j, 27.0 - 0.05j])
    got = quadrature.composite_phase_sums(lo, hi, n_panels, 16, row, k)
    want = np.exp(1j * k[:, None] * nodes[None, :]) @ (row * weights)
    assert got.shape == (3,)
    # off-axis phases grow by at most e^{|Im k| max|x|}
    bound = _phase_rounding_bound(nodes, weights, row, k) * math.exp(0.1 * 12.0)
    assert np.all(np.abs(got - want) <= bound)


def test_composite_phase_sums_mutation_control(monkeypatch):
    # panel centres shifted by one panel: every phase turns by e^{2ikh}, which
    # the rounding bound must catch
    lo, hi, n_panels, order = -30.0, 25.0, 22, 16
    nodes, weights = composite_gauss(lo, hi, n_panels, order)
    rows, k = _phase_rows(nodes), np.array([0.7, -13.0, 41.5])
    want = _dense_phase_sums(nodes, weights, rows, k)
    bound = _phase_rounding_bound(nodes, weights, rows, k)
    layout = quadrature._panel_layout

    def shifted(lo, hi, n_panels):
        mid, half = layout(lo, hi, n_panels)
        return mid + 2 * half, half

    monkeypatch.setattr(quadrature, "_panel_layout", shifted)
    got = quadrature.composite_phase_sums(lo, hi, n_panels, order, rows, k)
    assert np.all(np.abs(got - want) > bound[:, None])


def _stacked_rows(nodes, lead):
    # value rows of leading shape ``lead``: one row, three, or two stacks of three
    rows = _phase_rows(nodes)
    if lead == ():
        return rows[1]
    if lead == (3,):
        return rows
    return np.stack([rows, (0.5 - 2j) * rows[::-1]])


def _block_panel_counts():
    # panel counts at and next to multiples of the table's block size
    block = quadrature._PHASE_BLOCK
    return st.builds(lambda m, d: block * m + d, st.integers(1, 600 // block - 1), st.integers(-1, 1))


@given(
    st.one_of(st.integers(1, 600), _block_panel_counts()),
    st.floats(-40.0, 30.0),
    st.floats(1.0, 80.0),
    st.sampled_from([(), (3,), (2, 3)]),
    st.lists(st.tuples(st.floats(-60.0, 60.0), st.sampled_from([0.0, 0.0, 0.05, -0.1])), max_size=6),
)
@settings(max_examples=80, deadline=None)
@example(n_panels=600, lo=-40.0, width=80.0, lead=(3,), ks=[(60.0, 0.0), (-59.5, 0.0)])
@example(n_panels=1, lo=-3.0, width=7.0, lead=(), ks=[])
def test_two_level_phase_table_matches_both_oracles(n_panels, lo, width, lead, ks):
    # any panel count, block-aligned or not; no k, real k and k off the axis;
    # one value row, a stack of rows and a 2-D stack
    hi = min(40.0, lo + width)
    nodes, weights = composite_gauss(lo, hi, n_panels, 16)
    rows = _stacked_rows(nodes, lead)
    k = np.array([complex(re, im) for re, im in ks], dtype=np.complex128)
    got = quadrature.composite_phase_sums(lo, hi, n_panels, 16, rows, k)
    assert got.shape == lead + (k.size,)
    # off-axis phases grow by at most e^{|Im k| max|x|}
    growth = math.exp(max([abs(im) for _, im in ks], default=0.0) * float(np.max(np.abs(nodes))))
    bound = (_phase_rounding_bound(nodes, weights, rows, k) * growth)[..., None]
    dense = (rows * weights) @ np.exp(1j * nodes[:, None] * k[None, :])
    assert np.all(np.abs(got - dense) <= bound)
    assert np.all(np.abs(got - _separable_phase_sums_oracle(lo, hi, n_panels, 16, rows, k)) <= bound)


def test_phase_sums_across_chunk_boundaries(monkeypatch):
    # chunks of 3 wave numbers, the last one short: the same sums as one chunk
    lo, hi, n_panels = -25.0, 31.0, 37
    nodes, weights = composite_gauss(lo, hi, n_panels, 16)
    rows, k = _phase_rows(nodes), np.linspace(-45.0, 45.0, 10) + 0.0j
    whole = quadrature.composite_phase_sums(lo, hi, n_panels, 16, rows, k)
    monkeypatch.setattr(quadrature, "_PHASE_ENTRIES", 3 * rows.shape[0] * 16)
    chunked = quadrature.composite_phase_sums(lo, hi, n_panels, 16, rows, k)
    bound = _phase_rounding_bound(nodes, weights, rows, k)[:, None]
    assert np.all(np.abs(chunked - whole) <= bound)
    assert np.all(np.abs(chunked - _dense_phase_sums(nodes, weights, rows, k)) <= bound)


def _batch_and_single_phase_sums(n_panels, lead, ks):
    # a batch of wave numbers and each of them in a call of its own
    lo, hi = -30.0, 25.0
    rows = _stacked_rows(composite_gauss(lo, hi, n_panels, 16)[0], lead)
    k = np.asarray(ks, dtype=np.complex128)
    batch = quadrature.composite_phase_sums(lo, hi, n_panels, 16, rows, k)
    single = [quadrature.composite_phase_sums(lo, hi, n_panels, 16, rows, k[i:i + 1]) for i in range(k.size)]
    return batch, np.concatenate(single, axis=-1)


@given(
    # any panel count up to 3000, and counts next to multiples of 128, where
    # the BLAS blocks the inner dimension of a product
    n_panels=st.one_of(st.integers(1, 3000), st.builds(lambda m, d: 128 * m + d, st.integers(1, 23),
                                                        st.integers(-2, 2))),
    lead=st.sampled_from([(), (3,)]),
    ks=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40),
    entries=st.sampled_from([None, 2 * 48, 7 * 48, 4000]),
)
@settings(max_examples=40, deadline=None)
# full chunks of 63 and 36 wave numbers at 260 and 445 panels, where a
# threaded BLAS splits the inner dimension unlike a serial one; 6 wave
# numbers in chunks of 5 at 3000 panels, which leaves a chunk of one
@example(n_panels=260, lead=(), ks=list(np.linspace(-40.0, 40.0, 63)), entries=None)
@example(n_panels=445, lead=(), ks=list(np.linspace(-3.0, 3.0, 36)), entries=None)
@example(n_panels=3000, lead=(), ks=[0.5, -0.5, 2.5, -1.5, 1.5, -2.5], entries=None)
def test_phase_sums_of_a_batch_equal_single_wave_number_calls_bitwise(n_panels, lead, ks, entries):
    # every k of a batch, in chunks of any size (tables of 96 and 336 entries
    # take one to seven wave numbers at a time), equals its own call bitwise
    with mock.patch.object(quadrature, "_PHASE_ENTRIES", entries or quadrature._PHASE_ENTRIES):
        batch, single = _batch_and_single_phase_sums(n_panels, lead, ks)
    assert np.array_equal(batch, single)


def test_phase_sums_batch_invariance_mutation_control(monkeypatch):
    # the plain product sends a lone wave number through the matrix-vector
    # kernel, which rounds differently from the matrix product
    ks = np.linspace(-7.0, 9.0, 8)
    batch, single = _batch_and_single_phase_sums(44, (3,), ks)
    assert np.array_equal(batch, single)
    monkeypatch.setattr(quadrature, "_panel_product", lambda phases, wv: phases @ wv)
    batch, single = _batch_and_single_phase_sums(44, (3,), ks)
    assert not np.array_equal(batch, single)
    assert np.max(np.abs(batch - single)) < 1e-13 * np.max(np.abs(batch))


def _two_level_table(k, c0, step, n_panels, coarse_stride, fine_shift):
    # the centre-phase table with its coarse stride and fine offset, in panels,
    # as parameters: (block, 0) is the kernel's table
    block = quadrature._PHASE_BLOCK
    blocks = -(-n_panels // block)
    coarse = np.exp(1j * k[:, None] * (c0 + step * coarse_stride * np.arange(blocks)))
    fine = np.exp(1j * k[:, None] * (step * (np.arange(block) + fine_shift)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(k.size, -1)[:, :n_panels]


@pytest.mark.parametrize(
    "coarse_stride, fine_shift",
    [(quadrature._PHASE_BLOCK, 1), (quadrature._PHASE_BLOCK - 1, 0)],
    ids=["fine-table-shifted", "coarse-stride-short"],
)
def test_two_level_phase_table_mutation_controls(coarse_stride, fine_shift, monkeypatch):
    # a fine table shifted by one panel, or a coarse stride one panel short of
    # the block: the rounding bound must catch either
    lo, hi, n_panels = -30.0, 25.0, 40
    nodes, weights = composite_gauss(lo, hi, n_panels, 16)
    rows, k = _phase_rows(nodes), np.array([0.7, -13.0, 41.5], dtype=np.complex128)
    want = _dense_phase_sums(nodes, weights, rows, k)
    bound = _phase_rounding_bound(nodes, weights, rows, k)[:, None]
    c0, step = lo + 0.5 * (hi - lo) / n_panels, (hi - lo) / n_panels
    unmutated = _two_level_table(k, c0, step, n_panels, quadrature._PHASE_BLOCK, 0)
    assert np.array_equal(quadrature._centre_phases(k, c0, step, n_panels), unmutated)
    monkeypatch.setattr(
        quadrature, "_centre_phases",
        lambda k, c0, step, n: _two_level_table(k, c0, step, n, coarse_stride, fine_shift),
    )
    got = quadrature.composite_phase_sums(lo, hi, n_panels, 16, rows, k)
    assert np.all(np.abs(got - want) > bound)


# ---------------------------------------------------------------------------
# adaptive bisection
# ---------------------------------------------------------------------------

def _oracle_panel(f, a, b):
    """One embedded G10/K21 panel: (value, error, evaluations)."""
    xm, hl = 0.5 * (a + b), 0.5 * (b - a)
    unit, wk, wg = quadrature._kronrod_panel()
    nodes = xm + hl * unit
    vals = np.asarray(f(nodes), dtype=np.complex128)
    vk = hl * np.sum(wk * vals)
    vg = hl * np.sum(wg * vals[1::2])
    # the error through numpy's array abs, the kernel's loop: the scalar abs
    # of a complex128 (libm hypot) differs from it in the last bit for about
    # a third of all inputs
    return complex(vk), float(np.abs(np.atleast_1d(vk - vg))[0]), nodes.size


def _gl15_gl7_adaptive_oracle(f, a, b, tol, max_panels=4000):
    """Oracle: ``_adaptive`` with the panel it had before the G10/K21 pair,
    a GL15 value accepted on its distance to a separate GL7 value (22
    evaluations, a degree-13 error estimate); level batching, cap and
    summation order as in the kernel."""
    scalar = np.ndim(a) == 0
    if scalar and b <= a:
        return quadrature.QuadResult(0.0, 0.0, 0)
    starts, ends, tols = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=np.float64))
                                               for v in (a, b, tol)))
    x15, w15 = quadrature._gl(15)
    x7, w7 = quadrature._gl(7)
    unit = np.concatenate([x15, x7])
    pieces = starts.size
    spans = ends - starts
    piece = np.flatnonzero(spans > 0)
    lo, hi = starts[piece], ends[piece]
    counted = np.zeros(pieces, dtype=np.int64)
    capped = np.zeros(pieces, dtype=bool)
    kept = [(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.complex128), np.empty(0))]
    evals = 0
    while lo.size:
        xm, hl = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v15 = np.empty(lo.size, dtype=np.complex128)
        v7 = np.empty(lo.size, dtype=np.complex128)
        for s in range(0, lo.size, quadrature._BATCH_PANELS):
            c = slice(s, s + quadrature._BATCH_PANELS)
            nodes = (xm[c, None] + hl[c, None] * unit).ravel()
            vals = np.asarray(f(nodes), dtype=np.complex128).reshape(-1, unit.size)
            v15[c] = hl[c] * np.sum(w15 * vals[:, :15], axis=1)
            v7[c] = hl[c] * np.sum(w7 * vals[:, 15:], axis=1)
        evals += lo.size * unit.size
        width, span = hi - lo, spans[piece]
        err = np.abs(v15 - v7)
        fail = (err > tols[piece] * np.maximum(width / span, 1e-3)) & (width >= 1e-13 * span)
        before = np.cumsum(fail) - fail
        queued = 2 * (before - before[np.searchsorted(piece, piece)])
        counted += np.bincount(piece, minlength=pieces)
        split = fail & (counted[piece] + queued < max_panels)
        capped[piece[fail & ~split]] = True
        kept.append((piece[~split], lo[~split], v15[~split], err[~split]))
        mid = xm[split]
        lo = np.stack([lo[split], mid], axis=1).ravel()
        hi = np.stack([mid, hi[split]], axis=1).ravel()
        piece = np.repeat(piece[split], 2)
    piece, lo, v15, err = (np.concatenate(part) for part in zip(*kept))
    order = np.lexsort((lo, piece))
    values, errors = v15[order].tolist(), err[order].tolist()
    bounds = np.searchsorted(piece[order], np.arange(pieces + 1)).tolist()
    runs = list(zip(bounds[:-1], bounds[1:]))
    value = [sum(values[i:j]) for i, j in runs]
    error = [sum(errors[i:j]) for i, j in runs]
    hits = int(capped.sum())
    if scalar:
        return quadrature.QuadResult(complex(sum(value)), float(sum(error)), evals, hits)
    return quadrature.QuadResult(np.array(value, dtype=np.complex128), np.array(error, dtype=np.float64), evals, hits)


def _oracle_adaptive(f, a, b, tol, max_panels=4000, slack=1.0):
    """Oracle: the depth-first bisection that ``_adaptive`` replaced, one
    integrand call per panel.  Returns (value, error, evaluations) and the
    number of panels per bisection level.  ``slack`` scales the local
    tolerance, for the mutation control."""
    if b <= a:
        return (0.0, 0.0, 0), []
    stack = [(a, b, 0)]
    accepted = []
    levels = []
    evals = 0
    panels = 0
    span = b - a
    while stack:
        lo, hi, depth = stack.pop()
        val, err, n = _oracle_panel(f, lo, hi)
        evals += n
        panels += 1
        if depth == len(levels):
            levels.append(0)
        levels[depth] += 1
        local = slack * tol * max((hi - lo) / span, 1e-3)
        if err <= local or (hi - lo) < 1e-13 * span or panels >= max_panels:
            accepted.append((lo, val, err))
        else:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
    accepted.sort(key=lambda t: t[0])
    total = sum(v for _, v, _ in accepted)
    errsum = sum(e for _, _, e in accepted)
    return (complex(total), float(errsum), evals), levels


def _oracle_oscillatory(f, a, b, tol, omega, slack=1.0):
    """Oracle: one depth-first bisection per pre-split piece, the pieces added
    in order; the level counts are summed over the pieces."""
    n_init = max(1, int(math.ceil((b - a) / (4.0 * math.pi / abs(omega)))))
    edges = np.linspace(a, b, n_init + 1)
    total, err, evals, levels = 0.0 + 0.0j, 0.0, 0, []
    for lo, hi in zip(edges[:-1], edges[1:]):
        (v, e, n), piece_levels = _oracle_adaptive(f, float(lo), float(hi), tol / n_init, slack=slack)
        total, err, evals = total + v, err + e, evals + n
        levels = [x + y for x, y in itertools.zip_longest(levels, piece_levels, fillvalue=0)]
    return (total, err, evals), levels


_POLE = 0.3 + 0.7j
_ADAPTIVE_CASES = {
    # (integrand, a, b, tol, omega of the pre-split or None).  Each tolerance
    # leaves some panel's error between tol and 2 tol, so that the mutation
    # control bites: a smooth panel's K21 - G10 error drops by about 2^20 per
    # halving, and at most tolerances doubling changes no panel
    "gaussian": (lambda x: np.exp(-x * x), -8.0, 8.0, 2e-12, None),
    "oscillatory-pole": (lambda x: np.exp(2.5j * x) / (x - _POLE) ** 3, -20.0, 30.0, 2e-14, None),
    "near-pole": (lambda x: 1.0 / (x - (0.2 + 1e-3j)), -1.0, 1.0, 1e-10, None),
    # omega 5 cuts [-20, 30] into 20 pieces
    "presplit-20": (lambda x: np.exp(2.5j * x) / (x - _POLE) ** 3, -20.0, 30.0, 1e-12, 5.0),
}


def _batched(name, f):
    _, a, b, tol, omega = _ADAPTIVE_CASES[name]
    if omega is None:
        return quadrature._adaptive(f, a, b, tol)
    return quadrature._adaptive_oscillatory(f, a, b, tol, omega)


def _oracle(name, slack=1.0):
    f, a, b, tol, omega = _ADAPTIVE_CASES[name]
    if omega is None:
        return _oracle_adaptive(f, a, b, tol, slack=slack)
    return _oracle_oscillatory(f, a, b, tol, omega, slack=slack)


@pytest.mark.parametrize("name", sorted(_ADAPTIVE_CASES))
def test_adaptive_levels_match_the_depth_first_oracle_bitwise(name):
    f = _ADAPTIVE_CASES[name][0]
    sizes = []

    def recorded(x):
        sizes.append(x.size)
        return f(x)

    got = _batched(name, recorded)
    want, levels = _oracle(name)
    assert (got.value, got.error, got.evaluations) == want
    # one call per bisection level, each within the node cap
    assert max(levels) <= quadrature._BATCH_PANELS
    assert sizes == [21 * n for n in levels]
    if name == "presplit-20":
        assert levels[0] == 20


@pytest.mark.parametrize("name", sorted(_ADAPTIVE_CASES))
def test_adaptive_oracle_mutation_control(name):
    # accepting at twice the local tolerance changes the accepted panels,
    # and the bitwise comparison sees it
    got = _batched(name, _ADAPTIVE_CASES[name][0])
    mutated, _ = _oracle(name, slack=2.0)
    assert (got.value, got.error, got.evaluations) != mutated


def test_adaptive_cap_is_deterministic_and_counted():
    # sin(1e8 x) is never resolved: every piece ends on its panel cap, with
    # 21 evaluations per panel, and ``capped`` counts it
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.sin(1e8 * x)

    first = quadrature._adaptive(f, 0.0, 1.0, 1e-12, max_panels=50)
    again = quadrature._adaptive(f, 0.0, 1.0, 1e-12, max_panels=50)
    assert first == again
    assert 21 * 50 <= first.evaluations <= 21 * 51
    sizes.clear()
    full = quadrature._adaptive(f, 0.0, 1.0, 1e-12)
    assert 21 * 4000 <= full.evaluations <= 21 * 4001
    # levels past the batch cap take several calls, none over the node cap
    assert max(sizes) == 21 * quadrature._BATCH_PANELS
    assert sum(sizes) == full.evaluations
    assert first.capped == full.capped == 1


@pytest.mark.parametrize("name", sorted(_ADAPTIVE_CASES))
def test_k21_panel_agrees_with_the_gl15_gl7_oracle(name):
    # the same integrals within their tolerance, in fewer evaluations
    f, _, _, tol, _ = _ADAPTIVE_CASES[name]
    got = _batched(name, f)
    with mock.patch.object(quadrature, "_adaptive", _gl15_gl7_adaptive_oracle):
        want = _batched(name, f)
    assert abs(got.value - want.value) <= tol
    assert got.evaluations < want.evaluations and got.capped == want.capped == 0


@pytest.mark.parametrize(
    "scheme", [Scheme(SchemeId.RES3, BoundaryModel(2)), Scheme(SchemeId.RES12, InteriorModel(1.0, 1j))],
    ids=["res3", "res12"],
)
def test_k21_sweeps_agree_with_the_gl15_gl7_oracle(scheme):
    # a Gaussian radius sweep's spectral integrals, every band a piece of one
    # bisection: each radius within the sweep tolerance of the former panel
    eps, tol = np.array([0.4, 0.2, 0.1, 0.05]), 1e-9
    f = TestFunction.gaussian(0.0, 1.0)
    got = apply_scheme(scheme, eps, 50.0 / eps, f, 0.3, tol=tol)
    with mock.patch.object(resolution, "_adaptive", _gl15_gl7_adaptive_oracle):
        want = apply_scheme(scheme, eps, 50.0 / eps, f, 0.3, tol=tol)
    assert np.all(np.abs(got - want) <= tol)


def _legendre_coeffs(n):
    # P_n(x) = 2^-n sum_k (-1)^k C(n, k) C(2n - 2k, n) x^(n - 2k), by power
    out = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        out[n - 2 * k] = Fraction((-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n), 2**n)
    return out


def _mpmath_gauss_kronrod(dps=50):
    """Oracle: the G10/K21 rule rebuilt in ``dps``-digit mpmath, in QUADPACK's
    layout (the abscissae from the outermost to the centre with their K21
    weights, and the G10 weights of the odd-indexed ones).

    The Kronrod abscissae are the roots of the Stieltjes polynomial E11,
    which is odd and orthogonal to P10 x^k for k < 11: its coefficients solve
    a 5 x 5 system of exact rational moments, and its roots come from the
    quintic E11(x)/x in x^2.  The Gauss abscissae are the roots of P10 by
    Newton's method; the K21 weights make the rule exact on P_0 .. P_20, and
    the G10 weights are 2 (1 - x^2) / (10 P9(x))^2."""
    import mpmath as mp

    p10 = _legendre_coeffs(10)

    def moment(m):  # the integral of P10(x) x^m over [-1, 1]
        return sum(c * Fraction(2, j + m + 1) for j, c in enumerate(p10) if (j + m) % 2 == 0)

    odd = (1, 3, 5, 7, 9)
    rows = [[moment(i + k) for i in odd] + [-moment(11 + k)] for k in odd]
    for col in range(5):  # Gauss-Jordan in exact arithmetic
        pivot = next(r for r in range(col, 5) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(5):
            if r != col and rows[r][col] != 0:
                ratio = rows[r][col] / rows[col][col]
                rows[r] = [u - ratio * v for u, v in zip(rows[r], rows[col])]
    coeffs = [rows[i][5] / rows[i][i] for i in range(5)]  # of x^1, x^3, .., x^9
    with mp.workdps(dps):
        quintic = [mp.mpf(1)] + [mp.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
        kronrod = [mp.sqrt(mp.re(y)) for y in mp.polyroots(quintic, maxsteps=200, extraprec=200)]
        gauss = [mp.findroot(lambda x: mp.legendre(10, x), math.cos(math.pi * (i - 0.25) / 10.5))
                 for i in range(1, 6)]
        xk = sorted(kronrod + gauss, reverse=True) + [mp.mpf(0)]
        system, rhs = mp.matrix(11, 11), mp.matrix(11, 1)
        for r in range(11):
            for i, x in enumerate(xk):
                system[r, i] = (1 if i == 10 else 2) * mp.legendre(2 * r, x)
        rhs[0] = 2
        wk = list(mp.lu_solve(system, rhs))
        wg = [2 * (1 - x * x) / (10 * mp.legendre(9, x)) ** 2 for x in xk[1:10:2]]
    return xk, wk, wg


def _kronrod_rule_misses(xk, wk, wg):
    """What keeps QUADPACK-layout literals from being the G10/K21 rule: a
    literal more than 1e-15 from the 50-digit rebuild, or a rule unfolded
    from them (as the kernel unfolds its own) whose K21 misses a monomial of
    degree <= 31, or G10 one of degree <= 19, by more than 1e-15, summed in
    50-digit arithmetic.  Degree 32 (K21) and 20 (G10) must miss: the
    exactness check would otherwise see nothing."""
    import mpmath as mp

    misses = []
    for label, got, want in zip(("xk", "wk", "wg"), (xk, wk, wg), _mpmath_gauss_kronrod()):
        misses += [(label, i) for i, (g, w) in enumerate(zip(got, want)) if abs(mp.mpf(float(g)) - w) > 1e-15]
    with mock.patch.multiple(quadrature, _XK21=np.asarray(xk), _WK21=np.asarray(wk), _WG10=np.asarray(wg)):
        x, wkx, wgx = quadrature._kronrod_panel()
    with mp.workdps(50):
        for label, nodes, weights, top in (("K21", x, wkx, 31), ("G10", x[1::2], wgx, 19)):
            for d in range(top + 2):
                miss = abs(mp.fsum(mp.mpf(float(w)) * mp.mpf(float(t)) ** d for t, w in zip(nodes, weights))
                           - mp.mpf(1 + (-1) ** d) / (d + 1))
                if (miss > 1e-15) != (d == top + 1):
                    misses.append((label, d))
    return misses


def test_kronrod_literals_against_a_50_digit_rebuild():
    assert _kronrod_rule_misses(quadrature._XK21, quadrature._WK21, quadrature._WG10) == []


@pytest.mark.parametrize("which, index", [("wk", 0), ("wk", 10), ("wg", 2)])
def test_kronrod_literals_mutation_control(which, index):
    # one weight off by 1e-12 relative: the literal and degree 0 at least miss
    rule = {"xk": quadrature._XK21.copy(), "wk": quadrature._WK21.copy(), "wg": quadrature._WG10.copy()}
    rule[which][index] *= 1.0 + 1e-12
    misses = _kronrod_rule_misses(rule["xk"], rule["wk"], rule["wg"])
    assert (which, index) in misses and ("K21" if which == "wk" else "G10", 0) in misses


def _piece_split(a, b):
    # disjoint pieces of [a, b] with their own tolerances, empty pieces mixed in
    m = a + 0.37 * (b - a)
    return [(a, m, 0.5), (m, m, 1.0), (m, b, 2.0), (b, a, 1.0), (b, b + 1.0, 0.25)]


@pytest.mark.parametrize("name", sorted(_ADAPTIVE_CASES))
def test_adaptive_pieces_match_the_oracle_per_piece_bitwise(name):
    # every piece of an array call is the depth-first oracle on that piece
    # alone: value, error and evaluations (the nodes inside its span), at
    # its own tolerance, whatever the other pieces of the call
    f, a, b, tol, _ = _ADAPTIVE_CASES[name]
    pieces = _piece_split(a, b)
    nodes = []

    def recorded(x):
        nodes.append(x.copy())
        return f(x)

    lo, hi, tols = (np.array(c) for c in zip(*pieces))
    got = quadrature._adaptive(recorded, lo, hi, tol * tols)
    seen = np.concatenate(nodes)
    assert got.value.shape == got.error.shape == (len(pieces),)
    assert got.evaluations == seen.size and got.capped == 0
    for i, (p, q, share) in enumerate(pieces):
        (value, error, evals), _ = _oracle_adaptive(f, p, q, tol * share)
        inside = int(np.count_nonzero((seen > p) & (seen < q)))
        assert (complex(got.value[i]), float(got.error[i]), inside) == (value, error, evals)


def test_adaptive_all_empty_pieces_return_zeros():
    def never(x):
        raise AssertionError("an empty piece reached the integrand")

    got = quadrature._adaptive(never, np.array([1.0, 3.0]), np.array([1.0, 2.0]), np.array([1e-9, 1e-9]))
    assert got.value.tolist() == [0j, 0j] and got.error.tolist() == [0.0, 0.0]
    assert (got.evaluations, got.capped) == (0, 0)
    none = quadrature._adaptive(never, np.empty(0), np.empty(0), np.empty(0))
    assert none.value.shape == none.error.shape == (0,) and none.evaluations == 0


def test_adaptive_counts_the_capped_pieces():
    # sin(1e8 x) ends on its panel cap next to a smooth piece that does not:
    # the call counts one capped piece, and each piece's value is its own
    # one-piece call's
    def f(x):
        return np.where(x < 1.0, np.sin(1e8 * x), np.exp(-x * x))

    got = quadrature._adaptive(f, np.array([0.0, 1.0]), np.array([1.0, 3.0]), np.array([1e-12, 1e-12]),
                               max_panels=50)
    alone = [quadrature._adaptive(f, p, q, 1e-12, max_panels=50) for p, q in ((0.0, 1.0), (1.0, 3.0))]
    assert got.capped == 1 and [r.capped for r in alone] == [1, 0]
    assert got.value.tolist() == [r.value for r in alone]
    assert got.evaluations == sum(r.evaluations for r in alone)


def _queued_level_oracle(f, a, b, tol, max_panels=4000):
    """Oracle: ``_adaptive`` before a level skipped its cap queue.  Every
    level runs the cumsum/searchsorted queue and stacks its halves.  Returns
    the result and, per level, (counted.max() + 2 * failing panels, failing
    panels, split panels): the first is the margin that the kernel's cheap
    level tests against ``max_panels``."""
    starts, ends, tols = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (a, b, tol))
    unit, wk, wg = quadrature._kronrod_panel()
    pieces = starts.size
    spans = ends - starts
    piece = np.flatnonzero(spans > 0)
    lo, hi = starts[piece], ends[piece]
    counted = np.zeros(pieces, dtype=np.int64)
    capped = np.zeros(pieces, dtype=bool)
    kept = [(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.complex128), np.empty(0))]
    evals, levels = 0, []
    while lo.size:
        xm, hl = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = np.asarray(f((xm[:, None] + hl[:, None] * unit).ravel()), dtype=np.complex128)
        vals = vals.reshape(-1, unit.size)
        vk = hl * np.sum(wk * vals, axis=1)
        vg = hl * np.sum(wg * vals[:, 1::2], axis=1)
        evals += lo.size * unit.size
        width, span = hi - lo, spans[piece]
        err = np.abs(vk - vg)
        fail = (err > tols[piece] * np.maximum(width / span, 1e-3)) & (width >= 1e-13 * span)
        before = np.cumsum(fail) - fail
        queued = 2 * (before - before[np.searchsorted(piece, piece)])
        counted += np.bincount(piece, minlength=pieces)
        split = fail & (counted[piece] + queued < max_panels)
        capped[piece[fail & ~split]] = True
        levels.append((int(counted.max()) + 2 * int(fail.sum()), int(fail.sum()), int(split.sum())))
        kept.append((piece[~split], lo[~split], vk[~split], err[~split]))
        mid = xm[split]
        lo = np.stack([lo[split], mid], axis=1).ravel()
        hi = np.stack([mid, hi[split]], axis=1).ravel()
        piece = np.repeat(piece[split], 2)
    piece, lo, vk, err = (np.concatenate(part) for part in zip(*kept))
    order = np.lexsort((lo, piece))
    values, errors = vk[order].tolist(), err[order].tolist()
    bounds = np.searchsorted(piece[order], np.arange(pieces + 1)).tolist()
    value = [sum(values[i:j]) for i, j in zip(bounds[:-1], bounds[1:])]
    error = [sum(errors[i:j]) for i, j in zip(bounds[:-1], bounds[1:])]
    result = quadrature.QuadResult(np.array(value, dtype=np.complex128), np.array(error), evals, int(capped.sum()))
    return result, levels


def _same_pieces(got, want):
    return (got.value.tolist(), got.error.tolist(), got.evaluations, got.capped) == (
        want.value.tolist(), want.error.tolist(), want.evaluations, want.capped)


def test_adaptive_cap_within_a_level_matches_the_oracles_bitwise():
    # sin(1e8 x) on [0, 1] reaches its cap of 50 panels on the level of 16
    # failing panels, where the first 10 split and the last 6 are accepted;
    # the Gaussian piece beside it converges.  The converging piece is the
    # depth-first oracle's; the capped one is the former level kernel's, since
    # depth-first bisection spends its cap on the leftmost panels first
    def f(x):
        return np.where(x < 1.0, np.sin(1e8 * x), np.exp(-x * x))

    a, b, tol = np.array([0.0, 1.0]), np.array([1.0, 3.0]), np.array([1e-12, 1e-12])
    got = quadrature._adaptive(f, a, b, tol, max_panels=50)
    want, levels = _queued_level_oracle(f, a, b, tol, max_panels=50)
    assert (16, 10) in [(failing, split) for _, failing, split in levels]
    assert _same_pieces(got, want) and got.capped == 1
    (value, error, _), _ = _oracle_adaptive(f, 1.0, 3.0, 1e-12, max_panels=50)
    assert (complex(got.value[1]), float(got.error[1])) == (value, error)


@pytest.mark.parametrize("offset", [1, 0, -2], ids=["margin-is-cap-minus-1", "margin-is-cap", "margin-is-cap-plus-2"])
def test_adaptive_cheap_level_boundary_matches_the_queue_bitwise(offset):
    # the level skips its cap queue while counted.max() + 2 * failing panels
    # stays below max_panels: set the cap one above that margin, equal to
    # it, and two below it, on a level of a near-pole piece beside a
    # Gaussian one.  Two below, the last failing panel is the first that the
    # queue keeps from splitting
    def f(x):
        return np.where(x < 1.0, 1.0 / (x - (0.2 + 1e-3j)), np.exp(-x * x))

    a, b, tol = np.array([-1.0, 1.0]), np.array([1.0, 4.0]), np.array([1e-10, 1e-12])
    _, free = _queued_level_oracle(f, a, b, tol)
    margin = free[4][0]
    assert margin < min(m for m, _, _ in free[5:])
    cap = margin + offset
    got = quadrature._adaptive(f, a, b, tol, max_panels=cap)
    want, levels = _queued_level_oracle(f, a, b, tol, max_panels=cap)
    assert levels[4][0] == cap - offset and levels[4][2] == levels[4][1] - (offset < 0) > 0
    assert _same_pieces(got, want) and got.capped == 1
    (value, error, _), _ = _oracle_adaptive(f, 1.0, 4.0, 1e-12)
    assert (complex(got.value[1]), float(got.error[1])) == (value, error)


# ---------------------------------------------------------------------------
# quad_contour
# ---------------------------------------------------------------------------

def test_contour_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(cutoff=10.0, epsilon=-0.1)
    with pytest.raises(ValueError):
        ContourSpec(cutoff=10.0, epsilon=0.5, direction="sideways")
    with pytest.raises(ValueError):
        ContourSpec(cutoff=10.0, epsilon=2.0, centers=(-1.0, 1.0))
    with pytest.raises(ValueError):
        ContourSpec(cutoff=1.0, epsilon=0.5, centers=(1.0,))


def test_contour_arc_residue_halves():
    # detour around the simple pole 1/k: up gives -i pi, down gives +i pi,
    # relative to the truncated principal-value segments (which vanish by parity)
    for direction, expect in (("up", -1j * math.pi), ("down", 1j * math.pi)):
        spec = ContourSpec(cutoff=4.0, epsilon=0.5, direction=direction, centers=(0.0,))
        r = quad_contour(lambda k: 1.0 / k, spec, tol=1e-10)
        assert abs(r.value - expect) < 1e-9, direction


def test_contour_entire_function_direction_independent():
    f = lambda k: np.exp(-(k**2))
    up = quad_contour(f, ContourSpec(3.0, 0.4, "up"), tol=1e-10)
    down = quad_contour(f, ContourSpec(3.0, 0.4, "down"), tol=1e-10)
    straight = integrate.quad(lambda k: math.exp(-(k**2)), -3, 3)[0]
    assert abs(up.value - down.value) < 1e-10
    assert abs(up.value - straight) < 1e-9


def test_contour_multiple_centers():
    # 1/(k^2 - 1) has simple poles at +-1 with residues +-1/2; detouring both
    # above adds -i pi (sum of residues * i pi each way) ... the two halves cancel.
    f = lambda k: 1.0 / (k * k - 1.0 + 0j)
    up = quad_contour(f, ContourSpec(6.0, 0.3, "up", centers=(-1.0, 1.0)), tol=1e-10)
    down = quad_contour(f, ContourSpec(6.0, 0.3, "down", centers=(-1.0, 1.0)), tol=1e-10)
    # residues at -1 and +1 are -1/2 and +1/2: the detour contributions cancel,
    # so both contours agree and equal the (finite) two-sided principal value
    assert abs(up.value - down.value) < 1e-9


def _segment_loop_contour_oracle(f, spec, tol):
    """Oracle: quad_contour with one _adaptive call per straight segment,
    summed in order, and the same detour rule."""
    eps, A = spec.epsilon, spec.cutoff
    value, err, evals = 0.0 + 0.0j, 0.0, 0
    edges, left = [], -A
    for c in spec.centers:
        edges.append((left, c - eps))
        left = c + eps
    edges.append((left, A))
    for a, b in edges:
        r = quadrature._adaptive(lambda t: np.asarray(f(t.astype(np.complex128))), a, b, tol)
        value, err, evals = value + r.value, err + r.error, evals + r.evaluations
    sgn = 1.0 if spec.direction == "up" else -1.0
    for c in spec.centers:
        arcs = []
        for nodes, weights in (quadrature._gl(40), quadrature._gl(20)):
            phi = 0.5 * math.pi * (nodes + 1.0)
            k = c + eps * np.exp(1j * sgn * phi)
            dk = 1j * sgn * eps * np.exp(1j * sgn * phi) * (0.5 * math.pi)
            arcs.append(complex(np.sum(np.asarray(f(k), dtype=np.complex128) * dk * weights)))
        err += abs(arcs[0] - arcs[1])
        value += -arcs[0]
        evals += 60
    return quadrature.QuadResult(value, err, evals)


_CONTOUR_CASES = [
    (lambda k: 1.0 / k, ContourSpec(4.0, 0.5, "up")),
    (lambda k: np.exp(-(k**2)), ContourSpec(3.0, 0.4, "down")),
    (lambda k: 1.0 / (k * k - 1.0 + 0j), ContourSpec(6.0, 0.3, "up", centers=(-1.0, 1.0))),
    (lambda k: np.exp(2.5j * k) / (k * k - 1.0 + 0j), ContourSpec(30.0, 0.2, "down", centers=(-1.0, 1.0))),
]


@pytest.mark.parametrize("f,spec", _CONTOUR_CASES)
def test_contour_segments_match_the_per_segment_oracle_bitwise(f, spec):
    got, want = quad_contour(f, spec, tol=1e-10), _segment_loop_contour_oracle(f, spec, 1e-10)
    assert (got.value, got.error, got.evaluations) == (want.value, want.error, want.evaluations)
    assert got.capped == 0


def test_contour_and_line_carry_the_cap_count():
    # e^{1e8 ik} is never resolved: every straight segment bisects to the
    # panel cap, while it decays on the detours above the axis
    f = lambda k: np.exp(1e8j * k)
    for spec in (ContourSpec(3.0, 0.4, "up"), ContourSpec(6.0, 0.3, "up", centers=(-1.0, 1.0))):
        assert quad_contour(f, spec, tol=1e-10).capped == len(spec.centers) + 1
    # the real-axis oracle of ort1 (tests/test_biortho.py) at n = 6, z = i:
    # a monomial c (x - z)^-12, whose core reaches the cap at tol 1e-12 (at
    # n = 5 it converges); ort1 itself integrates 8 below the axis
    m = BoundaryModel(6)
    f = bm_assoc(m, 0) * bm_assoc(m, 0)
    ((_, p),) = f.terms.keys()
    c = next(iter(f.terms.values())).to_complex() * (2.0 * math.pi) ** (-0.5 * f.unit_pow)
    line = OscRational(m.z, [(0.0, -p, c)]).integral_line(X=50.0, tol=1e-12)
    assert line.capped == 1
    converged = OscRational(0.3 + 0.8j, [(0.9, 2, 1.0), (-0.9, 2, 0.5)]).integral_line(X=40.0, tol=1e-11)
    assert converged.capped == 0


# ---------------------------------------------------------------------------
# exact residue transforms and tails
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "q omega".split(),
    [(1, 0.7), (2, 0.7), (3, 1.3), (1, -0.7), (4, 2.0)],
)
def test_ft_inverse_power_against_quadrature(q, omega):
    z = 0.4 + 1.2j

    def g(x):
        return (x - z) ** -q

    def half_line(h, weight):
        # QUADPACK's Fourier rule (QAWF) on [0, inf), real and imaginary parts
        parts = (integrate.quad(lambda x: part(h(x)), 0, np.inf, weight=weight, wvar=abs(omega), epsabs=1e-10)[0]
                 for part in (np.real, np.imag))
        return complex(*parts)

    want = ft_inverse_power(q, omega, z)
    # e^{i omega x} splits into the even part of g against cos and the odd one against sin
    got = half_line(lambda x: g(x) + g(-x), "cos") + 1j * math.copysign(1.0, omega) * half_line(
        lambda x: g(x) - g(-x), "sin")
    assert abs(got - want) < 5e-7
    # the same case as one array input, entry by entry the scalar calls
    omegas = (omega, -omega, 0.0)
    arr = ft_inverse_power(q, np.array(omegas), z)
    assert arr.shape == (3,)
    np.testing.assert_allclose(arr, [ft_inverse_power(q, w, z) for w in omegas], rtol=1e-15, atol=0)


def test_ft_inverse_power_zero_frequency():
    z = 1j
    assert ft_inverse_power(2, 0.0, z) == 0.0
    assert ft_inverse_power(1, 0.0, z) == 1j * math.pi
    assert ft_inverse_power(1, 0.0, -1j) == -1j * math.pi
    with pytest.raises(ValueError):
        ft_inverse_power(0, 0.0, z)


def test_ft_wrong_side_vanishes():
    # Im z > 0 keeps the pole above the axis: negative frequencies see nothing
    assert ft_inverse_power(2, -1.0, 1j) == 0.0
    assert ft_inverse_power(2, 1.0, -1j) == 0.0


@pytest.mark.parametrize(
    "mu q side".split(),
    [(0.9, 1, 1), (0.9, 3, 1), (-1.7, 2, 1), (0.9, 2, -1), (-0.5, 1, -1)],
)
def test_osc_power_tail_telescoping(mu, q, side, X=25.0):
    # T(X) - T(X + L) must equal the (absolutely computable) core on [X, X+L]
    from epresolve.quadrature import _adaptive

    z = -0.2 + 0.9j
    L = 37.0
    tX = osc_power_tail(mu, z, q, X, side)
    tXL = osc_power_tail(mu, z, q, X + L, side)

    def f(t):
        x = side * t
        return np.exp(1j * mu * x) / (x - z) ** q

    core = _adaptive(f, X, X + L, 1e-12)
    assert abs((tX - tXL) - core.value) < 1e-10


def test_osc_power_tail_against_mpmath():
    import mpmath as mp

    mp.mp.dps = 25
    mu, q, X = 0.9, 1, 25.0
    z = mp.mpc("-0.2", "0.9")
    want = complex(mp.quadosc(lambda t: mp.e ** (1j * mu * t) / (t - z) ** q, [X, mp.inf], omega=mu))
    got = osc_power_tail(mu, complex(z), q, X, 1)
    assert abs(got - want) < 1e-13


def test_osc_power_tail_abel_settling():
    # q = 0 (plain oscillation): the two Abel tails plus the finite core
    # telescope to zero, the regularized whole-line value
    mu, X = 0.8, 25.0
    z = 1j
    both = osc_power_tail(mu, z, 0, X, 1) + osc_power_tail(mu, z, 0, X, -1)
    assert abs(both - (-2 * math.sin(mu * X) / mu)) < 1e-12
    # polynomially growing amplitude, Abel sense: check the q=-1 recursion
    # against its own integration-by-parts identity on a finite window
    t1 = osc_power_tail(mu, z, -1, X, 1)
    t2 = osc_power_tail(mu, z, -1, X + 10.0, 1)
    from epresolve.quadrature import _adaptive

    core = _adaptive(lambda t: np.exp(1j * mu * t) * (t - z), X, X + 10.0, 1e-12)
    assert abs((t1 - t2) - core.value) < 1e-9


def test_tail_zero_frequency_power():
    z = 1j
    X = 30.0
    want = osc_power_tail(0.0, z, 3, X, 1)
    got = integrate.quad(lambda t: ((t - z) ** -3).real, X, np.inf)[0] + 1j * (
        integrate.quad(lambda t: ((t - z) ** -3).imag, X, np.inf)[0]
    )
    assert abs(want - got) < 1e-12
    with pytest.raises(ValueError):
        osc_power_tail(0.0, z, 1, X, 1)


# ---------------------------------------------------------------------------
# OscRational
# ---------------------------------------------------------------------------

def test_oscrational_full_line_matches_residue():
    z = 0.1 + 1.0j
    f = OscRational(z, [(1.2, 2, 0.7 - 0.3j), (-0.4, 1, 1.1j), (0.0, 3, 2.0)])
    want = (
        (0.7 - 0.3j) * ft_inverse_power(2, 1.2, z)
        + 1.1j * ft_inverse_power(1, -0.4, z)
        + 2.0 * ft_inverse_power(3, 0.0, z)
    )
    assert abs(f.integral_full_line() - want) < 1e-14


def test_oscrational_line_consistency():
    # core-plus-exact-tails must agree with the closed-form whole-line value
    z = 0.3 + 0.8j
    f = OscRational(z, [(0.9, 2, 1.0), (-0.9, 2, 0.5), (0.3, 3, -2.0j)])
    closed = f.integral_full_line()
    pieced = f.integral_line(X=40.0, tol=1e-11)
    assert abs(pieced.value - closed) < 1e-9


def test_oscrational_algebra_and_eval():
    z = 1j
    c = OscRational.cosine(z, 0.5)
    s = OscRational.sine(z, 0.5)
    # cos^2 + sin^2 == 1
    one = c * c + s * s
    xs = np.linspace(-3, 3, 11)
    assert np.allclose(one.eval(xs), 1.0)
    # sin(a)cos(a) = sin(2a)/2
    prod = s * c
    half_double = OscRational.sine(z, 1.0) * 0.5
    assert np.allclose(prod.eval(xs), half_double.eval(xs))


def test_oscrational_poly_shift():
    z = 0.2 + 1j
    # (x-z) * (x-z)^{-2} == (x-z)^{-1}
    f = OscRational.centered_poly(z, [0.0, 1.0]).shift_power(2)
    g = OscRational(z, [(0.0, 1, 1.0)])
    xs = np.linspace(-2, 2, 7)
    assert np.allclose(f.eval(xs), g.eval(xs))


def test_oscrational_product_matches_constructor_accumulation():
    # __mul__ convolves keys in place; the constructor path is its reference
    model = InteriorModel(1.0, 0.2 + 1j)
    f = im_tail_model(model, "psi1", 40.0)
    g = im_tail_model(model, "inv_w", 40.0) + OscRational.cosine(model.z, 2.0, 0.5)
    items = [
        (mu1 + mu2, q1 + q2, c1 * c2)
        for (mu1, q1), c1 in f.terms.items()
        for (mu2, q2), c2 in g.terms.items()
    ]
    want = OscRational(model.z, items).terms
    got = (f * g).terms
    assert got == want and list(got) == list(want)


_coefficients = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def _add_osc_keys_oracle(a, b):
    """Oracle: the key sum that OscRational products used before each
    frequency pair was rounded once, round(mu_a + mu_b, 12) per pair of terms."""
    return (round(a[0] + b[0], 12), a[1] + b[1])


def _signed_items(terms):
    # keys with the sign of a zero frequency spelled out, which == ignores
    return [(math.copysign(1.0, mu), mu, q, c) for (mu, q), c in terms.items()]


def _assert_product_matches_mul_terms(a, b):
    want = mul_terms(a.terms, b.terms, _add_osc_keys_oracle)
    got = (a * b).terms
    assert _signed_items(got) == _signed_items(want)


def test_oscrational_product_matches_the_mul_terms_oracle_on_tail_models():
    # the psi1 psi0 product of the product-tail oracle (test_interior.py),
    # 50 x 42 terms over 12 frequencies each, and the 1/W model the
    # orthogonality oracle uses
    model = InteriorModel(1.0, 0.2 + 1j)
    models = [im_tail_model(model, kind, 40.0) for kind in ("psi1", "psi0", "inv_w")]
    for a, b in itertools.permutations(models, 2):
        _assert_product_matches_mul_terms(a, b)


@given(
    a=st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.1, 0.2, -0.3, 0.3, 1e-13, -1e-13, 2.5]),
                         st.integers(-2, 3), _coefficients), max_size=8),
    b=st.lists(st.tuples(st.sampled_from([0.0, -0.0, -0.1, -0.2, 0.3, -0.3, -1e-13, 1e-13, -2.5]),
                         st.integers(-2, 3), _coefficients), max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_oscrational_product_matches_the_mul_terms_oracle(a, b):
    # keys, their order, the sign of a zero frequency and the coefficients:
    # sums that cancel to zero, to +-1e-13 and to the rounding of 0.1 + 0.2
    z = 0.3 + 0.9j
    fa, fb = OscRational(z), OscRational(z)
    # term dicts as a product leaves them, a zero of either sign beside the other
    fa.terms = add_terms({}, (((mu, q), complex(c)) for mu, q, c in a))
    fb.terms = add_terms({}, (((mu, q), complex(c)) for mu, q, c in b))
    _assert_product_matches_mul_terms(fa, fb)


def _per_side_right_tails_oracle(nu, z, terms, X, full):
    """Oracle: _right_tails as it was with an E_n table of its own per side,
    over the side's nonzero frequencies or, with ``full``, as it was before
    zero frequencies left the table: over the whole nu, with a placeholder 1
    at each zero, whose entries the closed form then overwrites."""
    qs, groups, cs = terms
    zero = nu == 0.0
    zero_groups = zero.any(axis=1)
    if zero_groups[groups[qs <= 1]].any():
        raise ValueError("tail diverges for q <= 1 at zero frequency")
    d = X - z
    iw = 1j * np.where(zero, 1.0, nu)
    ph = np.exp(iw * X)
    out = np.zeros(nu.shape, dtype=np.complex128)

    def collect(q, val, scale=1.0):
        at = qs == q
        out[groups[at]] += (scale * cs[at])[:, None] * val[groups[at]]

    qmin, qmax = int(qs.min()), int(qs.max())
    if qmax >= 1:
        if full:
            g = quadrature._scaled_expn(-iw * d, qmax)
        else:
            g = np.zeros((qmax,) + nu.shape, dtype=np.complex128)
            if not zero.all():
                g[:, ~zero] = quadrature._scaled_expn(-iw[~zero] * d, qmax)
        for q in range(1, qmax + 1):
            collect(q, ph * g[q - 1], d ** (1 - q))
    if qmin <= 0:
        val = -ph / iw
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


def _two_table_tails_oracle(f, X, k=None, full=False):
    """Oracle: OscRational.integral_tails as it was with one E_n table per
    side, each side through _per_side_right_tails_oracle(..., full)."""
    kv = np.asarray(np.zeros(1) if k is None else k, dtype=np.float64)
    total = np.zeros(kv.size, dtype=np.complex128)
    if f.terms:
        mus = sorted({mu for mu, _ in f.terms})
        group = {mu: g for g, mu in enumerate(mus)}
        flat = [(q, group[mu], c) for (mu, q), c in f.terms.items()]
        qs, groups = (np.array([t[i] for t in flat], dtype=int) for i in range(2))
        right = (qs, groups, np.array([t[2] for t in flat], dtype=np.complex128))
        left = (qs, groups, np.array([(-1.0) ** t[0] * t[2] for t in flat], dtype=np.complex128))
        nu = np.round(np.array(mus)[:, None] + kv.ravel(), 12)
        sides = (_per_side_right_tails_oracle(nu, f.z, right, X, full),
                 _per_side_right_tails_oracle(-nu, -f.z, left, X, full))
        for g in range(len(mus)):
            for side in sides:
                total += side[g]
    return complex(total[0]) if k is None else total.reshape(kv.shape)


@given(
    terms=st.lists(st.tuples(st.sampled_from([0.0, 0.5, -0.5, 1.25]), st.integers(2, 6),
                             _coefficients), min_size=1, max_size=8),
    ks=st.lists(st.sampled_from([0.0, -0.5, 0.5, -1.25, 0.75]), min_size=1, max_size=5),
    X=st.floats(3.0, 40.0),
)
@settings(max_examples=80, deadline=None)
def test_zero_frequency_tails_equal_the_full_table_oracle_bitwise(terms, ks, X):
    # zero frequencies (mu + k == 0, q >= 2) no longer enter the E_n table;
    # every other element reads the same value as from the whole table
    f = OscRational(0.2 + 0.9j, terms)
    want = _two_table_tails_oracle(f, X, np.array(ks), full=True)
    assert np.array_equal(f.integral_tails(X, np.array(ks)), want)


@given(
    terms=st.lists(st.tuples(st.sampled_from([0.0, 0.5, -0.5, 1.25, -1.5]), st.integers(-3, 6),
                             _coefficients), min_size=1, max_size=10),
    ks=st.one_of(st.none(), st.lists(st.sampled_from([0.0, -0.5, 0.5, -1.25, 0.75, 1.5]),
                                     min_size=1, max_size=6)),
    z=st.sampled_from([0.2 + 0.9j, -0.4 - 1.3j, 0.5j, 1.0 + 0.1j]),
    X=st.floats(3.0, 60.0),
)
# zero frequencies under q >= 2 beside q <= 0 terms of other groups, on a k array
@example(terms=[(0.5, 3, 1.0), (0.5, 2, 0.5j), (-1.5, 0, 2.0), (-1.5, -3, -1.0), (1.25, 1, 0.3)],
         ks=[-0.5, 0.0, 0.75], z=0.2 + 0.9j, X=40.0)
# powers q <= 0 only: no table at all
@example(terms=[(0.5, 0, 1.0), (-1.5, -2, 1.0j)], ks=[0.0, 1.5], z=0.5j, X=5.0)
@settings(max_examples=120, deadline=None)
def test_one_table_tails_equal_the_two_table_path_bitwise(terms, ks, z, X):
    # both sides read one E_n table per call: every element, and so every
    # tail, is bitwise the one that a table per side gave; where a zero
    # frequency meets a power q <= 1 both refuse
    f, k = OscRational(z, terms), None if ks is None else np.array(ks)
    try:
        want = _two_table_tails_oracle(f, X, k)
    except ValueError:
        with pytest.raises(ValueError):
            f.integral_tails(X, k)
        return
    got = f.integral_tails(X, k)
    assert type(got) is type(want) and np.array_equal(got, want)


def test_zero_frequency_tails_build_no_table(monkeypatch):
    # the one-term tail of ort1's overlap (q = 2 at zero frequency) is closed;
    # a mixed call tabulates only its nonzero frequencies, both sides in one table
    sizes = []
    table = quadrature._scaled_expn

    def counting(w, qmax):
        sizes.append(np.size(w))
        return table(w, qmax)

    monkeypatch.setattr(quadrature, "_scaled_expn", counting)
    z, X = 0.0 + 1j, 20.0
    one = OscRational(z, [(0.0, 2, 1.0)]).integral_tails(X)
    assert sizes == [] and abs(one - ((X - z) ** -1 + (X + z) ** -1)) <= 1e-16
    OscRational(z, [(0.0, 2, 1.0), (0.5, 3, 1.0)]).integral_tails(X, np.array([0.0, 0.25]))
    assert sizes == [6]  # per side: (0.0 + 0.25, 0.5 + 0.0, 0.5 + 0.25)
    OscRational(z, [(0.5, 0, 1.0), (-0.5, -2, 1.0)]).integral_tails(X, np.array([0.0, 0.25]))
    assert sizes == [6]  # powers q <= 0 read no table


def _osc_sums(coeffs):
    return st.lists(
        st.tuples(st.sampled_from([0.0, 0.5, -0.5, 1.25]), st.integers(-3, 3), coeffs),
        max_size=6,
    ).map(lambda terms: OscRational(0.3 + 1j, terms))


def _magnitudes(f):
    return OscRational(f.z, [(mu, q, abs(c)) for (mu, q), c in f.terms.items()])


def _close(p, q, scale, rtol=1e-12, atol=4 * math.ulp(0.0)):
    """p and q agree term by term within rtol of the summed term magnitudes.

    The absolute term, a few subnormal spacings, covers products that round
    to zero in one operand order and to a subnormal in the other, where the
    magnitude scale underflows as well.
    """
    return all(
        abs(p.terms.get(key, 0) - q.terms.get(key, 0)) <= rtol * abs(scale.terms.get(key, 0)) + atol
        for key in set(p.terms) | set(q.terms)
    )


# Gaussian-integer coefficients keep every product and sum exact, so the
# two operand orders must give equal dicts, cancellations included
@given(_osc_sums(st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))),
       _osc_sums(st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))))
@settings(max_examples=100, deadline=None)
def test_oscrational_sum_and_product_commute(a, b):
    assert (a + b).terms == (b + a).terms
    assert (a * b).terms == (b * a).terms


_floats = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@given(_osc_sums(_floats), _osc_sums(_floats), _osc_sums(_floats))
@example(*(OscRational(0.3 + 1j, [(0.0, 0, c)]) for c in (0.75, 0.625, 5e-324)))
@settings(max_examples=100, deadline=None)
def test_oscrational_ring_laws(a, b, c):
    ma, mb, mc = _magnitudes(a), _magnitudes(b), _magnitudes(c)
    assert _close((a + b) + c, a + (b + c), ma + mb + mc)
    assert _close((a * b) * c, a * (b * c), ma * mb * mc)
    assert _close(a * (b + c), a * b + a * c, ma * (mb + mc))
    assert (a - a).terms == {}


# ---------------------------------------------------------------------------
# batched tails over k against the scalar oracle
# ---------------------------------------------------------------------------

def _oracle_tails(f, X, ks):
    """Per-k tails of f * e^{ikx} as sums of scalar osc_power_tail terms.

    Returns the values and the sums of the term magnitudes, the scale the
    batched evaluator's rounding is measured against (terms can cancel).
    """
    values, scales = [], []
    for k in ks:
        g = f * OscRational(f.z, [(float(k), 0, 1.0)])
        parts = [
            c * (osc_power_tail(mu, g.z, q, X, 1) + osc_power_tail(mu, g.z, q, X, -1))
            for (mu, q), c in sorted(g.terms.items())
        ]
        values.append(sum(parts))
        scales.append(sum(abs(v) for v in parts))
    return np.array(values), np.array(scales)


def _tails_agree(f, X, ks, rtol=1e-10, atol=4 * math.ulp(0.0)):
    """The batched tails of f match the oracle within rtol of the summed term
    magnitudes, plus a few subnormal spacings: where the tails round to zero
    in one coding and to a subnormal in the other, that scale underflows."""
    got = f.integral_tails(X, np.asarray(ks))
    want, scale = _oracle_tails(f, X, ks)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rtol * scale + atol))


# The upward recurrence loses about log10((|nu| |X - z|)^(q-1) / (q-1)!)
# digits and the Abel one about log10(j! / (|nu| |X - z|)^j), where the two
# sides round their complex products differently.  Frequencies nu = mu + k on
# a quarter grid, |nu| in {0} u [0.25, 2.75], and X in [3, 6] keep both under
# five digits, so the rtol 1e-10 comparison tests the recurrences, not luck.
_osc_terms = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, -0.5, 1.25, -1.5]),
        st.integers(-4, 6),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=8,
)


@given(
    terms=_osc_terms,
    z_re=st.floats(-1.0, 1.0),
    z_im=st.floats(0.3, 2.0),
    z_sign=st.sampled_from([1.0, -1.0]),
    X=st.floats(3.0, 6.0),
    ks=st.lists(st.integers(-6, 6).map(lambda j: j / 4), min_size=1, max_size=6),
)
@example(terms=[(-0.5, 1, 5e-324)], z_re=0.0, z_im=1.0, z_sign=1.0, X=3.0, ks=[0.0])
@settings(max_examples=150, deadline=None)
def test_batched_tails_match_scalar_oracle(terms, z_re, z_im, z_sign, X, ks):
    f = OscRational(complex(z_re, z_sign * z_im), terms)
    try:
        _oracle_tails(f, X, ks)
    except ValueError:
        # a zero frequency under q <= 1: the batched call must refuse as well
        with pytest.raises(ValueError):
            f.integral_tails(X, np.asarray(ks))
        return
    assert _tails_agree(f, X, ks)


def _mp_tail(mu, z, q, X, side=1):
    """30-digit mpmath one-sided tail of e^{i mu t} (t-z)^(-q), q >= 1:
    e^{i mu z} (X-z)^(1-q) E_q(-i mu (X-z)), mirrored for the left side."""
    import mpmath as mp

    if side == -1:
        return (-1.0) ** q * _mp_tail(-mu, -z, q, X)
    with mp.workdps(30):
        d = X - mp.mpc(z)
        return complex(mp.exp(1j * mu * mp.mpc(z)) * d ** (1 - q) * mp.expint(q, -1j * mu * d))


# (mu, q, X, z): a falsifying draw of test_batched_tails_match_scalar_oracle
# for the climb from E_1 (mu 1.25 + k 1), the q 6, mu 5.6, X 28 loss of the
# first batched tails, and two terms at the chain partner's own scale, where
# the climb gains about |w|^(q-1)/(q-1)! ~ 6e15 and 9e26
_HIGH_Q_TAILS = [
    (2.25, 5, 6.0, 1.20703125j),
    (5.6, 6, 28.0, 1j),
    (10.0, 8, 60.0, 1j),
    (23.0, 12, 60.0, 1j),
]


def _high_q_tail_errors():
    """Per case, the largest relative error of the scalar one-sided tails and
    of the batched two-sided tail; the two sides can cancel (by 1500x in the
    first case), so the batched error is taken relative to their magnitudes."""
    errors = []
    for mu, q, X, z in _HIGH_Q_TAILS:
        sides = [(_mp_tail(mu, z, q, X, side), osc_power_tail(mu, z, q, X, side)) for side in (1, -1)]
        batched = OscRational(z, [(mu, q, 1.0)]).integral_tails(X)
        scale = sum(abs(want) for want, _ in sides)
        errors.append(max(
            max(abs(got - want) / abs(want) for want, got in sides),
            abs(batched - sum(want for want, _ in sides)) / scale,
        ))
    return errors


def test_batched_tails_known_recurrence_loss():
    # high-q tails that the climb from E_1 got wrong by 3e-13 up to 2e11
    # relative: the pivot table keeps them to a few ulps of their conditioning
    assert max(_high_q_tail_errors()) < 1e-13


def test_high_q_tails_mutation_control(monkeypatch):
    # a table that climbs from E_1 everywhere must fail the partner-scale cases
    table = quadrature._scaled_expn

    def climbing(w, qmax):
        rows = [table(w, 1)[0]]
        for n in range(1, qmax):
            rows.append((1.0 - w * rows[-1]) / n)
        return np.stack(rows)

    monkeypatch.setattr(quadrature, "_scaled_expn", climbing)
    errors = _high_q_tail_errors()
    assert errors[2] > 1e-2 and errors[3] > 1e3


def _mp_scaled_expn(w, qmax):
    """e^w E_q(w), q = 1..qmax, by mpmath: E_1, then the climb in q at 80
    digits, which the climb's loss of at most 40 leaves past 30 correct."""
    import mpmath as mp

    with mp.workdps(80):
        wm = mp.mpc(w.real, w.imag)
        g = [mp.exp(wm) * mp.e1(wm)]
        for n in range(1, qmax):
            g.append((1 - wm * g[-1]) / n)
        return [complex(v) for v in g]


def test_scaled_expn_against_mpmath():
    # orders 1..16 over |w| in [1e-3, 3e3] up to the branch cut, in one call:
    # series seeds, fraction seeds of every depth rule, pivots 1..16
    radii = np.geomspace(1e-3, 3e3, 43)
    angles = np.concatenate([np.linspace(-2.8, 2.8, 15), [-3.14, -3.0, 3.0, 3.14]])
    w = radii[:, None] * np.exp(1j * angles)
    got = quadrature._scaled_expn(w, 16)
    assert got.shape == (16,) + w.shape
    want = np.array([_mp_scaled_expn(v, 16) for v in w.ravel()]).T.reshape(got.shape)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14
    # each element's values are its own, whatever it is batched with and
    # however many orders up to 16 are asked for: a 0-d argument (as
    # osc_power_tail reads it), a sub-grid and a shorter table agree bitwise
    assert np.array_equal(quadrature._scaled_expn(w[5, 3], 16), got[:, 5, 3])
    assert np.array_equal(quadrature._scaled_expn(w[::3, 1::2], 16), got[:, ::3, 1::2])
    assert np.array_equal(quadrature._scaled_expn(w, 5), got[:5])


def test_batched_tails_zero_frequency_elements():
    z, X = 0.2 - 0.7j, 12.0
    ks = np.array([-0.5, 0.25, 0.75])
    # mu + k == 0 exactly at k = -0.5 under q >= 2: closed form there
    zero_part = [(0.5, 3, 1.5 - 0.5j), (0.5, 2, 0.3j)]
    rest = [(-1.0, 1, 2.0), (-1.0, -2, 0.7)]
    f = OscRational(z, zero_part + rest)
    assert _tails_agree(f, X, ks)
    closed = sum(c * ((X - z) ** (1 - q) + (-1.0) ** q * (X + z) ** (1 - q)) / (q - 1)
                 for _, q, c in zero_part)
    want = closed + _oracle_tails(OscRational(z, rest), X, [-0.5])[0][0]
    assert abs(f.integral_tails(X, ks)[0] - want) <= 1e-12 * abs(want)
    # ... and under q <= 1 the tail diverges, as the oracle says
    for q in (1, 0, -2):
        g = OscRational(z, [(0.5, q, 1.0), (1.0, 3, 1.0)])
        with pytest.raises(ValueError):
            osc_power_tail(0.0, z, q, X, 1)
        with pytest.raises(ValueError):
            g.integral_tails(X, ks)
        assert _tails_agree(g, X, ks[1:])


def test_batched_tails_one_shot_path():
    z, X = -0.3 + 1.1j, 9.0
    f = OscRational(z, [(0.0, 2, 1.0), (0.7, 1, -0.4j), (-0.7, -1, 0.25), (1.9, 4, 3.0)])
    one = f.integral_tails(X)
    assert isinstance(one, complex)
    assert one == f.integral_tails(X, np.array([0.0]))[0]
    want = sum(
        c * (osc_power_tail(mu, z, q, X, 1) + osc_power_tail(mu, z, q, X, -1))
        for (mu, q), c in sorted(f.terms.items())
    )
    assert abs(one - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("which", ["psi0", "psi1"])
def test_batched_tails_on_chain_member_models(which):
    # the products of the chain-transform oracle (test_resolution.py), at its X = 40
    model = InteriorModel(1.0, 0.2 + 1j)
    a, z = model.alpha, model.z
    member = im_tail_model(model, which, 40.0)
    inv_w = im_tail_model(model, "inv_w", 40.0)
    p1 = member * ((OscRational.cosine(z, 2 * a, 2 * a) + OscRational.constant(z, 2 * a)) * inv_w)
    ks = np.linspace(-7.0, 7.0, 15) + 0.01
    for f in (member, p1):
        got = f.integral_tails(40.0, ks)
        want, _ = _oracle_tails(f, 40.0, ks)
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)


def _oracle_agree(f, X, ks):
    """integral_tails matches the scalar oracle; where the oracle's tail
    diverges, integral_tails refuses too."""
    try:
        _oracle_tails(f, X, ks)
    except ValueError:
        with pytest.raises(ValueError):
            f.integral_tails(X, np.asarray(ks))
        return True
    return _tails_agree(f, X, ks)


@given(
    expr_terms=st.lists(_osc_terms, min_size=1, max_size=3),
    z_re=st.floats(-1.0, 1.0),
    z_im=st.floats(0.3, 2.0),
    z_sign=st.sampled_from([1.0, -1.0]),
    X=st.floats(3.0, 6.0),
    ks=st.lists(st.integers(-6, 6).map(lambda j: j / 4), min_size=1, max_size=6),
)
# disjoint frequencies, and a frequency that several powers share
@example(expr_terms=[[(0.5, 2, 1.0)], [(-1.5, -1, 0.5j), (1.25, 3, -2.0)]],
         z_re=0.1, z_im=0.8, z_sign=1.0, X=4.0, ks=[-0.25, 0.75])
@example(expr_terms=[[(0.5, 2, 1.0), (0.5, -3, 0.25)], [(0.5, 1, 2j)], [(0.5, 4, -1.0), (-0.5, 0, 1.0)]],
         z_re=-0.4, z_im=1.1, z_sign=-1.0, X=5.0, ks=[0.25, 1.5])
# series seeds of two frequencies in one table: each element stops on its own
@example(expr_terms=[[(0.0, 0, 1.0)], [(0.5, 1, 1.0)]], z_re=0.0, z_im=1.0, z_sign=-1.0, X=3.0, ks=[0.25])
@settings(max_examples=100, deadline=None)
def test_tails_of_grouped_frequencies_match_scalar_oracle(expr_terms, z_re, z_im, z_sign, X, ks):
    # the terms of up to 3 lists in one expression: up to 24 terms, whose
    # frequency groups share one e^w E_q(w) table per side
    z = complex(z_re, z_sign * z_im)
    assert _oracle_agree(OscRational(z, [t for terms in expr_terms for t in terms]), X, ks)


def test_tails_zero_frequency_per_group():
    z, X = 0.2 - 0.7j, 12.0
    ks = [-0.5, 0.25]
    # mu + k == 0 at k = -0.5 in the 0.5 group, which carries q >= 2 only;
    # the q <= 1 terms sit in the -1 group, which never vanishes
    closed = [(0.5, 3, 1.5 - 0.5j), (0.5, 2, 0.3j)]
    elsewhere = [(0.5, 2, 0.7), (-1.0, 1, 2.0), (-1.0, 0, 0.25)]
    assert _oracle_agree(OscRational(z, closed + elsewhere), X, ks)
    # one q <= 1 term in the vanishing group makes the whole call refuse ...
    diverging = OscRational(z, closed + [(0.5, 1, 1.0)] + elsewhere)
    with pytest.raises(ValueError):
        diverging.integral_tails(X, np.asarray(ks))
    # ... and only where that group vanishes
    assert _oracle_agree(diverging, X, ks[1:])


def test_batched_tails_mutation_control(monkeypatch):
    # dropping the reflection sign (-1)^q of the left tail must be caught
    z, X = 0.4 + 0.9j, 5.0
    f = OscRational(z, [(0.5, 1, 1.0), (-1.5, 3, 0.5j), (1.25, -1, 0.3)])
    ks = [-0.25, 0.5, 1.0]
    assert _tails_agree(f, X, ks)
    right = quadrature._right_tails

    def unsigned(nu, zc, terms, *rest):
        if zc == -z:  # the reflected (left) side: undo its (-1)^q
            qs, groups, cs = terms
            terms = (qs, groups, (-1.0) ** qs * cs)
        return right(nu, zc, terms, *rest)

    monkeypatch.setattr(quadrature, "_right_tails", unsigned)
    assert not _tails_agree(f, X, ks)


# ---------------------------------------------------------------------------
# Gaussian packets
# ---------------------------------------------------------------------------

def test_gauss_moment_base_cases():
    assert abs(gauss_moment(0, 0.0) - math.sqrt(math.pi)) < 1e-15
    # first moment with phase: sqrt(pi) * (i b / 2) e^{-b^2/4}
    b = 0.8
    want = math.sqrt(math.pi) * (1j * b / 2) * math.exp(-(b**2) / 4)
    assert abs(gauss_moment(1, b) - want) < 1e-14


@pytest.mark.parametrize("order", [0, 1, 2, 3, 5])
def test_gauss_moment_against_quadrature(order):
    b = 1.3
    re = integrate.quad(lambda t: t**order * math.exp(-t * t) * math.cos(b * t), -12, 12)[0]
    im = integrate.quad(lambda t: t**order * math.exp(-t * t) * math.sin(b * t), -12, 12)[0]
    assert abs(gauss_moment(order, b) - complex(re, im)) < 1e-12


def test_packet_validation_and_eval():
    with pytest.raises(ValueError):
        GaussianPacket(width=0.0)
    g = GaussianPacket(center=1.0, width=0.5, poly=(0.0, 1.0))  # g(k) = k e^{-((k-1)/.5)^2}
    assert abs(g.eval(1.0) - 1.0) < 1e-15


def test_packet_derivatives_match_finite_differences():
    g = GaussianPacket(center=0.7, width=1.3, poly=(0.5, -1.0, 2.0))
    h = 1e-5
    for k in (0.0, 0.4, -1.1):
        fd1 = (g.eval(k + h) - g.eval(k - h)) / (2 * h)
        assert abs(g.deriv_at(k, 1) - fd1) < 1e-8
        fd2 = (g.eval(k + h) - 2 * g.eval(k) + g.eval(k - h)) / h**2
        assert abs(g.deriv_at(k, 2) - fd2) < 1e-5


def test_packet_plane_moment_oracles():
    # ∫ e^{-k^2} e^{ikx} dk = sqrt(pi) e^{-x^2/4}
    g = GaussianPacket()
    x = 1.7
    assert abs(g.plane_moments(0, x)[0] - math.sqrt(math.pi) * math.exp(-(x**2) / 4)) < 1e-14
    # ∫ k e^{-k^2} e^{ikx} dk = sqrt(pi) (ix/2) e^{-x^2/4}
    want = math.sqrt(math.pi) * (1j * x / 2) * math.exp(-(x**2) / 4)
    assert abs(g.plane_moments(1, x)[1] - want) < 1e-14
    # center shift multiplies by e^{ix}
    g1 = GaussianPacket(center=1.0)
    want_shift = math.sqrt(math.pi) * np.exp(1j * x) * math.exp(-(x**2) / 4)
    assert abs(g1.plane_moments(0, x)[0] - want_shift) < 1e-14


@pytest.mark.parametrize("t", [0.37, -2.6, 4.1, 0.8 - 0.45j, -1.9 + 1.2j])
def test_hermite_values_against_hermval(t):
    herm = quadrature.hermite_values(20, np.array([t, 0.5 * t]))
    for order in range(21):
        unit = np.zeros(order + 1)
        unit[order] = 1.0
        want = np.polynomial.hermite.hermval(np.array([t, 0.5 * t]), unit)
        assert np.all(np.abs(herm[order] - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))
        # the scalar path returns the same orders
        assert quadrature.hermite_values(order, t)[order] == pytest.approx(want[0], rel=1e-13)


# Oracle: the binomial-Hermite route the packet moments used before the
# window-moment recurrence.  Shift k = c + w t, expand (c + w t)^m by the
# binomial theorem, and take each Gaussian moment in closed form,
#   ∫ t^a e^{-t^2 + i b t} dt = sqrt(pi) (i/2)^a H_a(b/2) e^{-b^2/4}.
def _gauss_moment_oracle(a, b):
    unit = np.zeros(a + 1)
    unit[a] = 1.0
    herm = np.polynomial.hermite.hermval(0.5 * b, unit)
    return math.sqrt(math.pi) * (0.5j) ** a * herm * np.exp(-0.25 * b * b)


def _plane_moment_oracle(g, m, y):
    c, w = g.center, g.width
    total = 0j
    for extra, coeff in enumerate(g.poly):
        mm = m + extra
        acc = sum(
            math.comb(mm, a) * c ** (mm - a) * w**a * _gauss_moment_oracle(a, w * y)
            for a in range(mm + 1)
        )
        total += coeff * acc
    return w * np.exp(1j * c * y) * total


def _plane_moment_quad(g, m, y):
    # direct quadrature; the window e^{-k Im y} only shifts the Gaussian peak
    def part(fn):
        return integrate.quad(
            lambda k: fn(k**m * g.eval(k) * np.exp(1j * k * y)),
            g.center - 16 * g.width, g.center + 16 * g.width, limit=200, epsabs=0, epsrel=1e-12,
        )[0]

    return complex(part(np.real), part(np.imag))


_DEGREE2 = GaussianPacket(center=0.6, width=0.9, poly=(0.5, -1.0 + 0.3j, 0.8))
_YS = (1.3 + 0.4j, -2.2 - 0.25j, 0.7j)


def _plane_moments_agree(g, ys, oracle, rel):
    for y in ys:
        got = g.plane_moments(6, y)
        for m in range(7):
            want = oracle(g, m, y)
            if not abs(got[m] - want) <= rel * max(abs(want), 1e-300):
                return False
    return True


def test_plane_moments_against_the_binomial_hermite_oracle():
    assert _plane_moments_agree(_DEGREE2, _YS, _plane_moment_oracle, 1e-12)
    # array y: each column matches the scalar table
    table = _DEGREE2.plane_moments(6, np.array(_YS))
    assert table.shape == (7, 3)
    for i, y in enumerate(_YS):
        assert np.allclose(table[:, i], _DEGREE2.plane_moments(6, y), rtol=1e-14, atol=0)


def test_plane_moments_against_scipy_quad():
    assert _plane_moments_agree(_DEGREE2, _YS, _plane_moment_quad, 1e-10)


def test_window_moment_recurrence_mutation_is_caught(monkeypatch):
    # (j+1) in place of j in the recurrence: the oracle bound must catch it
    def mutated(center, width, top, y):
        w2 = width * width
        s = center + 0.5j * w2 * y
        mu = np.empty((top + 1,) + y.shape, dtype=np.complex128)
        mu[0] = width * math.sqrt(math.pi) * np.exp(1j * center * y - 0.25 * w2 * y * y)
        if top > 0:
            mu[1] = s * mu[0]
        for j in range(1, top):
            mu[j + 1] = s * mu[j] + (0.5 * (j + 1) * w2) * mu[j - 1]
        return mu

    monkeypatch.setattr(quadrature, "_window_moments", mutated)
    assert not _plane_moments_agree(_DEGREE2, _YS, _plane_moment_oracle, 1e-12)


def test_packet_product_moment_against_quadrature():
    g1 = GaussianPacket(center=0.5, width=0.8)
    g2 = GaussianPacket(center=-0.2, width=1.1, poly=(1.0, 0.5))
    for power in (0, 1, 2):
        want = integrate.quad(
            lambda k: (g1.eval(k) * g2.eval(k)).real * k**power, -15, 15
        )[0]
        assert abs(packet_product_moment(g1, g2, power) - want) < 1e-10


def test_quad_packet_rejects_negative_spectral_powers():
    g = GaussianPacket()
    f = ExpLaurent.monomial(1, k_pow=-1, phase_x=1)
    with pytest.raises(ValueError):
        quad_packet(g, f, 1j)


def test_quad_packet_against_tensor_quadrature():
    # smear the n=1 scaled scattering solution and spot-check against a
    # brute-force k-grid at a few coordinates
    m = BoundaryModel(1, z=1j)
    F = bm_scatter(m)
    g = GaussianPacket(center=0.6, width=0.9)
    smeared = quad_packet(g, F, m.z)
    ks = np.linspace(-12, 12, 8001)
    for x in (-1.3, 0.0, 2.1):
        brute = np.trapezoid(g.eval(ks) * F.eval(ks, x, m.z), ks)
        assert abs(smeared(x) - brute) < 1e-9 * max(1.0, abs(brute))


def test_quad_packet_builds_one_moment_table_per_call(monkeypatch):
    m = BoundaryModel(3, z=1j)
    F = bm_scatter(m).phase_shift_z(-1)
    assert len(F.terms) == 4
    g = GaussianPacket(center=0.3, width=1.1, poly=(1.0, 0.5))
    smeared = quad_packet(g, F, m.z)
    builds = []
    table = quadrature._window_moments

    def counting(*args):
        builds.append(args[2])
        return table(*args)

    monkeypatch.setattr(quadrature, "_window_moments", counting)
    xs = np.linspace(-2.0, 2.0, 9)
    smeared(xs)
    assert builds == [3 + 1]  # top spectral power 3, packet degree 1
    smeared(0.4)
    assert len(builds) == 2


def test_quad_packet_of_zero_expression_is_zero():
    smeared = quad_packet(GaussianPacket(), ExpLaurent({}, phase_x=1, phase_z=1), 1j)
    assert smeared(0.3) == 0
    out = smeared(np.array([-1.0, 0.0, 2.0]))
    assert out.shape == (3,) and not np.any(out)


def test_quad_packet_gaussian_decay_in_x():
    m = BoundaryModel(2, z=1j)
    smeared = quad_packet(GaussianPacket(width=1.0), bm_scatter(m), m.z)
    assert abs(smeared(40.0)) < 1e-80
