"""Exact-algebra core: rational complexes, Laurent sums, ladders, limits.

Expected values in this file were derived by hand from the closed forms and
are asserted exactly (no tolerances).
"""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epresolve.exact import (
    ExpLaurent,
    RationalComplex,
    dfact,
    el_apply_h,
    el_apply_q,
    el_diff_x,
    el_limit_k0_deriv,
    i_power,
)

RC = RationalComplex


# ---------------------------------------------------------------------------
# double factorial
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "arg expected".split(),
    [
        (0, Fraction(1)),
        (-1, Fraction(1)),
        (1, Fraction(1)),
        (2, Fraction(2)),
        (5, Fraction(15)),
        (7, Fraction(105)),
        (8, Fraction(384)),
        (-3, Fraction(-1)),
        (-5, Fraction(1, 3)),
        (-7, Fraction(-1, 15)),
        (-9, Fraction(1, 105)),
    ],
)
def test_dfact_values(arg, expected):
    assert dfact(arg) == expected


@pytest.mark.parametrize("arg", [-2, -4, -100])
def test_dfact_rejects_negative_even(arg):
    with pytest.raises(ValueError):
        dfact(arg)


def test_dfact_recursion_everywhere():
    # m!! = m * (m-2)!! must hold across the negative-odd extension too.
    for m in range(-9, 12):
        if m % 2 == 0 and m <= 0:
            continue  # recursion would touch the undefined negative-even values
        if m - 2 < -9:
            continue
        assert dfact(m) == m * dfact(m - 2)


# ---------------------------------------------------------------------------
# RationalComplex
# ---------------------------------------------------------------------------

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
rationals = st.builds(RC, small_fracs, small_fracs)


@given(rationals, rationals, rationals)
@settings(max_examples=50, deadline=None)
def test_rational_complex_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert bool(a) == (not a.is_zero)


@given(rationals)
@settings(max_examples=50, deadline=None)
def test_rational_complex_conjugation_and_division(a):
    if not a.is_zero:
        assert (a / a) == RC(Fraction(1))
    norm = a * a.conjugate()
    assert norm.im == 0
    assert norm.re >= 0


# (Fraction, Fraction) pairs: the reference the canonical (a + b*i)/d triple
# of RationalComplex is checked against
def _pair(x):
    return (x.re, x.im) if isinstance(x, RC) else (Fraction(x), Fraction(0))


def _pair_op(op, x, y):
    (a, b), (c, d) = _pair(x), _pair(y)
    if op == "+":
        return (a + c, b + d)
    if op == "-":
        return (a - c, b - d)
    if op == "*":
        return (a * c - b * d, a * d + b * c)
    norm = c * c + d * d
    return ((a * c + b * d) / norm, (b * c - a * d) / norm)


def _canonical_triple(x):
    # the invariant of the representation: d > 0 and gcd(a, b, d) == 1
    a, b, d = x._a, x._b, x._d
    return d > 0 and math.gcd(a, b, d) == 1


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
operands = st.one_of(rationals, small_fracs, st.integers(-6, 6))


@given(rationals, operands, st.sampled_from(sorted(_OPS)), st.booleans())
@settings(max_examples=200, deadline=None)
def test_rational_complex_matches_fraction_pair_oracle(a, other, op, reflected):
    x, y = (other, a) if reflected and not isinstance(other, RC) else (a, other)
    if op == "/" and not isinstance(x, RC):
        x, y = y, x  # int or Fraction / RationalComplex is not defined
    if op == "/" and _pair(y) == (0, 0):
        with pytest.raises(ZeroDivisionError):
            _OPS[op](x, y)
        return
    got = _OPS[op](x, y)
    assert isinstance(got, RC) and _canonical_triple(got)
    assert (got.re, got.im) == _pair_op(op, x, y)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert got.conjugate() == RC(got.re, -got.im) and _canonical_triple(got.conjugate())
    assert got.to_complex() == complex(float(got.re), float(got.im))


@given(small_fracs, small_fracs, st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_rational_complex_is_canonical_however_built(re, im, scale):
    ref = RC(re, im)
    unreduced = RC(Fraction(re.numerator * scale, re.denominator * scale), im)
    via_ops = RC(re) + RC(0, im) * RC(scale) / scale
    for other in (unreduced, via_ops, RC.from_value(re) + i_power(1) * im):
        assert other == ref and hash(other) == hash(ref)
        assert (other._a, other._b, other._d) == (ref._a, ref._b, ref._d)
    assert RC(Fraction(2, 4), Fraction(1, 2)) == RC(Fraction(1, 2), Fraction(1, 2))
    assert hash(RC(Fraction(2, 4), Fraction(1, 2))) == hash(RC(Fraction(1, 2), Fraction(1, 2)))


def test_unreduced_triple_is_caught():
    # mutation control: the same value stored as (2 + 2i)/4 instead of the
    # canonical (1 + i)/2 fails the invariant, and with it equality
    bad = object.__new__(RC)
    bad._a, bad._b, bad._d = 2, 2, 4
    good = RC(Fraction(1, 2), Fraction(1, 2))
    assert (bad.re, bad.im) == (good.re, good.im)
    assert _canonical_triple(good) and not _canonical_triple(bad)
    assert bad != good


@pytest.mark.parametrize("value", [math.pi, 0.1, 0.5, -2.5, 1e-300, math.nan, math.inf, -math.inf])
def test_non_integral_floats_are_rejected(value):
    with pytest.raises(TypeError):
        RC(value)
    with pytest.raises(TypeError):
        RC(1, value)
    with pytest.raises(TypeError):
        RC(1) * value
    with pytest.raises(TypeError):
        ExpLaurent.monomial(value)


def test_integral_floats_are_their_integers():
    assert RC(2.0, -3.0) == RC(2, -3)
    assert RC(1) * 1e20 == RC(10**20)


def test_i_power_cycle():
    assert i_power(0) == RC(Fraction(1))
    assert i_power(1) == RC(Fraction(0), Fraction(1))
    assert i_power(2) == RC(Fraction(-1))
    assert i_power(-1) == RC(Fraction(0), Fraction(-1))
    assert i_power(-2) == RC(Fraction(-1))
    assert i_power(7) == i_power(3)


# ---------------------------------------------------------------------------
# ExpLaurent ring structure
# ---------------------------------------------------------------------------

def _random_el(draw_terms, phase_x, phase_z, unit_pow):
    return ExpLaurent(dict(draw_terms), phase_x=phase_x, phase_z=phase_z, unit_pow=unit_pow)


el_terms = st.dictionaries(
    st.tuples(st.integers(-2, 3), st.integers(-3, 3)),
    rationals,
    max_size=4,
)
# expressions sharing one grading so that sums are legal
graded_els = st.tuples(el_terms, el_terms, el_terms).map(
    lambda ts: tuple(ExpLaurent(t, phase_x=1, phase_z=1, unit_pow=1) for t in ts)
)


@given(graded_els)
@settings(max_examples=40, deadline=None)
def test_exp_laurent_ring_laws(fgh):
    f, g, h = fgh
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f + g == g + f
    assert f * g == g * f
    assert f - f == ExpLaurent.zero()


@given(graded_els)
@settings(max_examples=40, deadline=None)
def test_diff_is_a_derivation(fgh):
    f, g, _ = fgh
    assert el_diff_x(f * g) == el_diff_x(f) * g + f * el_diff_x(g)


def test_grading_mismatch_rejected():
    f = ExpLaurent.monomial(1, phase_x=1)
    g = ExpLaurent.monomial(1, phase_x=-1)
    with pytest.raises(ValueError):
        f + g
    # the empty sum is compatible with everything
    assert f + ExpLaurent.zero() == f
    assert ExpLaurent.zero() + g == g


def test_zero_annihilates():
    f = ExpLaurent.monomial(3, k_pow=2, xz_pow=-1, phase_x=1)
    assert (f * ExpLaurent.zero()).is_zero
    assert (f * 0).is_zero


# ---------------------------------------------------------------------------
# calculus operations: frozen examples
# ---------------------------------------------------------------------------

def test_diff_power():
    f = ExpLaurent.monomial(1, xz_pow=5)
    assert el_diff_x(f) == ExpLaurent.monomial(5, xz_pow=4)
    g = ExpLaurent.monomial(1, xz_pow=-2)
    assert el_diff_x(g) == ExpLaurent.monomial(-2, xz_pow=-3)


def test_diff_plane_wave():
    f = ExpLaurent.monomial(1, phase_x=1, phase_z=1)
    expect = ExpLaurent.monomial(RC(Fraction(0), Fraction(1)), k_pow=1, phase_x=1, phase_z=1)
    assert el_diff_x(f) == expect


def test_diff_mixed_term():
    # d/dx [k^2 (x-z)^{-1} e^{ik(x-z)}] = i k^3 (x-z)^{-1} e^{..} - k^2 (x-z)^{-2} e^{..}
    f = ExpLaurent.monomial(1, k_pow=2, xz_pow=-1, phase_x=1)
    got = el_diff_x(f)
    expect = ExpLaurent(
        {(3, -1): RC(Fraction(0), Fraction(1)), (2, -2): RC(Fraction(-1))},
        phase_x=1,
    )
    assert got == expect


def test_subst_neg_k_flips_phases_and_signs():
    f = ExpLaurent(
        {(1, 0): RC(Fraction(1)), (2, -1): RC(Fraction(0), Fraction(1))},
        phase_x=1,
        phase_z=1,
        unit_pow=1,
    )
    g = f.subst_neg_k()
    assert g.phase_x == -1 and g.phase_z == -1
    assert g.terms[(1, 0)] == RC(Fraction(-1))
    assert g.terms[(2, -1)] == RC(Fraction(0), Fraction(1))
    # involution
    assert g.subst_neg_k() == f


def test_subst_neg_k_matches_numeric_eval():
    rng = np.random.default_rng(7)
    f = ExpLaurent(
        {(1, -1): RC(Fraction(1), Fraction(2)), (0, 2): RC(Fraction(-1, 3))},
        phase_x=1,
        phase_z=-1,
        unit_pow=2,
    )
    z = 0.3 + 1.1j
    for _ in range(5):
        k = rng.uniform(-2, 2)
        x = rng.uniform(-3, 3)
        a = f.subst_neg_k().eval(k, x, z)
        b = f.eval(-k, x, z)
        assert abs(a - b) < 1e-13 * max(1.0, abs(b))


def test_eval_plane_wave_identity():
    f = ExpLaurent.monomial(1, phase_x=1, phase_z=1)
    z = 0.5 + 2.0j
    val = f.eval(0.7, 1.9, z)
    assert abs(val - np.exp(1j * 0.7 * 1.9)) < 1e-14


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

def test_apply_q_validates_arguments():
    f = ExpLaurent.monomial(1)
    with pytest.raises(ValueError):
        el_apply_q(f, 0, +1)
    with pytest.raises(ValueError):
        el_apply_q(f, 2, 0)


def test_lowering_annihilates_chain_bottom():
    # (d/dx + 1/(x-z)) applied to 1/(x-z) vanishes identically
    psi10 = ExpLaurent.monomial(i_power(-1), xz_pow=-1, unit_pow=1)
    assert el_apply_q(psi10, 1, -1).is_zero


def test_factorizations_on_spanning_monomials():
    # q_n^+ q_n^- == h_n  and  q_n^- q_n^+ == h_{n-1} on k-carrying monomials
    for n in range(1, 6):
        for p in (-3, -1, 0, 2):
            f = ExpLaurent.monomial(RC(Fraction(2), Fraction(-1)), k_pow=1, xz_pow=p, phase_x=1)
            lhs = el_apply_q(el_apply_q(f, n, -1), n, +1)
            assert lhs == el_apply_h(f, n * (n + 1))
            rhs = el_apply_q(el_apply_q(f, n, +1), n, -1)
            assert rhs == el_apply_h(f, (n - 1) * n)


def test_intertwining_on_spanning_monomials():
    for n in range(1, 6):
        for p in (-2, 0, 3):
            f = ExpLaurent.monomial(1, xz_pow=p, phase_x=1)
            up = el_apply_q(f, n, +1)
            assert el_apply_h(up, n * (n + 1)) == el_apply_q(el_apply_h(f, (n - 1) * n), n, +1)
            down = el_apply_q(f, n, -1)
            assert el_apply_h(down, (n - 1) * n) == el_apply_q(el_apply_h(f, n * (n + 1)), n, -1)


# ---------------------------------------------------------------------------
# k -> 0 limits
# ---------------------------------------------------------------------------

def test_limit_rejects_displacement_phase():
    f = ExpLaurent.monomial(1, phase_x=1, phase_z=1)
    with pytest.raises(ValueError):
        el_limit_k0_deriv(f, 0)
    # stripped version is fine
    el_limit_k0_deriv(f.phase_shift_z(-1), 0)


def test_limit_rejects_negative_k_powers():
    f = ExpLaurent.monomial(1, k_pow=-1, phase_x=1)
    with pytest.raises(ValueError):
        el_limit_k0_deriv(f, 2)


def test_limit_plain_taylor_coefficient():
    # d^2/dk^2 e^{ik(x-z)} at k=0 is (i(x-z))^2 = -(x-z)^2
    f = ExpLaurent.monomial(1, phase_x=1)
    got = el_limit_k0_deriv(f, 2)
    assert got == ExpLaurent.monomial(-1, xz_pow=2)


def test_limit_mixed_cancellation():
    # [k + i/(x-z)] e^{ik(x-z)}: first k-derivative at 0 cancels exactly
    f = ExpLaurent(
        {(1, 0): RC(Fraction(1)), (0, -1): RC(Fraction(0), Fraction(1))},
        phase_x=1,
    )
    assert el_limit_k0_deriv(f, 1).is_zero
    # third derivative gives -2 (x-z)^2 (odd order above the cancellation range)
    got = el_limit_k0_deriv(f, 3)
    assert got == ExpLaurent.monomial(-2, xz_pow=2)
