"""Boundary-family model: chains, scattering solutions, classification."""

from fractions import Fraction

import numpy as np
import pytest

from epresolve.boundary import (
    BoundaryModel,
    ChainClass,
    bm_apply_h,
    bm_assoc,
    bm_classify,
    bm_growing,
    bm_potential,
    bm_scatter,
    bm_scatter_ladder,
)
from epresolve.exact import ExpLaurent, RationalComplex, el_apply_q, el_limit_k0_deriv, i_power

RC = RationalComplex
F = Fraction


def test_model_validation():
    with pytest.raises(ValueError):
        BoundaryModel(-1)
    with pytest.raises(ValueError):
        BoundaryModel(2, z=3.0)  # displacement must be off the real line
    m = BoundaryModel(2)
    assert m.z == 1j and m.coupling == 6


@pytest.mark.parametrize("n", [True, False, 2.0])
def test_model_rejects_non_int_index(n):
    with pytest.raises(ValueError, match="nonnegative integer"):
        BoundaryModel(n)


def test_potential_values():
    m = BoundaryModel(2, z=1j)
    v = bm_potential(m, 0.0)
    assert abs(v - 6.0 / (0 - 1j) ** 2) < 1e-15
    arr = bm_potential(m, np.array([0.0, 1.0]))
    assert arr.shape == (2,)


# ---------------------------------------------------------------------------
# frozen closed forms, hand-computed
# ---------------------------------------------------------------------------

def test_assoc_explicit_small_cases():
    # psi_{10} = -i / (sqrt(2 pi) (x-z))
    assert bm_assoc(BoundaryModel(1), 0) == ExpLaurent.monomial(
        i_power(-1), xz_pow=-1, unit_pow=1
    )
    # psi_{20} = -3 / (sqrt(2 pi) (x-z)^2)
    assert bm_assoc(BoundaryModel(2), 0) == ExpLaurent.monomial(-3, xz_pow=-2, unit_pow=1)
    # psi_{21} = -1 / (2 sqrt(2 pi))
    assert bm_assoc(BoundaryModel(2), 1) == ExpLaurent.monomial(F(-1, 2), unit_pow=1)
    # psi_{22} = -(x-z)^2 / (8 sqrt(2 pi)): extended double factorial regime
    assert bm_assoc(BoundaryModel(2), 2) == ExpLaurent.monomial(F(-1, 8), xz_pow=2, unit_pow=1)


def test_bounded_member_is_constant_for_even_index():
    # even n: position n/2 has inverse power zero (a constant), and the
    # closed form reduces to (-i)^n (n-1)!!/(sqrt(2 pi) n!!)
    for n in (2, 4, 6):
        f = bm_assoc(BoundaryModel(n), n // 2)
        (key,) = f.terms
        assert key == (0, 0)
        from epresolve.exact import dfact

        assert f.terms[key] == i_power(-n) * (dfact(n - 1) / dfact(n))


def test_growing_explicit_small_cases():
    # phi_{00} = (x-z), phi_{01} = -(x-z)^3/6, phi_{11} = -(x-z)^4/10
    assert bm_growing(BoundaryModel(0), 0) == ExpLaurent.monomial(1, xz_pow=1)
    assert bm_growing(BoundaryModel(0), 1) == ExpLaurent.monomial(F(-1, 6), xz_pow=3)
    assert bm_growing(BoundaryModel(1), 1) == ExpLaurent.monomial(F(-1, 10), xz_pow=4)


def test_classification_table():
    m5, m4 = BoundaryModel(5), BoundaryModel(4)
    assert [bm_classify(m5, l) for l in range(4)] == [
        ChainClass.NORMALIZABLE,
        ChainClass.NORMALIZABLE,
        ChainClass.NORMALIZABLE,
        ChainClass.GROWING,
    ]
    assert [bm_classify(m4, l) for l in range(4)] == [
        ChainClass.NORMALIZABLE,
        ChainClass.NORMALIZABLE,
        ChainClass.BOUNDED_NON_NORMALIZABLE,
        ChainClass.GROWING,
    ]
    assert bm_classify(BoundaryModel(0), 0) == ChainClass.BOUNDED_NON_NORMALIZABLE


# ---------------------------------------------------------------------------
# exact operator identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(0, 7))
def test_decaying_chain_relations(n):
    m = BoundaryModel(n)
    assert bm_apply_h(m, bm_assoc(m, 0)).is_zero
    for l in range(1, n + 3):
        assert bm_apply_h(m, bm_assoc(m, l)) == bm_assoc(m, l - 1)


@pytest.mark.parametrize("n", range(0, 7))
def test_growing_chain_relations(n):
    m = BoundaryModel(n)
    assert bm_apply_h(m, bm_growing(m, 0)).is_zero
    for l in range(1, 4):
        assert bm_apply_h(m, bm_growing(m, l)) == bm_growing(m, l - 1)


@pytest.mark.parametrize("n", range(0, 9))
def test_scatter_ladder_agrees_with_closed_form(n):
    m = BoundaryModel(n)
    assert bm_scatter(m) == bm_scatter_ladder(m)


@pytest.mark.parametrize("n", range(0, 9))
def test_scatter_eigen_equation_exact(n):
    # h_n (k^n psi) == k^2 (k^n psi), exactly
    m = BoundaryModel(n)
    f = bm_scatter(m)
    assert bm_apply_h(m, f) == f.mul_k(2)


@pytest.mark.parametrize("n", range(1, 7))
def test_scatter_descent(n):
    # lowering the index-n solution lands on the index-(n-1) one: the
    # lowering operator maps k^n psi_n to i k^2 (k^{n-1} psi_{n-1})
    got = el_apply_q(bm_scatter(BoundaryModel(n)), n, -1)
    expect = bm_scatter(BoundaryModel(n - 1)).mul_k(2) * i_power(1)
    assert got == expect


@pytest.mark.parametrize("n", range(1, 7))
def test_chain_descent(n):
    # lowering sends chain member (n, l) to -i times chain member (n-1, l-1)
    m, m1 = BoundaryModel(n), BoundaryModel(n - 1)
    for l in range(1, n + 1):
        got = el_apply_q(bm_assoc(m, l), n, -1)
        assert got == bm_assoc(m1, l - 1) * i_power(-1)


@pytest.mark.parametrize("n", range(0, 7))
def test_limit_connection_to_chain(n):
    # (-1)^n / (2l)! times the 2l-th k-derivative of the phase-stripped
    # scaled scattering solution, at k=0, recovers chain member l exactly
    m = BoundaryModel(n)
    stripped = bm_scatter(m).phase_shift_z(-1)
    sign = 1 if n % 2 == 0 else -1
    import math

    for l in range(0, n + 1):
        got = el_limit_k0_deriv(stripped, 2 * l) * F(sign, math.factorial(2 * l))
        assert got == bm_assoc(m, l)
        # odd orders below the top of the chain vanish identically
        if 2 * l + 1 <= 2 * n - 1:
            assert el_limit_k0_deriv(stripped, 2 * l + 1).is_zero


def test_scatter_numeric_against_inline_formula():
    # independent numpy transcription of the n=2 solution
    m = BoundaryModel(2, z=1j)
    k, x = 1.3, 0.7
    xz = x - m.z
    expect = (
        (k**2 + 3j * k / xz - 3.0 / xz**2)
        * np.exp(1j * k * x)
        / np.sqrt(2 * np.pi)
    )
    got = bm_scatter(m).eval(k, x, m.z)
    assert abs(got - expect) < 1e-14 * abs(expect)


def test_scatter_k0_value_is_signed_chain_bottom():
    # k^n psi at k=0 equals (-1)^n psi_{n0}
    for n in range(0, 6):
        m = BoundaryModel(n)
        stripped = bm_scatter(m).phase_shift_z(-1)
        got = el_limit_k0_deriv(stripped, 0)
        assert got == bm_assoc(m, 0) * (1 if n % 2 == 0 else -1)
