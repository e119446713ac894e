"""Darboux chains: Wronskians, partner potentials, intertwining, index deltas."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epresolve.exact as exact
from epresolve.boundary import BoundaryModel, bm_assoc, bm_growing
from epresolve.exact import ExpLaurent, RationalComplex, el_apply_h, el_apply_q, el_diff_x
from epresolve.report import VerificationReport
from epresolve.greens import indexes
from epresolve.susy import (
    ChainKind,
    TransformationChain,
    darboux_potential,
    growing_chain,
    multiplicity_delta,
    normalizable_chain,
    verify_intertwining,
    wronskian,
)
from epresolve.susy import _det, _entry_coeff


def test_wronskian_single_growing():
    w = wronskian(growing_chain(BoundaryModel(0), 1))
    assert w == ExpLaurent.monomial(1, xz_pow=1)


def test_wronskian_two_growing():
    # (x-z) * d/dx[-(x-z)^3/6] - 1 * [-(x-z)^3/6] = -(x-z)^3/3
    w = wronskian(growing_chain(BoundaryModel(0), 2))
    assert w == ExpLaurent.monomial(Fraction(-1, 3), xz_pow=3)


def test_wronskian_single_normalizable():
    w = wronskian(normalizable_chain(BoundaryModel(2), 1))
    assert w == ExpLaurent.monomial(-3, xz_pow=-2, unit_pow=1)


def _laplace_det(matrix):
    # oracle: Laplace expansion along the first row over the Laurent ring,
    # O(L!); the package's Wronskian eliminates the coefficient matrix instead
    if len(matrix) == 1:
        return matrix[0][0]
    total = ExpLaurent.zero()
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero:
            continue
        cofactor = entry * _laplace_det([row[:j] + row[j + 1:] for row in matrix[1:]])
        total = total + cofactor if j % 2 == 0 else total - cofactor
    return total


def _wronskian_oracle(chain):
    rows = [list(chain.functions)]
    for _ in range(len(chain) - 1):
        rows.append([el_diff_x(f) for f in rows[-1]])
    return _laplace_det(rows)


_ORACLE_CHAINS = [
    (kind, n, length)
    for n in range(6)
    for kind, cap in ((growing_chain, 5), (normalizable_chain, (n - 1) // 2 + 1 if n else 0))
    for length in range(1, cap + 1)
]


@pytest.mark.parametrize(
    "build n length".split(), _ORACLE_CHAINS,
    ids=[f"{b.__name__.split('_')[0]}-n{n}-L{l}" for b, n, l in _ORACLE_CHAINS],
)
def test_wronskian_matches_laplace_oracle(build, n, length):
    chain = build(BoundaryModel(n, 0.5 + 1.5j), length)
    w = wronskian(chain)
    assert w == _wronskian_oracle(chain)
    assert w.unit_pow == sum(f.unit_pow for f in chain.functions)


gauss_rationals = st.builds(
    RationalComplex,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@given(st.integers(1, 5).flatmap(
    lambda size: st.lists(
        st.lists(st.one_of(st.just(RationalComplex()), gauss_rationals), min_size=size, max_size=size),
        min_size=size, max_size=size,
    )
))
@settings(max_examples=60, deadline=None)
def test_elimination_matches_laplace_on_coefficient_matrices(matrix):
    # zeros are drawn often, so row swaps and singular matrices are exercised
    as_laurent = [[ExpLaurent.monomial(c) for c in row] for row in matrix]
    oracle = _laplace_det(as_laurent)
    got = _det(matrix)
    assert ExpLaurent.monomial(got) == oracle


def test_wronskian_rejects_a_non_monomial_entry():
    with pytest.raises(ValueError, match="single monomial"):
        _entry_coeff(ExpLaurent({(0, 2): 1, (0, 1): 1}), 2)
    with pytest.raises(ValueError, match="single monomial"):
        _entry_coeff(ExpLaurent.monomial(1, xz_pow=3), 2)


@pytest.mark.parametrize(
    "coeff chain expected".split(),
    [
        (Fraction(0), growing_chain(BoundaryModel(0), 1), Fraction(2)),
        (Fraction(6), normalizable_chain(BoundaryModel(2), 1), Fraction(2)),
        (Fraction(0), growing_chain(BoundaryModel(0), 2), Fraction(6)),
        (Fraction(30), normalizable_chain(BoundaryModel(5), 2), Fraction(12)),
    ],
    ids="raise00 lower20 raise00x2 lower5x2".split(),
)
def test_partner_potential_endpoints(coeff, chain, expected):
    assert darboux_potential(coeff, chain) == expected


def test_partner_potential_accepts_int():
    got = darboux_potential(0, growing_chain(BoundaryModel(0), 1))
    assert isinstance(got, Fraction) and got == 2


@pytest.mark.parametrize("n", range(6), ids=[f"n{i}" for i in range(6)])
@pytest.mark.parametrize("m", range(3), ids="m0 m1 m2".split())
def test_partner_matches_target_coupling(n, m):
    # the transformed potential coefficient lands exactly on n'(n'+1)
    model = BoundaryModel(n)
    chains = [growing_chain(model, m + 1)]
    if m + 1 <= max(0, (n - 1) // 2 + 1):
        chains.append(normalizable_chain(model, m + 1))
    for chain in chains:
        target, _ = multiplicity_delta(n, chain)
        got = darboux_potential(Fraction(n * (n + 1)), chain)
        assert got == Fraction(target * (target + 1))


@pytest.mark.parametrize("n", range(6), ids=[f"n{i}" for i in range(6)])
def test_round_trip_is_exact(n):
    up = darboux_potential(Fraction(n * (n + 1)), growing_chain(BoundaryModel(n), 1))
    assert up == Fraction((n + 1) * (n + 2))
    down = darboux_potential(up, normalizable_chain(BoundaryModel(n + 1), 1))
    assert down == Fraction(n * (n + 1))


def test_intertwining_passes():
    for n in (1, 4):
        report = verify_intertwining(n)
        assert report.mode == "exact-symbolic"
        assert report.passed and report.residual == 0.0


def test_intertwining_mutation_control_fails():
    report = verify_intertwining(2, mutate=True)
    assert not report.passed and report.residual > 0


def test_intertwining_rejects_bad_index():
    with pytest.raises(ValueError):
        verify_intertwining(0)


@pytest.mark.parametrize("index", [True, False, 2.0])
def test_intertwining_rejects_non_int_index(index):
    with pytest.raises(ValueError, match="positive integer"):
        verify_intertwining(index)


def _oracle_intertwining(n, mutate=False):
    # oracle: every relation applied probe by probe through el_apply_h and
    # el_apply_q (224 operator applications); the package composes each
    # relation once as an exact operator and applies only a nonzero residual
    q = n + 1 if mutate else n
    upper = n * (n + 1)
    lower = (n - 1) * n
    probes = [
        ExpLaurent.monomial(1, k_pow=k_pow, xz_pow=p, phase_x=phase)
        for phase in (0, 1)
        for k_pow in (0, 1)
        for p in (-3, -1, 0, 2)
    ]
    relations = {
        "raise-intertwine": lambda f: el_apply_h(el_apply_q(f, q, +1), upper)
        - el_apply_q(el_apply_h(f, lower), q, +1),
        "lower-intertwine": lambda f: el_apply_h(el_apply_q(f, q, -1), lower)
        - el_apply_q(el_apply_h(f, upper), q, -1),
        "factor-upper": lambda f: el_apply_q(el_apply_q(f, q, -1), q, +1)
        - el_apply_h(f, upper),
        "factor-lower": lambda f: el_apply_q(el_apply_q(f, q, +1), q, -1)
        - el_apply_h(f, lower),
    }
    failures = 0
    trace = []
    for name, residual_of in relations.items():
        bad = sum(0 if residual_of(f).is_zero else 1 for f in probes)
        failures += bad
        trace.append(f"{name}: {len(probes)} probes, {bad} nonzero residual(s)")
    return VerificationReport(
        identity="susy-intertwining" + ("-mutated" if mutate else ""),
        label=f"ladder intertwining and factorization at index {n}",
        mode="exact-symbolic",
        residual=float(failures),
        tolerance=0.0,
        trace=tuple(trace),
    )


@pytest.mark.parametrize("mutate", [False, True], ids=["plain", "mutated"])
@pytest.mark.parametrize("n", range(1, 9), ids=[f"n{i}" for i in range(1, 9)])
def test_intertwining_matches_probe_oracle(n, mutate):
    assert verify_intertwining(n, mutate).to_dict() == _oracle_intertwining(n, mutate).to_dict()


@pytest.mark.parametrize(
    "dropped expected".split(),
    [(lambda r: r >= 1, 62), (lambda r: r == 2, 32)],
    ids=["drop-r-ge-1", "drop-r-eq-2"],
)
def test_intertwining_catches_a_broken_composition(monkeypatch, dropped, expected):
    # mutation control: a composition that loses Leibniz terms (D no longer
    # moves past the coefficients correctly) must show in the unmutated check
    leibniz = exact._leibniz
    monkeypatch.setattr(
        exact, "_leibniz", lambda j, q: [(r, c) for r, c in leibniz(j, q) if not dropped(r)]
    )
    report = verify_intertwining(2)
    assert not report.passed
    assert report.residual == expected


@pytest.mark.parametrize(
    "n kind length target deltas".split(),
    [
        (2, "g", 1, 3, (1, 1, 1)),
        (3, "g", 1, 4, (0, 1, 1)),  # flat step of the leading index at odd n
        (2, "n", 1, 1, (0, -1, -1)),  # and at even n when lowering
        (1, "g", 2, 3, (1, 2, 2)),
        (5, "n", 2, 3, (-1, -2, -2)),
    ],
    ids="raise2 raise3-flat lower2-flat raise1x2 lower5x2".split(),
)
def test_multiplicity_deltas(n, kind, length, target, deltas):
    model = BoundaryModel(n)
    chain = growing_chain(model, length) if kind == "g" else normalizable_chain(model, length)
    assert multiplicity_delta(n, chain) == (target, deltas)


@pytest.mark.parametrize("n", [1, 2, 3], ids="n1 n2 n3".split())
def test_deltas_agree_with_measured_indexes(n):
    # cross-module: predicted deltas equal the difference of index triples
    # actually computed from the Green functions
    target, deltas = multiplicity_delta(n, growing_chain(BoundaryModel(n), 1))
    before = indexes(BoundaryModel(n))
    after = indexes(BoundaryModel(target))
    assert (after.n1 - before.n1, after.n2 - before.n2, after.n3 - before.n3) == deltas


def test_kind_detection():
    assert growing_chain(BoundaryModel(1), 1).kind is ChainKind.GROWING
    assert normalizable_chain(BoundaryModel(3), 2).kind is ChainKind.NORMALIZABLE


def test_chain_rejects_mixed_zero_mode():
    # a genuine two-power zero mode (both kernel branches, same grading)
    mixed = ExpLaurent({(0, 3): Fraction(1), (0, -2): Fraction(1)})
    with pytest.raises(ValueError, match="single Laurent monomial"):
        TransformationChain(BoundaryModel(2), (mixed,))


def test_chain_rejects_broken_ladder():
    m = BoundaryModel(2)
    with pytest.raises(ValueError, match="chain relation broken"):
        TransformationChain(m, (bm_growing(m, 0), bm_assoc(m, 1)))


def test_chain_rejects_overlong_normalizable():
    with pytest.raises(ValueError, match="square-summable"):
        normalizable_chain(BoundaryModel(2), 2)
    with pytest.raises(ValueError, match="square-summable"):
        normalizable_chain(BoundaryModel(0), 1)


def test_chain_rejects_spectral_content():
    with pytest.raises(ValueError, match="spectral"):
        TransformationChain(BoundaryModel(0), (ExpLaurent.monomial(1, xz_pow=1, phase_x=1),))
    with pytest.raises(ValueError, match="spectral"):
        TransformationChain(BoundaryModel(0), (ExpLaurent.monomial(1, k_pow=1, xz_pow=1),))


def test_chain_rejects_empty_and_zero():
    with pytest.raises(ValueError):
        TransformationChain(BoundaryModel(1), ())
    with pytest.raises(ValueError, match="zero"):
        TransformationChain(BoundaryModel(1), (ExpLaurent.zero(),))


def test_multiplicity_delta_checks_base_index():
    chain = growing_chain(BoundaryModel(2), 1)
    with pytest.raises(ValueError):
        multiplicity_delta(3, chain)


def test_chain_len():
    assert len(growing_chain(BoundaryModel(1), 3)) == 3
