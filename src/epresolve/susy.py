"""Darboux ladder between members of the singular-potential family.

Chains of exact zero-energy solutions drive the transformation: a growing
chain raises the coupling index, a normalizable chain lowers it, and the
Wronskian of the chain generates the partner potential through the standard
logarithmic-curvature formula.  Everything here is exact symbolic algebra
over the Laurent ring; floats never enter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .boundary import BoundaryModel, bm_apply_h, bm_assoc, bm_growing
from .exact import ExpLaurent, RationalComplex, el_apply_h, el_apply_q, el_diff_x
from .report import VerificationReport

__all__ = [
    "ChainKind",
    "TransformationChain",
    "growing_chain",
    "normalizable_chain",
    "wronskian",
    "darboux_potential",
    "verify_intertwining",
    "multiplicity_delta",
]


class ChainKind(enum.Enum):
    GROWING = "growing"
    NORMALIZABLE = "normalizable"


def _single_monomial_power(f: ExpLaurent) -> int:
    """Coordinate power of a plain one-term Laurent monomial, else raise.

    Chains must consist of pure members: a single coordinate power each,
    no spectral variable, no oscillatory phase.  A member mixing the growing
    and the square-summable zero modes would show up as two terms here.
    """
    if f.is_zero:
        raise ValueError("chain member is identically zero")
    if f.phase_x or f.phase_z:
        raise ValueError("chain members must be free of the spectral phase")
    if len(f.terms) != 1:
        raise ValueError(
            "chain member is not a single Laurent monomial; "
            "mixed growing/normalizable content is not supported"
        )
    ((k_pow, xz_pow),) = f.terms.keys()
    if k_pow:
        raise ValueError("chain members must not carry the spectral variable")
    return xz_pow


def _normalizable_cap(n: int) -> int:
    # number of genuinely square-summable chain members for coupling index n
    return (n - 1) // 2 + 1 if n >= 1 else 0


@dataclass(frozen=True)
class TransformationChain:
    """An ordered ladder of zero-energy solutions used as transformation data.

    The constructor checks the chain relations exactly: the head is
    annihilated by the Hamiltonian and every later member maps to its
    predecessor.  The kind (growing vs normalizable head) is derived from
    the head's coordinate power and determines whether the chain raises or
    lowers the coupling index.
    """

    model: BoundaryModel
    functions: tuple[ExpLaurent, ...]
    kind: ChainKind = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "functions", tuple(self.functions))
        if not self.functions:
            raise ValueError("transformation chain must contain at least one function")
        powers = [_single_monomial_power(f) for f in self.functions]
        head = bm_apply_h(self.model, self.functions[0])
        if not head.is_zero:
            raise ValueError("chain head is not annihilated by the Hamiltonian")
        for l in range(1, len(self.functions)):
            if bm_apply_h(self.model, self.functions[l]) != self.functions[l - 1]:
                raise ValueError(
                    f"chain relation broken at position {l}: applying the "
                    "Hamiltonian does not reproduce the previous member"
                )
        n = self.model.n
        if powers[0] == n + 1:
            kind = ChainKind.GROWING
        elif powers[0] == -n:
            kind = ChainKind.NORMALIZABLE
        else:  # unreachable once the head is an exact zero mode
            raise ValueError(f"unrecognized zero-mode power {powers[0]}")
        if kind is ChainKind.NORMALIZABLE:
            cap = _normalizable_cap(n)
            if len(self.functions) > cap:
                raise ValueError(
                    f"normalizable chain of length {len(self.functions)} exceeds "
                    f"the {cap} square-summable member(s) available at index {n}"
                )
        object.__setattr__(self, "kind", kind)

    def __len__(self) -> int:
        return len(self.functions)


def growing_chain(model: BoundaryModel, length: int) -> TransformationChain:
    """Chain of growing zero-energy solutions; raises the coupling index."""
    return TransformationChain(model, tuple(bm_growing(model, l) for l in range(length)))


def normalizable_chain(model: BoundaryModel, length: int) -> TransformationChain:
    """Chain headed by the square-summable eigenfunction; lowers the index."""
    return TransformationChain(model, tuple(bm_assoc(model, l) for l in range(length)))


def _det(matrix: list[list[RationalComplex]]) -> RationalComplex:
    # exact Gaussian elimination over the Gaussian rationals, O(size**3)
    rows = [list(row) for row in matrix]
    det = RationalComplex(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return RationalComplex()
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        head = rows[col]
        det = det * head[col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / head[col]
            if factor:
                rows[r][col:] = [a - factor * b for a, b in zip(rows[r][col:], head[col:])]
    return det


def _entry_coeff(f: ExpLaurent, xz_pow: int) -> RationalComplex:
    # a Wronskian entry must be zero or the phase-free monomial c * (x-z)**xz_pow
    if f.is_zero:
        return RationalComplex()
    if f.phase_x or f.phase_z or list(f.terms) != [(0, xz_pow)]:
        raise ValueError(f"Wronskian entry is not a single monomial in (x-z)**{xz_pow}")
    return f.terms[0, xz_pow]


def wronskian(chain: TransformationChain) -> ExpLaurent:
    """Exact Wronskian determinant of the chain functions.

    Rows hold successive derivatives, columns the chain members.  Member l
    is a phase-free monomial c_l (x-z)**p_l, so the entry in row r is a
    multiple of (x-z)**(p_l - r): those powers factor out of the columns
    and rows, and what remains is the determinant of the Gaussian-rational
    coefficient matrix, eliminated exactly in O(L**3) operations for a
    chain of length L.
    """
    rows: list[list[ExpLaurent]] = [list(chain.functions)]
    for _ in range(len(chain.functions) - 1):
        rows.append([el_diff_x(f) for f in rows[-1]])
    powers = [_single_monomial_power(f) for f in chain.functions]
    det = _det([[_entry_coeff(f, p - r) for f, p in zip(row, powers)] for r, row in enumerate(rows)])
    if not det:
        return ExpLaurent.zero()
    size = len(powers)
    unit_pow = sum(f.unit_pow for f in chain.functions)
    return ExpLaurent.monomial(det, xz_pow=sum(powers) - size * (size - 1) // 2, unit_pow=unit_pow)


def darboux_potential(
    coefficient: Fraction | int, chain: TransformationChain
) -> Fraction:
    """Coefficient of the partner potential produced by the chain.

    The input and output are the rational coefficients c of potentials
    c/(x-z)^2.  The shift is -2 (W'/W)' with W the chain Wronskian; the
    ratio and its derivative are formed term by term rather than through a
    closed shortcut, and the result is required to land back on a pure
    inverse-square term.
    """
    shift = Fraction(coefficient)
    w = wronskian(chain)
    if len(w.terms) != 1 or w.phase_x or w.phase_z:
        raise ValueError(
            "chain Wronskian is not a single Laurent monomial; the partner "
            "potential leaves the inverse-square family"
        )
    ((wk, wp),) = w.terms.keys()
    wc = w.terms[(wk, wp)]
    ratio = {(mk - wk, mp - wp): mc / wc for (mk, mp), mc in el_diff_x(w).terms.items()}
    curvature = ExpLaurent(
        {(mk, mp - 1): mc * (-2 * mp) for (mk, mp), mc in ratio.items() if mp}
    )
    if curvature.is_zero:
        return shift
    ((ck, cp),) = curvature.terms.keys()
    cc = curvature.terms[(ck, cp)]
    if ck != 0 or cp != -2 or cc.im:
        raise ValueError(
            "logarithmic curvature of the Wronskian is not a centered "
            "inverse-square term"
        )
    return shift + cc.re


_PROBE_POWERS = (-3, -1, 0, 2)


def verify_intertwining(n: int, mutate: bool = False) -> VerificationReport:
    """Check the two ladder intertwinings and both factorizations at index n.

    All four relations are applied to a spanning set of Laurent monomials
    (with and without the oscillatory phase) and required to vanish
    exactly.  ``mutate`` bumps the ladder operator's pole coefficient by one
    while leaving the Hamiltonians alone; every relation must then fail,
    which is the sensitivity control for this suite.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"ladder index must be a positive integer, got {n!r}")
    q = n + 1 if mutate else n
    upper = n * (n + 1)
    lower = (n - 1) * n

    probes = [
        ExpLaurent.monomial(1, k_pow=k_pow, xz_pow=p, phase_x=phase)
        for phase in (0, 1)
        for k_pow in (0, 1)
        for p in _PROBE_POWERS
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
    trace: list[str] = []
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


def _n1_closed(n: int) -> int:
    return (n + 1) // 2


def multiplicity_delta(
    n: int, chain: TransformationChain
) -> tuple[int, tuple[int, int, int]]:
    """Target coupling index and the change in the three spectral indexes.

    A growing chain of length m+1 raises n to n+m+1; a normalizable chain
    lowers it to n-m-1.  The deltas follow from the closed forms
    n1 = floor((n+1)/2), n2 = n3 = n, so the flat steps of n1 at odd
    (raising) and even (lowering) n come out automatically.
    """
    if n != chain.model.n:
        raise ValueError(
            f"chain was built for coupling index {chain.model.n}, not {n}"
        )
    m = len(chain.functions) - 1
    if chain.kind is ChainKind.GROWING:
        target = n + m + 1
    else:
        target = n - m - 1
        if target < 0:  # unreachable through the constructor's cap, kept defensive
            raise ValueError("normalizable chain longer than the coupling index admits")
    deltas = (_n1_closed(target) - _n1_closed(n), target - n, target - n)
    return target, deltas
