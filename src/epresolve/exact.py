"""Exact rational-complex Laurent algebra for oscillatory scattering states.

Everything in this module is exact: coefficients are Gaussian rationals
(:class:`RationalComplex`, stored canonically as one Gaussian-integer
numerator over a positive denominator, ``(a + b*i)/d`` with
``gcd(a, b, d) = 1``, and computed on plain ints), and the symbolic carrier
:class:`ExpLaurent` represents finite sums

    (2*pi)**(-unit_pow/2) * sum_{m,p} c[m,p] * k**m * (x-z)**p
        * exp(i*sigma*k*(x-z)) * exp(i*tau*k*z)

over integer powers ``m`` (spectral variable ``k``) and ``p`` (centered
coordinate ``x - z``, with ``z`` a fixed complex displacement kept symbolic).
The two phase integers ``sigma`` (coordinate phase) and ``tau`` (displacement
phase) and the unit grading ``unit_pow`` are carried per expression, not per
term; sums require them to match, products add them.  This is enough to
express the singular potentials' bound-state chains, the scattering solutions
multiplied by their natural power of ``k``, and all first-order ladder
operators connecting neighbouring potentials -- while keeping every identity
check free of floating-point error.

Differentiation, ladder application, ``k -> -k`` substitution and the
``k -> 0`` limit of phase-stripped expressions are all closed operations here.

The sparse term-sum core shared by every term algebra of the package lives
here too: :func:`add_terms` accumulates keyed coefficients and drops what
cancels to exact zero, and :func:`mul_terms` convolves two term dicts.
:class:`ExpLaurent`, :class:`epresolve.quadrature.OscRational` and the
two-point gap algebra of :mod:`epresolve.resolution` all run on it.
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping

import numpy as np

__all__ = [
    "RationalComplex",
    "ExpLaurent",
    "add_terms",
    "mul_terms",
    "dfact",
    "i_power",
    "el_diff_x",
    "el_eval_terms",
    "el_apply_q",
    "el_apply_h",
    "el_limit_k0_deriv",
]


def _as_fraction(value: numbers.Real | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, float) and value.is_integer():
        # an integral float (2.0) names its integer exactly; any other float,
        # nan and inf included, is rejected instead of being rounded to a
        # nearby rational that would silently poison an exact computation
        return Fraction(int(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _triple(value: "RationalComplex | Fraction | int") -> tuple[int, int, int]:
    # the canonical (a, b, d) of an operand, without building a RationalComplex
    if isinstance(value, RationalComplex):
        return value._a, value._b, value._d
    if type(value) is int:
        return value, 0, 1
    frac = _as_fraction(value)
    return frac.numerator, 0, frac.denominator


def _canonical(a: int, b: int, d: int) -> "RationalComplex":
    # the RationalComplex (a + b*i)/d for d > 0: one gcd brings it to lowest terms
    g = math.gcd(a, b, d)
    out = object.__new__(RationalComplex)
    out._a, out._b, out._d = (a, b, d) if g == 1 else (a // g, b // g, d // g)
    return out


class RationalComplex:
    """A Gaussian rational: exact rational real and imaginary parts.

    Stored canonically as ``(a + b*i)/d`` on plain ints, with ``d > 0`` and
    ``gcd(a, b, d) == 1`` (zero is ``(0 + 0i)/1``), so every value has one
    representation and equality and hashing compare the triple.  Arithmetic
    takes one gcd per result; ``int`` and real operands skip the imaginary
    cross terms.  ``re`` and ``im`` are :class:`~fractions.Fraction` views.

    >>> a = RationalComplex(Fraction(1, 2), Fraction(-3))
    >>> b = RationalComplex.unit_i()
    >>> (a * b).re
    Fraction(3, 1)
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0) -> None:
        re, im = _as_fraction(re), _as_fraction(im)
        rd, idn = re.denominator, im.denominator
        canon = _canonical(re.numerator * idn, im.numerator * rd, rd * idn)
        self._a, self._b, self._d = canon._a, canon._b, canon._d

    @staticmethod
    def from_value(value: "RationalComplex | Fraction | int | float") -> "RationalComplex":
        if isinstance(value, RationalComplex):
            return value
        return _canonical(*_triple(value))

    @staticmethod
    def unit_i(power: int = 1) -> "RationalComplex":
        """Return i**power exactly."""
        return _I_POWERS[power % 4]

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalComplex):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def _plus(self, oa: int, ob: int, od: int) -> "RationalComplex":
        a, b, d = self._a, self._b, self._d
        return _canonical(a * od + oa * d, b * od + ob * d, d * od)

    def __add__(self, other: "RationalComplex | Fraction | int") -> "RationalComplex":
        return self._plus(*_triple(other))

    __radd__ = __add__

    def __neg__(self) -> "RationalComplex":
        return _canonical(-self._a, -self._b, self._d)

    def __sub__(self, other: "RationalComplex | Fraction | int") -> "RationalComplex":
        oa, ob, od = _triple(other)
        return self._plus(-oa, -ob, od)

    def __rsub__(self, other: "RationalComplex | Fraction | int") -> "RationalComplex":
        return (-self)._plus(*_triple(other))

    def __mul__(self, other: "RationalComplex | Fraction | int") -> "RationalComplex":
        oa, ob, od = _triple(other)
        a, b, d = self._a, self._b, self._d
        if ob:
            return _canonical(a * oa - b * ob, a * ob + b * oa, d * od)
        return _canonical(a * oa, b * oa, d * od)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalComplex | Fraction | int") -> "RationalComplex":
        oa, ob, od = _triple(other)
        norm = oa * oa + ob * ob
        if not norm:
            raise ZeroDivisionError("division by exact zero")
        a, b, d = self._a, self._b, self._d
        return _canonical((a * oa + b * ob) * od, (b * oa - a * ob) * od, d * norm)

    def conjugate(self) -> "RationalComplex":
        return _canonical(self._a, -self._b, self._d)

    def to_complex(self) -> complex:
        # int true division rounds correctly, exactly as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RationalComplex({self.re!s}, {self.im!s})"


_I_POWERS = (_canonical(1, 0, 1), _canonical(0, 1, 1), _canonical(-1, 0, 1), _canonical(0, -1, 1))


def i_power(n: int) -> RationalComplex:
    """Exact i**n for any integer n (negative included)."""
    return _I_POWERS[n % 4]


def dfact(m: int) -> Fraction:
    """Double factorial m!! extended to negative odd integers.

    The empty products ``0!!`` and ``(-1)!!`` are 1, and for m = -(2j+1) the
    reflection ``(-2j-1)!! = (-1)**j / (2j-1)!!`` extends the recursion
    m!! = m * (m-2)!! to all odd m.  Negative even arguments have no
    consistent value and are rejected.

    >>> dfact(7)
    Fraction(105, 1)
    >>> dfact(-5)
    Fraction(1, 3)
    """
    if m >= -1:
        return Fraction(math.prod(range(m, 1, -2)))
    if m % 2 == 0:
        raise ValueError(f"double factorial undefined for negative even {m}")
    j = (-m - 1) // 2  # m = -(2j+1)
    sign = -1 if j % 2 else 1
    return Fraction(sign, int(dfact(2 * j - 1)))


def add_terms(dst: dict, items: Iterable[tuple[Hashable, object]]) -> dict:
    """Add the (key, coeff) pairs into ``dst`` in order; return ``dst``.

    An entry is deleted the moment it cancels to exact zero, so ``dst``
    never holds a zero coefficient; its order is insertion order, and a key
    that cancels and comes back later is re-inserted at the end.
    Coefficients need ``+`` and a truth value that is False at zero
    (:class:`RationalComplex`, :class:`~fractions.Fraction` and ``complex``
    all qualify).

    >>> add_terms({"a": 1}, [("b", 2), ("a", -1), ("b", 1), ("a", 5)])
    {'b': 3, 'a': 5}
    """
    for key, coeff in items:
        prev = dst.get(key)
        if prev is not None:
            coeff = prev + coeff
        if coeff:
            dst[key] = coeff
        else:
            dst.pop(key, None)
    return dst


def _add_keys(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.add, a, b))


def mul_terms(
    a: Mapping, b: Mapping, key_add: Callable[[Hashable, Hashable], Hashable] = _add_keys
) -> dict:
    """Product of two term dicts: every pair of terms, keys combined by ``key_add``.

    The default adds tuple keys elementwise (exponent vectors).
    """
    return add_terms(
        {}, ((key_add(ka, kb), ca * cb) for ka, ca in a.items() for kb, cb in b.items())
    )


def _checked_term(item: tuple[tuple[int, int], object]) -> tuple[tuple[int, int], RationalComplex]:
    (m, p), coeff = item
    if not isinstance(m, numbers.Integral) or not isinstance(p, numbers.Integral):
        raise TypeError("term keys must be integer (k_pow, xz_pow) pairs")
    return (int(m), int(p)), RationalComplex.from_value(coeff)


_TermMap = Mapping[tuple[int, int], RationalComplex]


class ExpLaurent:
    """Finite Laurent sum in ``k`` and ``x - z`` carrying an oscillatory phase.

    Instances are immutable; all operations return new objects.  The empty
    sum is the universal zero and is compatible with every phase/unit grading.
    """

    __slots__ = ("terms", "phase_x", "phase_z", "unit_pow")

    def __init__(self, terms: _TermMap | Iterable[tuple[tuple[int, int], RationalComplex]] = (),
                 phase_x: int = 0, phase_z: int = 0, unit_pow: int = 0) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        object.__setattr__(self, "terms", add_terms({}, map(_checked_term, items)))
        object.__setattr__(self, "phase_x", int(phase_x))
        object.__setattr__(self, "phase_z", int(phase_z))
        object.__setattr__(self, "unit_pow", int(unit_pow))

    @classmethod
    def _normalized(cls, terms: dict, phase_x: int, phase_z: int, unit_pow: int) -> "ExpLaurent":
        """Wrap a term dict that is already clean: ring-operation results."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "phase_x", phase_x)
        object.__setattr__(out, "phase_z", phase_z)
        object.__setattr__(out, "unit_pow", unit_pow)
        return out

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("ExpLaurent instances are immutable")

    # -- constructors --------------------------------------------------
    @staticmethod
    def zero() -> "ExpLaurent":
        return _EL_ZERO

    @staticmethod
    def monomial(coeff: RationalComplex | Fraction | int, k_pow: int = 0, xz_pow: int = 0,
                 phase_x: int = 0, phase_z: int = 0, unit_pow: int = 0) -> "ExpLaurent":
        return ExpLaurent({(k_pow, xz_pow): coeff}, phase_x, phase_z, unit_pow)

    # -- predicates ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _grading(self) -> tuple[int, int, int]:
        return (self.phase_x, self.phase_z, self.unit_pow)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpLaurent):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self._grading() == other._grading() and self.terms == other.terms

    def __hash__(self) -> int:
        if self.is_zero:
            return hash("ExpLaurent-zero")
        return hash((self._grading(), frozenset(self.terms.items())))

    # -- ring operations -------------------------------------------------
    def __add__(self, other: "ExpLaurent") -> "ExpLaurent":
        if not isinstance(other, ExpLaurent):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self._grading() != other._grading():
            raise ValueError(
                "cannot add expressions with different phase/unit grading: "
                f"{self._grading()} vs {other._grading()}"
            )
        return ExpLaurent._normalized(
            add_terms(dict(self.terms), other.terms.items()), *self._grading()
        )

    def __neg__(self) -> "ExpLaurent":
        return ExpLaurent._normalized(
            {key: -coeff for key, coeff in self.terms.items()}, *self._grading()
        )

    def __sub__(self, other: "ExpLaurent") -> "ExpLaurent":
        return self + (-other)

    def __mul__(self, other: "ExpLaurent | RationalComplex | Fraction | int") -> "ExpLaurent":
        if isinstance(other, ExpLaurent):
            if self.is_zero or other.is_zero:
                return _EL_ZERO
            return ExpLaurent._normalized(
                mul_terms(self.terms, other.terms),
                self.phase_x + other.phase_x,
                self.phase_z + other.phase_z,
                self.unit_pow + other.unit_pow,
            )
        scalar = other if type(other) is int else RationalComplex.from_value(other)
        if not scalar or self.is_zero:
            return _EL_ZERO
        return ExpLaurent._normalized(
            {key: coeff * scalar for key, coeff in self.terms.items()},
            *self._grading(),
        )

    def __rmul__(self, other: "RationalComplex | Fraction | int") -> "ExpLaurent":
        return self * other

    # -- index shifts ------------------------------------------------------
    def mul_k(self, m: int) -> "ExpLaurent":
        """Multiply by k**m."""
        terms = {(mm + m, pp): c for (mm, pp), c in self.terms.items()}
        return ExpLaurent._normalized(terms, *self._grading())

    def mul_xz(self, p: int) -> "ExpLaurent":
        """Multiply by (x-z)**p."""
        terms = {(mm, pp + p): c for (mm, pp), c in self.terms.items()}
        return ExpLaurent._normalized(terms, *self._grading())

    def phase_shift_z(self, delta: int) -> "ExpLaurent":
        """Multiply by exp(i*delta*k*z), adjusting only the displacement phase."""
        return ExpLaurent._normalized(self.terms, self.phase_x, self.phase_z + delta, self.unit_pow)

    # -- calculus ------------------------------------------------------------
    def diff_x(self) -> "ExpLaurent":
        """Exact d/dx.  The phase contributes i*sigma*k per term."""
        i_sigma = _I_POWERS[1] * self.phase_x
        out = add_terms({}, (
            ((m + dm, p - dp), c * factor)
            for (m, p), c in self.terms.items()
            for dm, dp, factor in ((1, 0, i_sigma), (0, 1, p))
            if factor
        ))
        return ExpLaurent._normalized(out, *self._grading())

    def subst_neg_k(self) -> "ExpLaurent":
        """Substitute k -> -k: coefficients flip by (-1)**m, phases negate."""
        terms = {(m, p): (c if m % 2 == 0 else -c) for (m, p), c in self.terms.items()}
        return ExpLaurent._normalized(terms, -self.phase_x, -self.phase_z, self.unit_pow)

    # -- evaluation ---------------------------------------------------------
    def to_term_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pack terms as (k_pows, xz_pows, coeffs) arrays, deterministic order."""
        keys = sorted(self.terms)
        ms = np.array([m for m, _ in keys], dtype=np.int64)
        ps = np.array([p for _, p in keys], dtype=np.int64)
        cs = np.array([self.terms[key].to_complex() for key in keys], dtype=np.complex128)
        return ms, ps, cs

    def eval(self, k: np.ndarray | complex, x: np.ndarray | complex, z: complex) -> np.ndarray | complex:
        """Numerically evaluate at spectral value(s) k and coordinate(s) x.

        Broadcasts k against x.  The term loop is :func:`el_eval_terms`,
        shared with the grid kernel :func:`epresolve.kernels.el_eval_grid`.
        """
        karr = np.asarray(k, dtype=np.complex128)
        xz = np.asarray(x, dtype=np.complex128) - z
        out = el_eval_terms(((m, p, c.to_complex()) for (m, p), c in self.terms.items()), karr, xz)
        phase = np.exp(1j * karr * (self.phase_x * xz + self.phase_z * z))
        scale = (2.0 * math.pi) ** (-0.5 * self.unit_pow)
        result = scale * out * phase
        if np.ndim(result) == 0:
            return complex(result)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_zero:
            return "ExpLaurent(0)"
        body = " + ".join(
            f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)*k^{m}*(x-z)^{p}"
            for (m, p), c in sorted(self.terms.items())
        )
        return (
            f"ExpLaurent[{body}; sigma={self.phase_x}, tau={self.phase_z}, "
            f"unit={self.unit_pow}]"
        )


_EL_ZERO = ExpLaurent()


def el_eval_terms(
    terms: Iterable[tuple[int, int, complex]], k: np.ndarray, xz: np.ndarray
) -> np.ndarray:
    """sum of c * k**m * xz**p over the (m, p, c) triples, in the given order.

    The term loop of every numeric Laurent evaluation; ``k`` and the centered
    coordinate ``xz = x - z`` are arrays broadcast against each other.
    """
    out = np.zeros(np.broadcast(k, xz).shape, dtype=np.complex128)
    for m, p, c in terms:
        out += c * k ** int(m) * xz ** int(p)
    return out


def el_diff_x(f: ExpLaurent) -> ExpLaurent:
    """Exact spatial derivative of an :class:`ExpLaurent` expression."""
    return f.diff_x()


def el_apply_q(f: ExpLaurent, n: int, sign: int) -> ExpLaurent:
    """Apply the first-order ladder operator of index n.

    The raising (+) and lowering (-) forms are ``-d/dx + n/(x-z)`` and
    ``+d/dx + n/(x-z)`` respectively: sign selects which, and must be +1
    or -1.  Raising maps solutions of the index-(n-1) problem to index n;
    lowering goes the other way.
    """
    if n < 1:
        raise ValueError(f"ladder index must be a positive integer, got {n}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 (raising) or -1 (lowering), got {sign}")
    sup = f.mul_xz(-1) * n
    if sign == 1:
        return -f.diff_x() + sup
    return f.diff_x() + sup


def el_apply_h(f: ExpLaurent, coupling: Fraction | int) -> ExpLaurent:
    """Apply -d^2/dx^2 + coupling/(x-z)^2, the centered singular Hamiltonian."""
    return -f.diff_x().diff_x() + f.mul_xz(-2) * coupling


def el_mutate(f: ExpLaurent, delta: Fraction) -> ExpLaurent:
    """Scale the first term coefficient by (1 + delta): a controlled defect.

    Deterministic (first key in sorted order), exact, and reversible; used by
    sensitivity checks to confirm that verification suites detect wrong
    coefficients of relative size delta.
    """
    if f.is_zero:
        raise ValueError("cannot mutate the zero expression")
    key = min(f.terms)
    terms = add_terms(dict(f.terms), [(key, f.terms[key] * delta)])
    return ExpLaurent._normalized(terms, f.phase_x, f.phase_z, f.unit_pow)


def el_limit_k0_deriv(f: ExpLaurent, order: int) -> ExpLaurent:
    """Exact limit of d^order/dk^order applied to f, as k -> 0.

    Requires the displacement phase to be absent (``phase_z == 0``); strip it
    first via :meth:`ExpLaurent.phase_shift_z`.  Expanding the remaining phase
    exp(i*sigma*k*(x-z)) in powers of k, the term c*k**m*(x-z)**p contributes

        c * order!/(order-m)! * (i*sigma*(x-z))**(order-m) * (x-z)**p

    whenever m <= order.  Negative k-powers that survive canonicalization make
    the limit divergent and are rejected.
    """
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if f.phase_z != 0:
        raise ValueError(
            "displacement phase must be stripped (phase_shift_z) before the k->0 limit"
        )
    bad = [key for key in f.terms if key[0] < 0]
    if bad:
        raise ValueError(f"k->0 limit divergent: negative k-powers remain at {sorted(bad)}")
    sigma = f.phase_x

    def contrib(j: int) -> RationalComplex:
        # order!/j! * (i*sigma)**j
        return i_power(j) * Fraction(math.factorial(order) * sigma**j, math.factorial(j))

    out = add_terms({}, (
        ((0, p + order - m), c * contrib(order - m))
        for (m, p), c in f.terms.items()
        if m <= order and (sigma or m == order)
    ))
    return ExpLaurent._normalized(out, 0, 0, f.unit_pow)
