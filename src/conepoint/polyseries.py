"""Sparse multivariate Laurent polynomials and truncated power series.

Each coefficient carries its own field: an exact `fractions.Fraction`, a
float, or a complex float.  Arithmetic follows Python's numeric tower, so it
stays exact while all inputs are rational, and a float or complex
coefficient (as in a spec with float coefficients or powers) makes every
result it touches float or complex: `Fraction` op `float` is `float(F)` op
`float`.  Within one polynomial the coefficients share a field: construction
turns ints into Fractions and lifts narrower coefficients to the widest one
present, and `from_terms`, the input boundary, does the same before it sums
repeated exponents.  `is_exact` tells whether a polynomial is all rational.
Values are never changed after construction and all operations are pure,
so they can be shared freely between threads.

Representation: a polynomial is a map from exponent tuples (negative
entries allowed) to nonzero coefficients.  A truncated series is the same
map restricted to nonnegative exponents of total degree <= its order;
arithmetic truncates to the minimum order of the operands.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import add
from typing import Dict, Iterable, Sequence, Tuple

Exponent = Tuple[int, ...]


class DomainError(ValueError):
    """Raised for evaluation at invalid points (zero to a negative power)."""


class NonUnitError(ValueError):
    """Raised when a series operation needs a nonzero constant term."""


def _zero(terms: Dict[Exponent, object]):
    """0 in the field of the coefficients (a Fraction when there are none)."""
    return type(next(iter(terms.values()), Fraction(0)))()


def _clean(terms: Dict[Exponent, object], arity: int, order=None) -> Dict[Exponent, object]:
    """Validated terms without zeros, ints made Fractions, all in the widest
    field present; with an order, terms of higher total degree are dropped."""
    clean = {}
    for m, c in terms.items():
        if len(m) != arity or (order is not None and any(e < 0 for e in m)):
            raise ValueError(f"bad exponent {m} for arity {arity}")
        if order is not None and sum(m) > order:
            continue
        if isinstance(c, int):
            c = Fraction(c)
        if c:
            clean[tuple(int(e) for e in m)] = c
    kinds = {type(c) for c in clean.values()}
    if len(kinds) > 1:
        zero = sum(kind() for kind in kinds)
        clean = {m: c if type(c) is type(zero) else zero + c for m, c in clean.items()}
    return clean


def _add_terms(a: Dict[Exponent, object], b: Dict[Exponent, object]) -> Dict[Exponent, object]:
    """Sum of two term maps; a term missing from a reads as 0 in the field of the sum."""
    zero = _zero(a) + _zero(b)
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, zero) + c
    return out


def _mul_terms(a: Dict[Exponent, object], b: Dict[Exponent, object],
               order=None) -> Dict[Exponent, object]:
    """Product of two term maps; with an order, pairs of higher total degree
    are skipped."""
    cap = math.inf if order is None else order
    b_deg = [(mb, cb, sum(mb)) for mb, cb in b.items()]
    out: Dict[Exponent, object] = {}
    for ma, ca in a.items():
        room = cap - sum(ma)
        for mb, cb, db in b_deg:
            if db <= room:
                m = tuple(map(add, ma, mb))
                out[m] = out[m] + ca * cb if m in out else ca * cb
    return out


def is_exact(p) -> bool:
    """True when every coefficient of a polynomial or series is a Fraction."""
    return all(isinstance(c, Fraction) for c in p.terms.values())


class Record:
    """Base of the package's record classes, which cost nothing to define.

    A subclass names its fields once, in _fields.  The constructor takes
    them by position or by name, fills those left out from _defaults (one
    object shared by every instance, like a function's default argument),
    raises TypeError for a missing, unknown or doubled field, and then calls
    __post_init__, where a subclass checks and normalizes its fields.  ==
    compares the fields, in order, and only between instances of the same
    class; a record is unhashable.  repr lists the fields by name.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _defaults: Dict[str, object] = {}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        given = dict(zip(fields, args))
        if len(args) > len(fields) or given.keys() & kwargs.keys():
            raise TypeError(f"{name} takes each of its fields {fields} once")
        values = {**self._defaults, **given, **kwargs}
        for field in fields:
            if field not in values:
                raise TypeError(f"{name} is missing field {field!r}")
            setattr(self, field, values.pop(field))
        if values:
            raise TypeError(f"{name} has no field {next(iter(values))!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class _Terms(Record):
    """What MultiPoly and TruncatedSeries share: lookups, negation, scaling."""

    __slots__ = ()

    def coeff(self, m: Sequence[int]):
        """The coefficient of X^m; a missing one reads as 0 in the field of the others."""
        c = self.terms.get(tuple(m))
        return _zero(self.terms) if c is None else c

    def constant_term(self):
        return self.coeff((0,) * self.arity)

    def is_zero(self) -> bool:
        return not self.terms

    def __neg__(self):
        return self._with_terms({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._with_terms({m: v * c for m, v in self.terms.items()})

    def _check(self, other):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")


class MultiPoly(_Terms):
    """Sparse Laurent polynomial: arity and {exponent tuple: coefficient}.

    Zero coefficients are never stored, so equality of term maps is
    equality of polynomials.
    """

    __slots__ = _fields = ("arity", "terms")
    _defaults = {"terms": {}}

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be positive")
        self.terms = _clean(self.terms, self.arity)

    def _with_terms(self, terms: Dict[Exponent, object]) -> "MultiPoly":
        return MultiPoly(self.arity, terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity, {})

    @classmethod
    def const(cls, arity: int, value) -> "MultiPoly":
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, idx: int) -> "MultiPoly":
        e = [0] * arity
        e[idx] = 1
        return cls(arity, {tuple(e): Fraction(1)})

    @classmethod
    def from_terms(cls, arity: int,
                   items: Iterable[Tuple[Sequence[int], object]]) -> "MultiPoly":
        """Sum of the given terms, every coefficient first brought to the
        widest field among them."""
        items = [(tuple(int(e) for e in m), c) for m, c in items]
        zero = sum((kind() for kind in {type(c) for _, c in items}), Fraction(0))
        terms: Dict[Exponent, object] = {}
        for m, c in items:
            terms[m] = terms.get(m, zero) + c
        return cls(arity, terms)

    # -- structure ---------------------------------------------------------

    def min_exponents(self) -> Exponent:
        """Componentwise minimum exponent over the support (0 if empty)."""
        if not self.terms:
            return (0,) * self.arity
        return tuple(min(m[i] for m in self.terms) for i in range(self.arity))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return MultiPoly(self.arity, _add_terms(self.terms, other.terms))

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return MultiPoly(self.arity, _mul_terms(self.terms, other.terms))

    def pow(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = MultiPoly.const(self.arity, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus / evaluation ---------------------------------------------

    def diff(self, var_index: int) -> "MultiPoly":
        """Formal partial derivative; Laurent exponents follow the power rule."""
        if not 0 <= var_index < self.arity:
            raise ValueError("variable index out of range")
        out: Dict[Exponent, object] = {}
        for m, c in self.terms.items():
            e = m[var_index]
            if e == 0:
                continue
            m2 = list(m)
            m2[var_index] = e - 1
            m2 = tuple(m2)
            out[m2] = out.get(m2, 0) + c * e
        return MultiPoly(self.arity, out)

    def eval(self, point: Sequence):
        """Evaluate at a point; exact when the coefficients and point are rational.

        Raises DomainError if a coordinate is zero where a negative exponent
        requires its inverse.
        """
        pt = list(point)
        if len(pt) != self.arity:
            raise ValueError("point length must equal arity")
        exact = is_exact(self) and all(isinstance(v, (int, Fraction)) for v in pt)
        total = Fraction(0) if exact else 0
        for m, c in self.terms.items():
            term = c
            for e, v in zip(m, pt):
                if e == 0:
                    continue
                if v == 0:
                    if e < 0:
                        raise DomainError("zero coordinate raised to a negative power")
                    term = term * 0
                    break
                term = term * (v ** e if e > 0 else (Fraction(v) ** e if exact else v ** e))
            total = total + term
        return total

    def __repr__(self):  # compact: for debugging and error messages
        if not self.terms:
            return "MultiPoly(0)"
        parts = [f"{c}*x^{list(m)}" for m, c in sorted(self.terms.items())]
        return "MultiPoly(" + " + ".join(parts[:6]) + (" + ..." if len(parts) > 6 else "") + ")"


class TruncatedSeries(_Terms):
    """Power series truncated at a total-degree order.

    Exponents are nonnegative with total degree <= order.  Binary
    operations carry order = min of the operand orders.
    """

    __slots__ = _fields = ("arity", "order", "terms")
    _defaults = {"terms": {}}

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        self.terms = _clean(self.terms, self.arity, self.order)

    def _with_terms(self, terms: Dict[Exponent, object]) -> "TruncatedSeries":
        return TruncatedSeries(self.arity, self.order, terms)

    @classmethod
    def from_poly(cls, p: MultiPoly, order: int) -> "TruncatedSeries":
        if any(e < 0 for m in p.terms for e in m):
            raise ValueError("polynomial has negative exponents; not a power series")
        return cls(p.arity, order, dict(p.terms))

    @classmethod
    def const(cls, arity: int, value, order: int) -> "TruncatedSeries":
        return cls(arity, order, {(0,) * arity: value})

    def to_poly(self) -> MultiPoly:
        return MultiPoly(self.arity, dict(self.terms))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(self.arity, min(self.order, other.order),
                               _add_terms(self.terms, other.terms))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        order = min(self.order, other.order)
        return TruncatedSeries(self.arity, order, _mul_terms(self.terms, other.terms, order))

    def homogeneous_component(self, degree: int) -> MultiPoly:
        return MultiPoly(self.arity, {m: c for m, c in self.terms.items() if sum(m) == degree})

    def eval(self, point: Sequence):
        return self.to_poly().eval(point)

    def pow_real(self, alpha) -> "TruncatedSeries":
        """Raise to a real (or rational) power via the binomial series.

        Requires a nonzero constant term c; computes c^alpha * sum
        binom(alpha, n) u^n with u = self/c - 1.  Result is exact when the
        coefficients, alpha and c^alpha are rational (in particular for
        integer alpha); otherwise the constant prefactor is floating point.
        """
        c0 = self.constant_term()
        if c0 == 0:
            raise NonUnitError("series power needs a nonzero constant term")
        one = type(c0)(1)  # 1 in the field of the series
        if alpha == 0:
            return TruncatedSeries.const(self.arity, one, self.order)
        # c0^alpha: exact for integer alpha over rationals, and for fractional
        # alpha whenever the rational root is exact; floating otherwise
        if isinstance(alpha, int) or (isinstance(alpha, Fraction) and alpha.denominator == 1):
            lead = c0 ** int(alpha)
        elif is_exact(self) and isinstance(alpha, Fraction):
            root = _rational_root(c0, alpha.denominator)
            lead = root ** alpha.numerator if root is not None else float(c0) ** float(alpha)
        elif isinstance(c0, complex):
            lead = c0 ** complex(alpha)
        else:
            lead = float(c0) ** float(alpha)
        u = self.scale(one / c0) - TruncatedSeries.const(self.arity, one, self.order)
        # u has zero constant term, so u^n vanishes past n = order
        result = power = TruncatedSeries.const(self.arity, one, self.order)
        binoms = binomials(alpha, self.order)
        for n in range(1, self.order + 1):
            power = power * u
            if power.is_zero():
                break
            result = result + power.scale(binoms[n])
        return result.scale(lead)


def binomials(alpha, n: int) -> list:
    """binom(alpha, 0), ..., binom(alpha, n) by the running product; exact
    unless alpha is a float."""
    a = alpha if isinstance(alpha, float) else Fraction(alpha)
    out = [1.0 if isinstance(alpha, float) else Fraction(1)]
    for i in range(n):
        out.append(out[-1] * (a - i) / (i + 1))
    return out


def _int_nth_root(n: int, q: int) -> int:
    """Floor of the q-th root of a nonnegative integer."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // q)  # above the root; Newton descends to its floor
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x
        x = y


def _rational_root(x: Fraction, q: int):
    """x^(1/q) as an exact Fraction, or None when irrational."""
    if x < 0:
        return None
    n = _int_nth_root(x.numerator, q)
    d = _int_nth_root(x.denominator, q)
    if n ** q == x.numerator and d ** q == x.denominator:
        return Fraction(n, d)
    return None


def _graded_exponents(n: int, order: int) -> list:
    """Exponents in n variables of total degree <= order, by degree and within
    a degree in descending lexicographic order (this fixes the order of a
    series' terms, and so of float sums taken over them downstream)."""
    return sorted((ks for ks in product(range(order + 1), repeat=n) if sum(ks) <= order),
                  key=lambda ks: (sum(ks), [-k for k in ks]))


def log_compose_taylor(p: MultiPoly, center: Sequence, order: int) -> TruncatedSeries:
    """Taylor series of y -> p(Z_1 e^{y_1}, ..., Z_d e^{y_d}) around y = 0.

    Exact when p and the center Z are rational; otherwise every coefficient
    is in the center's field (float or complex) or p's, whichever is wider.
    Each monomial c X^m contributes c Z^m e^{m.y}, whose coefficient of y^a
    is written down in closed form: c Z^m prod_i m_i^a_i / a_i!.
    """
    Z = list(center)
    if len(Z) != p.arity:
        raise ValueError("center length must equal arity")
    if any(v == 0 for v in Z):
        raise DomainError("center must have nonzero coordinates")
    exact = is_exact(p) and all(isinstance(v, (int, Fraction)) for v in Z)
    terms: Dict[Exponent, object] = {}
    for m, c in p.terms.items():
        zm = c
        for e, v in zip(m, Z):
            if e == 0:
                continue
            zm = zm * (Fraction(v) ** e if exact else v ** e)
        active = [j for j in range(p.arity) if m[j] != 0]
        for ks in _graded_exponents(len(active), order):
            a = [0] * p.arity
            num = den = 1
            for j, k in zip(active, ks):
                a[j] = k
                num *= m[j] ** k
                den *= math.factorial(k)
            a = tuple(a)
            terms[a] = terms.get(a, 0) + zm * Fraction(num, den)
    if not exact:  # also the terms, like the constant one, that no float coordinate entered
        zero = 0j if any(isinstance(v, complex) for v in Z) else 0.0
        terms = {a: zero + c for a, c in terms.items()}
    return TruncatedSeries(p.arity, order, terms)
