"""Sparse multivariate Laurent polynomials and truncated power series.

Coefficients live in one of three scalar fields: exact rationals
(`fractions.Fraction`), double-precision reals, or complex doubles.
Arithmetic stays exact while all inputs are rational; a float or complex
coefficient (as in a spec with float coefficients or powers) moves the
result to that field.  Values are immutable after construction and all
operations are pure, so they can be shared freely between threads.

Representation: a polynomial is a map from exponent tuples (negative
entries allowed) to nonzero coefficients.  A truncated series is the same
map restricted to nonnegative exponents of total degree <= its order;
arithmetic truncates to the minimum order of the operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, Sequence, Tuple

Exponent = Tuple[int, ...]

FIELD_RATIONAL = "exact-rational"
FIELD_REAL = "real-float"
FIELD_COMPLEX = "complex-float"

_FIELD_RANK = {FIELD_RATIONAL: 0, FIELD_REAL: 1, FIELD_COMPLEX: 2}


class DomainError(ValueError):
    """Raised for evaluation at invalid points (zero to a negative power)."""


class NonUnitError(ValueError):
    """Raised when a series operation needs a nonzero constant term."""


def field_of_scalar(c) -> str:
    if isinstance(c, complex):
        return FIELD_COMPLEX
    if isinstance(c, float):
        return FIELD_REAL
    return FIELD_RATIONAL


def join_fields(*tags: str) -> str:
    return max(tags, key=_FIELD_RANK.__getitem__)


def _coerce(c, tag: str):
    if tag == FIELD_RATIONAL:
        return c if isinstance(c, Fraction) else Fraction(c)
    if tag == FIELD_REAL:
        return float(c)
    return complex(c)


def _is_zero(c) -> bool:
    return c == 0


@dataclass(frozen=True)
class MultiPoly:
    """Sparse Laurent polynomial: arity, {exponent tuple: coefficient}, field tag.

    Zero coefficients are never stored, so equality of term maps is
    equality of polynomials.
    """

    arity: int
    terms: Dict[Exponent, object] = field(default_factory=dict)
    field_tag: str = FIELD_RATIONAL

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be positive")
        clean = {}
        for m, c in self.terms.items():
            if len(m) != self.arity:
                raise ValueError(f"exponent {m} has wrong length for arity {self.arity}")
            c = _coerce(c, self.field_tag)
            if not _is_zero(c):
                clean[tuple(int(e) for e in m)] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int, field_tag: str = FIELD_RATIONAL) -> "MultiPoly":
        return cls(arity, {}, field_tag)

    @classmethod
    def const(cls, arity: int, value, field_tag: str | None = None) -> "MultiPoly":
        tag = field_tag or field_of_scalar(value)
        return cls(arity, {(0,) * arity: value}, tag)

    @classmethod
    def variable(cls, arity: int, idx: int, power: int = 1) -> "MultiPoly":
        e = [0] * arity
        e[idx] = power
        return cls(arity, {tuple(e): Fraction(1)})

    @classmethod
    def from_terms(cls, arity: int, items: Iterable[Tuple[Sequence[int], object]],
                   field_tag: str | None = None) -> "MultiPoly":
        terms: Dict[Exponent, object] = {}
        tag = field_tag
        for m, c in items:
            if tag is None:
                tag = field_of_scalar(c)
            else:
                tag = join_fields(tag, field_of_scalar(c))
        tag = tag or FIELD_RATIONAL
        for m, c in items:
            m = tuple(int(e) for e in m)
            terms[m] = terms.get(m, _coerce(0, tag)) + _coerce(c, tag)
        return cls(arity, terms, tag)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.arity, _coerce(0, self.field_tag))

    def min_exponents(self) -> Exponent:
        """Componentwise minimum exponent over the support (0 if empty)."""
        if not self.terms:
            return (0,) * self.arity
        return tuple(min(m[i] for m in self.terms) for i in range(self.arity))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def coeff(self, m: Sequence[int]):
        return self.terms.get(tuple(m), _coerce(0, self.field_tag))

    # -- arithmetic --------------------------------------------------------

    def _joined(self, other: "MultiPoly") -> str:
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return join_fields(self.field_tag, other.field_tag)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        tag = self._joined(other)
        out = {m: _coerce(c, tag) for m, c in self.terms.items()}
        for m, c in other.terms.items():
            out[m] = out.get(m, _coerce(0, tag)) + _coerce(c, tag)
        return MultiPoly(self.arity, out, tag)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.arity, {m: -c for m, c in self.terms.items()}, self.field_tag)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        tag = self._joined(other)
        out: Dict[Exponent, object] = {}
        for ma, ca in self.terms.items():
            ca = _coerce(ca, tag)
            for mb, cb in other.terms.items():
                m = tuple(a + b for a, b in zip(ma, mb))
                prod = ca * _coerce(cb, tag)
                if m in out:
                    out[m] = out[m] + prod
                else:
                    out[m] = prod
        return MultiPoly(self.arity, out, tag)

    def scale(self, c) -> "MultiPoly":
        tag = join_fields(self.field_tag, field_of_scalar(c))
        c = _coerce(c, tag)
        return MultiPoly(self.arity, {m: _coerce(v, tag) * c for m, v in self.terms.items()}, tag)

    def shift(self, monomial: Sequence[int]) -> "MultiPoly":
        """Multiply by the monomial X^monomial (integer exponents)."""
        mono = tuple(int(e) for e in monomial)
        return MultiPoly(self.arity,
                         {tuple(a + b for a, b in zip(m, mono)): c for m, c in self.terms.items()},
                         self.field_tag)

    def pow(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = MultiPoly.const(self.arity, 1, self.field_tag)
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
            add = c * e
            out[m2] = out.get(m2, _coerce(0, self.field_tag)) + add
        return MultiPoly(self.arity, out, self.field_tag)

    def eval(self, point: Sequence):
        """Evaluate at a point; exact when the field and point are rational.

        Raises DomainError if a coordinate is zero where a negative exponent
        requires its inverse.
        """
        pt = list(point)
        if len(pt) != self.arity:
            raise ValueError("point length must equal arity")
        exact = self.field_tag == FIELD_RATIONAL and all(
            isinstance(v, (int, Fraction)) for v in pt)
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


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series truncated at a total-degree order.

    Exponents are nonnegative with total degree <= order.  Binary
    operations carry order = min of the operand orders.
    """

    arity: int
    order: int
    terms: Dict[Exponent, object] = field(default_factory=dict)
    field_tag: str = FIELD_RATIONAL

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        clean = {}
        for m, c in self.terms.items():
            if len(m) != self.arity or any(e < 0 for e in m):
                raise ValueError(f"bad series exponent {m}")
            if sum(m) > self.order:
                continue
            c = _coerce(c, self.field_tag)
            if not _is_zero(c):
                clean[tuple(int(e) for e in m)] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def from_poly(cls, p: MultiPoly, order: int) -> "TruncatedSeries":
        if any(e < 0 for m in p.terms for e in m):
            raise ValueError("polynomial has negative exponents; not a power series")
        return cls(p.arity, order, dict(p.terms), p.field_tag)

    @classmethod
    def const(cls, arity: int, value, order: int, field_tag: str | None = None) -> "TruncatedSeries":
        tag = field_tag or field_of_scalar(value)
        return cls(arity, order, {(0,) * arity: value}, tag)

    def to_poly(self) -> MultiPoly:
        return MultiPoly(self.arity, dict(self.terms), self.field_tag)

    def coeff(self, m: Sequence[int]):
        return self.terms.get(tuple(m), _coerce(0, self.field_tag))

    def constant_term(self):
        return self.terms.get((0,) * self.arity, _coerce(0, self.field_tag))

    def is_zero(self) -> bool:
        return not self.terms

    def _joined(self, other: "TruncatedSeries"):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return min(self.order, other.order), join_fields(self.field_tag, other.field_tag)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order, tag = self._joined(other)
        out = {m: _coerce(c, tag) for m, c in self.terms.items() if sum(m) <= order}
        for m, c in other.terms.items():
            if sum(m) > order:
                continue
            out[m] = out.get(m, _coerce(0, tag)) + _coerce(c, tag)
        return TruncatedSeries(self.arity, order, out, tag)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.arity, self.order,
                               {m: -c for m, c in self.terms.items()}, self.field_tag)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order, tag = self._joined(other)
        out: Dict[Exponent, object] = {}
        for ma, ca in self.terms.items():
            da = sum(ma)
            if da > order:
                continue
            ca = _coerce(ca, tag)
            for mb, cb in other.terms.items():
                if da + sum(mb) > order:
                    continue
                m = tuple(a + b for a, b in zip(ma, mb))
                prod = ca * _coerce(cb, tag)
                if m in out:
                    out[m] = out[m] + prod
                else:
                    out[m] = prod
        return TruncatedSeries(self.arity, order, out, tag)

    def scale(self, c) -> "TruncatedSeries":
        tag = join_fields(self.field_tag, field_of_scalar(c))
        c = _coerce(c, tag)
        return TruncatedSeries(self.arity, self.order,
                               {m: _coerce(v, tag) * c for m, v in self.terms.items()}, tag)

    def homogeneous_component(self, degree: int) -> MultiPoly:
        return MultiPoly(self.arity,
                         {m: c for m, c in self.terms.items() if sum(m) == degree},
                         self.field_tag)

    def eval(self, point: Sequence):
        return self.to_poly().eval(point)

    def pow_real(self, alpha) -> "TruncatedSeries":
        """Raise to a real (or rational) power via the binomial series.

        Requires a nonzero constant term c; computes c^alpha * sum
        binom(alpha, n) u^n with u = self/c - 1.  Result is exact when the
        field, alpha and c^alpha are rational (in particular for integer
        alpha); otherwise the constant prefactor is floating point.
        """
        c0 = self.constant_term()
        if _is_zero(c0):
            raise NonUnitError("series power needs a nonzero constant term")
        if alpha == 0:
            return TruncatedSeries.const(self.arity, _coerce(1, self.field_tag), self.order,
                                         self.field_tag)
        # c0^alpha: exact for integer alpha over rationals, and for fractional
        # alpha whenever the rational root is exact; floating otherwise
        int_alpha = (isinstance(alpha, int) or
                     (isinstance(alpha, Fraction) and alpha.denominator == 1))
        if int_alpha:
            alpha_i = int(alpha)
            lead = Fraction(c0) ** alpha_i if self.field_tag == FIELD_RATIONAL else c0 ** alpha_i
        elif self.field_tag == FIELD_RATIONAL and isinstance(alpha, Fraction):
            root = _rational_root(Fraction(c0), alpha.denominator)
            if root is not None:
                lead = root ** alpha.numerator
            else:
                lead = float(c0) ** float(alpha)
        else:
            lead = complex(c0) ** complex(alpha) if self.field_tag == FIELD_COMPLEX \
                else float(c0) ** float(alpha)
        u = self.scale(_coerce(1, self.field_tag) / c0 if self.field_tag == FIELD_RATIONAL
                       else 1.0 / c0) - TruncatedSeries.const(self.arity, 1, self.order,
                                                              self.field_tag)
        # u has zero constant term, so u^n vanishes past n = order
        result = TruncatedSeries.const(self.arity, 1, self.order, self.field_tag)
        power = TruncatedSeries.const(self.arity, 1, self.order, self.field_tag)
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

    Exact (rational field) when p and the center Z are rational.  Each
    monomial c X^m contributes c Z^m e^{m.y}, whose coefficient of y^a is
    written down in closed form: c Z^m prod_i m_i^a_i / a_i!.
    """
    Z = list(center)
    if len(Z) != p.arity:
        raise ValueError("center length must equal arity")
    if any(v == 0 for v in Z):
        raise DomainError("center must have nonzero coordinates")
    exact = p.field_tag == FIELD_RATIONAL and all(isinstance(v, (int, Fraction)) for v in Z)
    tag = p.field_tag
    if not exact:
        tag = join_fields(tag, FIELD_COMPLEX if any(isinstance(v, complex) for v in Z)
                          else FIELD_REAL)
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
    return TruncatedSeries(p.arity, order, terms, tag)
