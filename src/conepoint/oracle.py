"""Brute-force coefficient extraction for quasirational functions.

The input is F = P * prod_j Q_j^(-s_j) together with a reference direction
u inside the series-convergence region (for ordinary power series u points
toward the negative orthant).  Coefficients are produced by a graded
dynamic program:

* all powers positive integers: the linear recurrence from D*f = P with
  D = prod Q_j^(s_j), solved level by level in the grading w = -u;
* any real power: the logarithmic-derivative recurrence
  D * d_i(g) = -A_i * g,   A_i = sum_j s_j (d_i Q_j) prod_{k != j} Q_k,
  for g = prod Q_j^(-s_j), solved coefficient by coefficient in graded
  order, then multiplied by the numerator.

Both recurrences are exact over the rationals, but the sweeps never build
a Fraction: denominators are cleared once and every coefficient is carried
as a scaled Python int (Bareiss's integer-preserving idea applied to the
graded recurrence).  The integer recurrence carries d0^(grade(m)+1) * f_m,
d0 being the constant term of D after clearing denominators; the real one
carries |m|! * C^|m| * g_m, C clearing the power and factor denominators,
which the binomial expansion of each unit-normalized factor to the power
-s shows to be an integer.  Each step of the real recurrence ends in one
exact division; a nonzero remainder raises ArithmeticError rather than
rounding.  Values become canonical Fractions once, when the table is built.
Float mode runs the same loops on unscaled doubles.

Factors with non-unit constant terms and fractional powers contribute an
overall scalar prod c_j^(-s_j) which is kept separate from the rational
table (it is the only possibly irrational quantity in the computation).

Tables may be restricted to a box of target indices; the sweep then clips
each graded level to the dependency closure of the box, which is what
makes single-coefficient queries at large total degree cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import add, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .polyseries import FIELD_RATIONAL, FIELD_REAL, MultiPoly, TruncatedSeries

Exponent = Tuple[int, ...]


class SpecError(ValueError):
    """Raised for structurally invalid quasirational specs."""


class NotNormalizedError(SpecError):
    """Raised when a factor lacks the unit term the recurrence pivots on."""


@dataclass(frozen=True)
class QuasiRationalSpec:
    """F = numerator * prod_j factor_j ^ (-power_j).

    cone_direction_u is a reference direction interior to the
    series-convergence component (componentwise <= 0, e.g. (-1,...,-1) for
    an ordinary power series).  laurent_shift records monomial
    normalization: coefficients of the original function at r equal this
    spec's coefficients at r + laurent_shift.
    """

    arity: int
    numerator: MultiPoly
    factors: Tuple[Tuple[MultiPoly, object], ...]
    cone_direction_u: Tuple[object, ...]
    laurent_shift: Tuple[int, ...] = None
    name: str = ""

    def __post_init__(self):
        if self.numerator.arity != self.arity:
            raise SpecError("numerator arity mismatch")
        facs = []
        for poly, power in self.factors:
            if poly.arity != self.arity:
                raise SpecError("factor arity mismatch")
            if poly.is_zero():
                raise SpecError("zero polynomial factor")
            if power == 0:
                raise SpecError("factor powers must be nonzero")
            facs.append((poly, power))
        object.__setattr__(self, "factors", tuple(facs))
        object.__setattr__(self, "cone_direction_u", tuple(self.cone_direction_u))
        if self.laurent_shift is None:
            object.__setattr__(self, "laurent_shift", (0,) * self.arity)
        else:
            object.__setattr__(self, "laurent_shift", tuple(int(e) for e in self.laurent_shift))

    def all_integer_powers(self) -> bool:
        return all(_as_int(p) is not None and _as_int(p) > 0 for _, p in self.factors)


def _as_int(power) -> Optional[int]:
    if isinstance(power, int):
        return power
    if isinstance(power, Fraction) and power.denominator == 1:
        return power.numerator
    if isinstance(power, float) and power.is_integer():
        return int(power)
    return None


def grading_vector(u: Sequence, arity: int) -> Tuple[int, ...]:
    """Primitive integer grading w proportional to -u (u componentwise <= 0)."""
    if len(u) != arity:
        raise SpecError("cone direction length mismatch")
    fr = [Fraction(x).limit_denominator(10 ** 9) if isinstance(x, float) else Fraction(x)
          for x in u]
    if any(x > 0 for x in fr) or all(x == 0 for x in fr):
        raise SpecError("cone direction must be nonzero with componentwise <= 0 entries")
    den = math.lcm(*(x.denominator for x in fr))
    ints = [int(-x * den) for x in fr]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def normalize_laurent(spec: QuasiRationalSpec) -> QuasiRationalSpec:
    """Clear negative exponents factor by factor with minimal monomials.

    Each factor (and the numerator) is multiplied by the smallest monomial
    making its exponents nonnegative; the accumulated monomial is recorded
    in laurent_shift so that original coefficients at r are the normalized
    spec's coefficients at r + laurent_shift.  A factor that needs a shift
    while carrying a non-integer power is rejected (the shifted spec would
    not be quasirational).
    """
    kappa = [0] * spec.arity
    new_factors = []
    for poly, power in spec.factors:
        lo = poly.min_exponents()
        sigma = tuple(max(0, -e) for e in lo)
        if any(sigma):
            n = _as_int(power)
            if n is None:
                raise SpecError("fractional power on a factor with negative exponents "
                                "is unsupported")
            for i in range(spec.arity):
                kappa[i] -= n * sigma[i]
            poly = poly.shift(sigma)
        new_factors.append((poly, power))
    lo = spec.numerator.min_exponents()
    sigma_p = tuple(max(0, -e) for e in lo)
    numer = spec.numerator
    if any(sigma_p):
        numer = numer.shift(sigma_p)
        for i in range(spec.arity):
            kappa[i] += sigma_p[i]
    shift = tuple(k + s for k, s in zip(kappa, spec.laurent_shift))
    return replace(spec, numerator=numer, factors=tuple(new_factors), laurent_shift=shift)


@dataclass
class CoeffTable:
    """Graded coefficient table: values[r] * scale is the series coefficient.

    values holds exact rationals (or floats when the sweep ran in float
    mode); scale is the only possibly irrational part, coming from
    fractional powers of non-unit constant terms.  A table is complete for
    every index r with 0 <= grading_w . r <= max_level (for expand_box, every
    such index inside the box).
    """

    arity: int
    values: Dict[Exponent, object]
    grading_w: Tuple[int, ...]
    max_level: int
    scale: object = Fraction(1)

    def value_at(self, r: Sequence[int]):
        v = self.values.get(tuple(r))
        if v is None:
            return Fraction(0) if isinstance(self.scale, Fraction) else 0.0
        return self.scale * v

    def bounds(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        if not self.values:
            z = (0,) * self.arity
            return z, z
        lo = tuple(min(m[i] for m in self.values) for i in range(self.arity))
        hi = tuple(max(m[i] for m in self.values) for i in range(self.arity))
        return lo, hi

    def nonzero_items(self):
        return self.values.items()


def _grade_of(m: Exponent, w: Tuple[int, ...]) -> int:
    return sum(a * b for a, b in zip(m, w))


def _split_by_grade(p: MultiPoly, w: Tuple[int, ...]) -> Dict[int, Dict[Exponent, object]]:
    out: Dict[int, Dict[Exponent, object]] = {}
    for m, c in p.terms.items():
        out.setdefault(_grade_of(m, w), {})[m] = c
    return out


def _check_graded_unit(D: MultiPoly, w: Tuple[int, ...]):
    zero = (0,) * D.arity
    for m in D.terms:
        g = _grade_of(m, w)
        if g < 0:
            raise SpecError(f"factor term {m} has negative grade for direction {w}")
        if g == 0 and m != zero:
            raise SpecError(f"factor term {m} shares grade 0 with the constant; "
                            "the grading direction does not order the spec")
    if zero not in D.terms:
        raise NotNormalizedError("factor product has zero constant term")


class _BoxClip:
    """Per-level dependency-closure clip around a target box."""

    def __init__(self, lo, hi, generators, max_level):
        self.lo, self.hi = tuple(lo), tuple(hi)
        d = len(lo)
        self.up = [0] * d
        self.down = [0] * d
        for u in generators:
            for i in range(d):
                self.up[i] = max(self.up[i], u[i])
                self.down[i] = max(self.down[i], -u[i])
        self.max_level = max_level

    def keep(self, m: Exponent, level: int) -> bool:
        slack = self.max_level - level
        for i, e in enumerate(m):
            if e < self.lo[i] - slack * self.up[i]:
                return False
            if e > self.hi[i] + slack * self.down[i]:
                return False
        return True


def _denominator_lcm(*polys: MultiPoly) -> int:
    return math.lcm(*(c.denominator for p in polys for c in p.terms.values()))


def _lifted(c, L: int, k: int, C: Optional[int], top: int) -> List[object]:
    """L c n!/(n-k)! C^k for n = 0..top, as ints: the coefficient of a
    dependency k degrees down in the scaled real recurrence (c itself when
    C is None)."""
    if C is None:
        return [c] * (top + 1)
    ck = int(c * L) * C ** k
    return [ck * math.perm(n, k) for n in range(top + 1)]


def _sweep_integer(numer: MultiPoly, D: MultiPoly, w: Tuple[int, ...], max_level: int,
                   clip: Optional[_BoxClip]) -> Dict[Exponent, object]:
    """Solve D * f = numer level by level in the grading w.

    Exact inputs run on ints: with L clearing the denominators of D and
    numer and d0 = L*D[0], the sweep carries G_m = d0^(g+1) f_m (g the grade
    of m) through G_m = d0^g L P_m - sum_u L c_u d0^(grade(u)-1) G_{m-u}.
    """
    _check_graded_unit(D, w)
    zero = (0,) * D.arity
    d0 = D.terms[zero]
    gens = [(m, c) for m, c in D.terms.items() if m != zero]
    p_levels = _split_by_grade(numer, w)
    if any(g < 0 for g in p_levels):
        raise SpecError("numerator has negative grade in the chosen direction")
    exact = D.field_tag == numer.field_tag == FIELD_RATIONAL
    div = None if exact or d0 == 1 else d0
    if exact:
        L = _denominator_lcm(D, numer)
        d0 = int(d0 * L)
        # generators may sit above max_level; the table needs d0^(grade(u)-1)
        top = max([max_level + 1] + [_grade_of(u, w) for u, _ in gens])
        d0_pow = [1]
        for _ in range(top):
            d0_pow.append(d0_pow[-1] * d0)
        gens = [(u, int(c * L) * d0_pow[_grade_of(u, w) - 1]) for u, c in gens]
        p_levels = {g: {m: int(c * L) * d0_pow[g] for m, c in terms.items()}
                    for g, terms in p_levels.items() if g <= max_level}

    table: Dict[Exponent, object] = {}
    support: List[List[Exponent]] = [[] for _ in range(max_level + 1)]
    for level in range(max_level + 1):
        cand = set(p_levels.get(level, ()))
        for u, _ in gens:
            gl = level - _grade_of(u, w)
            if gl >= 0:
                for m in support[gl]:
                    cand.add(tuple(map(add, m, u)))
        plevel = p_levels.get(level, {})
        for m in cand:
            if clip is not None and not clip.keep(m, level):
                continue
            val = plevel.get(m, 0)
            for u, cu in gens:
                prev = table.get(tuple(map(sub, m, u)))
                if prev is not None:
                    val = val - cu * prev
            if val:
                if div is not None:
                    val = val / div
                table[m] = val
                support[level].append(m)
    if exact:
        for m, val in table.items():
            table[m] = Fraction(val, d0_pow[_grade_of(m, w) + 1])
    return table


def _sweep_real(D: MultiPoly, A: List[MultiPoly], w: Tuple[int, ...], max_level: int,
                clip: Optional[_BoxClip], C: Optional[int]) -> Dict[Exponent, object]:
    """Solve D * d_i(g) = -A_i * g for g with g(0) = 1, graded by w.

    Requires strictly positive w and orthant-supported D, A_i (arranged by
    the caller); then every dependency of a grade-l coefficient lies at a
    strictly smaller grade.  With an integer C the result holds the ints
    N_m = n! C^n g_m, n = |m|: with L clearing the denominators of D and
    the A_i, m_i L N_m is an integer combination of lower N's, each lifted
    by n!/n'! C^(n-n'), and the division by m_i L must be exact.  With C
    None the coefficients are used as given (float mode).
    """
    arity = D.arity
    zero = (0,) * arity
    if D.terms.get(zero) != 1:
        raise NotNormalizedError("real-power recurrence needs unit constant terms")
    if any(wi < 1 for wi in w):
        raise SpecError("real powers need a strictly negative cone direction "
                        "(every variable graded)")
    gens = set(m for m in D.terms if m != zero)
    unit = [tuple(int(i == j) for i in range(arity)) for j in range(arity)]
    for i, Ai in enumerate(A):
        for m in Ai.terms:
            gens.add(tuple(a + b for a, b in zip(m, unit[i])))
    gens.discard(zero)
    L = _denominator_lcm(D, *A) if C is not None else 1
    # n = |m| <= grade(m) <= max_level because every w_i >= 1
    d_gens = [(m, _lifted(c, L, sum(m), C, max_level))
              for m, c in D.terms.items() if m != zero]
    a_terms = [[(tuple(map(add, u, unit[i])), _lifted(c, L, sum(u) + 1, C, max_level))
                for u, c in Ai.terms.items()] for i, Ai in enumerate(A)]

    one = 1 if C is not None else (Fraction(1) if D.field_tag == FIELD_RATIONAL else 1.0)
    table: Dict[Exponent, object] = {zero: one}
    support: List[List[Exponent]] = [[] for _ in range(max_level + 1)]
    support[0].append(zero)
    for level in range(1, max_level + 1):
        cand = set()
        for u in gens:
            gl = level - _grade_of(u, w)
            if gl >= 0:
                for m in support[gl]:
                    cand.add(tuple(map(add, m, u)))
        for m in cand:
            if any(e < 0 for e in m):
                continue
            if clip is not None and not clip.keep(m, level):
                continue
            i = max(range(arity), key=m.__getitem__)
            mi = m[i]
            n = sum(m)
            val = 0
            for u, cu in a_terms[i]:
                prev = table.get(tuple(map(sub, m, u)))
                if prev is not None:
                    val = val - cu[n] * prev
            for u, cu in d_gens:
                prev = table.get(tuple(map(sub, m, u)))
                if prev is not None:
                    val = val - cu[n] * (mi - u[i]) * prev
            if val:
                if C is None:
                    val = val / mi
                else:
                    val, rem = divmod(val, mi * L)
                    if rem:
                        raise ArithmeticError(f"scaled coefficient at {m} is not an integer")
                table[m] = val
                support[level].append(m)
    return table


def _multiply_numerator(table: Dict[Exponent, object], numer: MultiPoly,
                        w: Tuple[int, ...], max_level: int,
                        clip: Optional[_BoxClip], C: Optional[int]) -> Dict[Exponent, object]:
    """numer times the plain-series table from _sweep_real (same C); empties
    `table` once the product is built.

    With an integer C, the product at key is carried at the common scale
    Lp T! C^T, T = |key| - min|p| and Lp clearing the numerator's
    denominators, and converted to a Fraction at the end.
    """
    pmin = min((sum(p) for p in numer.terms), default=0)
    Lp = _denominator_lcm(numer) if C is not None else 1
    top = max(sum(m) for m in table)
    out: Dict[Exponent, object] = {}
    for p, cp in numer.terms.items():
        gp = _grade_of(p, w)
        dp = sum(p) - pmin
        # the coefficient of N_m, indexed by |m|: Lp cp (|m|+dp)!/|m|! C^dp
        lift = _lifted(cp, Lp, dp, C, top + dp)[dp:]
        for m, cm in table.items():
            g = gp + _grade_of(m, w)
            if g > max_level:
                continue
            key = tuple(map(add, p, m))
            if clip is not None and not clip.keep(key, g):
                continue
            term = lift[sum(m)] * cm
            if key in out:
                out[key] = out[key] + term
            else:
                out[key] = term
    table.clear()
    for key in [key for key, c in out.items() if not c]:
        del out[key]
    if C is not None:
        dens = [Lp]
        for T in range(1, max((sum(k) - pmin for k in out), default=0) + 1):
            dens.append(dens[-1] * T * C)
        for key, c in out.items():
            out[key] = Fraction(c, dens[sum(key) - pmin])
    return out


def _prepare_real(spec: QuasiRationalSpec, float_mode: bool):
    """Unit-normalize factors; return (D, A_list, scale, C).

    C = lcm(power denominators) * lcm(unit-normalized coefficient
    denominators) makes |m|! C^|m| g_m an integer, since the coefficient of
    R^k in (1 + R)^(-p/q), times k! q^k, is one.  C is None when some
    coefficient or power is not rational (float mode included).
    """
    arity = spec.arity
    zero = (0,) * arity
    scale = Fraction(1)
    float_scale = 1.0
    scale_exact = True
    hats = []
    powers = []
    for poly, power in spec.factors:
        if any(e < 0 for m in poly.terms for e in m):
            raise NotNormalizedError("real-power factors must have nonnegative exponents; "
                                     "run normalize_laurent first")
        c = poly.terms.get(zero)
        if c is None:
            raise NotNormalizedError("zero constant term in a factor")
        s = Fraction(power) if not isinstance(power, float) else power
        if c != 1:
            n = _as_int(power)
            if n is not None:
                scale = scale * Fraction(c) ** (-n)
            else:
                scale_exact = False
                float_scale *= float(c) ** (-float(s))
            poly = poly.scale(Fraction(1, 1) / Fraction(c))
        hats.append(poly)
        powers.append(s)
    C = None
    if not float_mode and all(isinstance(s, Fraction) for s in powers) and all(
            p.field_tag == FIELD_RATIONAL for p in (spec.numerator, *hats)):
        C = math.lcm(*(s.denominator for s in powers)) * _denominator_lcm(*hats)
    D = MultiPoly.const(arity, 1)
    for h in hats:
        D = D * h
    A = []
    for i in range(arity):
        Ai = MultiPoly.zero(arity)
        for j, h in enumerate(hats):
            term = h.diff(i)
            for k, other in enumerate(hats):
                if k != j:
                    term = term * other
            Ai = Ai + term.scale(powers[j])
        A.append(Ai)
    total_scale = scale if scale_exact else float(scale) * float_scale
    if float_mode:
        D = D.to_field(FIELD_REAL)
        A = [a.to_field(FIELD_REAL) for a in A]
        total_scale = float(total_scale)
    return D, A, total_scale, C


def _run(spec: QuasiRationalSpec, max_level: int,
         box: Optional[Tuple[Sequence[int], Sequence[int]]], float_mode: bool,
         engine: str = "auto") -> CoeffTable:
    w = grading_vector(spec.cone_direction_u, spec.arity)
    numer = spec.numerator.to_field(FIELD_REAL) if float_mode else spec.numerator
    use_integer = spec.all_integer_powers() if engine == "auto" else engine == "integer"
    if use_integer and not spec.all_integer_powers():
        raise SpecError("integer engine requires positive integer powers")
    if use_integer:
        D = MultiPoly.const(spec.arity, 1)
        for poly, power in spec.factors:
            D = D * poly.pow(_as_int(power))
        if float_mode:
            D = D.to_field(FIELD_REAL)
        clip = None
        if box is not None:
            gens = [m for m in D.terms if any(m)] + list(numer.terms)
            clip = _BoxClip(box[0], box[1], gens, max_level)
        values = _sweep_integer(numer, D, w, max_level, clip)
        scale = Fraction(1) if not float_mode else 1.0
    else:
        D, A, scale, C = _prepare_real(spec, float_mode)
        _check_graded_unit(D, w)
        numer_lo = numer.min_exponents()
        clip = hclip = None
        if box is not None:
            # the plain-series table must reach box minus the numerator support
            hi = tuple(b - l for b, l in zip(box[1], numer_lo))
            lo = tuple(0 for _ in range(spec.arity))
            hclip = _BoxClip(lo, hi, list(D.terms), max_level)
            clip = _BoxClip(box[0], box[1], [], max_level)
        values = _multiply_numerator(_sweep_real(D, A, w, max_level, hclip, C),
                                     numer, w, max_level, clip, C)
    return CoeffTable(spec.arity, values, w, max_level, scale)


def expand(spec: QuasiRationalSpec, order: int, float_mode: bool = False,
           engine: str = "auto") -> CoeffTable:
    """All series coefficients with grade(r) <= order (total degree for
    ordinary power series).

    engine: "auto" picks the linear recurrence for all-integer powers and
    the logarithmic-derivative recurrence otherwise; "integer" / "real"
    force one (the two must agree exactly where both apply).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _run(spec, order, None, float_mode, engine)


def expand_box(spec: QuasiRationalSpec, lo: Sequence[int], hi: Sequence[int],
               float_mode: bool = False) -> CoeffTable:
    """Coefficients covering the index box [lo, hi], computing only the
    graded slices the box depends on."""
    w = grading_vector(spec.cone_direction_u, spec.arity)
    corners = []
    for mask in range(1 << spec.arity):
        corners.append(tuple(hi[i] if mask >> i & 1 else lo[i] for i in range(spec.arity)))
    max_level = max(_grade_of(c, w) for c in corners)
    return _run(spec, max(0, max_level), (lo, hi), float_mode)


def coefficient_at(spec: QuasiRationalSpec, r: Sequence[int], float_mode: bool = False):
    """The single coefficient a_r (0 outside the computed support)."""
    r = tuple(int(e) for e in r)
    w = grading_vector(spec.cone_direction_u, spec.arity)
    if _grade_of(r, w) < 0:
        return Fraction(0) if not float_mode else 0.0
    table = expand_box(spec, r, r, float_mode)
    return table.value_at(r)


def empirical_decay(spec: QuasiRationalSpec, direction: Sequence, t_values: Sequence[int],
                    float_mode: bool = False) -> List[Tuple[int, float]]:
    """Normalized log-magnitudes log|a_{t*direction}| / t along a ray.

    Zero coefficients report -inf.  Used to classify exponential decay
    against polynomial decay empirically.
    """
    direction = [Fraction(x).limit_denominator(10 ** 9) if isinstance(x, float) else Fraction(x)
                 for x in direction]
    targets = []
    for t in t_values:
        rt = [direction[i] * t for i in range(spec.arity)]
        if any(x.denominator != 1 for x in rt):
            raise ValueError(f"t*direction is not integral at t={t}")
        targets.append(tuple(int(x) for x in rt))
    lo = tuple(min(0, min(tg[i] for tg in targets)) for i in range(spec.arity))
    hi = tuple(max(0, max(tg[i] for tg in targets)) for i in range(spec.arity))
    table = expand_box(spec, lo, hi, float_mode)
    out = []
    for t, rt in zip(t_values, targets):
        a = table.value_at(rt)
        mag = abs(float(a)) if not isinstance(a, complex) else abs(a)
        out.append((t, math.log(mag) / t if mag > 0 else float("-inf")))
    return out


def naive_series(spec: QuasiRationalSpec, order: int) -> TruncatedSeries:
    """Independent slow path: truncated-series inversion via binomial powers.

    Only valid for orthant-supported specs; used to cross-check the graded
    recurrences term by term.
    """
    total = TruncatedSeries.from_poly(spec.numerator, order)
    for poly, power in spec.factors:
        s = -Fraction(power) if not isinstance(power, float) else -power
        total = total * TruncatedSeries.from_poly(poly, order).pow_real(s)
    return total
