"""Brute-force coefficient extraction for quasirational functions.

The input is F = P * prod_j Q_j^(-s_j) together with a reference direction
u inside the series-convergence region (for ordinary power series u points
toward the negative orthant).  Coefficients are produced by a graded
dynamic program:

* all powers positive integers: the linear recurrence from D*f = P with
  D = prod Q_j^(s_j), solved level by level in the grading w = -u;
* any real power: the Euler-operator recurrence
  D * E(g) = -A * g,   A = sum_j s_j E(Q_j) prod_{k != j} Q_k,
  for g = prod Q_j^(-s_j), E = sum_i w_i x_i d_i multiplying a monomial by
  its grade; solved level by level in the same grading, then multiplied by
  the numerator.

Each level of a sweep is a slab: one flat Python list over every
coordinate but one, which the level implies, laid out in a box that all
levels share and padded by the largest generator reach.  A generator is
then a constant index offset with one coefficient per level, and it
updates a row of a level with one list comprehension over a shifted slice
of a lower level (_fill, shared by every sweep).  Only the levels a
generator reaches back to stay alive.

Both recurrences are exact over the rationals, but the sweeps never build
a Fraction: denominators are cleared once and every coefficient is carried
as a scaled Python int (Bareiss's integer-preserving idea applied to the
graded recurrence).  The integer recurrence carries d0^(grade(m)+1) * f_m,
d0 being the constant term of D after clearing denominators; the real one
carries n! * C^n * g_m (n the grade of m), C clearing the power and factor
denominators, which the binomial expansion of each unit-normalized factor
to the power -s shows to be an integer: a cell of grade n takes at most n
factors of Q - 1.  Each step of the real recurrence ends in one exact
division by n * L; a nonzero remainder raises ArithmeticError rather than
rounding.  The table keeps those ints with one denominator per level, and a
value becomes a canonical Fraction only where it is read.  Specs with float
coefficients or powers run the same loops on unscaled doubles.

Factors with non-unit constant terms and fractional powers contribute an
overall scalar prod c_j^(-s_j) which is kept separate from the rational
table (it is the only possibly irrational quantity in the computation).

Tables may be restricted to a box of target indices.  Each level then
keeps one rectangle, the dependency closure of the box (the box widened by
the remaining levels times the generators' reach) cut to the bounding box
of the cells that level can reach; its other cells stay 0.  This is what
makes single-coefficient queries at large total degree cheap.

The spec type (`QuasiRationalSpec`) and its errors live in `spec`, which the
prediction commands read without loading this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice, product
from operator import add, le, mul, sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .polyseries import MultiPoly, Record, is_exact
from .spec import NotNormalizedError, QuasiRationalSpec, SpecError, _as_int

Exponent = Tuple[int, ...]
Runs = Dict[int, Tuple[Optional[int], int]]  # level -> (denominator, cell count)


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


class CoeffTable(Record):
    """Graded coefficient table: value_at(r) is the series coefficient at r.

    The sweeps hand over their cells as computed: cells maps each nonzero
    index, level by level, to a scaled int, and runs holds one
    (denominator, cell count) pair per level, keyed by the level, in the
    same order; the value before scale is the int over its level's
    denominator.  A denominator of None means the cells are the values
    themselves, as specs with inexact coefficients or powers compute them.
    A value becomes a canonical Fraction only where it is read: value_at
    builds one, and each read of values builds a new dict of them, so the
    table never changes after the sweep; the printers in specio read the
    cells and runs and build none unless scale is complex.  scale is the
    only possibly irrational part, coming from fractional powers of non-unit
    constant terms.  A table is complete for every index r with
    0 <= grading_w . r <= max_level (for expand_box, every such index
    inside the box).
    """

    __slots__ = _fields = ("arity", "cells", "runs", "grading_w", "max_level", "scale")
    _defaults = {"scale": Fraction(1)}

    def value_at(self, r: Sequence[int]):
        m = tuple(r)
        x = self.cells.get(m)
        if x is None:
            return Fraction(0) if isinstance(self.scale, Fraction) else 0.0
        den = self.runs[_grade_of(m, self.grading_w)][0]
        v = x if den is None else Fraction(x, den)
        return v if self.scale == 1 else self.scale * v

    @property
    def values(self) -> Dict[Exponent, object]:
        """A new dict of the cells as values before scale, in cell order."""
        items = iter(self.cells.items())
        return {m: x if den is None else Fraction(x, den)
                for den, n in self.runs.values() for m, x in islice(items, n)}

    def bounds(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        axes = list(zip(*self.cells)) or [(0,)] * self.arity
        return tuple(map(min, axes)), tuple(map(max, axes))


def format_value(v, float_digits: Optional[int] = None) -> str:
    """One coefficient as the CLI prints it: an exact value as num/den (num
    alone when integral), a float or complex one in its shortest repr or to
    float_digits significant digits."""
    if isinstance(v, Fraction) and float_digits is None:
        return str(v)
    spec = "" if float_digits is None else f".{float_digits}g"  # "": the shortest repr
    if isinstance(v, complex):
        return f"{v.real:{spec}}{v.imag:+{spec}}j"
    return f"{float(v):{spec}}"


def _grade_of(m: Exponent, w: Tuple[int, ...]) -> int:
    return sum(a * b for a, b in zip(m, w))


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


def _narrow(a: int, b: int, c: int, base: int, lo: int, hi: int) -> Tuple[int, int]:
    """The integers t in [a, b] with lo <= base + c*t <= hi, as (a', b')."""
    if c < 0:
        c, base, lo, hi = -c, -base, -hi, -lo
    if c == 0:
        return (a, b) if lo <= base <= hi else (1, 0)
    return max(a, -((base - lo) // c)), min(b, (hi - base) // c)


class _Slabs:
    """The flat layout that all graded levels of one sweep share.

    Level l holds the cells m with v . m = l.  The level implies the last
    sweep axis, so a level is one flat list over the other axes, padded by
    the largest shift a cell reads at: m - u sits at index(m) - off(u).
    Sweeps fill the rows of each level's clip rectangle and leave every
    other entry 0.  The sweep axes move the last coordinate of least
    positive weight last; arity 1 gets a leading zero axis.
    """

    def __init__(self, v: Sequence[int], boxes, shifts):
        d = len(v)
        k = max((i for i in range(d) if v[i] > 0), key=lambda i: (-v[i], i))
        self.axes = (None,) * (d == 1) + tuple(i for i in range(d) if i != k) + (k,)
        self.pos = [self.axes.index(i) for i in range(d)]
        self.moved = self.axes != tuple(range(d))
        self.v = self.sweep(v)
        boxes = [(self.sweep(lo), self.sweep(hi)) for lo, hi in boxes]
        shifts = [self.sweep(u) for u in shifts] + [self.sweep((0,) * d)]
        origin = [min(b[0][s] for b in boxes) - max(u[s] for u in shifts)
                  for s in range(len(self.axes) - 1)]
        width = [max(b[1][s] for b in boxes) - min(u[s] for u in shifts) - o + 1
                 for s, o in enumerate(origin)]
        self.stride = [math.prod(width[s + 1:]) for s in range(len(width))]
        self.size = math.prod(width)
        self.base = sum(map(mul, origin, self.stride))

    def sweep(self, m: Sequence[int]) -> Exponent:
        return tuple(0 if a is None else m[a] for a in self.axes)

    def index(self, m: Sequence[int], swept: bool = False) -> int:
        return sum(map(mul, m if swept else self.sweep(m), self.stride)) - self.base

    def off(self, u: Sequence[int]) -> int:
        return self.index(u) + self.base

    def rows(self, level: int, lo, hi):
        """(start, a, b, outer, rem) for each row of the level's rectangle
        [lo, hi]: the cells (*outer, t, (rem - v_j t) / v_k), t = a..b, sit
        at start + t - a."""
        lo, hi = self.sweep(lo), self.sweep(hi)
        *vo, vj, vk = self.v
        for outer in product(*map(range, lo[:-2], [h + 1 for h in hi[:-2]])):
            rem = level - sum(map(mul, vo, outer))
            a, b = _narrow(lo[-2], hi[-2], -vj, rem, vk * lo[-1], vk * hi[-1])
            if a <= b:
                yield self.index((*outer, a), True), a, b, outer, rem

    def cells(self, row: List[object], a: int, outer, rem: int):
        """(spec index, value) of each nonzero cell of a row from t = a."""
        vj, vk = self.v[-2:]
        out = [((*outer, t, (rem - vj * t) // vk), x) for t, x in enumerate(row, a) if x]
        if self.moved:
            out = [(tuple(m[p] for p in self.pos), x) for m, x in out]
        return out


def _hulls(levels: Sequence[int], seeds, steps, source=None, clip=None):
    """The bounding box of each level's cells, built in level order: the
    cells seeds[l] and source[l - k] + u for each step (u, k), source being
    the boxes built so far unless given.  A clip (lo, hi, up, down, top)
    cuts level l to lo - s*up .. hi + s*down, s = top - l."""
    rects = {}
    for l in levels:
        boxes = [(m, m) for m in seeds.get(l, ())]
        boxes += [(tuple(map(add, r[0], u)), tuple(map(add, r[1], u)))
                  for u, k in steps for r in [(rects if source is None else source).get(l - k)]
                  if r]
        if boxes:
            lo = [min(x) for x in zip(*(b[0] for b in boxes))]
            hi = [max(x) for x in zip(*(b[1] for b in boxes))]
            if clip:
                clo, chi, up, down, top = clip
                lo = [max(x, c - (top - l) * e) for x, c, e in zip(lo, clo, up)]
                hi = [min(x, c + (top - l) * e) for x, c, e in zip(hi, chi, down)]
            if all(map(le, lo, hi)):
                rects[l] = (lo, hi)
    return rects


def _fill(row: List[object], i0: int, deps) -> List[object]:
    """row, the cells of a level from index i0 on, plus c times the cells
    that each dependency (off, c, prev) reads: index i reads prev at i - off."""
    i1 = i0 + len(row)
    for off, c, prev in deps:
        row = [x + c * y if y else x for x, y in zip(row, prev[i0 - off:i1 - off])]
    return row


def _denominator_lcm(*polys: MultiPoly) -> int:
    return math.lcm(*(c.denominator for p in polys for c in p.terms.values()))


def _sweep_integer(numer: MultiPoly, D: MultiPoly, w: Tuple[int, ...], max_level: int,
                   box: Optional[Tuple[Sequence[int], Sequence[int]]]):
    """Solve D * f = numer level by level in the grading w; returns the
    cells and runs of a CoeffTable.

    Exact inputs run on ints: with L clearing the denominators of D and
    numer and d0 = L*D[0], the sweep carries G_m = d0^(g+1) f_m (g the grade
    of m) through G_m = d0^g L P_m - sum_u L c_u d0^(grade(u)-1) G_{m-u}.
    With a box, level g keeps lo - s*up .. hi + s*down, s = max_level - g,
    up/down being the largest reach of a generator or numerator term along
    each axis: the dependency closure of the box.  D has a constant term
    and every other term a positive grade (checked by _plan).
    """
    zero = (0,) * D.arity
    d0 = D.terms[zero]
    gens = [(m, c) for m, c in D.terms.items() if m != zero]
    p_levels: Dict[int, Dict[Exponent, object]] = {}
    for m, c in numer.terms.items():
        p_levels.setdefault(_grade_of(m, w), {})[m] = c
    exact = is_exact(D) and is_exact(numer)
    div = None if exact or d0 == 1 else d0
    if exact:
        L = _denominator_lcm(D, numer)
        d0 = int(d0 * L)
        # generators may sit above max_level; the table needs d0^(grade(u)-1)
        top = max([max_level + 1] + [_grade_of(u, w) for u, _ in gens])
        d0_pow = [d0 ** g for g in range(top + 1)]
        gens = [(u, int(c * L) * d0_pow[_grade_of(u, w) - 1]) for u, c in gens]
        p_levels = {g: {m: int(c * L) * d0_pow[g] for m, c in terms.items()}
                    for g, terms in p_levels.items() if g <= max_level}
    steps = [(u, _grade_of(u, w)) for u, _ in gens]
    clip = None
    if box is not None:
        shifts = [u for u, _ in gens] + list(numer.terms)
        up = [max([0] + [u[i] for u in shifts]) for i in range(D.arity)]
        down = [max([0] + [-u[i] for u in shifts]) for i in range(D.arity)]
        clip = (box[0], box[1], up, down, max_level)
    rects = _hulls(range(max_level + 1), p_levels, steps, clip=clip)
    if not rects:
        return {}, {}
    lay = _Slabs(w, rects.values(), [u for u, _ in gens])
    # stored negated for _fill: x + (-c)*y rounds exactly as x - c*y
    terms = [(lay.off(u), -c, k) for (u, c), (_, k) in zip(gens, steps)]
    reach = max([k for _, k in steps], default=0)
    cells: Dict[Exponent, object] = {}
    runs: Runs = {}
    slabs: Dict[int, List[object]] = {}
    for g, (lo, hi) in rects.items():
        slabs = {l: s for l, s in slabs.items() if l >= g - reach}
        count = len(cells)
        cur = [0] * lay.size
        for m, c in p_levels.get(g, {}).items():
            if all(map(le, lo, m)) and all(map(le, m, hi)):
                cur[lay.index(m)] = c
        deps = [(off, c, slabs[g - k]) for off, c, k in terms if g - k in slabs]
        for i0, a, b, outer, rem in lay.rows(g, lo, hi):
            row = _fill(cur[i0:i0 + b - a + 1], i0, deps)
            if div is not None:
                row = [x / div for x in row]
            cur[i0:i0 + len(row)] = row
            cells.update(lay.cells(row, a, outer, rem))
        runs[g] = (d0_pow[g + 1] if exact else None, len(cells) - count)
        slabs[g] = cur
    return cells, runs


def _sweep_real(D: MultiPoly, A: MultiPoly, w: Tuple[int, ...], lay: _Slabs, rects,
                C: Optional[int]) -> Iterator[Tuple[int, List[object]]]:
    """Solve D * E(g) = -A * g for g with g(0) = 1 level by level in the
    grading w, yielding (n, level) for n = 0 .. max(rects).

    E = sum_i w_i x_i d_i multiplies a monomial by its grade, so the cell m
    of grade n solves n g_m = -sum_u (d_u (n - k_u) + a_u) g_(m-u), k_u the
    grade of u, over the terms u of D and A: every generator has one
    coefficient per level.  D has a unit constant and every other term of
    D and A a positive grade (arranged by the caller).  With an integer C
    the levels hold N_m = n! C^n g_m: with L clearing the denominators of D
    and A, n L N_m = -sum_u L (d_u (n - k_u) + a_u) C^k_u n!/(n - k_u)! N_(m-u),
    and the division by n L must be exact.  With C None (float
    coefficients or powers) the coefficients are used as given.
    """
    zero = (0,) * D.arity
    L = _denominator_lcm(D, A) if C is not None else 1
    gens = [(lay.off(u), _grade_of(u, w), D.terms.get(u, 0), A.terms.get(u, 0))
            for u in {**D.terms, **A.terms} if u != zero]
    if C is not None:
        gens = [(off, k, int(d * L), int(a * L)) for off, k, d, a in gens]
    reach = max((k for _, k, _, _ in gens), default=0)
    cur = [0] * lay.size
    cur[lay.index(zero)] = 1 if C is not None else (
        Fraction(1) if is_exact(D) else 1.0)
    slabs = {0: cur}
    yield 0, cur
    for n in range(1, max(rects) + 1):
        cur = [0] * lay.size
        deps = [(off, -(d * (n - k) + a) * (1 if C is None else C ** k * math.perm(n, k)),
                 slabs[n - k]) for off, k, d, a in gens if n - k in slabs]
        for i0, a, b, _, _ in lay.rows(n, *rects[n]) if n in rects else ():
            row = _fill([0] * (b - a + 1), i0, deps)
            if C is None:
                row = [x / n for x in row]
            else:
                row = [divmod(x, n * L) for x in row]
                if any(r for _, r in row):
                    raise ArithmeticError(f"a scaled coefficient of grade {n} is not an integer")
                row = [q for q, _ in row]
            cur[i0:i0 + len(row)] = row
        slabs = {k: v for k, v in slabs.items() if k > n - reach}
        slabs[n] = cur
        yield n, cur


def _multiply_numerator(levels: Iterator[Tuple[int, List[object]]], numer: MultiPoly,
                        w: Tuple[int, ...], lay: _Slabs, rects,
                        C: Optional[int]):
    """numer times the plain-series levels from _sweep_real (same C), level
    by level in the grading w, keeping the levels a numerator term reads;
    returns the cells and runs of a CoeffTable.

    With an integer C, the product at level G is carried at the common
    scale Lp T! C^T, T = G - pmin (pmin the least numerator grade, Lp
    clearing the numerator's denominators), so the term c_p of grade
    pmin + e lifts the level T - e by Lp c_p C^e T!/(T - e)!, and that
    scale is the level's denominator.
    """
    grades = [_grade_of(p, w) for p in numer.terms]
    pmin, pmax = min(grades), max(grades)
    Lp = _denominator_lcm(numer) if C is not None else 1
    terms = [(lay.off(p), k, cp if C is None else int(cp * Lp) * C ** (k - pmin))
             for (p, cp), k in zip(numer.terms.items(), grades)]
    cells: Dict[Exponent, object] = {}
    runs: Runs = {}
    window: Dict[int, List[object]] = {}
    den = Lp
    for G in range(pmin, max(rects) + 1):
        window = {k: v for k, v in window.items() if k >= G - pmax}
        k, slab = next(levels, (None, None))
        if k is not None:
            window[k] = slab
        if G > pmin and C is not None:
            den *= (G - pmin) * C
        deps = [(off, c if C is None else c * math.perm(G - pmin, k - pmin), window[G - k])
                for off, k, c in terms if G - k in window]
        count = len(cells)
        for i0, a, b, outer, rem in lay.rows(G, *rects[G]) if G in rects else ():
            cells.update(lay.cells(_fill([0] * (b - a + 1), i0, deps), a, outer, rem))
        runs[G] = (None if C is None else den, len(cells) - count)
    return cells, runs


def _prepare_real(spec: QuasiRationalSpec, w: Tuple[int, ...]):
    """Unit-normalize factors; return (D, A, scale, C), D being the product
    of the factors and A = sum_j s_j E(Q_j) prod_{k != j} Q_k for the Euler
    operator E of the grading w.

    Each factor is divided by its constant term c, so a float factor gets
    the unit constant c/c == 1.0 exactly.  A fractional power needs c > 0.
    C = lcm(power denominators) * lcm(unit-normalized coefficient
    denominators) makes n! C^n g_m an integer (n the grade of m), since the
    coefficient of R^k in (1 + R)^(-p/q), times k! q^k, is one.  C is None
    when some coefficient or power is not rational.
    """
    arity = spec.arity
    zero = (0,) * arity
    scale = Fraction(1)
    float_scale = 1.0
    scale_exact = True
    hats = []
    powers = []
    for j, (poly, power) in enumerate(spec.factors):
        e, m = min((e, m) for m in poly.terms for e in m)
        if e < 0:
            raise NotNormalizedError(f"factors[{j}]: the term {m} has the negative exponent "
                                     f"{e}; the real-power recurrence needs factors with "
                                     "nonnegative exponents")
        c = poly.terms.get(zero)
        if c is None:
            raise NotNormalizedError("zero constant term in a factor")
        s = Fraction(power) if not isinstance(power, float) else power
        n = _as_int(power)
        if n is None and (isinstance(c, complex) or c < 0):
            raise SpecError(f"factors[{j}]: the fractional power {power} needs a positive "
                            f"real constant term, got {c}")
        if c != 1:
            if n is not None:
                scale = scale * (c if isinstance(c, complex) else Fraction(c)) ** (-n)
            else:
                scale_exact = False
                float_scale *= float(c) ** (-float(s))
            poly = MultiPoly(arity, {m: v / c for m, v in poly.terms.items()})
        hats.append(poly)
        powers.append(s)
    C = None
    if all(isinstance(s, Fraction) for s in powers) and all(
            map(is_exact, (spec.numerator, *hats))):
        C = math.lcm(*(s.denominator for s in powers)) * _denominator_lcm(*hats)
    D = MultiPoly.const(arity, 1)
    for h in hats:
        D = D * h
    A = MultiPoly.zero(arity)
    for j, h in enumerate(hats):
        term = MultiPoly(arity, {m: c * _grade_of(m, w)
                                 for m, c in h.terms.items()}).scale(powers[j])
        for k, other in enumerate(hats):
            if k != j:
                term = term * other
        A = A + term
    return D, A, scale if scale_exact else scale * float_scale, C


def _echelon(vectors: Sequence[Exponent]) -> List[Tuple[int, List[int]]]:
    """An echelon basis of the lattice the integer vectors span, as (pivot
    column, row) pairs: each row is 0 before its pivot, and the pivots
    increase.  Euclid's algorithm on each column in turn."""
    rows = [list(v) for v in vectors]
    basis = []
    for c in range(len(rows[0]) if rows else 0):
        live = [r for r in rows if r[c]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[c]))
            p = live[0]
            for r in live[1:]:
                q = r[c] // p[c]
                r[:] = [a - q * b for a, b in zip(r, p)]
            live = [p] + [r for r in live[1:] if r[c]]
        if live:
            basis.append((c, live[0]))
            rows = [r for r in rows if r is not live[0]]
    return basis


def _in_lattice(v: Sequence[int], basis: List[Tuple[int, List[int]]]) -> bool:
    """Whether v lies in the lattice that an _echelon basis spans."""
    v = list(v)
    for c, p in basis:
        q = v[c] // p[c]
        v = [a - q * b for a, b in zip(v, p)]
    return not any(v)


def _plan(spec: QuasiRationalSpec, engine: str = "auto"):
    """Make every check the sweeps make before they fill a cell; returns
    (w, D, A, scale, C): the grading, the product of the factors and, for
    the real-power recurrence, A, scale and C as _prepare_real returns them
    (A and C None for the integer recurrence)."""
    w = grading_vector(spec.cone_direction_u, spec.arity)
    # a numerator term of grade g < 0 would need the series up to max_level - g
    if any(_grade_of(m, w) < 0 for m in spec.numerator.terms):
        raise SpecError("numerator has negative grade in the chosen direction")
    use_integer = spec.all_integer_powers() if engine == "auto" else engine == "integer"
    if use_integer and not spec.all_integer_powers():
        raise SpecError("integer engine requires positive integer powers")
    if use_integer:
        D = MultiPoly.const(spec.arity, 1)
        for poly, power in spec.factors:
            D = D * poly.pow(_as_int(power))
        _check_graded_unit(D, w)
        return w, D, None, Fraction(1), None
    D, A, scale, C = _prepare_real(spec, w)
    _check_graded_unit(D, w)
    if any(wi < 1 for wi in w):
        raise SpecError("real powers need a strictly negative cone direction "
                        "(every variable graded)")
    return w, D, A, scale, C


def _run(spec: QuasiRationalSpec, max_level: int,
         box: Optional[Tuple[Sequence[int], Sequence[int]]], engine: str = "auto") -> CoeffTable:
    w, D, A, scale, C = _plan(spec, engine)
    numer = spec.numerator
    if A is None:
        cells, runs = _sweep_integer(numer, D, w, max_level, box)
    else:
        # plain-series level n holds the cells m >= 0 of grade n that the
        # terms of D and A reach from 0 (a term of A may cancel out of D);
        # with a box, m stays below its top minus the numerator's least exponents
        zero = (0,) * spec.arity
        gens = [u for p in (D, A) for u in p.terms if any(u)]
        pmin = min((_grade_of(p, w) for p in numer.terms), default=0)
        gclip = kclip = None
        if box is not None:
            top = [b - e for b, e in zip(box[1], numer.min_exponents())]
            gclip, kclip = (zero, top, zero, zero, 0), (box[0], box[1], zero, zero, 0)
        grects = _hulls(range(max_level - pmin + 1), {0: [zero]},
                        [(u, _grade_of(u, w)) for u in gens], clip=gclip)
        orects = _hulls(range(pmin, max_level + 1), {},
                        [(p, _grade_of(p, w)) for p in numer.terms], grects, kclip)
        cells, runs = {}, {}
        if orects:
            lay = _Slabs(w, [*grects.values(), *orects.values()], gens + list(numer.terms))
            levels = _sweep_real(D, A, w, lay, grects, C)
            cells, runs = _multiply_numerator(levels, numer, w, lay, orects, C)
    return CoeffTable(spec.arity, cells, runs, w, max_level, scale)


def expand(spec: QuasiRationalSpec, order: int, engine: str = "auto") -> CoeffTable:
    """All series coefficients with grade(r) <= order (total degree for
    ordinary power series).

    engine: "auto" picks the linear recurrence for all-integer powers and
    the Euler-operator recurrence otherwise; "integer" / "real"
    force one (the two must agree exactly where both apply).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _run(spec, order, None, engine)


def expand_box(spec: QuasiRationalSpec, lo: Sequence[int], hi: Sequence[int]) -> CoeffTable:
    """Coefficients covering the index box [lo, hi], computing only the
    graded slices the box depends on."""
    w = grading_vector(spec.cone_direction_u, spec.arity)
    max_level = max(_grade_of(c, w) for c in product(*zip(lo, hi)))
    return _run(spec, max(0, max_level), (lo, hi))


def coefficient_at(spec: QuasiRationalSpec, r: Sequence[int]):
    """The single coefficient a_r (0 outside the computed support)."""
    r = tuple(int(e) for e in r)
    # after the sweeps' checks: a sweep fills no level below 0, and only
    # numerator terms p plus sums of its steps, the exponents of D (and A),
    # so below grade 0 or off every coset p + (their lattice) a_r is the
    # empty table's zero
    w, D, A, scale, _ = _plan(spec)
    basis = _echelon([u for poly in (D, A) if poly is not None for u in poly.terms])
    if _grade_of(r, w) < 0 or not any(_in_lattice(map(sub, r, p), basis)
                                      for p in spec.numerator.terms):
        return CoeffTable(spec.arity, {}, {}, w, 0, scale).value_at(r)
    return expand_box(spec, r, r).value_at(r)


def empirical_decay(spec: QuasiRationalSpec, direction: Sequence,
                    t_values: Sequence[int]) -> List[Tuple[int, float]]:
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
    table = expand_box(spec, lo, hi)
    out = []
    for t, rt in zip(t_values, targets):
        a = table.value_at(rt)
        mag = abs(float(a)) if not isinstance(a, complex) else abs(a)
        out.append((t, math.log(mag) / t if mag > 0 else float("-inf")))
    return out
