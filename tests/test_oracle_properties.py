"""Cross-engine property tests of the series oracle on random small specs.

The graded sweeps (integer and real engine, full and box-clipped, exact and
float) are checked against each other and against naive_series, the
independent truncated-series inversion; the spec JSON format must
round-trip.  Gradings include weights of 2 and Laurent specs graded by one
variable, so the sweeps' implied coordinate and padding are exercised
beyond the presets' gradings.
"""

import json
import math
from fractions import Fraction
from operator import mul

from hypothesis import HealthCheck, given, settings, strategies as st

from conepoint.oracle import QuasiRationalSpec, expand, expand_box, naive_series
from conepoint.polyseries import MultiPoly
from conepoint.specio import canonical_json, spec_from_json, spec_to_json
from float_specs import floated

PROPERTY = settings(max_examples=25, deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
GRADINGS = [(1,), (1, 1), (1, 2), (2, 1), (1, 1, 1), (1, 2, 1), (2, 1, 2)]
LAURENT_GRADINGS = [(0, 1), (1, 0), (0, 0, 1)]
COEFF = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from((1, 2, 3)))


@st.composite
def specs(draw, integer_powers=False, laurent=False):
    """F = P / prod Q_j^s_j: Q_j has a nonzero constant and terms of grade
    >= 1; fractional powers only on unit constants, so that every
    coefficient is rational.  Laurent specs take the integer engine."""
    w = draw(st.sampled_from(LAURENT_GRADINGS if laurent else GRADINGS))
    d = len(w)
    # a Laurent spec may take exponents -1..1 in its ungraded variables
    exps = st.tuples(*[st.integers(-1 if laurent and wi == 0 else 0, 2) for wi in w])

    def grade(m):
        return sum(a * b for a, b in zip(m, w))

    factors = []
    for _ in range(draw(st.integers(1, 2))):
        power = draw(st.sampled_from([1, 2] if integer_powers or laurent
                                     else [1, 2, Fraction(1, 2), Fraction(-1, 3)]))
        const = draw(st.sampled_from((1, 2, -3, Fraction(1, 2)))) if power in (1, 2) else 1
        terms = {(0,) * d: Fraction(const)}
        for m in draw(st.lists(exps, min_size=1, max_size=3)):
            if grade(m) >= 1:
                terms[m] = draw(COEFF)
        factors.append((MultiPoly(d, terms), power))
    numer = {m: draw(COEFF) for m in draw(st.lists(exps, min_size=1, max_size=2))
             if grade(m) >= 0}
    numer = MultiPoly(d, numer or {(0,) * d: Fraction(1)})
    return QuasiRationalSpec(d, numer, tuple(factors), tuple(-x for x in w))


def _boxes(spec):
    lo = st.tuples(*[st.integers(-2, 3)] * spec.arity)
    return lo.flatmap(lambda lo: st.tuples(
        st.just(lo), st.tuples(*[st.integers(x, x + 3) for x in lo])))


def _cells(lo, hi):
    cells = [()]
    for a, b in zip(lo, hi):
        cells = [c + (x,) for c in cells for x in range(a, b + 1)]
    return cells


@PROPERTY
@given(specs(), st.integers(0, 5))
def test_expand_matches_naive_series(spec, order):
    table = expand(spec, order)
    ns = naive_series(spec, order)
    for m, c in ns.terms.items():
        if sum(map(mul, table.grading_w, m)) <= order:
            assert table.value_at(m) == c, m
    for m in table.values:
        assert 0 <= sum(map(mul, table.grading_w, m)) <= order
        assert table.value_at(m) == ns.coeff(m), m


@PROPERTY
@given(st.one_of(specs(), specs(laurent=True)).flatmap(
    lambda spec: st.tuples(st.just(spec), _boxes(spec))))
def test_box_matches_expand(case):
    spec, (lo, hi) = case
    box = expand_box(spec, lo, hi)
    full = expand(spec, box.max_level)
    for r in _cells(lo, hi):
        assert box.value_at(r) == full.value_at(r), r


@PROPERTY
@given(specs(integer_powers=True), st.integers(0, 5))
def test_integer_and_real_engines_agree(spec, order):
    t_int = expand(spec, order, engine="integer")
    t_real = expand(spec, order, engine="real")
    assert set(t_int.values) == set(t_real.values)
    for m in t_int.values:
        assert t_int.value_at(m) == t_real.value_at(m), m


@PROPERTY
@given(st.one_of(specs(), specs(integer_powers=True), specs(laurent=True)),
       st.integers(0, 5), st.booleans(), st.booleans())
def test_value_at_reads_the_values_mapping(spec, order, as_float, values_first):
    # value and type match whether values is built before or after value_at runs
    spec = floated(spec) if as_float else spec
    engines = ["integer"] * spec.all_integer_powers() + ["real"] * all(
        x < 0 for x in spec.cone_direction_u)
    for engine in engines:
        table = expand(spec, order, engine)
        if values_first:
            assert list(table.values) == list(table.cells)
        got = {m: table.value_at(m) for m in table.cells}
        want = {m: v * table.scale for m, v in table.values.items()}
        assert list(got) == list(want)
        for m, v in want.items():
            assert got[m] == v and type(got[m]) is type(v), (engine, m)


@PROPERTY
@given(st.one_of(specs(), specs(laurent=True)), st.integers(0, 5))
def test_float_mode_close_to_exact(spec, order):
    exact = expand(spec, order)
    approx = expand(floated(spec), order)
    for m in set(exact.values) | set(approx.values):
        assert math.isclose(approx.value_at(m), float(exact.value_at(m)),
                            rel_tol=1e-9, abs_tol=1e-9), m


@PROPERTY
@given(st.one_of(specs(), specs(laurent=True)), st.integers(0, 4))
def test_spec_json_round_trip(spec, order):
    text = canonical_json(spec_to_json(spec))
    parsed = spec_from_json(json.loads(text))
    assert canonical_json(spec_to_json(parsed)) == text
    table, again = expand(spec, order), expand(parsed, order)
    assert again.values == table.values and again.scale == table.scale
