import random
from fractions import Fraction

import pytest

from conepoint.localgeo import QuadraticPointData, quadratic_point_data
from conepoint.oracle import CoeffTable
from conepoint.polyseries import (DomainError, MultiPoly, NonUnitError, Record, TruncatedSeries,
                                  _rational_root, is_exact, log_compose_taylor)
from conepoint.presets import PRESET_NAMES, Preset, preset
from conepoint.spec import QuasiRationalSpec


def mp(arity, *terms):
    return MultiPoly.from_terms(arity, [(e, c) for c, e in terms])


HALF = Fraction(1, 2)
Q_AZTEC = mp(3, (1, (0, 0, 0)), (-HALF, (1, 0, 1)), (-HALF, (-1, 0, 1)),
             (-HALF, (0, 1, 1)), (-HALF, (0, -1, 1)), (1, (0, 0, 2)))
Q_GROVE = mp(3, (3, (0, 0, 0)), (3, (1, 1, 1)), (-1, (1, 0, 0)), (-1, (0, 1, 0)),
             (-1, (0, 0, 1)), (-1, (1, 1, 0)), (-1, (1, 0, 1)), (-1, (0, 1, 1)))


def random_poly(rng, arity, deg, laurent=False):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        m = tuple(rng.randint(-deg if laurent else 0, deg) for _ in range(arity))
        terms[m] = Fraction(rng.randint(-5, 5))
    return MultiPoly(arity, terms)


class TestConstructors:
    def test_each_object_runs_post_init_once(self, monkeypatch):
        # perfbench counts the objects built by wrapping __post_init__ on the class
        built = []
        for cls in (MultiPoly, TruncatedSeries):
            def counted(self, original=cls.__post_init__):
                built.append(type(self))
                original(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        p = mp(2, (1, (0, 0)), (2, (1, 0)), (0, (0, 1)))
        s = TruncatedSeries.from_poly(p, 3)
        objs = [p, s, p.scale(3), -p, s.scale(HALF), -s, p + p, s * s, s.to_poly(),
                MultiPoly.zero(2), TruncatedSeries(2, 1)]
        assert built == [type(o) for o in objs]
        # the wrapped __post_init__ still cleans the terms
        assert p.terms == {(0, 0): 1, (1, 0): 2} and type(p.terms[(0, 0)]) is Fraction

    def test_construction_errors(self):
        with pytest.raises(ValueError, match="arity must be positive"):
            MultiPoly(0, {})
        with pytest.raises(ValueError, match="order must be nonnegative"):
            TruncatedSeries(3, -1)
        with pytest.raises(ValueError, match="bad exponent"):
            MultiPoly(2, {(1,): 1})

    def test_equality_is_by_class_and_fields(self):
        terms = {(0, 0): 1, (1, 1): HALF}
        p, q = MultiPoly(2, terms), MultiPoly(2, dict(terms))
        s = TruncatedSeries(2, 3, terms)
        assert p == q and not p != q
        assert p != MultiPoly(2, {(0, 0): 1}) and p != MultiPoly(3, {})
        assert p != s and s != p and not p == s
        assert s == TruncatedSeries(2, 3, dict(terms)) and s != TruncatedSeries(2, 2, terms)
        for obj in (p, s):
            with pytest.raises(TypeError):
                hash(obj)
        assert repr(p) == "MultiPoly(1*x^[0, 0] + 1/2*x^[1, 1])"


def _record_examples():
    """Each Record subclass with one valid map of its fields, in order, and
    the defaults it fills in."""
    fls = preset("fls")
    core = preset("superballot-core").spec
    data = quadratic_point_data(core, (1, 1, 1))
    return [
        (MultiPoly, {"arity": 2, "terms": {(0, 0): 1, (1, 1): HALF}}, {"terms": {}}),
        (TruncatedSeries, {"arity": 2, "order": 3, "terms": {(1, 0): HALF}}, {"terms": {}}),
        (QuasiRationalSpec, {"arity": 3, "numerator": core.numerator, "factors": core.factors,
                             "cone_direction_u": (-1, -1, -1), "name": "core"}, {"name": ""}),
        (CoeffTable, {"arity": 1, "cells": {(0,): 1, (1,): 3}, "runs": {0: (1, 1), 1: (2, 1)},
                      "grading_w": (1,), "max_level": 1, "scale": HALF},
         {"scale": Fraction(1)}),
        (Preset, {"name": "fls", "spec": fls.spec, "known_points": ((1, 1, 1),),
                  "companions": {"core": core}}, {}),
        (QuadraticPointData, {name: getattr(data, name) for name in data._fields}, {}),
    ]


RECORD_EXAMPLES = _record_examples()


class TestRecord:
    def test_every_record_class_has_an_example(self):
        classes, todo = set(), [Record]
        while todo:
            cls = todo.pop()
            todo += cls.__subclasses__()
            if cls._fields:
                classes.add(cls)
        assert classes == {cls for cls, _, _ in RECORD_EXAMPLES}

    @pytest.mark.parametrize("cls,fields,defaults", RECORD_EXAMPLES,
                             ids=[cls.__name__ for cls, _, _ in RECORD_EXAMPLES])
    def test_construction(self, cls, fields, defaults):
        assert tuple(fields) == cls._fields and cls._defaults == defaults
        values = list(fields.values())
        rec = cls(*values)
        assert [getattr(rec, name) for name in cls._fields] == values
        assert cls(**fields) == rec
        assert cls(**dict(reversed(fields.items()))) == rec
        assert cls(*values[:1], **dict(list(fields.items())[1:])) == rec
        assert rec == cls(*values) and not rec != cls(*values)
        for name, value in defaults.items():
            left_out = {key: v for key, v in fields.items() if key != name}
            assert cls(**left_out) == cls(**left_out, **{name: value})
        with pytest.raises(TypeError):
            hash(rec)

    @pytest.mark.parametrize("cls,fields,defaults", RECORD_EXAMPLES,
                             ids=[cls.__name__ for cls, _, _ in RECORD_EXAMPLES])
    def test_bad_fields_raise_type_error(self, cls, fields, defaults):
        for name in cls._fields:
            if name not in defaults:
                left_out = {key: v for key, v in fields.items() if key != name}
                with pytest.raises(TypeError, match=f"{cls.__name__} is missing field {name!r}"):
                    cls(**left_out)
        with pytest.raises(TypeError, match=f"{cls.__name__} has no field 'bogus'"):
            cls(**fields, bogus=1)
        first = cls._fields[0]
        with pytest.raises(TypeError, match="takes each of its fields"):
            cls(fields[first], **fields)
        with pytest.raises(TypeError, match="takes each of its fields"):
            cls(*fields.values(), None)

    def test_repr_lists_the_fields_by_name(self):
        table = CoeffTable(1, {(0,): 1}, {0: (1, 1)}, (1,), 0)
        assert repr(table) == ("CoeffTable(arity=1, cells={(0,): 1}, runs={0: (1, 1)}, "
                               "grading_w=(1,), max_level=0, scale=Fraction(1, 1))")
        assert repr(TruncatedSeries(2, 3, {(1, 0): HALF})) == \
            "TruncatedSeries(arity=2, order=3, terms={(1, 0): Fraction(1, 2)})"
        spec = QuasiRationalSpec(1, MultiPoly.const(1, 1), ((MultiPoly.const(1, 1), 1),), (-1,))
        assert repr(spec) == ("QuasiRationalSpec(arity=1, numerator=MultiPoly(1*x^[0]), "
                              "factors=((MultiPoly(1*x^[0]), 1),), cone_direction_u=(-1,), "
                              "name='')")

    def test_shared_defaults_are_never_shared_state(self):
        # every instance gets the same default object, so the records whose
        # default is a dict must not keep it
        assert MultiPoly(2).terms is not MultiPoly(2).terms
        assert TruncatedSeries(2, 1).terms is not TruncatedSeries(2, 1).terms
        with pytest.raises(TypeError, match="missing field 'companions'"):
            Preset("fls", preset("fls").spec, ((1, 1, 1),))
        for name in PRESET_NAMES:
            assert preset(name).companions is not preset(name).companions, name


class TestEval:
    def test_aztec_vanishes_at_ones(self):
        assert Q_AZTEC.eval([1, 1, 1]) == 0

    def test_constant(self):
        assert MultiPoly.const(2, 7).eval([3, Fraction(1, 5)]) == 7

    def test_grove_vanishes_at_ones(self):
        assert Q_GROVE.eval([1, 1, 1]) == 0

    def test_zero_to_negative_power(self):
        p = mp(2, (1, (-1, 0)))
        with pytest.raises(DomainError):
            p.eval([0, 1])

    def test_multiplicative_on_random_points(self):
        rng = random.Random(7)
        for _ in range(10):
            p = random_poly(rng, 3, 4)
            q = random_poly(rng, 3, 4)
            for _ in range(10):
                x = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
                assert (p * q).eval(x) == p.eval(x) * q.eval(x)


class TestDiff:
    def test_power_rule(self):
        p = mp(2, (1, (2, 1)))
        assert p.diff(0) == mp(2, (2, (1, 1)))

    def test_laurent_power_rule(self):
        p = mp(1, (1, (-1,)))
        assert p.diff(0) == mp(1, (-1, (-2,)))

    def test_aztec_gradient_vanishes(self):
        for i in range(3):
            assert Q_AZTEC.diff(i).eval([1, 1, 1]) == 0

    def test_linearity_and_leibniz(self):
        rng = random.Random(3)
        for _ in range(20):
            p = random_poly(rng, 2, 3, laurent=True)
            q = random_poly(rng, 2, 3, laurent=True)
            for i in range(2):
                assert (p + q).diff(i) == p.diff(i) + q.diff(i)
                assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


class TestSeries:
    def test_product_truncates(self):
        one_plus = TruncatedSeries(1, 2, {(0,): 1, (1,): 1})
        one_minus = TruncatedSeries(1, 2, {(0,): 1, (1,): -1})
        prod = one_plus * one_minus
        assert prod.terms == {(0,): 1, (2,): -1}

    def test_result_order_is_min_of_operands(self):
        a = TruncatedSeries(2, 5, {(0, 0): 1, (1, 0): 1})
        b = TruncatedSeries(2, 3, {(0, 0): 1, (0, 1): 2})
        assert (a * b).order == 3
        assert (a + b).order == 3
        assert (a - b).order == 3

    def test_binomial_negative_half(self):
        s = TruncatedSeries(1, 2, {(0,): 1, (1,): -4})
        got = s.pow_real(Fraction(-1, 2))
        assert got.terms == {(0,): 1, (1,): 2, (2,): 6}
        # cross-check by squaring against the geometric inverse
        sq = got * got
        inv = s.pow_real(-1)
        assert sq.terms == inv.terms

    def test_power_zero_is_one(self):
        s = TruncatedSeries(2, 3, {(0, 0): 5, (1, 0): 2})
        assert s.pow_real(0).terms == {(0, 0): 1}

    def test_pow_real_needs_unit(self):
        s = TruncatedSeries(1, 3, {(1,): 1})
        with pytest.raises(NonUnitError):
            s.pow_real(HALF)

    def test_pow_real_roundtrip_exact(self):
        rng = random.Random(11)
        for alpha in (1, -1, 2, -2):
            s = TruncatedSeries(2, 4, {(0, 0): Fraction(rng.randint(1, 5)),
                                       (1, 0): Fraction(rng.randint(-3, 3)),
                                       (0, 2): Fraction(rng.randint(-3, 3))})
            back = s.pow_real(alpha).pow_real(Fraction(1, alpha))
            assert back.terms == s.terms

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_rational_root_exact_at_any_size(self, q):
        # roots too large for a float estimate to land within a few steps of them
        root = Fraction(3 ** 250 + 1, 7 ** 90)
        assert _rational_root(root ** q, q) == root
        assert _rational_root(root ** q + 1, q) is None
        assert _rational_root(Fraction(-8), 3) is None

    def test_pow_real_roundtrip_float(self):
        s = TruncatedSeries(1, 5, {(0,): 2.0, (1,): 0.5, (2,): -0.25})
        back = s.pow_real(0.37).pow_real(1 / 0.37)
        for m, c in s.terms.items():
            assert abs(back.coeff(m) - c) < 1e-12 * (1 + abs(c))


def random_rational_poly(rng, arity, lowest=-2):
    """Terms with rationals that floats do not represent exactly; with lowest=0,
    a power series with a constant term."""
    def c():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    terms = {tuple(rng.randint(lowest, 2) for _ in range(arity)): c()
             for _ in range(rng.randint(1, 6))}
    if lowest == 0:
        terms[(0,) * arity] = c()
    return MultiPoly(arity, terms)


def floated(p):
    return MultiPoly.from_terms(p.arity, [(m, float(c)) for m, c in p.terms.items()])


def float_bits(p):
    """Coefficients as float hex strings; a coefficient that is not a float raises."""
    return {m: c.hex() for m, c in p.terms.items()}


class TestMixedFields:
    def test_one_float_operand_gives_the_all_float_bits(self):
        rng = random.Random(17)
        for _ in range(60):
            arity = rng.randint(1, 3)
            p, q = random_rational_poly(rng, arity), random_rational_poly(rng, arity)
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            fp, fq = floated(p), floated(q)
            assert float_bits(p * fq) == float_bits(fp * fq)
            assert float_bits(fq * p) == float_bits(fq * fp)
            assert float_bits(p + fq) == float_bits(fp + fq)
            assert float_bits(fq - p) == float_bits(fq - fp)
            assert float_bits(fp.scale(c)) == float_bits(fp.scale(float(c)))
            order = rng.randint(0, 4)
            p, q = random_rational_poly(rng, arity, 0), random_rational_poly(rng, arity, 0)
            ps, fps, fqs = (TruncatedSeries.from_poly(x, order)
                            for x in (p, floated(p), floated(q)))
            assert float_bits(ps * fqs) == float_bits(fps * fqs)
            assert float_bits(ps + fqs) == float_bits(fps + fqs)


def naive_log_compose(p, center, order):
    """Sum of c Z^m exp(m.y) over the monomials of p, each exponential built
    from its power series by repeated truncated products."""
    total = TruncatedSeries(p.arity, order)
    for m, c in p.terms.items():
        zm = c
        for e, v in zip(m, center):
            zm = zm * (Fraction(v) ** e if isinstance(v, (int, Fraction)) else v ** e)
        lin = TruncatedSeries(p.arity, order, {tuple(int(i == j) for i in range(p.arity)): m[j]
                                               for j in range(p.arity)})
        term = exp = TruncatedSeries.const(p.arity, 1, order)
        for k in range(1, order + 1):
            term = (term * lin).scale(Fraction(1, k))
            exp = exp + term
        total = total + exp.scale(zm)
    return total


class TestLogCompose:
    def test_closed_form_matches_exp_series_exactly(self):
        rng = random.Random(11)
        for trial in range(40):
            arity = 2 + trial % 2
            p = random_poly(rng, arity, 3, laurent=True)
            Z = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
                 for _ in range(arity)]
            order = trial % 7
            s = log_compose_taylor(p, Z, order)
            assert is_exact(s)
            assert s == naive_log_compose(p, Z, order)

    def test_closed_form_matches_exp_series_at_a_float_center(self):
        p = random_poly(random.Random(3), 3, 3, laurent=True)
        Z = (0.7, -1.3, 2.1)
        s, ref = log_compose_taylor(p, Z, 6), naive_log_compose(p, Z, 6)
        assert all(isinstance(c, float) for t in (s, ref) for c in t.terms.values())
        assert set(s.terms) == set(ref.terms)
        scale = max(abs(c) for c in ref.terms.values())
        for m, c in ref.terms.items():
            assert abs(s.terms[m] - c) <= 1e-12 * scale

    def test_aztec_quadratic_part(self):
        s = log_compose_taylor(Q_AZTEC, (1, 1, 1), 2)
        assert s.terms == {(0, 0, 2): 1, (2, 0, 0): -HALF, (0, 2, 0): -HALF}

    def test_grove_quadratic_part(self):
        s = log_compose_taylor(Q_GROVE, (1, 1, 1), 2)
        assert s.terms == {(1, 1, 0): 2, (1, 0, 1): 2, (0, 1, 1): 2}

    def test_constant(self):
        s = log_compose_taylor(MultiPoly.const(2, Fraction(5, 3)), (2, 7), 3)
        assert s.terms == {(0, 0): Fraction(5, 3)}

    def test_zero_center_rejected(self):
        with pytest.raises(DomainError):
            log_compose_taylor(Q_AZTEC, (1, 0, 1), 2)

    def test_remainder_scaling(self):
        # |series(y) - p(Z e^y)| = O(|y|^(N+1)) on a shrinking sequence
        rng = random.Random(5)
        p = random_poly(rng, 2, 3, laurent=True)
        N = 4
        s = log_compose_taylor(p, (1, 2), N)
        prev = None
        for k in range(1, 5):
            y = [Fraction(1, 3 * 2 ** k), Fraction(-1, 5 * 2 ** k)]
            exact = p.eval([1 * _exp_exact(y[0], 30), 2 * _exp_exact(y[1], 30)])
            approx = s.eval(y)
            err = abs(float(exact - approx))
            bound = float(max(abs(v) for v in y)) ** (N + 1)
            ratio = err / bound
            if prev is not None:
                assert ratio < 4.0 * prev + 1e-9
            prev = ratio


def _exp_exact(x: Fraction, order: int) -> Fraction:
    total = Fraction(1)
    term = Fraction(1)
    for k in range(1, order):
        term *= x / k
        total += term
    return total
