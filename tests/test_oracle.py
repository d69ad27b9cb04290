import hashlib
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from conepoint.presets import preset
from conepoint.polyseries import MultiPoly, TruncatedSeries
from conepoint.oracle import (NotNormalizedError, QuasiRationalSpec, SpecError,
                              coefficient_at, empirical_decay, expand, expand_box,
                              naive_series, normalize_laurent)
from float_specs import floated


def mp(arity, *terms):
    return MultiPoly.from_terms(arity, [(e, c) for c, e in terms])


HALF = Fraction(1, 2)



class TestSpecConstruction:
    def test_structural_errors(self):
        one, p2 = MultiPoly.const(2, 1), mp(2, (1, (0, 0)), (-1, (1, 0)))
        for numer, factors, message in [
                (MultiPoly.const(3, 1), ((p2, 1),), "numerator arity mismatch"),
                (one, ((mp(3, (1, (0, 0, 0))), 1),), "factor arity mismatch"),
                (one, ((MultiPoly.zero(2), 1),), "zero polynomial factor"),
                (one, ((p2, 0),), "factor powers must be nonzero"),
                (one, ((p2, Fraction(0)),), "factor powers must be nonzero")]:
            with pytest.raises(SpecError, match=message):
                QuasiRationalSpec(2, numer, factors, (-1, -1))

    def test_fields_are_normalized_and_compared(self):
        p2 = mp(2, (1, (0, 0)), (-1, (1, 0)))
        spec = QuasiRationalSpec(2, MultiPoly.const(2, 1), [(p2, 1)], [-1, -1], name="s")
        assert spec.factors == ((p2, 1),) and spec.cone_direction_u == (-1, -1)
        assert spec.laurent_shift == (0, 0) and spec.name == "s"
        same = QuasiRationalSpec(2, MultiPoly.const(2, 1), ((p2, 1),), (-1, -1), (0, 0), "s")
        shifted = QuasiRationalSpec(2, MultiPoly.const(2, 1), ((p2, 1),), (-1, -1), (1, 0), "s")
        assert spec == same and spec != shifted
        with pytest.raises(TypeError):
            hash(spec)


class TestNormalizeLaurent:
    def test_aztec_factor_cleared_by_xy(self, aztec):
        norm = normalize_laurent(aztec.spec)
        q_norm = norm.factors[0][0]
        assert q_norm.min_exponents() == (0, 0, 0)
        # original factor times X Y
        assert q_norm == aztec.spec.factors[0][0].shift((1, 1, 0))
        assert norm.laurent_shift == (-1, -1, 0)

    def test_orthant_factor_unchanged(self, cube_grove):
        norm = normalize_laurent(cube_grove.spec)
        assert norm.factors == cube_grove.spec.factors
        assert norm.laurent_shift == (0, 0, 0)

    def test_qrw_factor_cleared(self, qrw):
        norm = normalize_laurent(qrw.spec)
        for poly, _ in norm.factors:
            assert all(e >= 0 for m in poly.terms for e in m)
        assert all(e >= 0 for m in norm.numerator.terms for e in m)

    def test_shift_consistency_of_coefficients(self):
        # 1/(2 - 1/X) = -X - 2X^2 - 4X^3 - ...; the normalized factor is 2X - 1
        f = mp(1, (2, (0,)), (-1, (-1,)))
        spec = QuasiRationalSpec(1, MultiPoly.const(1, 1), ((f, 1),), (-1,))
        norm = normalize_laurent(spec)
        assert norm.factors[0][0] == mp(1, (2, (1,)), (-1, (0,)))
        assert norm.laurent_shift == (-1,)
        table = expand(norm, 6)
        for r in range(1, 6):
            a_r = table.value_at((r + norm.laurent_shift[0],))
            assert a_r == -(2 ** (r - 1))

    def test_fractional_power_with_shift_rejected(self):
        p = mp(2, (1, (0, 0)), (1, (-1, 1)))
        spec = QuasiRationalSpec(2, MultiPoly.const(2, 1), ((p, HALF),), (0, -1))
        with pytest.raises(SpecError):
            normalize_laurent(spec)


class TestExpand:
    def test_geometric(self):
        one = MultiPoly.const(1, 1)
        spec = QuasiRationalSpec(1, one, ((one - MultiPoly.variable(1, 0), 1),), (-1,))
        table = expand(spec, 9)
        assert all(table.value_at((k,)) == 1 for k in range(10))

    def test_zero_constant_term_rejected(self):
        x = MultiPoly.variable(1, 0)
        spec = QuasiRationalSpec(1, MultiPoly.const(1, 1), ((x - x * x, 1),), (-1,))
        with pytest.raises(NotNormalizedError):
            expand(spec, 3)

    @pytest.mark.parametrize("c", [3.7, 49.0])
    def test_float_constant_under_a_fractional_power(self, c):
        # the unit constant must be c/c, exactly 1.0, not c times the rounded 1/c
        def spec(c0):  # (c0 - X - Y)^(-1/2), in floats when c0 is a float
            q = mp(2, (c0, (0, 0)), (-1, (1, 0)), (-1, (0, 1)))
            return QuasiRationalSpec(2, MultiPoly.const(2, 1), ((q, HALF),), (-1, -1))

        exact = expand(spec(Fraction(c)), 6)
        approx = expand(spec(c), 6)
        assert set(approx.values) == set(exact.values)
        for m in exact.values:
            e = float(exact.value_at(m))
            assert abs(approx.value_at(m) - e) <= 1e-12 * abs(e), m

    def test_complex_constant_under_an_integer_power(self):
        # the fractional power of (1 - X - Y)^(-1/2) sends (2 + i - X)^(-1)
        # through the real engine, in complex arithmetic
        q = mp(2, (complex(2, 1), (0, 0)), (-1, (1, 0)))
        root = mp(2, (1, (0, 0)), (-1, (1, 0)), (-1, (0, 1)))
        spec = QuasiRationalSpec(2, MultiPoly.const(2, 1), ((q, 1), (root, HALF)), (-1, -1))
        table = expand(spec, 4)
        ns = naive_series(spec, 4)
        assert set(table.values) == set(ns.terms)
        for m, c in ns.terms.items():
            assert abs(table.value_at(m) - c) <= 1e-12 * abs(c), m

    def test_superballot_core_value(self, superballot_core):
        a = coefficient_at(superballot_core.spec, (10, 20, 30))
        N = a * Fraction(2) ** 60
        assert N.denominator == 1
        assert abs(float(N) - 2.547e16) < 0.0005e16


class TestCoefficientAt:
    def test_aztec_center_order_one(self, aztec):
        assert coefficient_at(aztec.spec, (0, 0, 1)) == HALF
        # even-parity neighbor vanishes
        assert coefficient_at(aztec.spec, (0, 1, 1)) == 0

    def test_support_flag(self, aztec):
        # below the numerator grade
        assert coefficient_at(aztec.spec, (0, 0, 0)) == 0

    def test_negative_index_outside_support(self, cube_grove):
        assert coefficient_at(cube_grove.spec, (-1, 0, 2)) == 0

    def test_aztec_even_parity_zero(self, aztec):
        assert coefficient_at(aztec.spec, (1, 1, 2)) == 0

    def test_table_builds_a_fraction_only_where_a_value_is_read(self, aztec, monkeypatch):
        # the box's dependency closure holds 7,661 cells; building each as a
        # Fraction took 7,722 constructions, keeping them as ints takes 61
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        table = expand_box(aztec.spec, (3, 1, 39), (3, 1, 39))
        value = table.value_at((3, 1, 39))
        monkeypatch.undo()
        assert len(table.cells) == 7661
        assert len(built) < 100, len(built)
        assert value == table.values[(3, 1, 39)] == Fraction(9151361887, 2 ** 35)


class TestOracleInvariants:
    def test_matches_naive_inversion_on_random_specs(self):
        rng = random.Random(2024)
        for trial in range(30):
            arity = rng.randint(1, 3)
            factors = []
            for _ in range(rng.randint(1, 2)):
                terms = {(0,) * arity: Fraction(rng.randint(1, 3))}
                for _ in range(rng.randint(1, 4)):
                    m = tuple(rng.randint(0, 2) for _ in range(arity))
                    if sum(m):
                        terms[m] = Fraction(rng.randint(-3, 3))
                factors.append((MultiPoly(arity, terms), rng.randint(1, 2)))
            numer_terms = {tuple(rng.randint(0, 1) for _ in range(arity)):
                           Fraction(rng.randint(-4, 4)) for _ in range(2)}
            numer = MultiPoly(arity, numer_terms)
            if numer.is_zero():
                numer = MultiPoly.const(arity, 1)
            spec = QuasiRationalSpec(arity, numer, tuple(factors), (-1,) * arity)
            N = rng.randint(3, 7)
            table = expand(spec, N)
            ns = naive_series(spec, N)
            for m, c in ns.terms.items():
                assert table.value_at(m) == c, f"trial {trial} at {m}"
            for m, v in table.nonzero_items():
                assert ns.coeff(m) == v

    def test_real_power_recurrence_matches_integer_at_s1(self):
        rng = random.Random(9)
        for _ in range(10):
            terms = {(0, 0): Fraction(rng.randint(1, 3))}
            for _ in range(4):
                m = (rng.randint(0, 2), rng.randint(0, 2))
                if sum(m):
                    terms[m] = Fraction(rng.randint(-3, 3))
            q = MultiPoly(2, terms)
            spec = QuasiRationalSpec(2, MultiPoly.const(2, 1), ((q, 1),), (-1, -1))
            t_int = expand(spec, 6, engine="integer")
            t_real = expand(spec, 6, engine="real")
            for m, v in t_int.nonzero_items():
                assert t_real.value_at(m) == v
            for m, v in t_real.nonzero_items():
                assert t_int.value_at(m) == t_real.scale * v

    def test_scaled_sweeps_on_edge_case_specs(self):
        # the sweeps clear denominators and constant terms into scaled ints:
        # constants d0 in {-2, 3}, rational coefficients, a generator above
        # the requested order, fractional powers with denominators 2, 3, 4
        rng = random.Random(77)
        dens = (1, 2, 3, 5)

        def factor(arity, const, order):
            terms = {(0,) * arity: Fraction(const)}
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 2) for _ in range(arity))
                if sum(m):
                    terms[m] = Fraction(rng.randint(-3, 3), rng.choice(dens))
            high = [0] * arity
            high[rng.randrange(arity)] = order + rng.randint(1, 3)
            terms[tuple(high)] = Fraction(rng.choice((-1, 1)), rng.choice(dens))
            return MultiPoly(arity, terms)

        for trial in range(24):
            arity = rng.randint(1, 3)
            N = rng.randint(3, 6)
            factors = [(factor(arity, rng.choice((-2, 3)), N), rng.randint(1, 2))]
            if trial % 2:
                q = (2, 3, 4)[trial // 2 % 3]
                factors.append((factor(arity, 1, N), Fraction(rng.choice((1, -1, 5, 7)), q)))
            numer = MultiPoly(arity, {tuple(rng.randint(0, 2) for _ in range(arity)):
                                      Fraction(rng.randint(1, 4), rng.choice(dens))
                                      for _ in range(2)})
            spec = QuasiRationalSpec(arity, numer, tuple(factors), (-1,) * arity)
            table = expand(spec, N)
            ns = naive_series(spec, N)
            for m, c in ns.terms.items():
                assert table.value_at(m) == c, f"trial {trial} at {m}"
            for m, v in table.nonzero_items():
                assert type(v) is Fraction
                assert ns.coeff(m) == table.scale * v, f"trial {trial} at {m}"

    def test_engines_agree_on_non_unit_constants(self):
        rng = random.Random(31)
        for trial in range(12):
            arity = rng.randint(1, 3)
            factors = []
            for const in (rng.choice((-2, 3)), rng.choice((-2, 3, Fraction(1, 2)))):
                terms = {(0,) * arity: Fraction(const)}
                for _ in range(3):
                    m = tuple(rng.randint(0, 2) for _ in range(arity))
                    if sum(m):
                        terms[m] = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                factors.append((MultiPoly(arity, terms), 1))
            numer = MultiPoly(arity, {(0,) * arity: Fraction(2, 3),
                                      (1,) * arity: Fraction(-1, 2)})
            spec = QuasiRationalSpec(arity, numer, tuple(factors), (-1,) * arity)
            t_int = expand(spec, 6, engine="integer")
            t_real = expand(spec, 6, engine="real")
            assert set(t_int.values) == set(t_real.values), f"trial {trial}"
            for m, v in t_int.nonzero_items():
                assert t_real.value_at(m) == v, f"trial {trial} at {m}"

    @pytest.mark.parametrize("u,lo,hi", [((-1,), (2,), (9,)), ((-1, -2), (1, 0), (5, 3))])
    def test_real_engine_reaches_terms_that_cancel_from_the_product(self, u, lo, hi):
        # (1 + s)^(-1/2) (1 - s)^(-1/3), s the sum of the variables: the
        # factor product 1 - s^2 has no term of degree 1, yet the odd
        # coefficients are nonzero, so the sweep must follow the recurrence's
        # other polynomial too
        arity = len(u)
        one = MultiPoly.const(arity, 1)
        s = MultiPoly.from_terms(arity, [(tuple(int(j == i) for j in range(arity)), 1)
                                         for i in range(arity)])
        spec = QuasiRationalSpec(arity, one, ((one + s, HALF), (one - s, Fraction(1, 3))), u)

        def grade(m):
            return -sum(a * b for a, b in zip(u, m))

        N = 10
        table = expand(spec, N)
        ns = naive_series(spec, N)
        for m, c in ns.terms.items():
            if grade(m) <= N:
                assert table.value_at(m) == c, m
        for m in table.values:
            assert table.value_at(m) == ns.coeff(m), m
        box = expand_box(spec, lo, hi)
        ns = naive_series(spec, sum(hi))
        for r in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            assert box.value_at(r) == ns.coeff(r), r

    @pytest.mark.parametrize("power,engine", [(Fraction(1, 2), "auto"), (1, "integer"),
                                              (1, "real")])
    def test_negative_grade_numerator_refused_by_both_engines(self, power, engine):
        # the real engine used to drop index 3 (35/128 for power 1/2)
        one_minus_x = MultiPoly(1, {(0,): Fraction(1), (1,): Fraction(-1)})
        spec = QuasiRationalSpec(1, MultiPoly(1, {(-1,): Fraction(1)}),
                                 ((one_minus_x, power),), (-1,))
        with pytest.raises(SpecError, match="negative grade"):
            expand(spec, 3, engine=engine)

    def test_recurrence_residual_vanishes(self, fls):
        # (prod Q) P d_i f - f (d_iP prod Q - P sum s_j d_iQ_j prod_{k!=j} Q_k) = 0
        spec = fls.spec
        N = 6
        table = expand(spec, N)
        f = TruncatedSeries(3, N, {m: v for m, v in table.nonzero_items()})
        P = TruncatedSeries.from_poly(spec.numerator, N)
        Q = TruncatedSeries.from_poly(spec.factors[0][0], N)
        s = spec.factors[0][1]
        for i in range(3):
            df = _series_diff(f, i)
            dP = TruncatedSeries.from_poly(spec.numerator.diff(i), N)
            dQ = TruncatedSeries.from_poly(spec.factors[0][0].diff(i), N)
            lhs = Q * P * df
            rhs = f * (dP * Q - P * dQ.scale(s))
            diff = lhs - rhs
            assert all(c == 0 for m, c in diff.terms.items() if sum(m) <= N - 1)

    def test_aztec_parity_and_range(self, aztec):
        table = expand(aztec.spec, 30)
        for (i, j, n), v in table.nonzero_items():
            assert (i + j + n) % 2 == 1
            assert 0 <= v <= 1


def _series_diff(s: TruncatedSeries, i: int) -> TruncatedSeries:
    out = {}
    for m, c in s.terms.items():
        if m[i] == 0:
            continue
        m2 = list(m)
        m2[i] -= 1
        out[tuple(m2)] = out.get(tuple(m2), 0) + c * m[i]
    return TruncatedSeries(s.arity, s.order, out)


class TestEmpiricalDecay:
    def test_binomial_diagonal_growth(self):
        one2 = MultiPoly.const(2, 1)
        spec = QuasiRationalSpec(
            2, one2, ((one2 - MultiPoly.variable(2, 0) - MultiPoly.variable(2, 1), 1),),
            (-1, -1))
        rates = empirical_decay(spec, (1, 1), range(1, 11))
        # central binomials grow like 4^t: positive rate approaching 2 log 2
        assert all(rate > 0 for _, rate in rates)
        assert abs(rates[-1][1] - 2 * math.log(2)) < 0.3

    def test_aztec_interior_rate_to_zero(self, aztec):
        rates = empirical_decay(aztec.spec, (0, 0, 1), [5, 11, 17, 23])
        mags = [abs(rate) for _, rate in rates]
        assert mags == sorted(mags, reverse=True)
        assert mags[-1] < 0.07

    def test_aztec_outside_rate_negative(self, aztec):
        rates = empirical_decay(aztec.spec, (1, 0, 1), [10, 15, 20, 25])
        for t, rate in rates:
            if t >= 20:
                assert rate <= -0.05


class TestSerialization:
    def test_csv_exact_rationals(self, aztec):
        from conepoint.specio import table_to_csv
        table = expand(aztec.spec, 3)
        text = table_to_csv(table)
        lines = text.strip().splitlines()
        assert lines[0] == "r1,r2,r3,value"
        assert "0,0,1,1/2" in lines
        # bit-exact round trip of the rational literals
        for line in lines[1:]:
            *idx, val = line.split(",")
            num_den = val.split("/")
            assert all(part.lstrip("-").isdigit() for part in num_den)

    def test_json_table(self, cube_grove):
        from conepoint.specio import table_to_json
        table = expand(cube_grove.spec, 4)
        doc = table_to_json(table)
        assert doc["arity"] == 3 and doc["grading"] == [1, 1, 1]
        assert {"r": [0, 0, 2], "value": "2/3"} in doc["coefficients"]

    def test_float_mode_close_to_exact(self, cube_grove):
        exact = expand(cube_grove.spec, 8)
        approx = expand(floated(cube_grove.spec), 8)
        for m, v in exact.nonzero_items():
            assert abs(approx.value_at(m) - float(v)) <= 1e-12 * (1 + abs(float(v)))


class TestExpandBox:
    def test_box_matches_full(self, cube_grove):
        full = expand(cube_grove.spec, 8)
        box = expand_box(cube_grove.spec, (0, 0, 0), (3, 3, 2))
        for i in range(4):
            for j in range(4):
                for k in range(3):
                    assert box.value_at((i, j, k)) == full.value_at((i, j, k))

    def test_laurent_box(self, aztec):
        full = expand(aztec.spec, 9)
        box = expand_box(aztec.spec, (-2, -2, 0), (2, 2, 9))
        for i in range(-2, 3):
            for j in range(-2, 3):
                for n in range(10):
                    assert box.value_at((i, j, n)) == full.value_at((i, j, n))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 digests of serialized tables, recorded from the Fraction-based
# sweeps; the scaled-integer sweeps must reproduce them byte for byte.
GOLDEN_ORDERS = {"aztec": 20, "cube_grove": 16, "qrw2d": 14, "fls": 16,
                 "superballot": 14, "superballot-core": 18}
GOLDEN_JSON = {
    "aztec": "b6c0a78c35c7840a81c888df85c0281256c6f7725aba63fc665c4021efdec9a6",
    "cube_grove": "83d5443d79bf656657253314a23e529bab5ee07a6a1798421d9bffb8a08a57b4",
    "qrw2d": "7b7844a05748c967adfae85a788190d6f2db9a4d0413f95bba9f73b4e3d61cb7",
    "fls": "1e6d4c06a9a0440eb9c998f065103c7fa25ed75bb7ff71c3618815c0bca89103",
    "superballot": "1af4a92e001f6543ff338393ca2554fb3e96239ae82f456f3d0ea6f0b5ac6010",
    "superballot-core": "5bd084d8c557d71ab1409034dee3c65832d43d260f89bc4ccf512a83dba9f580",
}
GOLDEN_BOX = {
    "aztec": (((-4, -3, 0), (3, 4, 17)),
              "63da2be884f6864260633832b7c1e78d7d9d7bb48070db33841af4cbf980ada6"),
    "cube_grove": (((2, 1, 3), (9, 8, 7)),
                   "eb83149cf9184e6c9416fedaed1088c0f86cc33a08e760ab79a00126b578f744"),
    "fls": (((3, 0, 2), (9, 8, 10)),
            "aaed2ebe17aa53bb09e94f0b8ea93205fe04a2829ad54aa1b61fb547c2f2b351"),
    "superballot": (((1, 2, 0), (6, 5, 7)),
                    "63da00ba1e2109673f184a8ffb0e4450a57047cdfa9390b8b95d8d07d40926c3"),
}
# box-clipped sweeps as `oracle --at` and `compare` run them: the tables keep
# the slack cells that the clip leaves around the target box
GOLDEN_CLIP = [
    ("fls", (14, 14, 14), (14, 14, 14),
     "6acbf444ba39d51c21a4e37a40f83275dbe1fd1b9551a0f9f50a180a7c241a61"),
    ("superballot", (6, 30, 7), (6, 30, 7),
     "9ae080a09ff93af257de1d4b2f3c2a4337097465d2bc55f66d23d97f1d1854dc"),
    ("superballot-core", (16, 18, 20), (16, 18, 20),
     "ebcf06794565461b90d9d1432b5594eeeeddd24ea8139935bcfd4ae787585206"),
    ("cube_grove", (16, 18, 20), (16, 18, 20),
     "b1150d305ea6b56b73f7a5137395bfc7a7acbe9f3c0d35e6906687c81e637e89"),
    ("aztec", (3, 1, 39), (3, 1, 39),
     "f000d88d83cbc8151979b88b839d9555a498770dd140c66556714d278e7b9c72"),
    ("aztec", (0, -1, 39), (0, -1, 39),
     "18d2bdafb43ad8ecef2e8af7be11660bd3cca22fcd9a31f7260b6033169600f3"),
    ("aztec", (-15, -15, 0), (15, 15, 30),
     "8542cd2debf0748aa0aa896c15d5c7ad3d71ab09ba52bd292496ce957452f710"),
    ("superballot-core", (0, 0, 0), (24, 24, 24),
     "7e275b9710e569b98bafe37777d0f289bf25635f04fdfed788d72c62cabf014b"),
]
# box sweeps of floated specs printed with 17 digits: the real and the integer engine
# (fls re-recorded for the Euler-operator recurrence, which rounds differently;
# test_fls_float_within_1e_13_of_exact bounds its error)
GOLDEN_FLOAT_BOX = [
    ("fls", (3, 0, 2), (9, 8, 10),
     "f84021c4193bddbcc596c2fc4a63eea6280fd50fb2e06c674e143b1c25ea3f7c"),
    ("cube_grove", (2, 1, 3), (9, 8, 7),
     "4e92b835b8ff93658b60237b3201354e8eaf0beb79f76dcbc2e168fd282d920d"),
]
# exact tables printed with 17 digits, then the floated specs' tables printed the same way
# (the fls float digest re-recorded with the fls float box above)
GOLDEN_CSV = {
    "aztec": ("9fac72f47c77cc492e718f9d6a39c6a1ec039baa50af8c7c52cede0ed691fcfd",
              "9fac72f47c77cc492e718f9d6a39c6a1ec039baa50af8c7c52cede0ed691fcfd"),
    "fls": ("4cc9c56ce02334b1039377a46311a4ab5996b3c1a578965cbddb4df93239e98a",
            "fc4a1eda5f85e1efaf17de9e15dfe6d31290b82eb8d92c7b42517e623f555686"),
    "qrw2d": ("9c9d786fe8c59838cb227bb7c7b56a678e50b7bf5ac62a77ed250c0c8387f55d",
              "9c9d786fe8c59838cb227bb7c7b56a678e50b7bf5ac62a77ed250c0c8387f55d"),
}
# the formats the digests above leave out, recorded from the printers that built
# one Fraction per cell: (exact CSV, `--float` JSON, `--float 9` CSV) of each
# preset's table, then of its floated spec's table
GOLDEN_FORMATS = {
    "aztec": (("9e67dc9e99939f14dece35e9f0b4ba13eb508f66c522e6d63dd494404860159e",
               "8903fb4fb031709e73b3217048908a83ba5d81189566471aaa3951c7575f70af",
               "ffbd4a740560572b470de969ac37a0b8c0e8a8742573699fa1541b47e9de9748"),
              ("88346965228767c59331d80d674b22edfd9fdd66e5854ff87005a222def6e145",
               "8903fb4fb031709e73b3217048908a83ba5d81189566471aaa3951c7575f70af",
               "ffbd4a740560572b470de969ac37a0b8c0e8a8742573699fa1541b47e9de9748")),
    "cube_grove": (("e5e0f38c132d62ccdeefd4ff6d5a675468a74acbe2d0480b7f1cbfcfc99ec448",
                    "498a0d6395d3e3e3f9325a50ad9353093ddaa56b9bb2a3bfbdd345ce5e1c2a1f",
                    "7e0dab73add40e73a132a1502f49e25ad13328eebbd91766d0aebc9cd5588d6e"),
                   ("4b901bef92d7fbc7f50e503ee9270ac06267038d5a9bd7f99abed07e2c36acbe",
                    "5645a404949d5ffc3d9c16ccf1af1e95a5f7a0fdc04160b471efe4c3b35ba1ae",
                    "7e0dab73add40e73a132a1502f49e25ad13328eebbd91766d0aebc9cd5588d6e")),
    "qrw2d": (("059f2a16c3380b80a882bbfaa4c91bee16b94e9c5cdbcaaea97e65c866e7477d",
               "828320255bd3b7c98d69e82a6a347313b59446adadc04e773d4b66f25c783c51",
               "b9601be57b0294f41a70063aa25796d2801a2b87b2b904e889ed9934920f759e"),
              ("370db663050b15a17b07db3f8bd9aa406dc7f3754b4725480d2be41f48688a04",
               "828320255bd3b7c98d69e82a6a347313b59446adadc04e773d4b66f25c783c51",
               "b9601be57b0294f41a70063aa25796d2801a2b87b2b904e889ed9934920f759e")),
    "fls": (("34d34f754ac4249bd025056aea48af4f4a89df73560705e760e9eb2b372af02d",
             "1e6d4c06a9a0440eb9c998f065103c7fa25ed75bb7ff71c3618815c0bca89103",
             "04e123677edea78f14b507a91c52d51359c4abd6f48e1c5b31f8db88cc34d511"),
            ("0d225edb547d4ddb165b8d0fc0c45154425114f7552e96eb585c92bbb39b0eb0",
             "7455dbc0305763edf801c5301e8b542dea72574550230cefd12ce065540668b9",
             "04e123677edea78f14b507a91c52d51359c4abd6f48e1c5b31f8db88cc34d511")),
    "superballot": (("d066d61e4ec0c4b332e65838f1f6a4b03cda0624444a6a70ebfb0f76a579ae07",
                     "4f1066828a33d1969f501f41eea90a2f543d139e4296682d6fd4ce9110f7ff8f",
                     "d066d61e4ec0c4b332e65838f1f6a4b03cda0624444a6a70ebfb0f76a579ae07"),
                    ("38b1329103f76eb3123ba95fd8965bf7c21ca36f55585bb1f9bf56f0b8190d53",
                     "4f1066828a33d1969f501f41eea90a2f543d139e4296682d6fd4ce9110f7ff8f",
                     "d066d61e4ec0c4b332e65838f1f6a4b03cda0624444a6a70ebfb0f76a579ae07")),
    "superballot-core": (("fd0a3fa87d029eaac632fb6c40190b30694c46c839a8b998a7f9fb55318d0a2a",
                          "a572ac57065efe176ef8a9877bb3589abe8693bc271bc5cb45a089579a601b67",
                          "ff1c679c86ef0902f5a49a9aa458e8890e462176a56ef0b7bf97c1ce5fc7abd9"),
                         ("831abe23a703257d4a7506e8cd857fb7e26de0fcece49d384118882e2e6fbc8d",
                          "a572ac57065efe176ef8a9877bb3589abe8693bc271bc5cb45a089579a601b67",
                          "ff1c679c86ef0902f5a49a9aa458e8890e462176a56ef0b7bf97c1ce5fc7abd9")),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
    def test_table_json(self, name):
        from conepoint.specio import canonical_json, table_to_json
        table = expand(preset(name).spec, GOLDEN_ORDERS[name])
        assert _sha256(canonical_json(table_to_json(table))) == GOLDEN_JSON[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_BOX))
    def test_box_json(self, name):
        from conepoint.specio import canonical_json, table_to_json
        (lo, hi), digest = GOLDEN_BOX[name]
        table = expand_box(preset(name).spec, lo, hi)
        assert _sha256(canonical_json(table_to_json(table))) == digest

    @pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
    def test_float_csv(self, name):
        from conepoint.specio import table_to_csv
        spec = preset(name).spec
        exact_digest, float_digest = GOLDEN_CSV[name]
        exact = expand(spec, GOLDEN_ORDERS[name])
        assert _sha256(table_to_csv(exact, float_digits=17)) == exact_digest
        approx = expand(floated(spec), GOLDEN_ORDERS[name])
        assert _sha256(table_to_csv(approx, float_digits=17)) == float_digest

    @pytest.mark.parametrize("kind", ["exact", "floated"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_FORMATS))
    def test_other_formats(self, name, kind):
        from conepoint.specio import canonical_json, table_to_csv, table_to_json
        spec = preset(name).spec
        if kind == "floated":
            spec = floated(spec)
        texts = (table_to_csv, lambda t: canonical_json(table_to_json(t, 17)),
                 lambda t: table_to_csv(t, 9))
        digests = tuple(_sha256(text(expand(spec, GOLDEN_ORDERS[name]))) for text in texts)
        assert digests == GOLDEN_FORMATS[name][kind == "floated"]

    @pytest.mark.parametrize("box", [None, ((3, 0, 2), (9, 8, 10))], ids=["table", "box"])
    def test_fls_float_within_1e_13_of_exact(self, box):
        # the fls float digests pin one rounding of the real engine; this pins
        # its accuracy, whatever order the recurrence sums in
        spec = preset("fls").spec
        if box is None:
            exact, approx = (expand(s, GOLDEN_ORDERS["fls"]) for s in (spec, floated(spec)))
        else:
            exact, approx = (expand_box(s, *box) for s in (spec, floated(spec)))
        assert set(exact.values) == set(approx.values)
        for m in exact.values:
            e = float(exact.value_at(m))
            assert abs(approx.value_at(m) - e) <= 1e-13 * abs(e), m

    @pytest.mark.parametrize("name,lo,hi,digest", GOLDEN_CLIP)
    def test_clipped_box_json(self, name, lo, hi, digest):
        from conepoint.specio import canonical_json, table_to_json
        table = expand_box(preset(name).spec, lo, hi)
        assert _sha256(canonical_json(table_to_json(table))) == digest

    @pytest.mark.parametrize("name,lo,hi,digest", GOLDEN_FLOAT_BOX)
    def test_float_box_csv(self, name, lo, hi, digest):
        from conepoint.specio import table_to_csv
        table = expand_box(floated(preset(name).spec), lo, hi)
        assert _sha256(table_to_csv(table, float_digits=17)) == digest
