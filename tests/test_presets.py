import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conepoint.localgeo import DirectionTag, classify_direction, quadratic_point_data
from conepoint.critpoints import find_singular_points
from conepoint.oracle import expand
from conepoint.asympt import prepare, total_asymptotics
from conepoint.presets import (PRESET_NAMES, aztec_creation_check, grove_relation_check,
                               preset, qrw_simulate, qrw_walk,
                               superballot_number)
from conepoint import specio
from reference_regions import VALIDITY_REGION
from references import REFERENCE_FORMULAS

SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"


class TestKnownPoints:
    @pytest.mark.parametrize("name", ["aztec", "cube_grove", "fls", "superballot-core"])
    def test_points_rediscovered(self, name):
        pr = preset(name)
        # the quadratic factor is the unique one that is singular at the points
        found = []
        for poly, _ in pr.spec.factors:
            rep = find_singular_points(poly, [0.0] * 3, starts=150, seed=5)
            found.extend(tuple(round(z.real, 9) for z in p.Z) for p in rep.points)
        want = sorted(tuple(float(z) for z in Z) for Z in pr.known_points)
        assert sorted(found) == want

    @pytest.mark.parametrize("name", ["aztec", "cube_grove", "fls", "superballot-core"])
    def test_point_data_loads(self, name):
        pr = preset(name)
        for Z in pr.known_points:
            data = quadratic_point_data(pr.spec, Z)
            assert data.normalizer_absdet > 0


class TestReferenceAgreement:
    @pytest.mark.parametrize("name", ["aztec", "cube_grove", "fls", "superballot-core"])
    def test_reference_matches_engine_on_random_interior(self, name):
        pr = preset(name)
        rng = random.Random(hash(name) % 10 ** 6)
        points = prepare(pr.spec, pr.known_points)
        checked = 0
        while checked < 20:
            t = rng.randint(20, 60)
            if name == "aztec":
                r = (rng.randint(-t // 2, t // 2), rng.randint(-t // 2, t // 2), t)
            else:
                r = (rng.randint(1, 2 * t), rng.randint(1, 2 * t), t)
            ref = REFERENCE_FORMULAS[name](r)
            if ref is None or VALIDITY_REGION[name](r) is not DirectionTag.InteriorEllipticCone:
                continue
            cls = classify_direction(points[0].data, r)
            if cls.tag is not DirectionTag.InteriorEllipticCone or abs(cls.margin) < 1e-3:
                continue
            checked += 1
            est = total_asymptotics(pr.spec, r, points=points)
            if ref == 0.0:
                assert est.value == 0.0
            else:
                assert abs(est.value - ref) <= 1e-9 * abs(ref), (name, r)

    @pytest.mark.parametrize("name,direction,ts", [
        ("fls", (1, 1, 1), (6, 10, 14, 22, 30, 38)),
        ("superballot-core", (1, 2, 3), (4, 6, 8, 12, 16, 20)),
        ("cube_grove", (1, 1, 1), (4, 8, 12, 20, 26, 32)),
        ("aztec", (0, 0, 1), (5, 9, 13, 25, 31, 39)),
    ])
    def test_convergence_trend_along_direction(self, name, direction, ts):
        # relative error decreasing in trend (median over a window), per the
        # oscillatory subleading corrections
        import statistics
        from conepoint.oracle import coefficient_at
        pr = preset(name)
        points = prepare(pr.spec, pr.known_points)
        errs = []
        for t in ts:
            r = tuple(t * x for x in direction)
            o = float(coefficient_at(pr.spec, r))
            est = total_asymptotics(pr.spec, r, points=points)
            errs.append(abs(est.value - o) / abs(o))
        half = len(errs) // 2
        assert statistics.median(errs[half:]) <= statistics.median(errs[:half])
        assert max(errs[half:]) < 0.10

    def test_region_classifiers_agree(self):
        for name in ("aztec", "cube_grove"):
            data = quadratic_point_data(preset(name).spec, (1, 1, 1))
            rng = random.Random(77)
            for _ in range(200):
                r = (rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(1, 30))
                mine = classify_direction(data, r)
                if abs(mine.margin) < 1e-2:
                    continue  # reference sampler is not reliable near boundaries
                ref = VALIDITY_REGION[name](r)
                if mine.tag in (DirectionTag.Indeterminate, DirectionTag.ObstructedBoundary):
                    continue
                assert mine.tag is ref, (name, r)


# SHA-256 of the sorted states of qrw_simulate at these times, recorded from
# the Fraction-based walk; the scaled-integer walk must reproduce it
QRW_GOLDEN_TIMES = (0, 1, 16, 32, 64)
QRW_GOLDEN = "badba29aaa881179e865863e9fa9b871530ea802d421533740d8387d538a7eaf"


class TestQRW:
    def test_simulation_golden_digest(self):
        text = "".join(f"{t} {x} {y} {i} {v}\n" for t, state in qrw_walk(QRW_GOLDEN_TIMES)
                       for (x, y, i), v in sorted(state.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == QRW_GOLDEN

    def test_time_zero_and_one(self):
        s0 = qrw_simulate(0)
        assert s0 == {(0, 0, 1): Fraction(1)}
        s1 = qrw_simulate(1)
        assert s1 == {(1, 0, 0): Fraction(-1, 2), (0, 1, 1): Fraction(1, 2),
                      (-1, 0, 2): Fraction(-1, 2), (0, -1, 3): Fraction(-1, 2)}

    def test_unitary_through_t8(self):
        for t in range(9):
            assert sum(v * v for v in qrw_simulate(t).values()) == 1

    def test_generating_functions_match_simulation(self, qrw):
        T = 8
        tables = {ch: expand(qrw.companions[ch], T) for ch in "ENWS"}
        for t in range(T + 1):
            sim = qrw_simulate(t)
            for x in range(-t, t + 1):
                for y in range(-t, t + 1):
                    for i, ch in enumerate("ENWS"):
                        assert tables[ch].value_at((x, y, t)) == \
                            sim.get((x, y, i), Fraction(0))


class TestModelIdentities:
    def test_grove_relation_small(self):
        assert grove_relation_check(2)
        assert grove_relation_check(5)

    def test_grove_relation_rejects_zero(self):
        with pytest.raises(ValueError):
            grove_relation_check(0)

    def test_aztec_creation_rates(self):
        assert aztec_creation_check(10)

    def test_superballot_closed_form(self, superballot_full):
        table = expand(superballot_full.spec, 12)
        rng = random.Random(4)
        checked = 0
        while checked < 15:
            a, c = rng.randint(0, 3), rng.randint(0, 3)
            b = rng.randint(a + c + 1, 12 - a - c) if a + c + 1 <= 12 - a - c else None
            if b is None:
                continue
            checked += 1
            assert table.value_at((a, b, c)) == superballot_number(a, b - a - c, c)

    def test_superballot_core_vs_full_documented_scaling(self, superballot_core):
        # N(a,b,c) = 2^(a+b+c) * core coefficient; integrality is the exactness check
        table = expand(superballot_core.spec, 9)
        for r in [(1, 1, 1), (2, 3, 1), (0, 0, 5), (3, 3, 3)]:
            N = table.value_at(r) * Fraction(2) ** sum(r)
            assert N.denominator == 1


class TestParameters:
    def test_fls_beta_guard(self):
        with pytest.raises(ValueError):
            preset("fls", beta=Fraction(1, 2))
        with pytest.raises(ValueError):
            preset("fls", beta=Fraction(1, 4))
        assert preset("fls", beta=Fraction(5, 8)).spec.factors[0][1] == Fraction(5, 8)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("nope")


class TestShippedSpecFiles:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_json_matches_in_code_preset(self, name):
        pr = preset(name)
        path = SPEC_DIR / f"{name}.json"
        with open(path) as fh:
            obj = json.load(fh)
        spec = specio.spec_from_json(obj)
        assert spec.numerator == pr.spec.numerator
        assert len(spec.factors) == len(pr.spec.factors)
        for (p1, s1), (p2, s2) in zip(spec.factors, pr.spec.factors):
            assert p1 == p2 and s1 == s2
        assert spec.cone_direction_u == pr.spec.cone_direction_u
