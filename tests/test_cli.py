import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from conepoint.cli import main
from conepoint import specio

SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


FLS_HALF = json.loads((SPEC_DIR / "fls.json").read_text())
FLS_HALF["factors"][0]["power"] = "1/2"
LACUNA_NOTE = ("direction inside a lacuna: coefficients are smaller than every power of "
               "|r| times |Z^-r|")


class TestOracle:
    def test_geometric_column_of_ones(self, tmp_path, capsys):
        spec = {
            "variables": ["X"],
            "numerator": [{"coeff": "1", "exponents": [0]}],
            "factors": [{"poly": [{"coeff": "1", "exponents": [0]},
                                  {"coeff": "-1", "exponents": [1]}], "power": "1"}],
            "cone_direction_u": [-1],
        }
        path = tmp_path / "geo1.json"
        path.write_text(json.dumps(spec))
        rc, out, _ = run(capsys, "oracle", "--spec", str(path), "--order", "5")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r1,value"
        assert all(line.endswith(",1") for line in lines[1:])
        assert len(lines) == 7

    def test_fls_single_value(self, capsys):
        rc, out, _ = run(capsys, "oracle", "--preset", "fls", "--beta", "3/4",
                         "--at", "50,50,50", "--float", "9")
        assert rc == 0
        assert abs(float(out) - 0.000223464) < 5e-9

    def test_decimal_beta_takes_the_float_path(self, capsys):
        rc, out, _ = run(capsys, "oracle", "--preset", "fls", "--beta", "0.75", "--at", "3,3,3")
        rc_exact, out_exact, _ = run(capsys, "oracle", "--preset", "fls", "--beta", "3/4",
                                     "--at", "3,3,3", "--float")
        assert rc == rc_exact == 0
        # a float power sweeps in floats: the digits differ from the exact value's
        assert out != out_exact
        assert abs(float(out) - float(out_exact)) <= 1e-13 * abs(float(out_exact))

    def test_superballot_core_scaled(self, capsys):
        rc, out, _ = run(capsys, "oracle", "--preset", "superballot-core",
                         "--at", "10,20,30")
        assert rc == 0
        num, den = out.strip().split("/")
        assert int(num) * 2 ** 60 % int(den) == 0
        N = int(num) * 2 ** 60 // int(den)
        assert abs(N - 2.547e16) < 0.0005e16

    def test_float_digits_in_every_format(self, capsys):
        # the JSON table printed every value as a full double whatever the digits
        rc, out, _ = run(capsys, "oracle", "--preset", "fls", "--order", "1",
                         "--format", "json", "--float", "3")
        assert rc == 0
        assert [c["value"] for c in json.loads(out)["coefficients"]] == [0.439, 0.219,
                                                                         0.219, 0.219]
        _, csv, _ = run(capsys, "oracle", "--preset", "fls", "--order", "1", "--float", "3")
        assert csv.splitlines()[1:] == ["0,0,0,0.439", "0,0,1,0.219", "0,1,0,0.219",
                                        "1,0,0,0.219"]

    def test_float_digits_on_complex_values(self, capsys, tmp_path):
        # fls times 1/(2i - X) has a complex scale: the JSON table raised TypeError,
        # and the CSV table and --at printed every digit whatever the count
        raw = json.loads((SPEC_DIR / "fls.json").read_text())
        raw["factors"].append({"poly": [{"coeff": [0.0, 2.0], "exponents": [0, 0, 0]},
                                        {"coeff": "-1", "exponents": [1, 0, 0]}],
                               "power": "1"})
        path = tmp_path / "fls-complex.json"
        path.write_text(json.dumps(raw))
        rc, out, _ = run(capsys, "oracle", "--spec", str(path), "--order", "1",
                         "--format", "json", "--float", "3")
        assert rc == 0
        assert json.loads(out)["coefficients"][3] == {"r": [1, 0, 0], "value": [-0.11, -0.11]}
        rc, out, _ = run(capsys, "oracle", "--spec", str(path), "--order", "1",
                         "--format", "json", "--float")
        assert rc == 0 and json.loads(out)["coefficients"][0]["value"][1] < 0
        _, csv, _ = run(capsys, "oracle", "--spec", str(path), "--order", "1", "--float", "3")
        assert csv.splitlines()[-1] == "1,0,0,-0.11-0.11j"
        _, at, _ = run(capsys, "oracle", "--spec", str(path), "--at", "1,1,1", "--float", "3")
        assert at == "-0.0366-0.0427j\n"

    def test_missing_order_and_at(self, capsys):
        rc, _, err = run(capsys, "oracle", "--preset", "fls")
        assert rc == 3


class TestAsym:
    def test_fls_prediction(self, capsys):
        rc, out, _ = run(capsys, "asym", "--preset", "fls", "--beta", "3/4",
                         "--r", "50,50,50")
        assert rc == 0
        report = json.loads(out)
        assert abs(report["value"] - 0.000222832) < 5e-9

    def test_aztec_quarter(self, capsys):
        rc, out, _ = run(capsys, "asym", "--preset", "aztec", "--r", "0,0,9")
        assert rc == 0
        assert abs(json.loads(out)["value"] - 0.25) < 1e-12

    def test_outside_cone_refusal_exit(self, capsys):
        rc, out, _ = run(capsys, "asym", "--preset", "aztec", "--r", "1,0,1")
        assert rc == 2
        report = json.loads(out)
        assert report["formula"] == "exponential-decay"
        assert any("exponentially small" in note for note in report["notes"])
        # every point names its zero contribution outside the cone the same way
        for preset_name, r in (("aztec", "1,0,1"), ("fls", "1,0,0"), ("cube_grove", "1,0,0")):
            rc, out, _ = run(capsys, "asym", "--preset", preset_name, "--r", r)
            report = json.loads(out)
            assert (rc, report["formula"]) == (2, "exponential-decay"), preset_name
            assert {c["formula"] for c in report["per_point"]} == {"outside"}, preset_name

    @pytest.mark.parametrize("numerator,v", [
        ([("-1", [0, 0, 0]), ("1", [1, 0, 0])], 1),  # X - 1
        ([("2", [0, 0, 0]), ("-2", [1, 0, 0]), ("-2", [0, 1, 0]), ("1", [2, 0, 0]),
          ("1", [0, 2, 0])], 2),  # (X - 1)^2 + (Y - 1)^2
    ])
    def test_vanishing_numerator_reaches_the_leading_order(self, capsys, tmp_path,
                                                           numerator, v):
        # a numerator vanishing to degree v leaves the first v orders empty, so --terms
        # N keeps v + 1 orders at least (--terms 1 answered 0.0)
        raw = json.loads((SPEC_DIR / "fls.json").read_text())
        raw["numerator"] = [{"coeff": c, "exponents": m} for c, m in numerator]
        path = tmp_path / "vanishing.json"
        path.write_text(json.dumps(raw))
        values = []
        for terms in range(1, v + 2):
            rc, out, _ = run(capsys, "asym", "--spec", str(path), "--r", "20,20,20",
                             "--terms", str(terms))
            assert rc == 0
            values.append(json.loads(out)["value"])
        rc, out, _ = run(capsys, "oracle", "--spec", str(path), "--at", "20,20,20")
        exact = float(Fraction(out))
        assert values == [values[0]] * (v + 1)
        assert abs(values[0] - exact) < 0.1 * v * exact, (values, exact)

    def test_numerator_vanishing_beyond_the_local_order_exit_2(self, capsys, tmp_path):
        # (X - 1)^9: its leading term lies past the local order 8 that --terms 1 expands to
        raw = json.loads((SPEC_DIR / "fls.json").read_text())
        raw["numerator"] = [{"coeff": str(math.comb(9, k) * (-1) ** (9 - k)),
                             "exponents": [k, 0, 0]} for k in range(10)]
        path = tmp_path / "vanishing.json"
        path.write_text(json.dumps(raw))
        rc, out, err = run(capsys, "asym", "--spec", str(path), "--r", "20,20,20")
        assert (rc, out) == (2, "")
        assert err == ("refused: point (1, 1, 1) has a numerator that vanishes beyond the "
                       'local order 8: its leading term is not known\n{"order":8,"point":'
                       '["1","1","1"]}\n')


class TestClassify:
    def test_report_fields(self, capsys):
        rc, out, _ = run(capsys, "classify", "--preset", "aztec", "--r", "0,9,10")
        assert rc == 0
        report = json.loads(out)
        entry = report["points"][0]
        assert entry["class"] == "InteriorE"
        assert "dual_rr" in entry and "dual_rl" in entry and "decay_exponent_bound" in entry
        assert entry["q_matrix"] and entry["dual_matrix"]

    def test_axis_interior(self, capsys):
        rc, out, _ = run(capsys, "classify", "--preset", "aztec", "--r", "0,0,1")
        assert rc == 0
        assert json.loads(out)["points"][0]["class"] == "InteriorEllipticCone"

    def test_outside(self, capsys):
        rc, out, _ = run(capsys, "classify", "--preset", "aztec", "--r", "1,0,1")
        assert rc == 0
        report = json.loads(out)
        assert report["points"][0]["class"] == "OutsideNormalCone"
        assert report["points"][0]["dual_rr"] == "-1"

    def test_spec_without_points_discovers_them(self, capsys, tmp_path):
        raw = json.loads((SPEC_DIR / "fls.json").read_text())
        raw.pop("points")
        path = tmp_path / "fls.json"
        path.write_text(json.dumps(raw))
        rc, out, _ = run(capsys, "classify", "--spec", str(SPEC_DIR / "fls.json"),
                         "--r", "8,12,10")
        rc_found, out_found, _ = run(capsys, "classify", "--spec", str(path),
                                     "--r", "8,12,10")
        assert rc == rc_found == 0
        assert out_found == out and json.loads(out)["points"]


class TestRefusals:
    @pytest.mark.parametrize("argv", [
        ("asym", "--r", "10,20,30"),
        ("classify", "--r", "10,20,30"),
        ("compare", "--directions", "10,20,30"),
        ("compare", "--t-list", "9"),
    ], ids=" ".join)
    def test_superballot_linear_square_root_factor(self, capsys, argv):
        rc, out, err = run(capsys, argv[0], "--preset", "superballot", *argv[1:])
        assert rc == 2 and not out
        assert err.startswith("refused: point (1/2, 1/2, 1/2) has a linear factor with power "
                              "1/2:")
        assert json.loads(err.splitlines()[1]) == {"point": ["1/2", "1/2", "1/2"],
                                                   "power": "1/2"}

    def test_qrw2d_linear_factor_inside_dual_cone(self, capsys):
        # the point is outside the contour formulas; this exited 4 as a numeric failure
        rc, out, err = run(capsys, "classify", "--preset", "qrw2d", "--r", "5,6,7")
        assert rc == 2 and not out
        assert err.startswith("refused: point (1, 1, 1) has a linear factor inside the closed "
                              "dual cone")
        assert json.loads(err.splitlines()[1]) == {"dual_ll": "1", "point": ["1", "1", "1"]}

    @pytest.mark.parametrize("command", ["asym", "classify"])
    def test_aztec_with_linear_factor_inside_dual_cone(self, capsys, tmp_path, command):
        # aztec with its second factor 1 - Z, so q*(ell, ell) = 1: both commands
        # give the one refusal, with the same message and diagnostics
        raw = json.loads((SPEC_DIR / "aztec.json").read_text())
        raw["factors"][1]["poly"] = [{"coeff": "1", "exponents": [0, 0, 0]},
                                     {"coeff": "-1", "exponents": [0, 0, 1]}]
        path = tmp_path / "aztec-z.json"
        path.write_text(json.dumps(raw))
        rc, out, err = run(capsys, command, "--spec", str(path), "--r", "1,2,9")
        assert rc == 2 and not out
        assert err.startswith("refused: point (1, 1, 1) has a linear factor inside the closed "
                              "dual cone")
        assert json.loads(err.splitlines()[1]) == {"dual_ll": "1", "point": ["1", "1", "1"]}

    # cube_grove times 1/(1 - X) puts two linear factors through (1, 1, 1), which no
    # formula covers, so classify refuses it too; with either of its factors squared
    # the point is a k = 1 point that is not the cone-plane shape, which classify
    # still reports.  Each exited 4 (or 0 from compare, with refused rows).
    @pytest.mark.parametrize("shape,why,classified", [
        ("two-linear", "is where more than one linear factor vanishes", False),
        ("quadratic-squared", "has the quadratic to power 2 and a linear factor to power 1 "
                              "in 3 variables: the cone-plane formula needs", True),
        ("linear-squared", "has the quadratic to power 1 and a linear factor to power 2 "
                           "in 3 variables: the cone-plane formula needs", True),
    ])
    @pytest.mark.parametrize("argv", [("asym", "--r", "5,6,7"), ("classify", "--r", "5,6,7"),
                                      ("compare", "--directions", "5,6,7;7,7,7"),
                                      ("compare", "--t-list", "9")], ids=" ".join)
    def test_point_no_formula_covers_exit_2(self, capsys, tmp_path, shape, why, classified,
                                            argv):
        raw = json.loads((SPEC_DIR / "cube_grove.json").read_text())
        if shape == "two-linear":
            raw["factors"].append({"poly": [{"coeff": "1", "exponents": [0, 0, 0]},
                                            {"coeff": "-1", "exponents": [1, 0, 0]}],
                                   "power": "1"})
        else:
            raw["factors"][{"linear-squared": 0, "quadratic-squared": 1}[shape]]["power"] = "2"
        path = tmp_path / f"grove-{shape}.json"
        path.write_text(json.dumps(raw))
        rc, out, err = run(capsys, argv[0], "--spec", str(path), *argv[1:])
        if argv[0] == "classify" and classified:
            assert rc == 0 and not err
            assert json.loads(out)["points"][0]["class"] == "InteriorEllipticCone"
            return
        assert rc == 2 and not out
        assert err.startswith(f"refused: point (1, 1, 1) {why}")
        assert json.loads(err.splitlines()[1]) == {"point": ["1", "1", "1"]}

    @pytest.mark.parametrize("argv", [("asym", "--r", "5,6,7"), ("classify", "--r", "5,6,7"),
                                      ("compare", "--directions", "5,6,7"),
                                      ("compare", "--t-list", "5")], ids=" ".join)
    def test_empty_point_list_exit_2(self, capsys, tmp_path, argv):
        # "points": [] is not "find the points": asym answered exponential-decay from
        # no point at all, and a slice grid exited 3 for want of a point
        raw = json.loads((SPEC_DIR / "superballot-core.json").read_text())
        raw["points"] = []
        path = tmp_path / "core.json"
        path.write_text(json.dumps(raw))
        rc, out, err = run(capsys, argv[0], "--spec", str(path), *argv[1:])
        assert rc == 2 and not out
        assert err == ('refused: the spec gives an empty point list: list its points, or '
                       'leave "points" out to have them found\n')


    @pytest.mark.parametrize("command", ["asym", "classify"])
    def test_point_off_the_pole_variety_exit_3(self, capsys, tmp_path, command):
        # a given point at which no factor vanishes is an input error; it exited 4
        raw = json.loads((SPEC_DIR / "fls.json").read_text())
        raw["points"] = [["2", "2", "2"]]
        path = tmp_path / "fls-off.json"
        path.write_text(json.dumps(raw))
        rc, out, err = run(capsys, command, "--spec", str(path), "--r", "10,10,10")
        assert rc == 3 and not out
        assert err == ("spec error: no factor vanishes at the given point (2, 2, 2); "
                       "it is not on the pole variety\n")

    @pytest.mark.parametrize("command", ["asym", "classify"])
    def test_point_where_only_linear_factors_vanish_exit_2(self, capsys, tmp_path, command):
        # fls times 1/(1 - X) at (1, 2, 2): only the linear factor vanishes there, so
        # the point is outside the contour formulas; it exited 4 without naming it
        raw = json.loads((SPEC_DIR / "fls.json").read_text())
        raw["factors"].append({"poly": [{"coeff": "1", "exponents": [0, 0, 0]},
                                        {"coeff": "-1", "exponents": [1, 0, 0]}],
                               "power": "1"})
        raw["points"] = [["1", "2", "2"]]
        path = tmp_path / "fls-linear.json"
        path.write_text(json.dumps(raw))
        rc, out, err = run(capsys, command, "--spec", str(path), "--r", "10,10,10")
        assert rc == 2 and not out
        assert err == ("refused: point (1, 2, 2) is where only linear factors vanish: the "
                       "contour formulas need a quadratic factor\n"
                       '{"point":["1","2","2"]}\n')

    @pytest.mark.parametrize("kind", ["non-lorentzian", "two-quadratics", "singular",
                                      "beyond-order"])
    @pytest.mark.parametrize("argv", [("asym", "--r", "10,10,10"),
                                      ("classify", "--r", "10,10,10"),
                                      ("compare", "--directions", "10,10,10")], ids=" ".join)
    def test_point_outside_the_contour_formulas_exit_2(self, capsys, tmp_path, kind, argv):
        # (X-1)^2 + (Y-1)^2 - (Z-1)^2 has signature (2,1); fls's factor split into
        # powers 1/2 and 1/4 puts two quadratic factors through (1, 1, 1);
        # 2(X-1)^2 - (Y-1)^2 is singular in 3 variables; and (1 - X)^10 vanishes
        # beyond the local order 8.  Each exited 4 as a numeric failure without
        # naming the point
        raw = json.loads((SPEC_DIR / "fls.json").read_text())
        diagnostics = {"point": ["1", "1", "1"]}
        if kind == "non-lorentzian":
            raw["factors"] = [{"poly": [{"coeff": c, "exponents": e} for c, e in [
                ("1", [0, 0, 0]), ("-2", [1, 0, 0]), ("-2", [0, 1, 0]), ("2", [0, 0, 1]),
                ("1", [2, 0, 0]), ("1", [0, 2, 0]), ("-1", [0, 0, 2])]], "power": "1"}]
            why = "is outside the contour formulas: signature (2,1) is not Lorentzian"
        elif kind == "two-quadratics":
            raw["factors"] = [dict(raw["factors"][0], power=p) for p in ("1/2", "1/4")]
            why = "is where more than one quadratic factor vanishes"
        elif kind == "singular":
            raw["factors"] = [{"poly": [{"coeff": c, "exponents": e} for c, e in [
                ("1", [0, 0, 0]), ("-4", [1, 0, 0]), ("2", [0, 1, 0]), ("2", [2, 0, 0]),
                ("-1", [0, 2, 0])]], "power": "1"}]
            why = "is outside the contour formulas: quadratic form is singular"
        else:
            raw["factors"] = [{"poly": [{"coeff": str((-1) ** k * math.comb(10, k)),
                                         "exponents": [k, 0, 0]} for k in range(11)],
                               "power": "1"}]
            why = "is where a factor vanishes beyond the local order 8"
            diagnostics["order"] = 8
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(raw))
        rc, out, err = run(capsys, argv[0], "--spec", str(path), *argv[1:])
        assert rc == 2 and not out
        first, second = err.splitlines()
        assert first.startswith(f"refused: point (1, 1, 1) {why}")
        assert json.loads(second) == diagnostics

    @staticmethod
    def _complex_point_spec(tmp_path, kind):
        """fls with its point written as the complex 1 + 0j; fls with every
        X-term coefficient times -i and no points, whose search finds (i, 1, 1);
        fls times 1/(2i - X), whose local expansion at (1, 1, 1) is complex; or
        fls times 1/(1 - X) with 1 written as the complex 1 + 0j."""
        raw = json.loads((SPEC_DIR / "fls.json").read_text())
        if kind == "written":
            raw["points"] = [[[1.0, 0.0], "1", "1"]]
        elif kind in ("expansion", "linear"):
            one = [0.0, 2.0] if kind == "expansion" else [1.0, 0.0]
            raw["factors"].append({"poly": [{"coeff": one, "exponents": [0, 0, 0]},
                                            {"coeff": "-1", "exponents": [1, 0, 0]}],
                                   "power": "1"})
        else:
            raw.pop("points")
            for term in raw["factors"][0]["poly"]:
                if term["exponents"][0] == 1:
                    term["coeff"] = [0.0, -float(Fraction(term["coeff"]))]
        path = tmp_path / f"fls-{kind}.json"
        path.write_text(json.dumps(raw))
        return str(path)

    @pytest.mark.parametrize("kind", ["written", "found", "expansion", "linear"])
    @pytest.mark.parametrize("argv", [("asym", "--r", "8,12,10"),
                                      ("compare", "--directions", "8,12,10")], ids=" ".join)
    def test_complex_point(self, capsys, tmp_path, kind, argv):
        # these raised TypeError from the formulas and exited 1 (but "linear" from
        # asym, which exited 4 on fls's power 3/4: the linear factor is checked first)
        path = self._complex_point_spec(tmp_path, kind)
        rc, out, err = run(capsys, argv[0], "--spec", path, *argv[1:])
        assert rc == 2 and not out
        first, diagnostics = err.splitlines()
        reason = "complex coordinate" if kind in ("written", "found") else "complex local expansion"
        assert first.startswith("refused: point (") and reason in first
        assert len(json.loads(diagnostics)["point"]) == 3

    def test_classify_still_reports_a_complex_point(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "classify", "--spec",
                         self._complex_point_spec(tmp_path, "written"), "--r", "8,12,10")
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (
            0, "9dc188738c32cfb0f72be020488b3551c41e1cf145733c1bb81ecccfc35dcb95")

    def test_classify_still_reports_a_complex_expansion(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "classify", "--spec",
                         self._complex_point_spec(tmp_path, "expansion"), "--r", "8,12,10")
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == (
            0, "5bf864fa5f24003b485009e611b6f55d155cadfc52a086db95d9b68c59e4c3db")


class TestCompare:
    def test_small_grid_summary(self, capsys, tmp_path):
        out_path = tmp_path / "cmp.csv"
        rc, _, _ = run(capsys, "compare", "--preset", "aztec", "--t-list", "9",
                       "--slice-step", "0.5", "--lambda-min", "-0.5",
                       "--lambda-max", "0.5", "--out", str(out_path))
        assert rc == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "r1,r2,r3,oracle,prediction,rel_error,class"
        assert lines[-1].startswith("#")
        data_rows = [l for l in lines[1:-1] if l]
        assert data_rows
        # even-parity rows report exact zero matches
        for row in data_rows:
            cols = row.split(",")
            r = tuple(int(x) for x in cols[:3])
            if sum(r) % 2 == 0:
                assert float(cols[3]) == 0.0 and float(cols[4]) == 0.0

    def test_explicit_directions(self, capsys):
        rc, out, _ = run(capsys, "compare", "--preset", "cube_grove",
                         "--directions", "7,7,7;9,9,9")
        assert rc == 0
        assert "median rel error" in out

    def test_summary_counts_only_predicted_rows(self, capsys):
        # rows outside every normal cone predict 0 by convention: no relative error
        rc, out, _ = run(capsys, "compare", "--preset", "fls", "--directions",
                         "1,0,0;10,10,10;0,0,12")
        *rows, summary = out.splitlines()[1:]
        rel = {row.split(",")[2]: row.split(",")[5] for row in rows}  # by r3
        assert rc == 0 and (rel["0"], rel["12"]) == ("", "")
        assert summary == (f"# interior points: 1, max rel error {rel['10']}, "
                           f"median rel error {rel['10']}")
        assert 0 < float(rel["10"]) < 0.05

    def test_grid_uses_the_spec_point(self, capsys, tmp_path):
        # X -> 2X, Y -> 2Y, Z -> 2Z moves the point to (1/2,1/2,1/2) and scales
        # both a_r and Z^(-r) by 2^|r|: the grid and the relative errors stay
        raw = json.loads((SPEC_DIR / "superballot-core.json").read_text())
        for term in raw["factors"][0]["poly"]:
            term["coeff"] = str(int(term["coeff"]) * 2 ** sum(term["exponents"]))
        raw["points"] = [["1/2"] * 3]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(raw))
        grid = ("--t-list", "9,13", "--slice-step", "0.25")
        rc, out, _ = run(capsys, "compare", "--preset", "superballot-core", *grid)
        rc_scaled, out_scaled, _ = run(capsys, "compare", "--spec", str(path), *grid)
        assert rc == rc_scaled == 0
        rows = [line.split(",") for line in out.splitlines()[1:-1]]
        rows_scaled = [line.split(",") for line in out_scaled.splitlines()[1:-1]]
        assert len(rows) > 20
        assert [row[:3] + row[6:] for row in rows] == \
            [row[:3] + row[6:] for row in rows_scaled]
        for row, row_scaled in zip(rows, rows_scaled):
            assert abs(float(row[5]) - float(row_scaled[5])) <= 1e-12, row

    @pytest.mark.parametrize("lone,both", [
        (("--lambda-min", "0.5"), ("--lambda-min", "0.5", "--lambda-max", "2")),
        (("--lambda-max", "0"), ("--lambda-min", "-2", "--lambda-max", "0")),
    ], ids=["min", "max"])
    def test_one_slice_bound_defaults_only_the_other(self, capsys, lone, both):
        # aztec is a Laurent spec: the default slice is -2..2
        outs = [run(capsys, "compare", "--preset", "aztec", "--t-list", "9", *argv)
                for argv in ((), lone, both)]
        assert [rc for rc, _, _ in outs] == [0, 0, 0]
        default, lone_out, both_out = (out for _, out, _ in outs)
        assert lone_out == both_out != default

    def test_spec_without_points_discovers_them(self, capsys, tmp_path):
        raw = json.loads((SPEC_DIR / "superballot-core.json").read_text())
        raw.pop("points")
        path = tmp_path / "core.json"
        path.write_text(json.dumps(raw))
        directions = ("--directions", "10,20,30;12,12,12")
        rc, out, _ = run(capsys, "compare", "--preset", "superballot-core", *directions)
        rc_found, out_found, _ = run(capsys, "compare", "--spec", str(path), "--seed", "3",
                                     *directions)
        assert rc == rc_found == 0
        assert out_found == out


class TestDeterminismAndErrors:
    def test_byte_identical_reruns(self, capsys):
        rc1, out1, _ = run(capsys, "asym", "--preset", "cube_grove", "--r", "5,6,7",
                           "--seed", "1")
        rc2, out2, _ = run(capsys, "asym", "--preset", "cube_grove", "--r", "5,6,7",
                           "--seed", "1")
        assert rc1 == rc2 == 0 and out1 == out2

    def test_spec_roundtrip_canonical(self, tmp_path):
        paths = sorted(SPEC_DIR.glob("*.json"))
        assert len(paths) == 8
        for path in paths:
            raw = path.read_text()
            obj = json.loads(raw)
            spec = specio.spec_from_json(obj)
            again = specio.canonical_json(
                specio.spec_to_json(spec, points=specio.spec_points_from_json(obj)))
            assert again == raw, path.name

    def test_malformed_spec_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"variables": ["X"], "factors": [{"poly": '
                       '[{"coeff": "1/0", "exponents": [0]}], "power": "1"}]}')
        rc, _, err = run(capsys, "oracle", "--spec", str(bad), "--order", "2")
        assert rc == 3
        assert "spec error" in err

    def test_missing_file_exit_3(self, capsys):
        for path in ("/nonexistent.json", str(SPEC_DIR)):
            rc, _, err = run(capsys, "oracle", "--spec", path, "--order", "2")
            assert rc == 3, path
            assert err.startswith("spec error:"), path

    def test_gamma_pole_is_a_lacuna_exit_2(self, tmp_path, capsys):
        # s + 1 - d/2 = 0 is a pole of Gamma in K(s), so 1/Gamma makes every order of
        # the series vanish inside the cone: a lacuna, answered with exit 2 as
        # exponential decay is (it was refused); the float copy decides the pole to 1e-9
        path = tmp_path / "pole.json"
        for raw in (FLS_HALF, _floated_json(FLS_HALF)):
            path.write_text(json.dumps(raw))
            for terms in ("1", "2", "3", "4"):
                for r in ("5,5,5", "2,2,3", "3,2,2"):
                    rc, out, err = run(capsys, "asym", "--spec", str(path), "--r", r,
                                       "--terms", terms)
                    report = json.loads(out)
                    assert (rc, err, report["formula"], report["value"]) == \
                        (2, "", "lacuna", 0.0), (terms, r)
                    assert report["notes"] == [LACUNA_NOTE]
                    assert [c["formula"] for c in report["per_point"]] == ["lacuna"]
            rc, out, _ = run(capsys, "asym", "--spec", str(path), "--r", "1,0,0")
            assert (rc, json.loads(out)["formula"]) == (2, "exponential-decay")
            rc, out, err = run(capsys, "compare", "--spec", str(path), "--directions",
                               "5,5,5;1,0,0")
            assert (rc, err) == (0, "")
            assert [row.split(",")[4:6] for row in out.splitlines()[1:-1]] == \
                [["0.0", ""], ["0.0", ""]]
            assert out.splitlines()[-1] == "# no predicted points with nonzero oracle values"

    def test_huygens_lacuna_in_four_variables(self, tmp_path, capsys):
        # Q = 6 - 3 sum X_i + sum_{i<j} X_i X_j is Lorentzian at (1,1,1,1); at s = 1 and
        # d = 4, s + 1 - d/2 = 0
        terms = [("6", [0] * 4)] + [("-3", [int(i == j) for i in range(4)]) for j in range(4)]
        terms += [("1", [int(i in (j, k)) for i in range(4)])
                  for j in range(4) for k in range(j + 1, 4)]
        raw = {"variables": ["A", "B", "C", "D"],
               "numerator": [{"coeff": "1", "exponents": [0] * 4}],
               "factors": [{"poly": [{"coeff": c, "exponents": m} for c, m in terms],
                            "power": "1"}],
               "cone_direction_u": ["-1"] * 4, "points": [["1"] * 4]}
        path = tmp_path / "huygens.json"
        path.write_text(json.dumps(raw))
        rc, out, _ = run(capsys, "asym", "--spec", str(path), "--r", "1,1,1,1")
        report = json.loads(out)
        assert (rc, report["formula"], report["value"], report["notes"]) == \
            (2, "lacuna", 0.0, [LACUNA_NOTE])

    def test_generic_spec_discovers_points(self, tmp_path, capsys):
        # spec JSON with no 'points' field: the singular point is found numerically
        raw = json.loads((SPEC_DIR / "superballot-core.json").read_text())
        raw.pop("points", None)
        path = tmp_path / "core.json"
        path.write_text(json.dumps(raw))
        rc, out, _ = run(capsys, "asym", "--spec", str(path), "--r", "10,20,30")
        assert rc == 0
        report = json.loads(out)
        assert abs(report["value"] * 2 ** 60 - 2.595e16) < 0.001e16


class TestInputErrors:
    def test_negative_order_exit_3(self, capsys):
        for flag, argv in (("--order", ("--order", "-1")),
                           ("--float", ("--order", "2", "--float", "-3")),
                           ("--float", ("--order", "2", "--float", "0"))):
            rc, out, err = run(capsys, "oracle", "--preset", "aztec", *argv)
            assert rc == 3 and not out, argv
            assert flag in err, argv

    @pytest.mark.parametrize("beta", ["1/2", "1/0", "abc"])
    def test_bad_beta_exit_3(self, capsys, beta):
        rc, out, err = run(capsys, "oracle", "--preset", "fls", "--beta", beta, "--at", "1,1,1")
        assert rc == 3 and not out
        assert err.startswith("spec error:") and "beta" in err

    def test_usage_errors_exit_3(self, capsys):
        # argparse exits 2 on its own, which is the refusal code here
        # oracle discovers no points, so it has no --seed; it used to accept and ignore one
        for argv in (("oracle", "--preset", "aztec", "--bogus"), ("oracle", "--order", "2"), (),
                     ("oracle", "--preset", "aztec", "--at", "1,1,2", "--seed", "7")):
            rc, out, err = run(capsys, *argv)
            assert rc == 3 and not out, argv
            assert err.startswith("usage: conepoint") and "spec error:" in err, argv
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: conepoint oracle")

    def test_order_with_at_exit_3(self, capsys):
        # --order used to be dropped silently: this printed 0 and exited 0
        rc, out, err = run(capsys, "oracle", "--preset", "aztec", "--at", "1,1,2", "--order", "3")
        assert rc == 3 and not out
        assert err.startswith("usage: conepoint") and "--at" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_format_with_at_exit_3(self, capsys, fmt):
        # --format used to be dropped silently for a single coefficient
        rc, out, err = run(capsys, "oracle", "--preset", "aztec", "--at", "1,1,2", "--format", fmt)
        assert rc == 3 and not out
        assert err.startswith("spec error:") and "--format" in err

    def test_float_outside_oracle_exit_3(self, capsys):
        # only oracle formats values; elsewhere --float is an unknown option
        rc, out, err = run(capsys, "asym", "--preset", "aztec", "--r", "0,0,9", "--float", "3")
        assert rc == 3 and not out
        assert err.startswith("usage: conepoint") and "--float" in err

    @pytest.mark.parametrize("source", [("--preset", "aztec"),
                                        ("--spec", str(SPEC_DIR / "fls.json"))],
                             ids=["preset", "spec"])
    def test_beta_outside_fls_exit_3(self, capsys, source):
        rc, out, err = run(capsys, "oracle", *source, "--beta", "5/4", "--at", "1,1,2")
        assert rc == 3 and not out
        assert err.startswith("spec error:") and "--beta" in err

    def test_zero_direction_exit_3(self, capsys):
        for argv in (("asym", "--preset", "aztec", "--r", "0,0,0"),
                     ("compare", "--preset", "aztec", "--directions", "1,2,9;0,0,0")):
            rc, out, err = run(capsys, *argv)
            assert rc == 3 and not out, argv
            assert "nonzero" in err

    def test_wrong_length_vectors_exit_3(self, capsys):
        for argv in (("oracle", "--preset", "aztec", "--at", "1,1"),
                     ("asym", "--preset", "aztec", "--r", "1,1"),
                     ("compare", "--preset", "aztec", "--directions", "1,1,1,1")):
            rc, out, err = run(capsys, *argv)
            assert rc == 3 and not out, argv
            assert "3 variables" in err

    @pytest.mark.parametrize("terms", ["0", "-1"])
    def test_nonpositive_terms_exit_3(self, capsys, terms):
        # a zero depth used to print a zero prediction and exit 0
        rc, out, err = run(capsys, "asym", "--preset", "fls", "--r", "1,1,1", f"--terms={terms}")
        assert rc == 3 and not out
        assert "spec error:" in err and "--terms" in err

    @pytest.mark.parametrize("flag,value", [("--t-list", "19,abc"), ("--t-list", "9,"),
                                            ("--slice-step", "0"), ("--slice-step", "nan"),
                                            ("--lambda-min", "nan"), ("--lambda-max", "inf"),
                                            ("--cone-margin", "nan"), ("--cone-margin", "-inf")])
    def test_bad_grid_options_exit_3(self, capsys, flag, value):
        # these used to exit 4, the numeric-failure code
        rc, out, err = run(capsys, "compare", "--preset", "aztec", f"{flag}={value}")
        assert rc == 3 and not out
        assert "spec error:" in err

    @pytest.mark.parametrize("constant", ["-2", [2.0, 1.0]], ids=["negative", "complex"])
    def test_fractional_power_needs_positive_constant_exit_3(self, capsys, tmp_path, constant):
        # the negative constant printed a complex value, the complex one a traceback
        spec = {"variables": ["X", "Y"],
                "factors": [{"poly": [{"coeff": constant, "exponents": [0, 0]},
                                      {"coeff": "1", "exponents": [1, 0]},
                                      {"coeff": "1", "exponents": [0, 1]}],
                             "power": "1/2"}]}
        path = tmp_path / "root.json"
        path.write_text(json.dumps(spec))
        for argv in (("--order", "2"), ("--at", "0,0")):
            rc, out, err = run(capsys, "oracle", "--spec", str(path), *argv)
            assert rc == 3 and not out, argv
            assert err.startswith("spec error: factors[0]:") and "positive" in err, argv

    @pytest.mark.parametrize("query", [("--order", "3"), ("--at", "1,1,1")], ids=" ".join)
    def test_laurent_factor_under_fractional_power_exit_3(self, capsys, tmp_path, query):
        # the message told the user to run a library function, which a CLI user cannot
        raw = json.loads((SPEC_DIR / "fls.json").read_text())
        raw["factors"][0]["poly"].append({"coeff": "1", "exponents": [0, -2, 1]})
        path = tmp_path / "fls-laurent.json"
        path.write_text(json.dumps(raw))
        rc, out, err = run(capsys, "oracle", "--spec", str(path), *query)
        assert rc == 3 and not out
        assert err == ("spec error: factors[0]: the term (0, -2, 1) has the negative "
                       "exponent -2; the real-power recurrence needs factors with "
                       "nonnegative exponents\n")

    @pytest.mark.parametrize("where,value,message", [
        (("factors", 0, "poly", 1, "exponents", 2), 1.5,
         "factors[0].poly[1].exponents: expected integers, got [0, 0, 1.5]"),
        (("factors", 0, "poly", 1, "exponents", 2), True,
         "factors[0].poly[1].exponents: expected integers, got [0, 0, True]"),
        (("factors",), None, "factors: expected a list of factors"),
        (("factors", 0, "power"), [0.5, 0], "factor powers must be nonzero reals"),
        (("cone_direction_u", 2), [1, 0], "cone_direction_u: the direction must be real"),
        (("points", 0, 1), None, "points[0][1]: unrecognized scalar None"),
        (("points", 0, 1), True, "points[0][1]: booleans are not scalars"),
        (("points", 0, 1), [None, 0], "points[0][1]: unrecognized scalar [None, 0]"),
        (("points", 0), ["1", "1"], "points[0]: expected a list of 3 scalars, got ['1', '1']"),
        (("points", 0, 0), "0", "points[0]: a point lies on a torus, so no coordinate may be "
                                "0, got ['0', '1', '1']"),
    ], ids=["exponent-1.5", "exponent-true", "factors-null", "complex-power",
            "complex-cone-direction", "point-null", "point-true", "point-complex-null",
            "point-length", "point-zero"])
    @pytest.mark.parametrize("argv", [("oracle", "--order", "3"), ("asym", "--r", "10,10,10")],
                             ids=" ".join)
    def test_malformed_value_exit_3(self, capsys, tmp_path, where, value, message, argv):
        # each value was read some other way: 1.5 and true as exponent 1, a point's
        # true as 1; the null factors, the complex power and direction and the null
        # coordinates crashed with a traceback, and the short point and the point
        # with a zero coordinate exited 4 (or 0 from the oracle, which reads no point)
        raw = json.loads((SPEC_DIR / "fls.json").read_text())
        *keys, last = where
        target = raw
        for key in keys:
            target = target[key]
        target[last] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(raw))
        rc, out, err = run(capsys, argv[0], "--spec", str(path), *argv[1:])
        assert (rc, out, err) == (3, "", f"spec error: {message}\n")

    def test_space_separated_negative_index(self, capsys):
        rc, out, _ = run(capsys, "oracle", "--preset", "aztec", "--at", "-1,1,5")
        rc_eq, out_eq, _ = run(capsys, "oracle", "--preset", "aztec", "--at=-1,1,5")
        assert rc == rc_eq == 0
        assert out == out_eq and out.strip() != "0"

    def test_space_separated_negative_direction(self, capsys):
        rc, out, _ = run(capsys, "asym", "--preset", "aztec", "--r", "-1,2,9")
        rc_eq, out_eq, _ = run(capsys, "asym", "--preset", "aztec", "--r=-1,2,9")
        assert rc == rc_eq == 0
        assert out == out_eq
        assert json.loads(out)["direction"] == [-1, 2, 9]


# SHA-256 of stdout and the exit code, recorded before per-point preparation
# was split out of total_asymptotics; the split must not change a byte.
GOLDEN_STDOUT = {
    ("compare", "--preset", "aztec", "--t-list", "9,19", "--slice-step", "0.25"):
        (0, "0610cb4ad38a7195d93599f8d488dad256ca6eb62c2d9b69751b476cae0e0e90"),
    ("compare", "--preset", "cube_grove", "--directions", "7,7,7;9,9,9;5,6,7;4,9,8"):
        (0, "bf6804edc06471429f2b05f3a6d3eb4023bec986600ca455829184dd1f406d92"),
    ("compare", "--preset", "fls", "--directions", "10,10,10;8,12,10;6,9,14"):
        (0, "ec957bd5d46f6d27d39eddee251231e771c5149f43e30c4248db9a0218f2d171"),
    ("compare", "--preset", "superballot-core", "--directions", "10,20,30;12,12,12;5,9,11"):
        (0, "8b9876f2a7589f6f4501d67d9f02351965bfb9ae6012175f53a1cb39874904a7"),
    # refused before any row: the linear factor 1 - Z lies inside the closed dual cone
    # at (1,1,1)
    ("compare", "--preset", "qrw2d", "--t-list", "9", "--slice-step", "0.5"):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asym", "--preset", "aztec", "--r", "0,0,9"):
        (0, "155d156314f95b9dd7ead061ef0b18f9d8a45f80b848f3d8e3f80ce73e5e4e40"),
    ("asym", "--preset", "cube_grove", "--r", "5,6,7"):
        (0, "c275260883dfc5e022b97eeeda0ed2aa0c17a8821be3b4c9eabb1b47e07e7e0d"),
    ("asym", "--preset", "qrw2d", "--r", "1,2,9"):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asym", "--preset", "fls", "--r", "10,10,10"):
        (0, "d5c125066c0f57c324308382ad5ff6f99fa854fa4d903693bf9d5d36b2b4f860"),
    # refused: the square-root factor vanishes linearly at (1/2,1/2,1/2)
    ("asym", "--preset", "superballot", "--r", "10,20,30"):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("asym", "--preset", "superballot-core", "--r", "10,20,30"):
        (0, "8cb2c0e8c0375c2a18cb0f6465fae8164f879d906a2fb85397b91d873d56d4a6"),
    # deeper series, recorded before each point's series was built once in prepare;
    # --terms 4 re-recorded when points expanded to local order 9 for it instead of 8
    # (the value moved toward the oracle: relative error 5.4e-3 -> 4.7e-3 on fls,
    # 9.1e-5 -> 1.2e-7 on superballot-core); superballot-core --terms 3 re-recorded
    # when each order was summed into one polynomial per power offset (one ulp:
    # 0.022089841098915243 -> 0.022089841098915246)
    ("asym", "--preset", "fls", "--r", "10,10,10", "--terms", "2"):
        (0, "1c5a7e43bf43b512bbd3c49d643fad3e6abd283293775e92d0000933852548a4"),
    ("asym", "--preset", "fls", "--r", "10,10,10", "--terms", "3"):
        (0, "63dffa93addb3cf9a319838c594b348d23e311b39728a8d1fecaa0f4912256c2"),
    ("asym", "--preset", "fls", "--r", "10,10,10", "--terms", "4"):
        (0, "3dd5d027d4cd29821bd5ec8ea93d26f1c931a0dff6a54c857ea8a6ab0267d99b"),
    ("asym", "--preset", "superballot-core", "--r", "10,20,30", "--terms", "2"):
        (0, "e14ec9dd77867e681b800702ba68273d8f347619cac2bddaacef715a64a038df"),
    ("asym", "--preset", "superballot-core", "--r", "10,20,30", "--terms", "3"):
        (0, "9d57a867d27ba22beaf66337e945d8a84593433d36bf297092d16b394734d022"),
    ("asym", "--preset", "superballot-core", "--r", "10,20,30", "--terms", "4"):
        (0, "221d7cf2d545d4973ac33fdb8cbf929dcf40dd3092e694c8c9907fc191202169"),
    ("classify", "--preset", "aztec", "--r", "1,0,1"):
        (0, "8b73c67522f75728bead520059870d6512d75d703c78db691e3ccd0ecdb381cb"),
    ("classify", "--preset", "cube_grove", "--r", "5,6,7"):
        (0, "e177c1b9cb633006ba99cdd3e6da68826e9ad98d61371bb54e04c56c0bd57408"),
    ("classify", "--preset", "fls", "--r", "10,10,10"):
        (0, "223b7f34d658b825296e44232e487ddf528ddb8c0d9e4b1e4bf58ee49b00eb80"),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT), ids=" ".join)
    def test_stdout_and_exit_code(self, capsys, argv):
        rc, out, _ = run(capsys, *argv)
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_STDOUT[argv]


def _floated_json(raw: dict) -> dict:
    """A spec's JSON with every coefficient and power written as a float."""
    out = json.loads(json.dumps(raw))
    for poly in [out["numerator"]] + [f["poly"] for f in out["factors"]]:
        for term in poly:
            term["coeff"] = float(Fraction(term["coeff"]))
    for f in out["factors"]:
        f["power"] = float(Fraction(f["power"]))
    return out


def _grove_float_vanishing_numerator() -> dict:
    raw = _floated_json(json.loads((SPEC_DIR / "cube_grove.json").read_text()))
    raw["numerator"] = [{"coeff": 1.0, "exponents": [1, 0, 0]},
                        {"coeff": -1.0, "exponents": [0, 0, 0]}]
    return raw


def _mixed_field_spec(power: str) -> dict:
    """Two variables; int, "p/q" and float coefficients side by side in one polynomial."""
    return {"variables": ["X", "Y"],
            "numerator": [{"coeff": 2, "exponents": [0, 0]},
                          {"coeff": "1/3", "exponents": [1, 0]},
                          {"coeff": 0.75, "exponents": [0, 1]}],
            "factors": [{"poly": [{"coeff": 1, "exponents": [0, 0]},
                                  {"coeff": "-1/3", "exponents": [1, 0]},
                                  {"coeff": -0.3, "exponents": [0, 1]},
                                  {"coeff": "-1/7", "exponents": [1, 1]}], "power": power},
                        {"poly": [{"coeff": "1", "exponents": [0, 0]},
                                  {"coeff": "-2/5", "exponents": [0, 1]}], "power": 1}],
            "cone_direction_u": [-1, -1]}


FLOAT_SPECS = {
    "grove-float-x-1": _grove_float_vanishing_numerator,
    "mixed-2": lambda: _mixed_field_spec("2"),
    "mixed-1/2": lambda: _mixed_field_spec("1/2"),
    "fls-float": lambda: _floated_json(json.loads((SPEC_DIR / "fls.json").read_text())),
}

# SHA-256 of stdout and the exit code on specs with float or mixed coefficients,
# recorded while each polynomial still carried a field tag; numbers now carry
# their own field, and the bytes must not change.
FLOAT_STDOUT = {
    # the numerator X - 1 vanishes at (1,1,1) and prints as a float zero, "numerator_value":0.0
    ("grove-float-x-1", "classify", "--r", "5,6,7"):
        (0, "c6660a0e7269b877f4e577acaaacad39268a39e5464ff91b4401318579a0fc6e"),
    ("mixed-2", "oracle", "--order", "8"):
        (0, "5c0e3221634f5d24547d7ca2120ebe0b9e5cdaa39185ce8e0a2dd49237c96284"),
    ("mixed-2", "oracle", "--order", "8", "--format", "json"):
        (0, "a87112239110dc725fa404387c255f9b4e6f47b9856ffe39ea921f6de2797f41"),
    ("mixed-2", "oracle", "--at", "7,5"):
        (0, "060a7348df1d133411d94954646331b064021b88b75fcd03cbb5409f5e84e0d8"),
    ("mixed-1/2", "oracle", "--order", "8"):
        (0, "2661675578a7b7235833ded50fb9d07118181f7536cc9df5ab2ee597ff33b151"),
    ("mixed-1/2", "oracle", "--order", "8", "--format", "json"):
        (0, "4f30626fdcdaeb1ef71a8fe76145021ed1bffa60a6b8c7541be69960001fc172"),
    ("mixed-1/2", "oracle", "--at", "7,5"):
        (0, "574ba786e539b0a1952f0b16b61f28cf4efeb059d0b6fc7af3d3353ad8bef4ea"),
    ("fls-float", "asym", "--terms", "3", "--r", "10,10,10"):
        (0, "63dffa93addb3cf9a319838c594b348d23e311b39728a8d1fecaa0f4912256c2"),
}


class TestNumberFields:
    @pytest.mark.parametrize("key", sorted(FLOAT_STDOUT), ids=" ".join)
    def test_stdout_and_exit_code(self, capsys, tmp_path, key):
        name, command, *argv = key
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(FLOAT_SPECS[name]()))
        rc, out, _ = run(capsys, command, "--spec", str(path), *argv)
        assert (rc, hashlib.sha256(out.encode()).hexdigest()) == FLOAT_STDOUT[key]

    @pytest.mark.parametrize("with_points", [True, False], ids=["given", "discovered"])
    def test_factor_vanishing_up_to_rounding(self, capsys, tmp_path, with_points):
        # 0.3 times fls's factor leaves a constant term near 1e-17 at (1,1,1),
        # so the point is quadratic only once rounding counts as zero
        raw = _floated_json(json.loads((SPEC_DIR / "fls.json").read_text()))
        for term in raw["factors"][0]["poly"]:
            term["coeff"] *= 0.3
        if not with_points:
            raw.pop("points")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        rc, out, _ = run(capsys, "asym", "--spec", str(path), "--r", "10,10,10")
        assert rc == 0
        _, exact, _ = run(capsys, "asym", "--preset", "fls", "--r", "10,10,10")
        expected = json.loads(exact)["value"] * 0.3 ** -0.75
        assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-12, abs=0)
        assert json.loads(out)["per_point"][0]["point"] == ["1", "1", "1"]
