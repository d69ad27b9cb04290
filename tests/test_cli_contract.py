"""The command-line contract on random specs: every input gets an answer or a
clear refusal with the documented exit code.

Random specs with 2-3 variables (small rational, float and complex
coefficients; powers 1, 2, 1/2, 3/4, -1/2 and 1.5) run through `cli.main`
in process with small indices.  Some factors are drawn to vanish at
(1, ..., 1), linearly or as a product of two such factors, so that the
prediction commands reach the local analysis and not only the refusal of a
point off the pole variety.  Every spec gives its point: the multistart
search would take most of the time this test has.  Whatever the spec,

* the exit code is 0, 2, 3 or 4, and no exception escapes;
* stderr starts with the prefix of that code: `refused: `, `spec error: `
  or `numeric failure: ` (`asym` also exits 2, with its estimate on stdout,
  for a direction outside every normal cone);
* on exit 0, stdout parses as what the command prints.

A second draw puts a Lorentzian quadratic and one or two linear factors
through (1, ..., 1), each to a drawn power, in 2 or 3 variables: the point
shapes that no formula covers, and that exited 4 before they were refused
by name.  The prediction commands on those never exit 4.

A point is refused once, when it is prepared, and never per direction:
`classify_direction` tags every direction at a point that `point_data`
returned, and no `compare` row is a refusal.  A third draw gives points
that no formula covers inside their cone, a Lorentzian quadratic to the
power 1/2 in 3 variables (K(s) on a Gamma pole) and a cone-plane point
whose numerator vanishes there: `asym` and `compare` refuse them by name,
whatever the direction.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conepoint import specio
from conepoint.asympt import point_data
from conepoint.cli import main
from conepoint.errors import RefusalError
from conepoint.localgeo import DirectionTag, classify_direction
from conepoint.oracle import SpecError
from conepoint.polyseries import MultiPoly

SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"
PREFIX = {2: "refused: ", 3: "spec error: ", 4: "numeric failure: "}
CLASSES = {tag.value for tag in DirectionTag}

RATIONAL = st.builds(lambda p, q: str(Fraction(p, q)), st.integers(-3, 3),
                     st.sampled_from((1, 2, 3)))
FLOAT = st.integers(-30, 30).map(lambda k: k / 10)
COEFF = st.one_of(RATIONAL, FLOAT, st.lists(FLOAT, min_size=2, max_size=2))
POWER = st.sampled_from(["1", "2", "1/2", "3/4", "-1/2", 1.5])


def _spec(extra_factor=None, point=None):
    """specs/fls.json, times 1/extra_factor if given, at its point or the given one."""
    raw = json.loads((SPEC_DIR / "fls.json").read_text())
    if extra_factor is not None:
        raw["factors"].append({"poly": [{"coeff": c, "exponents": list(m)}
                                        for c, m in extra_factor], "power": "1"})
    if point is not None:
        raw["points"] = [point]
    return raw


COMPLEX_SCALE = _spec([([0.0, 2.0], (0, 0, 0)), ("-1", (1, 0, 0))])  # fls / (2i - X)
LINEAR_ONLY = _spec([("1", (0, 0, 0)), ("-1", (1, 0, 0))], ["1", "2", "2"])  # fls / (1 - X)
LINEAR_TYPED_COMPLEX = _spec([([1.0, 0.0], (0, 0, 0)), ("-1", (1, 0, 0))])  # (1 + 0j) - X
FLS = _spec()


@st.composite
def polys(draw, d, through_one, coeff=COEFF):
    """A polynomial; through_one gives it a constant term that makes it vanish
    at (1, ..., 1)."""
    exps = st.tuples(*[st.integers(0, 2)] * d)
    monos = draw(st.lists(exps.filter(any) if through_one else exps, min_size=1, max_size=4,
                          unique=True))
    terms = [(m, specio.scalar_from_json(draw(coeff))) for m in monos]
    if through_one:
        terms.append(((0,) * d, -sum(c for _, c in terms)))
    return MultiPoly.from_terms(d, terms)


@st.composite
def lorentzian(draw, d, coeff=COEFF, timelike=False):
    """c (a (X_1 - 1)^2 - b_2 (X_2 - 1)^2 - ...): a quadratic cone point at
    (1, ..., 1), with a complex, float or rational c.  timelike raises a above
    b_2 + ... + b_d and takes |c|, so that the form is Lorentzian with the
    default cone direction (-1, ..., -1) inside its cone."""
    shifted = [MultiPoly.from_terms(d, [((0,) * d, -1), (tuple(int(i == j) for i in range(d)),
                                                        1)]) for j in range(d)]
    weights = [Fraction(draw(st.sampled_from(["1", "2", "1/2", "3"]))) for _ in range(d)]
    if timelike:
        weights[0] += sum(weights[1:])
    q = MultiPoly.zero(d)
    for j, (x, w) in enumerate(zip(shifted, weights)):
        q = q + x * x * MultiPoly.const(d, w if j == 0 else -w)
    c = draw(coeff.map(specio.scalar_from_json).filter(bool))
    return q * MultiPoly.const(d, abs(c) if timelike else c)


def _linear(w):
    """sum_i w_i (X_i - 1)."""
    d = len(w)
    return MultiPoly.from_terms(d, [((0,) * d, Fraction(-sum(w)))] + [
        (tuple(int(i == j) for i in range(d)), Fraction(x)) for j, x in enumerate(w)])


@st.composite
def specs(draw):
    d = draw(st.integers(2, 3))
    factors = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["free", "linear", "cone", "lorentzian"]))
        if kind == "lorentzian":
            poly = draw(lorentzian(d))
        else:
            poly = draw(polys(d, kind != "free"))
        if kind == "cone":
            poly = poly * draw(polys(d, True))
        factors.append({"poly": specio.poly_to_json(poly), "power": draw(POWER)})
    raw = {"variables": ["X", "Y", "Z"][:d], "factors": factors,
           "numerator": specio.poly_to_json(draw(polys(d, False)))}
    # (1, ..., 1) half the time, where the drawn cone points are
    others = st.sampled_from(["-1", "1/2", "2"]).flatmap(
        lambda z: st.sampled_from([[z] * d, ["1"] * (d - 1) + [z]]))
    raw["points"] = [draw(st.one_of(st.just(["1"] * d), others))]
    return raw


@st.composite
def cone_point_specs(draw, timelike=False):
    """A Lorentzian quadratic and one or two linear factors sum_i w_i (X_i - 1) through
    (1, ..., 1), each to a drawn power.  timelike draws rational coefficients, a
    timelike quadratic and zero or one linear factor to the power 1 or 2: the
    shapes that point_data returns unless the factor lies inside the closed dual
    cone."""
    d = draw(st.integers(2, 3))
    coeff = RATIONAL if timelike else COEFF
    factors = [{"poly": specio.poly_to_json(draw(lorentzian(d, coeff, timelike))),
                "power": draw(POWER)}]
    for _ in range(draw(st.integers(0, 1) if timelike else st.integers(1, 2))):
        ell = _linear(draw(st.tuples(*[st.integers(-2, 2)] * d).filter(any)))
        power = st.sampled_from(["1", "2"]) if timelike else POWER
        factors.append({"poly": specio.poly_to_json(ell), "power": draw(power)})
    return {"variables": ["X", "Y", "Z"][:d], "factors": factors,
            "numerator": specio.poly_to_json(draw(polys(d, False, coeff))),
            "points": [["1"] * d]}


@st.composite
def pointwise_refused_specs(draw):
    """A point at (1, 1, 1) that no formula covers inside its cone, with rational
    coefficients and a timelike quadratic: the quadratic to the power 1/2
    (s + 1 - d/2 = 0, a Gamma pole of K(s)) and a numerator that vanishes at the
    point or not, or the quadratic and a linear factor, each to the first power,
    and a numerator that vanishes at the point."""
    pole = draw(st.booleans())
    vanishing = not pole or draw(st.booleans())
    factors = [{"poly": specio.poly_to_json(draw(lorentzian(3, RATIONAL, timelike=True))),
                "power": "1/2" if pole else "1"}]
    if not pole:
        ell = _linear(draw(st.tuples(*[st.integers(-2, 2)] * 3).filter(any)))
        factors.append({"poly": specio.poly_to_json(ell), "power": "1"})
    numerator = draw(polys(3, vanishing, RATIONAL).filter(lambda p: any(p.terms.values())))
    return {"variables": ["X", "Y", "Z"], "factors": factors,
            "numerator": specio.poly_to_json(numerator), "points": [["1", "1", "1"]]}


@st.composite
def commands(draw, d, predict=False):
    """A command line; predict keeps to asym, classify and compare."""
    def vec(lo, hi):
        return ",".join(map(str, draw(st.tuples(*[st.integers(lo, hi)] * d).filter(any))))

    digits = draw(st.sampled_from([(), ("--float",), ("--float", "3")]))
    kinds = ["order", "at", "asym", "classify", "compare"]
    kind = draw(st.sampled_from(kinds[2:] if predict else kinds))
    if kind == "order":
        fmt = draw(st.sampled_from([(), ("--format", "json")]))
        return ["oracle", "--order", str(draw(st.integers(0, 4))), *fmt, *digits]
    if kind == "at":
        return ["oracle", "--at", vec(-1, 4), *digits]
    if kind == "compare":
        return ["compare", "--directions", f"{vec(-2, 6)};{vec(-2, 6)}"]
    return [kind, "--r", vec(-2, 8)]


def _number(text):
    try:
        return Fraction(text)
    except ValueError:
        return complex(text)


def _check_stdout(argv, out, arity):
    """stdout parses as what the command prints."""
    command = argv[0]
    if command in ("asym", "classify") or "json" in argv:
        json.loads(out)
        return
    if "--at" in argv:
        _number(out)
        return
    lines = out.splitlines()
    if command == "compare":
        assert lines.pop().startswith("# ")
    header, *rows = lines
    assert header.split(",")[:arity] == [f"r{i + 1}" for i in range(arity)]
    for row in rows:
        fields = row.split(",")
        [int(x) for x in fields[:arity]]
        if command == "compare":
            assert len(fields) == arity + 4 and fields[-1] in CLASSES
            float(fields[arity])
        else:
            assert len(fields) == arity + 1
            _number(fields[arity])


@st.composite
def cases(draw, spec_strategy=specs(), predict=False):
    raw = draw(spec_strategy)
    return raw, draw(commands(len(raw["variables"]), predict))


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "spec.json"


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(cases())
@example((COMPLEX_SCALE, ["oracle", "--order", "1", "--format", "json", "--float"]))
@example((COMPLEX_SCALE, ["asym", "--r", "6,6,6"]))
@example((COMPLEX_SCALE, ["compare", "--directions", "6,6,6;8,8,8"]))
@example((LINEAR_TYPED_COMPLEX, ["compare", "--directions", "6,6,6;8,8,8"]))
@example((LINEAR_ONLY, ["asym", "--r", "10,10,10"]))
@example((LINEAR_ONLY, ["classify", "--r", "10,10,10"]))
@example((FLS, ["oracle", "--order", "1", "--format", "json", "--float", "3"]))
def test_every_input_gets_an_answer_or_a_refusal(spec_path, case):
    _check_contract(spec_path, *case)


def _grove(squared=None, extra=()):
    """specs/cube_grove.json with its factor number squared to power 2 and the
    extra factors appended."""
    raw = json.loads((SPEC_DIR / "cube_grove.json").read_text())
    if squared is not None:
        raw["factors"][squared]["power"] = "2"
    raw["factors"] += extra
    return raw


X_MINUS_ONE = {"poly": [{"coeff": "1", "exponents": [0, 0, 0]},
                        {"coeff": "-1", "exponents": [1, 0, 0]}], "power": "1"}
PLANE_2D = {"variables": ["X", "Y"], "numerator": [{"coeff": "1", "exponents": [0, 0]}],
            "points": [["1", "1"]], "factors": [
                {"poly": [{"coeff": c, "exponents": m} for c, m in [  # (X-1)^2 - 2(Y-1)^2
                    ("-1", [0, 0]), ("-2", [1, 0]), ("4", [0, 1]), ("1", [2, 0]),
                    ("-2", [0, 2])]], "power": "1"},
                {"poly": [{"coeff": "1", "exponents": [0, 0]},
                          {"coeff": "-1", "exponents": [1, 0]}], "power": "1"}]}


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(cases(cone_point_specs(), predict=True))
@example((_grove(squared=1), ["asym", "--r", "5,6,7"]))  # the quadratic squared
@example((_grove(squared=0), ["compare", "--directions", "5,6,7;7,7,7"]))
@example((_grove(extra=[X_MINUS_ONE]), ["classify", "--r", "5,6,7"]))
@example((PLANE_2D, ["asym", "--r", "5,7"]))
def test_points_no_formula_covers_never_exit_4(spec_path, case):
    assert _check_contract(spec_path, *case) != 4


GROVE_VANISHING = _grove()  # the numerator 2Z^2 - 2X, zero at (1, 1, 1)
GROVE_VANISHING["numerator"] = [{"coeff": "2", "exponents": [0, 0, 2]},
                                {"coeff": "-2", "exponents": [1, 0, 0]}]
FLS_POLE = _spec()
FLS_POLE["factors"][0]["power"] = "1/2"
FLS_POLE_VANISHING = json.loads(json.dumps(FLS_POLE))  # the numerator X - 1
FLS_POLE_VANISHING["numerator"] = [{"coeff": "-1", "exponents": [0, 0, 0]},
                                   {"coeff": "1", "exponents": [1, 0, 0]}]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(cone_point_specs(timelike=True), st.data())
def test_classify_direction_never_refuses_a_point_that_point_data_returns(raw, data):
    try:
        local = point_data(specio.spec_from_json(raw), specio.spec_points_from_json(raw))
    except (RefusalError, specio.SpecFormatError, SpecError, ArithmeticError, ValueError):
        return
    vectors = st.tuples(*[st.integers(-2, 8)] * len(raw["variables"])).filter(any)
    for r in data.draw(st.lists(vectors, min_size=1, max_size=4)):
        for pt in local:
            assert classify_direction(pt, r).tag.value in CLASSES


DIRECTION_3D = st.tuples(*[st.integers(-2, 8)] * 3).filter(any).map(
    lambda r: ",".join(map(str, r)))


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(pointwise_refused_specs(), DIRECTION_3D, DIRECTION_3D)
@example(GROVE_VANISHING, "7,7,7", "1,0,0")
@example(FLS_POLE, "7,7,7", "1,0,0")
@example(FLS_POLE_VANISHING, "5,5,5", "1,0,0")
def test_points_without_a_formula_are_refused_for_every_direction(spec_path, raw, a, b):
    for argv in (["asym", "--r", a], ["compare", "--directions", f"{a};{b}"]):
        rc, out, err = _run(spec_path, raw, argv)
        assert (rc, out) == (2, ""), (argv, err)
        assert err.startswith("refused: point (1, 1, 1) "), err


def _run(spec_path, raw, argv):
    """argv on the spec raw, in process: (exit code, stdout, stderr)."""
    spec_path.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([argv[0], "--spec", str(spec_path), *argv[1:]])
    return rc, out.getvalue(), err.getvalue()


def _check_contract(spec_path, raw, argv):
    """Run argv on the spec raw and check the contract; returns the exit code."""
    rc, out, err = _run(spec_path, raw, argv)
    assert rc in (0, 2, 3, 4), (rc, err)
    if rc == 0:
        _check_stdout(argv, out, len(raw["variables"]))
    elif rc == 2 and not err:
        assert argv[0] == "asym" and json.loads(out)["formula"] == "exponential-decay"
    else:
        assert err.startswith(PREFIX[rc]) and not out, (rc, err)
    return rc
