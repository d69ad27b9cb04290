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
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conepoint import specio
from conepoint.cli import main
from conepoint.polyseries import MultiPoly

SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"
PREFIX = {2: "refused: ", 3: "spec error: ", 4: "numeric failure: "}

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
def polys(draw, d, through_one):
    """A polynomial; through_one gives it a constant term that makes it vanish
    at (1, ..., 1)."""
    exps = st.tuples(*[st.integers(0, 2)] * d)
    monos = draw(st.lists(exps.filter(any) if through_one else exps, min_size=1, max_size=4,
                          unique=True))
    terms = [(m, specio.scalar_from_json(draw(COEFF))) for m in monos]
    if through_one:
        terms.append(((0,) * d, -sum(c for _, c in terms)))
    return MultiPoly.from_terms(d, terms)


@st.composite
def lorentzian(draw, d):
    """c (a (X_1 - 1)^2 - b_2 (X_2 - 1)^2 - ...): a quadratic cone point at
    (1, ..., 1), with a complex, float or rational c."""
    shifted = [MultiPoly.from_terms(d, [((0,) * d, -1), (tuple(int(i == j) for i in range(d)),
                                                        1)]) for j in range(d)]
    weights = [draw(st.sampled_from(["1", "2", "1/2", "3"])) for _ in range(d)]
    q = MultiPoly.zero(d)
    for j, (x, w) in enumerate(zip(shifted, weights)):
        q = q + x * x * MultiPoly.const(d, Fraction(w) if j == 0 else -Fraction(w))
    return q * MultiPoly.const(d, draw(COEFF.map(specio.scalar_from_json).filter(bool)))


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
def commands(draw, d):
    def vec(lo, hi):
        return ",".join(map(str, draw(st.tuples(*[st.integers(lo, hi)] * d).filter(any))))

    digits = draw(st.sampled_from([(), ("--float",), ("--float", "3")]))
    kind = draw(st.sampled_from(["order", "at", "asym", "classify", "compare"]))
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
            assert len(fields) == arity + 4
            float(fields[arity])
        else:
            assert len(fields) == arity + 1
            _number(fields[arity])


@st.composite
def cases(draw):
    raw = draw(specs())
    return raw, draw(commands(len(raw["variables"])))


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
    raw, argv = case
    spec_path.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([argv[0], "--spec", str(spec_path), *argv[1:]])
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 2, 3, 4), (rc, err)
    if rc == 0:
        _check_stdout(argv, out, len(raw["variables"]))
    elif rc == 2 and not err:
        assert argv[0] == "asym" and json.loads(out)["formula"] == "exponential-decay"
    else:
        assert err.startswith(PREFIX[rc]) and not out, (rc, err)
