"""The benchmark's workloads: seeded conepoint command lists and their checks.

A workload is a list of Command objects, drawn from fixed ranges by a
random.Random seeded with the workload name and the --seed value.  The
program sees only the generated arguments.

Every output is checked in two ways:

* independent checks that hold for any seed (closed forms, exact simulation,
  parity zeros, internal consistency of the printed rows), and
* for the seeds recorded in expected.json, the output recorded at the commit
  that introduced the benchmark: exact outputs byte for byte (by SHA-256),
  float predictions within 1e-12 relative.

Arguments that start with a negative number are passed as ``--at=-3,5,45``,
``--r=...`` and ``--directions=...``.  The space-separated form
(``--at -3,5,45``) is a known parsing defect of the CLI and is not measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

# relative tolerances: float predictions against the recorded ones (the
# project's equivalence rule), float oracle tables against exact ones
PREDICTION_RTOL = 1e-12
FLOAT_TABLE_RTOL = 1e-9
INTERIOR = "InteriorEllipticCone"
# directions are drawn this far inside the normal cone, measured by the dual
# form against the squared length, so that no tolerance band is reached
CONE_MARGIN = 0.25
# shipped specs used by `discover`, with the formula their points give
DISCOVER_SPECS = {"aztec": "cone-plane-arctan", "fls": "quadratic-point-series",
                  "superballot-core": "quadratic-point-series"}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments and what its checks need."""

    argv: Tuple[str, ...]
    kind: str                  # point | table | float-table | compare | asym
    source: str                # preset or spec name
    meta: dict = field(default_factory=dict)


def _vec(r: Sequence[int]) -> str:
    return ",".join(str(x) for x in r)


class _Sizer:
    """Draws integers around a centre; tiny mode shrinks every size."""

    def __init__(self, rng, tiny: bool):
        self.rng = rng
        self.tiny = tiny

    def n(self, value: int) -> int:
        return max(1, value // 4) if self.tiny else value

    def balanced(self, centres: Sequence[int], spread: int) -> List[int]:
        """One value per centre, offset by a shuffled zero-sum set of offsets
        within +-spread, so that the seed moves the parts but not their total."""
        k, s = len(centres), self.n(spread)
        offsets = [round(-s + 2 * s * i / (k - 1)) for i in range(k)]
        self.rng.shuffle(offsets)
        return [max(0, self.n(c) + d) for c, d in zip(centres, offsets)]


def _aztec_directions(sz: _Sizer, count: int, t_lo: int, t_hi: int, keep=()):
    out = set(keep)
    while len(out) < count:
        t = sz.rng.randint(t_lo, t_hi)
        i = sz.rng.randint(-(t // 2), t // 2)
        j = sz.rng.randint(-(t // 2), t // 2)
        if t * t - 2 * i * i - 2 * j * j > CONE_MARGIN * t * t:
            out.add((i, j, t))
    return sorted(out)


def _q3(a, b, c):
    return 2 * (a * b + a * c + b * c) - (a * a + b * b + c * c)


def _orthant_directions(sz: _Sizer, count: int, lo: int, hi: int, keep=()):
    out = set(keep)
    while len(out) < count:
        r = tuple(sz.rng.randint(lo, hi) for _ in range(3))
        if _q3(*r) > CONE_MARGIN * sum(x * x for x in r):
            out.add(r)
    return sorted(out)


# -- workloads --------------------------------------------------------------------


def oracle_point(sz: _Sizer, spec_dir: str) -> List[Command]:
    """Deep single coefficients: each engine once, aztec at both parities."""
    cmds = []

    def point(source, r):
        cmds.append(Command(("oracle", "--preset", source, f"--at={_vec(r)}"),
                            "point", source, {"r": r}))

    # A command's cost follows the size of the box below its index, so the
    # seed moves indices only where that size stays within a few percent:
    # the total degree (fls, superballot, superballot-core, cube_grove) or
    # the level t (aztec) is fixed, and aztec's (i, j) stays near the centre.
    point("fls", tuple(sz.balanced((14, 14, 14), sz.rng.randint(0, 2))))
    a, c = sz.balanced((6, 7), sz.rng.randint(0, 1))
    point("superballot", (a, sz.n(30), c))
    point("superballot-core", tuple(sz.balanced((15, 18, 21), sz.rng.randint(0, 1))))
    point("cube_grove", tuple(sz.balanced((16, 18, 20), sz.rng.randint(0, 1))))
    t, reach = sz.n(39), sz.n(4)
    for parity in (1, 0):
        i, j = (sz.rng.randint(-reach, reach) for _ in range(2))
        if (i + j + t) % 2 != parity:
            j = j + 1 if j < reach else j - 1
        point("aztec", (i, j, t))
    return cmds


def oracle_table(sz: _Sizer, spec_dir: str) -> List[Command]:
    """Full tables in CSV and JSON; three sources also as float tables."""
    cmds = []

    def table(source, order, float_mode, partner=None):
        fmt = sz.rng.choice(("csv", "json"))
        src = ("--spec", "specs/qrw2d.json") if source == "qrw2d" else ("--preset", source)
        argv = ("oracle",) + src + ("--order", str(order), "--format", fmt)
        if float_mode:
            argv += ("--float",)
        cmds.append(Command(argv, "float-table" if float_mode else "table", source,
                            {"order": order, "format": fmt, "partner": partner}))

    paired = ("aztec", "fls", "qrw2d")
    sources = paired + ("cube_grove", "superballot", "superballot-core")
    orders = sz.balanced((23, 21, 23, 27, 21, 27), 1)
    for source, order in zip(sources, orders):
        table(source, order, False)
        if source in paired:
            table(source, order, True, partner=len(cmds) - 1)
    return cmds


def compare_grid(sz: _Sizer, spec_dir: str) -> List[Command]:
    """Oracle vs prediction on seeded directions inside each normal cone.

    `compare` expands the oracle over the box the directions span, so each
    list holds the directions that reach the box's corners: the box, and with
    it the oracle's share of the work, is the same for every seed, and the seed
    moves only the directions inside it."""
    count = sz.n(12)
    t, lo, hi = sz.n(30), sz.n(8), sz.n(24)
    aztec_box = ((-(t // 2), 0, t), (t // 2, 0, t), (0, -(t // 2), t), (0, t // 2, t))
    cmds = []
    lists = (("aztec", _aztec_directions(sz, count, sz.n(20), t, aztec_box)),
             ("fls", _orthant_directions(sz, count, lo, hi, [(hi, hi, hi)])),
             ("superballot-core", _orthant_directions(sz, count, lo, hi, [(hi, hi, hi)])))
    for source, dirs in lists:
        text = ";".join(_vec(r) for r in dirs)
        cmds.append(Command(("compare", "--preset", source, f"--directions={text}"),
                            "compare", source, {"directions": dirs}))
    step = "0.5" if sz.tiny else "0.25"
    cmds.append(Command(("compare", "--preset", "aztec", "--t-list", str(sz.n(19)),
                         "--slice-step", step), "compare", "aztec", {"directions": None}))
    return cmds


def discover(sz: _Sizer, spec_dir: str) -> List[Command]:
    """asym on shipped specs without their points: the critical-point search."""
    cmds = []
    names = ("fls", "superballot-core") if sz.tiny else tuple(DISCOVER_SPECS)
    for name in names:
        if name == "aztec":
            (r,) = _aztec_directions(sz, 1, 15, 30)
        else:
            (r,) = _orthant_directions(sz, 1, 5, 25)
        cmds.append(Command(("asym", "--spec", f"{spec_dir}/{name}.json", f"--r={_vec(r)}"),
                            "asym", name, {"r": r}))
    return cmds


WORKLOADS = {"oracle-point": oracle_point, "oracle-table": oracle_table,
             "compare-grid": compare_grid, "discover": discover}


def prepare(root: Path, work: Path) -> str:
    """Write the discover specs (shipped specs minus "points") under work."""
    spec_dir = work / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)
    for name in DISCOVER_SPECS:
        obj = json.loads((root / "specs" / f"{name}.json").read_text())
        obj.pop("points")
        (spec_dir / f"{name}.json").write_text(json.dumps(obj, sort_keys=True))
    return str(spec_dir.relative_to(root))


def commands(workload: str, seed: int, spec_dir: str, tiny: bool = False) -> List[Command]:
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](_Sizer(rng, tiny), spec_dir)


# -- parsing ------------------------------------------------------------------------

_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _number(text):
    if isinstance(text, str) and _RATIONAL.fullmatch(text):
        return Fraction(text)
    return float(text)


def parse_table(cmd: Command, stdout: str) -> Dict[Tuple[int, ...], object]:
    """Index -> value; raises ValueError on a malformed or unsorted table."""
    if cmd.meta["format"] == "csv":
        lines = stdout.splitlines()
        if lines[0] != "r1,r2,r3,value":
            raise ValueError(f"bad CSV header {lines[0]!r}")
        pairs = []
        for line in lines[1:]:
            cols = line.split(",")
            pairs.append((tuple(int(x) for x in cols[:3]), cols[3]))
    else:
        obj = json.loads(stdout)
        pairs = [(tuple(c["r"]), c["value"]) for c in obj["coefficients"]]
    keys = [k for k, _ in pairs]
    if keys != sorted(set(keys)):
        raise ValueError("table indices are not sorted and unique")
    if cmd.kind == "float-table":
        return {k: float(v) for k, v in pairs}
    return {k: _number(v) for k, v in pairs}


def parse_compare(stdout: str):
    """(rows, summary) with rows as (r, oracle, prediction, rel_error, class)."""
    lines = stdout.splitlines()
    if lines[0] != "r1,r2,r3,oracle,prediction,rel_error,class":
        raise ValueError(f"bad compare header {lines[0]!r}")
    rows = []
    for line in lines[1:-1]:
        c = line.split(",")
        rows.append((tuple(int(x) for x in c[:3]), float(c[3]),
                     float(c[4]) if c[4] else None, float(c[5]) if c[5] else None, c[6]))
    return rows, lines[-1]


def items(cmd: Command, stdout: str) -> int:
    """Output items a command delivers: coefficients, compared rows, estimates."""
    if cmd.kind in ("table", "float-table"):
        if cmd.meta["format"] == "csv":
            return stdout.count("\n") - 1
        return len(json.loads(stdout)["coefficients"])
    if cmd.kind == "compare":
        return stdout.count("\n") - 2
    return 1


# -- independent checks ---------------------------------------------------------------


def _grade(source: str, r) -> int:
    return r[2] if source in ("aztec", "qrw2d") else sum(r)


def _check_point(cmd: Command, stdout: str) -> List[str]:
    from conepoint.presets import superballot_number
    r = cmd.meta["r"]
    v = _number(stdout.strip())
    if cmd.source == "superballot":
        a, b, c = r
        want = superballot_number(a, b - a - c, c)
        return [] if v == want else [f"superballot {r}: {v} != closed form {want}"]
    return _check_values(cmd.source, {r: v})


def _check_values(source: str, values: Dict[Tuple[int, ...], object]) -> List[str]:
    errors = []
    for r, v in values.items():
        if source == "aztec":
            if sum(r) % 2 == 0 and v != 0:
                errors.append(f"aztec {r}: even parity but {v} != 0")
            elif not 0 <= v <= 1:
                errors.append(f"aztec {r}: probability {v} outside [0, 1]")
        elif source == "cube_grove" and not 0 <= v <= 1:
            errors.append(f"cube_grove {r}: probability {v} outside [0, 1]")
        elif source == "superballot-core" and (v <= 0 or (v * 2 ** sum(r)).denominator != 1):
            errors.append(f"superballot-core {r}: {v} * 2^{sum(r)} is not a positive integer")
        elif source == "fls" and not (math.isfinite(v) and v > 0):
            errors.append(f"fls {r}: {v} is not a positive finite number")
    return errors[:5]


def _check_table(cmd: Command, table) -> List[str]:
    order = cmd.meta["order"]
    errors = [f"{cmd.source} {r}: grade above order {order}"
              for r in table if not 0 <= _grade(cmd.source, r) <= order][:5]
    # these two have a positive coefficient at every index of grade <= order
    if cmd.source in ("fls", "superballot-core") and len(table) != math.comb(order + 3, 3):
        errors.append(f"{cmd.source}: {len(table)} coefficients, not every index up to "
                      f"order {order}")
    elif not table:
        errors.append("empty table")
    if cmd.source == "qrw2d":
        from conepoint.presets import qrw_simulate
        want = {}
        for t in range(order + 1):
            for (x, y, chirality), amp in qrw_simulate(t).items():
                if chirality == 1:
                    want[(x, y, t)] = amp
        if table != want:
            errors.append(f"qrw2d order {order}: table differs from the step simulation")
    elif cmd.source == "superballot":
        from conepoint.presets import superballot_number
        for a in range(order + 1):
            for c in range(order + 1 - a):
                for b in range(a + c + 1, order + 1 - a - c):
                    if table.get((a, b, c)) != superballot_number(a, b - a - c, c):
                        errors.append(f"superballot {(a, b, c)}: differs from closed form")
    else:
        errors += _check_values(cmd.source, table)
    return errors[:5]


def _check_float_table(table, exact) -> List[str]:
    if table.keys() != exact.keys():
        return ["float table indices differ from the exact table's"]
    bad = [r for r, v in table.items() if not math.isclose(v, float(exact[r]),
                                                           rel_tol=FLOAT_TABLE_RTOL)]
    return [f"float table {r}: {table[r]!r} vs exact {exact[r]}" for r in bad[:5]]


def _check_compare(cmd: Command, stdout: str) -> List[str]:
    rows, summary = parse_compare(stdout)
    errors = []
    dirs = cmd.meta["directions"]
    if dirs is not None and [r for r, *_ in rows] != dirs:
        errors.append("compare rows are not the requested directions")
    if not rows:
        errors.append("compare printed no rows")
    interior = []
    for r, oracle, pred, rel, cls in rows:
        if cls != INTERIOR or pred is None:
            errors.append(f"{r}: class {cls} for a direction inside the cone")
            continue
        if not (math.isfinite(oracle) and math.isfinite(pred)):
            errors.append(f"{r}: non-finite oracle or prediction")
        elif cmd.source == "aztec" and sum(r) % 2 == 0:
            if oracle != 0.0 or pred != 0.0:
                errors.append(f"{r}: even parity row is not an exact zero")
        elif oracle <= 0.0 or rel != abs(pred - oracle) / abs(oracle):
            errors.append(f"{r}: rel_error {rel!r} inconsistent with its columns")
        else:
            interior.append(rel)
    if interior:
        interior.sort()
        want = (f"# interior points: {len(interior)}, max rel error {interior[-1]!r}, "
                f"median rel error {interior[len(interior) // 2]!r}")
        if summary != want:
            errors.append(f"summary {summary!r} != {want!r}")
    return errors[:5]


def _check_asym(cmd: Command, stdout: str, root: Path) -> List[str]:
    est = json.loads(stdout)
    spec = json.loads((root / "specs" / f"{cmd.source}.json").read_text())
    want_points = sorted(tuple(Fraction(z) for z in p) for p in spec["points"])
    got_points = sorted(tuple(Fraction(z) for z in c["point"]) for c in est["per_point"])
    errors = []
    if tuple(est["direction"]) != cmd.meta["r"]:
        errors.append("estimate is for another direction")
    if got_points != want_points:
        errors.append(f"found points {got_points} != shipped points {want_points}")
    if est["formula"] != DISCOVER_SPECS[cmd.source]:
        errors.append(f"formula {est['formula']}")
    if any(c["direction_class"] != INTERIOR for c in est["per_point"]):
        errors.append("a point classifies the direction outside its cone")
    value, scale = est["value"], max(abs(c["value"]) for c in est["per_point"])
    if cmd.source == "aztec" and sum(cmd.meta["r"]) % 2 == 0:
        # the two points cancel at even parity, where every coefficient is 0
        if not abs(value) <= 1e-12 * scale:
            errors.append(f"even-parity estimate {value} is not 0")
    elif not (math.isfinite(value) and value > 0):
        errors.append(f"estimate {value} is not positive")
    return errors


def check(cmds: Sequence[Command], outputs: Sequence[str], k: int, root: Path) -> List[str]:
    """Seed-independent checks of outputs[k]; returns error messages (empty when correct)."""
    cmd, stdout = cmds[k], outputs[k]
    try:
        if cmd.kind == "point":
            return _check_point(cmd, stdout)
        if cmd.kind == "table":
            return _check_table(cmd, parse_table(cmd, stdout))
        if cmd.kind == "float-table":
            partner = cmd.meta["partner"]
            return _check_float_table(parse_table(cmd, stdout),
                                      parse_table(cmds[partner], outputs[partner]))
        if cmd.kind == "compare":
            return _check_compare(cmd, stdout)
        return _check_asym(cmd, stdout, root)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as e:
        return [f"unparseable output: {type(e).__name__}: {e}"]


# -- recorded outputs -------------------------------------------------------------------


def digest(cmd: Command, stdout: str):
    """What expected.json records for this command's output (None: nothing)."""
    if cmd.kind in ("point", "table"):
        return {"sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    if cmd.kind == "compare":
        rows = [line.split(",") for line in stdout.splitlines()[1:-1]]
        return {"rows": [[[int(x) for x in c[:3]], c[3], float(c[4]) if c[4] else None, c[6]]
                         for c in rows]}
    if cmd.kind == "asym":
        return json.loads(stdout)
    return None


def _close(want, got) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return isinstance(want, (int, float)) and isinstance(got, (int, float)) and \
            math.isclose(want, got, rel_tol=PREDICTION_RTOL)
    if isinstance(want, list):
        return isinstance(got, list) and len(want) == len(got) and \
            all(_close(a, b) for a, b in zip(want, got))
    if isinstance(want, dict):
        return isinstance(got, dict) and want.keys() == got.keys() and \
            all(_close(want[k], got[k]) for k in want)
    return want == got


def against_record(cmd: Command, stdout: str, expected) -> List[str]:
    """Compare an output with its recorded digest.

    Oracle outputs must match byte for byte; compare rows must match in
    index, oracle value and class exactly and in prediction within 1e-12
    relative; asym estimates likewise in every float field.
    """
    if expected is None:
        return []
    try:
        got = digest(cmd, stdout)
    except (ValueError, KeyError, IndexError) as e:
        return [f"unparseable output: {e}"]
    if "sha256" in expected:
        return [] if got == expected else ["output differs from the recorded output"]
    if not _close(expected, got):
        return ["output differs from the recorded output beyond 1e-12 relative"]
    return []
