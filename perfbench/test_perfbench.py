"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Every workload runs at tiny size, untraced and traced; each must print
every metric BENCHMARK.json names, with its unit, and fail nothing.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per traced workload, layer counters that must be positive
LAYER_WORK = {
    "oracle-point": ("oracle.coefficient_at.calls", "oracle.expand_box.calls",
                     "oracle.table_values", "oracle.useful_ratio"),
    "oracle-table": ("oracle.expand.calls", "oracle.table_values"),
    "compare-grid": ("polyseries.log_compose_taylor.calls", "polyseries.objects_built",
                     "localgeo.quadratic_point_data.calls", "localgeo.classify_direction.calls",
                     "asympt.total_asymptotics.calls", "asympt.cone_plane_asymptotics.calls",
                     "asympt.quadratic_asymptotics.calls", "oracle.expand_box.calls"),
    "discover": ("critpoints.find_singular_points.calls", "critpoints.points_found",
                 "critpoints.converged_ratio", "specio.spec_from_json.self_s"),
}


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_prints_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        proc.stderr
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
    for name, unit in wanted.items():
        assert printed[name] == unit
    assert float(lines[-2].split()[1]) == 0.0 and lines[-2].startswith("failed_frac")
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        for name in LAYER_WORK[workload]:
            assert values[name] > 0, name
        if workload == "oracle-table":
            assert values["specio.table_to_csv.self_s"] + values["specio.table_to_json.self_s"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "discover", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""


def test_wrappers_sit_on_calling_module_names():
    code = ("import spans, conepoint.cli as cli, conepoint.asympt as a, "
            "conepoint.localgeo as g\n"
            "spans.Recorder().install()\n"
            "for f in (cli.total_asymptotics, cli.main, a.quadratic_point_data, "
            "a.log_compose_taylor, g.log_compose_taylor, cli.expand_box):\n"
            "    assert hasattr(f, '__wrapped__'), f\n")
    env_path = f"{HERE}:{ROOT / 'src'}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": env_path}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _cmd(kind, source, argv=("x",), **meta):
    return workloads.Command(tuple(argv), kind, source, meta)


def test_checks_reject_wrong_outputs():
    point = _cmd("point", "superballot", r=(1, 4, 1))
    assert workloads.check([point], ["6\n"], 0, ROOT) == []
    assert workloads.check([point], ["7\n"], 0, ROOT)
    aztec = _cmd("point", "aztec", r=(1, 1, 2))
    assert workloads.check([aztec], ["1/4\n"], 0, ROOT)
    exact = _cmd("table", "aztec", order=1, format="csv")
    good = "r1,r2,r3,value\n0,0,1,1/2\n"
    floats = _cmd("float-table", "aztec", order=1, format="csv", partner=0)
    assert workloads.check([exact, floats], [good, "r1,r2,r3,value\n0,0,1,0.5\n"], 1,
                           ROOT) == []
    assert workloads.check([exact, floats], [good, "r1,r2,r3,value\n0,0,1,0.6\n"], 1, ROOT)
    row = "1,1,1,0.5,0.5,0.0,InteriorEllipticCone"
    cmp_ = _cmd("compare", "fls", directions=[(1, 1, 1)])
    header = "r1,r2,r3,oracle,prediction,rel_error,class\n"
    summary = "# interior points: 1, max rel error 0.0, median rel error 0.0\n"
    assert workloads.check([cmp_], [header + row + "\n" + summary], 0, ROOT) == []
    bad = row.replace("0.5,0.0", "0.5,0.1")
    assert workloads.check([cmp_], [header + bad + "\n" + summary], 0, ROOT)


def test_recorded_comparison_tolerance():
    cmp_ = _cmd("compare", "fls", directions=[(1, 1, 1)])
    text = ("r1,r2,r3,oracle,prediction,rel_error,class\n1,1,1,0.5,{},0.0,"
            "InteriorEllipticCone\n# summary\n")
    recorded = workloads.digest(cmp_, text.format("0.25"))
    assert workloads.against_record(cmp_, text.format(float(Fraction(1, 4)) * (1 + 1e-14)),
                                    recorded) == []
    assert workloads.against_record(cmp_, text.format("0.2500001"), recorded)
