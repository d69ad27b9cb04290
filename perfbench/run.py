#!/usr/bin/env python3
"""conepoint benchmark: the CLI commands users run, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root.  The seed draws the workload's commands (see
workloads.py).  Each command runs in a fresh interpreter, one at a time,
with ACSV_CONE_THREADS set to the number of usable cores and
OPENBLAS_NUM_THREADS to 1.  A pass runs every command of the workload once;
passes repeat until --seconds is used up.
Times and memory are taken per command as the median over passes.  Every
child's times are scaled by the host's speed, measured with a fixed loop
just before and just after the child (see REFERENCE_S).

--trace 0 prints the end-to-end metrics: set-up time of a fresh interpreter
(the median of a set-up sample taken before every pass), and per pass
the wall time, child CPU time, output items per second and peak child RSS.
--trace 1 alternates an untraced and a traced pass and prints the
per-layer metrics of the traced passes; traced stdout must equal untraced
stdout byte for byte.  --tiny shrinks every workload for the benchmark's
own test.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exits 2 without a result when the repository's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# private to this process, removed when it ends
WORK = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

# a command still running after this long is killed and counted as failed
COMMAND_TIMEOUT_S = 120
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import conepoint; "
              "from conepoint.presets import PRESET_NAMES, preset; "
              "[preset(name) for name in PRESET_NAMES]")

# The host's speed moves by 20-40% within seconds to minutes (a 2-vCPU VM on
# a shared host), for the program and a plain Python loop alike, and medians
# over a run do not remove the slow part.  So each child's wall and CPU time
# is divided by that of _reference(), run in this process just before and
# just after the child, and multiplied by REFERENCE_S, the loop's median
# wall time over five minutes on the 2-vCPU Xeon host the benchmark was
# defined on: times read as seconds on that host at its median speed.  The loop is the benchmark's
# own code and never changes, so a change to the program moves the scaled
# times as much as the raw ones.
REFERENCE_S = 0.056

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

FIELD_UNITS = {"calls": "count", "self_s": "s", "wait_s": "s"}
DERIVED_UNITS = {"polyseries.objects_built": "count", "oracle.table_values": "count",
                 "oracle.useful_ratio": "ratio", "critpoints.converged_ratio": "ratio",
                 "critpoints.points_found": "count", "trace.overhead_frac": "ratio"}


def per_layer_units() -> dict:
    units = {f"{name}.{f}": FIELD_UNITS[f] for name, fields in spans.LAYERS.items()
             for f in fields}
    units.update(DERIVED_UNITS)
    return units


def _reference():
    """Wall and thread CPU time of a fixed loop of int and Fraction arithmetic."""
    start, start_cpu = time.perf_counter(), time.thread_time()
    x, f = 0, Fraction(1, 3)
    for i in range(60000):
        x = (x * 31 + i) % 1000003
        if i % 16 == 0:
            f = f * Fraction(i + 1, i + 2) + 1
    return time.perf_counter() - start, time.thread_time() - start_cpu


@dataclass
class Run:
    """One finished child process."""

    rc: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    # the reference loop's mean wall and CPU time just before and after
    ref_wall_s: float = REFERENCE_S
    ref_cpu_s: float = REFERENCE_S

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s / self.ref_wall_s * REFERENCE_S

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s / self.ref_cpu_s * REFERENCE_S


def _spawn(argv, env) -> Run:
    """Run argv to completion; resource use comes from os.wait4."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err, env=env)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Run(proc.returncode, out.read().decode(), err.read().decode(), wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def _add_trace(totals, path):
    with open(path) as fh:
        trace = json.load(fh)
    for span in trace["spans"]:
        entry = totals["spans"].setdefault(span["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span["self_s"]
        # self time spent off the CPU: in pool threads, waiting for the GIL
        entry[2] += span["self_s"] - span["self_cpu_s"]
    for key, n in trace["counts"].items():
        totals["counts"][key] = totals["counts"].get(key, 0) + n


class Bench:
    """One workload's commands, their checks and the failures seen so far."""

    def __init__(self, workload, seed, tiny):
        self.cmds = workloads.commands(workload, seed, workloads.prepare(ROOT, WORK), tiny)
        recorded = {} if tiny else _load_expected().get(workload, {})
        self.expected = recorded.get(str(seed))
        # numpy's BLAS starts a worker thread in every process that busy-waits
        # after start-up; whether it runs beside the command or steals its core
        # depends on the host, not on the program.  The program's BLAS calls
        # are on matrices too small for a second thread, so one removes noise,
        # not work.
        self.env = dict(os.environ, ACSV_CONE_THREADS=str(len(os.sched_getaffinity(0))),
                        OPENBLAS_NUM_THREADS="1")
        self.reference = None      # stdout of the first pass, checked in full
        self._last_ref = None      # _reference() after the latest child
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _fail(self, k, message):
        self.failed += 1
        self.failures.append(f"command {k} ({' '.join(self.cmds[k].argv)[:120]}): {message}")

    def _spawn(self, argv) -> Run:
        """Run argv between two reference loops; the loop after one child is
        the loop before the next."""
        before = self._last_ref or _reference()
        run = _spawn(argv, self.env)
        after = self._last_ref = _reference()
        run.ref_wall_s = (before[0] + after[0]) / 2
        run.ref_cpu_s = (before[1] + after[1]) / 2
        return run

    def _cli(self, cmd, trace_path=None) -> Run:
        argv = [sys.executable, str(HERE / "launch.py")]
        if trace_path is not None:
            argv += ["--trace", str(trace_path)]
        return self._spawn(argv + ["--"] + list(cmd.argv))

    def _setup_sample(self) -> Run:
        run = self._spawn([sys.executable, "-c", SETUP_CODE])
        if run.rc != 0:
            raise RuntimeError(f"set-up failed: {run.stderr.strip()}")
        return run

    def run_pass(self, traced=False, setup=None):
        """One pass over the commands; with a `setup` list, a set-up sample is
        appended to it before the pass, so the samples span the run."""
        runs, totals = [], {"spans": {}, "counts": {}}
        trace_path = WORK / "trace.json"
        self._last_ref = None   # checks may have run since the last child
        if setup is not None:
            setup.append(self._setup_sample())
        for cmd in self.cmds:
            runs.append(self._cli(cmd, trace_path if traced else None))
            if traced and runs[-1].rc == 0:
                _add_trace(totals, trace_path)
        self.attempted += len(runs)
        if self.reference is None:
            self.reference = [r.stdout for r in runs]
            for k, r in enumerate(runs):
                errors = [f"exit code {r.rc}: {r.stderr.strip()[-300:]}"] if r.rc else \
                    workloads.check(self.cmds, self.reference, k, ROOT) + \
                    workloads.against_record(self.cmds[k], r.stdout,
                                             self.expected[k] if self.expected else None)
                if errors:
                    self._fail(k, "; ".join(errors))
        else:
            for k, r in enumerate(runs):
                if r.rc or r.stdout != self.reference[k]:
                    self._fail(k, f"{'traced ' if traced else ''}stdout differs from the first "
                                  f"pass (exit code {r.rc})")
        return runs, totals

    def items(self) -> int:
        """Output items of one pass, counted on the first pass's stdout."""
        total = 0
        for cmd, out in zip(self.cmds, self.reference):
            try:
                total += workloads.items(cmd, out)
            except (ValueError, KeyError):
                pass  # a failed command delivers nothing; it is counted as failed
        return total


def _load_expected() -> dict:
    path = HERE / "expected.json"
    if not path.exists():
        return {}
    with open(path) as fh:
        return json.load(fh)


def _per_command_median(passes, field):
    """Per command, the median of `field` over passes."""
    return [statistics.median(getattr(runs[k], field) for runs, _ in passes)
            for k in range(len(passes[0][0]))]


def _end_to_end(bench, passes, setup) -> dict:
    # each command's median over passes, summed: one slow outlier in one pass
    # moves neither
    wall = sum(_per_command_median(passes, "scaled_wall_s"))
    return {
        "wall_s": wall,
        "cpu_s": sum(_per_command_median(passes, "scaled_cpu_s")),
        "items_per_s": bench.items() / wall,
        "peak_rss_mb": max(_per_command_median(passes, "rss_mb")),
        "setup_s": statistics.median(run.scaled_wall_s for run in setup),
    }


def _per_layer(bench, untraced, traced) -> dict:
    def one(totals):
        spans_, counts = totals["spans"], totals["counts"]
        out = {}
        for name, fields in spans.LAYERS.items():
            calls, self_s, wait_s = spans_.get(name, (0, 0.0, 0.0))
            values = {"calls": calls, "self_s": self_s, "wait_s": wait_s}
            out.update({f"{name}.{f}": values[f] for f in fields})
        held = counts.get("oracle.table_values", 0)
        starts = counts.get("critpoints.starts", 0)
        out["polyseries.objects_built"] = counts.get("polyseries.objects_built", 0)
        out["oracle.table_values"] = held
        # coefficients the commands print per coefficient the oracle held
        out["oracle.useful_ratio"] = bench.items() / held if held else 0.0
        out["critpoints.converged_ratio"] = \
            counts.get("critpoints.converged", 0) / starts if starts else 0.0
        out["critpoints.points_found"] = counts.get("critpoints.points_found", 0)
        return out

    per_pass = [one(totals) for _, totals in traced]
    # median_low keeps counts whole: they repeat exactly from pass to pass
    metrics = {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_frac"] = (sum(_per_command_median(traced, "scaled_wall_s"))
                                      / sum(_per_command_median(untraced, "scaled_wall_s"))
                                      - 1.0)
    return metrics


def _environment(args, threads) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "seed": args.seed, "workload": args.workload,
            "ACSV_CONE_THREADS": threads, "OPENBLAS_NUM_THREADS": "1"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "conepoint" / "cli.py").is_file():
        sys.stderr.write(f"no conepoint sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    # SIGTERM unwinds like an exception: the running command is killed and
    # waited for, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(parents=True)
    try:
        return _measure(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def _measure(args) -> int:
    bench = Bench(args.workload, args.seed, args.tiny)
    deadline = time.perf_counter() + args.seconds
    setup, untraced, traced = [], [], []
    while True:
        started = time.perf_counter()
        untraced.append(bench.run_pass(setup=None if args.trace else setup))
        if args.trace:
            traced.append(bench.run_pass(traced=True))
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    if args.trace:
        metrics, units = _per_layer(bench, untraced, traced), per_layer_units()
    else:
        metrics, units = _end_to_end(bench, untraced, setup), END_TO_END_UNITS
    env = _environment(args, bench.env["ACSV_CONE_THREADS"])
    env.update({"pass_wall_s": [round(sum(r.wall_s for r in runs), 4) for runs, _ in untraced],
                "unscaled_wall_s": round(sum(_per_command_median(untraced, "wall_s")), 4),
                "reference_s": round(statistics.median(
                    r.ref_wall_s for runs, _ in untraced for r in runs), 5),
                "traced_passes": len(traced),
                "commands_per_pass": len(bench.cmds),
                "recorded_outputs": bench.expected is not None})
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:44s} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':44s} {bench.failed / bench.attempted:>16.6g} ratio")
    for line in bench.failures[:20]:
        sys.stderr.write(f"FAILED {line}\n")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
