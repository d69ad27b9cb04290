#!/usr/bin/env python3
"""Record the expected outputs that run.py checks for shipped seeds.

    python3 perfbench/record.py

Runs one pass of every workload for each of SEEDS, requires every command
to exit 0 and pass the seed-independent checks, and writes
perfbench/expected.json.  Re-record only at a commit whose outputs
are known to be right: later runs treat these outputs as the truth.
"""

import json
import shutil
import sys

import run
import workloads

# the seeds whose outputs are recorded; expected.json is rewritten whole
SEEDS = range(20)


def _record():
    expected = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            bench = run.Bench(workload, seed, tiny=False)
            bench.expected = None
            bench.run_pass()
            if bench.failed:
                sys.stderr.write("\n".join(bench.failures) + "\n")
                return None
            expected.setdefault(workload, {})[str(seed)] = [
                workloads.digest(c, out) for c, out in zip(bench.cmds, bench.reference)]
            print(f"recorded {workload} seed {seed}", flush=True)
    return expected


def main():
    run.WORK.mkdir(parents=True)
    try:
        expected = _record()
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    if expected is None:
        return 1
    # one line per workload and seed keeps the file readable in diffs
    with open(run.HERE / "expected.json", "w") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(w)}: {{\n" + ",\n".join(
                f"  {json.dumps(s)}: {json.dumps(d, separators=(',', ':'))}"
                for s, d in by_seed.items()) + "\n}"
            for w, by_seed in expected.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
