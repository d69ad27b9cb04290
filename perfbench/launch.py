"""Run one conepoint command in this interpreter, as the console script does.

    python3 perfbench/launch.py [--trace SPANS.json] -- <conepoint arguments>

The package is imported from the repository's own ``src`` directory.  With
``--trace`` the layer functions are wrapped by spans.Recorder and the spans
are written to SPANS.json when the command ends; stdout is unchanged.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_path is None:
        from conepoint.cli import main as cli_main
        return cli_main(argv)
    import spans
    recorder = spans.Recorder()
    recorder.install()
    cli = sys.modules["conepoint.cli"]
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        recorder.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
