"""Commands load neither numpy nor the critical-point search unless they
discover points: the exact oracle never does, and `asym`, `classify` and
`compare` only when the spec or preset gives no points.

Each check runs in a fresh interpreter: this suite's own process has
imported both long before.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC_DIR = ROOT / "specs"


def _modules_after(statements):
    """Run statements after `import conepoint`; returns (stdout, the numpy
    and conepoint.critpoints entries then in sys.modules)."""
    code = "\n".join(["import sys", f"sys.path.insert(0, {str(ROOT / 'src')!r})",
                      "import conepoint, conepoint.cli", *statements,
                      "print(sorted({'numpy', 'conepoint.critpoints'} & set(sys.modules)))"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    *out, loaded = proc.stdout.splitlines()
    return out, ast.literal_eval(loaded)


def test_import_loads_neither():
    assert _modules_after([]) == ([], [])


def test_oracle_commands_load_neither():
    out, loaded = _modules_after([
        'assert conepoint.cli.main(["oracle", "--preset", "aztec", "--order", "4"]) == 0',
        'assert conepoint.cli.main(["oracle", "--preset", "fls", "--at", "5,5,5", '
        '"--float"]) == 0'])
    assert loaded == []
    assert out[0] == "r1,r2,r3,value" and len(out) > 2


def test_prepared_commands_load_neither():
    spec = str(SPEC_DIR / "fls.json")
    out, loaded = _modules_after([
        'assert conepoint.cli.main(["compare", "--preset", "aztec", '
        '"--directions=2,2,22;-1,3,23"]) == 0',
        'assert conepoint.cli.main(["classify", "--preset", "fls", "--r", "10,10,10"]) == 0',
        f'assert conepoint.cli.main(["asym", "--spec", {spec!r}, "--r", "10,10,10"]) == 0'])
    assert loaded == []
    assert len(out) >= 3


def test_discovery_still_loads_the_search(tmp_path):
    raw = json.loads((SPEC_DIR / "fls.json").read_text())
    raw.pop("points")
    path = tmp_path / "fls.json"
    path.write_text(json.dumps(raw))
    out, loaded = _modules_after([
        f'assert conepoint.cli.main(["asym", "--spec", {str(path)!r}, '
        '"--r", "10,10,10"]) == 0'])
    assert loaded == ["conepoint.critpoints", "numpy"]
    assert json.loads(out[0])["per_point"]
