"""What each entry point loads, and the package surface that loads lazily.

`import conepoint` loads no submodule: each public name is imported from its
home module on first use.  The spec type lives in `spec`, so the command
line and the presets load no oracle: only `oracle` and `compare`, which
sweep, load `oracle`.  The exact oracle loads neither the prediction
modules (`asympt`, `localgeo`) nor the critical-point search, and a
preset's single coefficient loads neither the spec reader and printer
(`specio`) nor `json`.  `asym`, `classify` and `compare` load the search
only when the spec or preset gives no points.  No command loads numpy,
`dataclasses` or `inspect`: every command runs with their imports blocked.

Each load check runs in a fresh interpreter: this suite's own process has
imported everything long before.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import conepoint

ROOT = Path(__file__).resolve().parents[1]
SPEC_DIR = ROOT / "specs"

SEARCH = {"numpy", "conepoint.critpoints"}
SPEC_IO = {"conepoint.specio", "json"}
CLI_PATH = {"conepoint.cli", "conepoint.errors", "conepoint.polyseries",
            "conepoint.presets", "conepoint.spec"}
ORACLE_PATH = CLI_PATH | {"conepoint.oracle"}

# every public name of the package, by the module it is defined in
HOMES = {
    "polyseries": ("DomainError", "MultiPoly", "NonUnitError", "TruncatedSeries",
                   "log_compose_taylor"),
    "spec": ("NotNormalizedError", "QuasiRationalSpec", "SpecError"),
    "oracle": ("CoeffTable", "coefficient_at", "empirical_decay", "expand", "expand_box"),
    "localgeo": ("DegenerateError", "DirectionClass", "DirectionTag", "GeometryError",
                 "QuadraticPointData", "SignatureError", "classify_direction",
                 "classify_quadratic", "dual_quadratic", "homogeneous_part",
                 "normalizer_absdet", "oriented_double_residue", "quadratic_point_data",
                 "vanishing_degree"),
    "asympt": ("AsymptoticEstimate", "PreparedPoint",
               "cone_constant", "cone_plane_asymptotics", "decay_exponent",
               "expansion_coefficients", "local_degree", "prepare",
               "quadratic_asymptotics", "smooth_asymptotics", "total_asymptotics"),
    "presets": ("Preset", "grove_relation_check", "preset", "qrw_simulate"),
    "errors": ("RefusalError",),
}
SUBMODULES = ("asympt", "localgeo", "oracle", "polyseries", "presets")


def _modules_after(statements, prelude="import conepoint, conepoint.cli"):
    """Run statements after `prelude`; returns (stdout, the numpy, json and
    conepoint.* entries then in sys.modules)."""
    code = "\n".join(["import sys", f"sys.path.insert(0, {str(ROOT / 'src')!r})",
                      prelude, *statements,
                      "print(sorted(m for m in sys.modules "
                      "if m in ('numpy', 'json') or m.startswith('conepoint.')))"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    *out, loaded = proc.stdout.splitlines()
    return out, set(ast.literal_eval(loaded))


def test_import_loads_neither():
    assert _modules_after([], prelude="import conepoint") == ([], set())
    assert _modules_after([]) == ([], CLI_PATH)
    assert _modules_after([], prelude="import conepoint.presets") == (
        [], {"conepoint.polyseries", "conepoint.presets", "conepoint.spec"})


def test_oracle_commands_load_neither():
    # neither the search nor the prediction modules; a table or a spec file
    # loads the spec reader and printer
    spec = str(SPEC_DIR / "qrw2d.json")
    out, loaded = _modules_after([
        'assert conepoint.cli.main(["oracle", "--preset", "aztec", "--order", "4"]) == 0',
        'assert conepoint.cli.main(["oracle", "--preset", "fls", "--at", "5,5,5", '
        '"--float"]) == 0',
        f'assert conepoint.cli.main(["oracle", "--spec", {spec!r}, "--at", "1,1,3"]) == 0'])
    assert loaded == ORACLE_PATH | SPEC_IO
    assert out[0] == "r1,r2,r3,value" and len(out) > 2


def test_point_queries_load_no_spec_io():
    out, loaded = _modules_after([
        'assert conepoint.cli.main(["oracle", "--preset", "aztec", "--at=0,-1,39"]) == 0',
        'assert conepoint.cli.main(["oracle", "--preset", "aztec", "--at=0,0,39"]) == 0',
        'assert conepoint.cli.main(["oracle", "--preset", "fls", "--at", "5,5,5", '
        '"--float"]) == 0',
        'assert conepoint.cli.main(["oracle", "--preset", "aztec", "--at", "0,0,39", '
        '"--float", "5"]) == 0',
        'assert conepoint.cli.main(["compare", "--preset", "aztec", '
        '"--directions=2,2,22;-1,3,23"]) == 0'])
    assert not loaded & SPEC_IO
    assert out[:2] == ["0", "1/4"] and out[3] == "0.25"
    assert out[4] == "r1,r2,r3,oracle,prediction,rel_error,class" and len(out) == 8


def test_tables_load_json_only_to_print_it():
    csv, loaded = _modules_after([
        'assert conepoint.cli.main(["oracle", "--preset", "aztec", "--order", "2"]) == 0'])
    assert loaded & SPEC_IO == {"conepoint.specio"} and csv[0] == "r1,r2,r3,value"
    doc, loaded = _modules_after([
        'assert conepoint.cli.main(["oracle", "--preset", "aztec", "--order", "2", '
        '"--format", "json"]) == 0'])
    assert loaded >= SPEC_IO and json.loads(doc[0])["max_level"] == 2


def test_prepared_commands_load_neither():
    spec = str(SPEC_DIR / "fls.json")
    out, loaded = _modules_after([
        'assert conepoint.cli.main(["compare", "--preset", "aztec", '
        '"--directions=2,2,22;-1,3,23"]) == 0',
        'assert conepoint.cli.main(["classify", "--preset", "fls", "--r", "10,10,10"]) == 0',
        f'assert conepoint.cli.main(["asym", "--spec", {spec!r}, "--r", "10,10,10"]) == 0'])
    assert not loaded & SEARCH
    assert len(out) >= 3


def _without_points(tmp_path, name):
    raw = json.loads((SPEC_DIR / f"{name}.json").read_text())
    raw.pop("points")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_prediction_commands_load_no_oracle(tmp_path):
    # asym and classify never sweep: with points given or found, they compile
    # none of the oracle; compare sweeps its box and loads it
    given = str(SPEC_DIR / "fls.json")
    found = _without_points(tmp_path, "fls")
    out, loaded = _modules_after([
        f'assert conepoint.cli.main(["asym", "--spec", {given!r}, "--r", "10,10,10"]) == 0',
        f'assert conepoint.cli.main(["asym", "--spec", {found!r}, "--r", "10,10,10"]) == 0',
        'assert conepoint.cli.main(["classify", "--preset", "fls", "--r", "10,10,10"]) == 0',
        'assert conepoint.cli.main(["classify", "--preset", "aztec", "--r", "1,2,9"]) == 0'])
    assert "conepoint.oracle" not in loaded and "conepoint.critpoints" in loaded
    assert out[0] == out[1] and len(out) == 4
    _, loaded = _modules_after([
        'assert conepoint.cli.main(["compare", "--preset", "aztec", '
        '"--directions=2,2,22;-1,3,23"]) == 0'])
    assert "conepoint.oracle" in loaded


def test_discovery_still_loads_the_search(tmp_path):
    path = _without_points(tmp_path, "fls")
    out, loaded = _modules_after([
        f'assert conepoint.cli.main(["asym", "--spec", {path!r}, "--r", "10,10,10"]) == 0'])
    assert loaded & SEARCH == {"conepoint.critpoints"}
    assert json.loads(out[0])["per_point"]


def test_no_command_imports_numpy_dataclasses_or_inspect(tmp_path):
    spec = _without_points(tmp_path, "superballot-core")
    commands = [
        'assert conepoint.cli.main(["oracle", "--preset", "aztec", "--order", "4"]) == 0',
        'assert conepoint.cli.main(["oracle", "--preset", "fls", "--at", "5,5,5"]) == 0',
        f'assert conepoint.cli.main(["asym", "--spec", {spec!r}, "--r", "9,10,11"]) == 0',
        'assert conepoint.cli.main(["classify", "--preset", "fls", "--r", "10,10,10"]) == 0',
        'assert conepoint.cli.main(["compare", "--preset", "aztec", '
        '"--directions=2,2,22;-1,3,23"]) == 0']
    # with None in sys.modules, any import of these modules raises ImportError
    blocked, _ = _modules_after(commands, prelude="for m in ('numpy', 'dataclasses', 'inspect'):\n"
                                                  "    sys.modules[m] = None\n"
                                                  "import conepoint, conepoint.cli")
    out, _ = _modules_after(commands)
    assert blocked == out and len(out) > 4


def test_generic_spec_demo_runs_without_numpy():
    # the demo's smooth-point formula is plain Python: with numpy's import
    # blocked it prints what it prints with numpy available
    demo = str(ROOT / "demos" / "generic_spec.py")
    run = f"import runpy; runpy.run_path({demo!r}, run_name='__main__')"
    blocked, _ = _modules_after([run], prelude="sys.modules['numpy'] = None")
    out, loaded = _modules_after([run], prelude="")
    assert blocked == out and len(out) > 10 and "numpy" not in loaded


def test_cli_forwards_prediction_names_on_first_lookup():
    # the names the benchmark looks up on cli resolve to the home module's
    # objects, and the lookup is what loads that module
    out, _ = _modules_after([
        "print('conepoint.asympt' in sys.modules)",
        "f = conepoint.cli.total_asymptotics",
        "print(f is sys.modules['conepoint.asympt'].total_asymptotics)",
        "print(conepoint.cli.classify_direction is conepoint.localgeo.classify_direction)",
        "print('conepoint.oracle' in sys.modules)",
        "print(conepoint.cli.expand_box is sys.modules['conepoint.oracle'].expand_box)",
        "print(hasattr(conepoint.cli, 'no_such_name'))"])
    assert out == ["False", "True", "True", "False", "True", "False"]


def test_public_names_are_pinned():
    assert sorted(conepoint.__all__) == sorted(
        [name for names in HOMES.values() for name in names] + list(SUBMODULES))
    assert len(conepoint.__all__) == 48


def test_each_name_is_its_home_modules_object():
    for home, names in HOMES.items():
        module = importlib.import_module("conepoint." + home)
        for name in names:
            assert getattr(conepoint, name) is getattr(module, name), name
    for name in SUBMODULES:
        assert getattr(conepoint, name) is sys.modules["conepoint." + name]
    assert conepoint.RefusalError is conepoint.asympt.RefusalError \
        is conepoint.localgeo.RefusalError


def test_star_import_binds_every_name():
    namespace = {}
    exec("from conepoint import *", namespace)
    assert all(namespace[name] is getattr(conepoint, name) for name in conepoint.__all__)


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        conepoint.no_such_name
    with pytest.raises(ImportError):
        exec("from conepoint import no_such_name", {})
