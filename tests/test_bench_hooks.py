"""The names the benchmark wraps or imports must resolve on the conepoint modules.

perfbench/spans.py times the functions its LAYERS table names as
"<module>.<function>", and perfbench's own smoke test checks that the
wrappers sit on the names the commands call.  Its workloads, its launcher
and the setup code it times import names from conepoint too.  None of that
runs in this suite, so a rename or a move in src/ is caught here instead.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"

# names perfbench/test_perfbench.py::test_wrappers_sit_on_calling_module_names
# expects a wrapper on
CALLING_NAMES = ("cli.total_asymptotics", "cli.main", "asympt.quadratic_point_data",
                 "asympt.log_compose_taylor", "localgeo.log_compose_taylor",
                 "cli.expand_box")


def _layers():
    """LAYERS from perfbench/spans.py, read from its source without running it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {SPANS}")


def _resolve(name):
    module, attr = name.split(".")
    return getattr(importlib.import_module("conepoint." + module), attr, None)


def test_layer_names_resolve():
    missing = [name for name in _layers() if not callable(_resolve(name))]
    assert not missing


def test_calling_names_are_layer_functions():
    # the recorder wraps a name only when it is bound to a LAYERS function itself
    layer_functions = [_resolve(name) for name in _layers()]
    unwrapped = [name for name in CALLING_NAMES
                 if not any(_resolve(name) is f for f in layer_functions)]
    assert not unwrapped


def _conepoint_imports(tree):
    """(module, name) for each `from conepoint... import name` in the tree."""
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "conepoint" for alias in node.names]


def _setup_code():
    """run.py's SETUP_CODE, the statements timed as setup_s, parsed."""
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SETUP_CODE"
                                                for t in node.targets):
            return ast.parse(ast.literal_eval(node.value))
    raise AssertionError("no SETUP_CODE in perfbench/run.py")


def test_perfbench_imports_resolve():
    trees = [ast.parse((PERFBENCH / name).read_text()) for name in ("workloads.py",
                                                                     "launch.py")]
    imports = [pair for tree in trees + [_setup_code()] for pair in _conepoint_imports(tree)]
    assert {name for _, name in imports} >= {"superballot_number", "qrw_simulate", "main",
                                             "PRESET_NAMES", "preset"}
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
