"""The names the benchmark wraps must resolve on the conepoint modules.

perfbench/spans.py times the functions its LAYERS table names as
"<module>.<function>", and perfbench's own smoke test checks that the
wrappers sit on the names the commands call.  That smoke test is outside
this suite, so a rename in src/ is caught here instead.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

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
