"""Span recorder for one traced conepoint process.

The recorder wraps the layer functions named in LAYERS from outside the
program.  conepoint's modules import each other with ``from .x import y``,
so a function is reachable under several module-level names (for example
``conepoint.asympt.log_compose_taylor`` and
``conepoint.localgeo.log_compose_taylor``).  install() replaces every such
name in every loaded conepoint module; wrapping only the defining module
would record nothing for calls made from the others.

Each thread keeps its own span stack.  Spans are held in memory and written
out once, by write(), when the command has finished.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

# "<module>.<function>" timed as spans -> the per-layer fields reported for it
LAYERS = {
    "polyseries.log_compose_taylor": ("calls", "self_s"),
    "localgeo.quadratic_point_data": ("calls", "self_s"),
    "localgeo.classify_direction": ("calls", "self_s"),
    "asympt.local_degree": ("calls", "self_s"),
    "asympt.expansion_coefficients": ("calls", "self_s"),
    "asympt.quadratic_asymptotics": ("calls", "self_s"),
    "asympt.cone_plane_asymptotics": ("calls", "self_s"),
    "asympt.total_asymptotics": ("calls", "self_s", "wait_s"),
    "oracle.expand": ("calls", "self_s"),
    "oracle.expand_box": ("calls", "self_s"),
    "oracle.coefficient_at": ("calls", "self_s"),
    "specio.table_to_csv": ("self_s",),
    "specio.table_to_json": ("self_s",),
    "specio.canonical_json": ("self_s",),
    "specio.spec_from_json": ("self_s",),
    "critpoints.find_singular_points": ("calls", "self_s"),
    "presets.preset": ("self_s",),
    "cli.main": ("self_s",),
}

# classes whose __post_init__ calls are counted as "polyseries.objects_built"
COUNTED_CLASSES = ("MultiPoly", "TruncatedSeries")


class _ThreadState:
    """Spans and counters of one thread; outlives the thread."""

    def __init__(self):
        # each frame: [start wall, start thread cpu, child wall, child cpu]
        self.stack = []
        self.spans = []
        self.counts = {}


def _add(counts, key, n):
    counts[key] = counts.get(key, 0) + n


def _table_values(counts, bound, result):
    _add(counts, "oracle.table_values", len(result.values))


def _search_report(counts, bound, result):
    _add(counts, "critpoints.starts", bound.arguments["starts"])
    _add(counts, "critpoints.converged", result.n_converged)
    _add(counts, "critpoints.points_found", len(result.points))


# counters taken from a function's arguments and result
RESULT_HOOKS = {
    "oracle.expand": _table_values,
    "oracle.expand_box": _table_values,
    "critpoints.find_singular_points": _search_report,
}


class Recorder:
    """Collects spans and counters from every thread of this process."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(st)
        return st

    def _wrap(self, name, fn):
        hook = RESULT_HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        state = self._state
        clock = time.perf_counter
        cpu_clock = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            frame = [clock(), cpu_clock(), 0.0, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = clock() - frame[0]
                cpu = cpu_clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += wall
                    stack[-1][3] += cpu
                st.spans.append((name, wall - frame[2], cpu - frame[3]))
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(st.counts, bound, result)
            return result

        return wrapper

    def _count_calls(self, key, fn):
        state = self._state

        @functools.wraps(fn)
        def wrapper(self_obj):
            counts = state().counts
            counts[key] = counts.get(key, 0) + 1
            return fn(self_obj)

        return wrapper

    def install(self):
        """Wrap every LAYERS function under each name it is bound to."""
        homes = {name: importlib.import_module("conepoint." + name.split(".")[0])
                 for name in LAYERS}
        modules = [m for name, m in sys.modules.items()
                   if name == "conepoint" or name.startswith("conepoint.")]
        for name, home in homes.items():
            original = getattr(home, name.split(".")[1])
            wrapped = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        polyseries = sys.modules["conepoint.polyseries"]
        for cls_name in COUNTED_CLASSES:
            cls = getattr(polyseries, cls_name)
            cls.__post_init__ = self._count_calls("polyseries.objects_built",
                                                  cls.__post_init__)

    def write(self, path):
        """Write every span's name, self wall time and self thread CPU time,
        and the summed counters, as JSON."""
        with self._states_lock:
            states = list(self._states)
        spans = []
        counts = {}
        for st in states:
            spans += [{"name": name, "self_s": self_wall, "self_cpu_s": self_cpu}
                      for name, self_wall, self_cpu in st.spans]
            for key, n in st.counts.items():
                _add(counts, key, n)
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)
