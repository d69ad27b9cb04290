"""The table printers as they were before they read the sweep's cells.

This is the reference that tests compare `specio.table_to_csv` and
`specio.table_to_json` against: it reads `CoeffTable.values`, which builds
one Fraction per cell, multiplies each value by the scale and formats it
through `format_value` and `scalar_to_json`.  Reading `values` converts the
table's cells in place, so give it a table that the printers under test
have not read, or a fresh copy.
"""

from __future__ import annotations

from typing import Optional

from conepoint.oracle import CoeffTable
from conepoint.specio import format_value, scalar_to_json


def _items(table: CoeffTable):
    s = table.scale
    return ((m, v if s == 1 else s * v) for m, v in sorted(table.values.items()))


def _bounds(table: CoeffTable):
    if not table.cells:
        z = (0,) * table.arity
        return z, z
    lo = tuple(min(m[i] for m in table.cells) for i in range(table.arity))
    hi = tuple(max(m[i] for m in table.cells) for i in range(table.arity))
    return lo, hi


def table_to_csv(table: CoeffTable, float_digits: Optional[int] = None) -> str:
    lines = [",".join(f"r{i+1}" for i in range(table.arity)) + ",value"]
    for m, v in _items(table):
        lines.append(",".join(str(e) for e in m) + "," + format_value(v, float_digits))
    return "\n".join(lines) + "\n"


def table_to_json(table: CoeffTable, float_digits: Optional[int] = None) -> dict:
    lo, hi = _bounds(table)
    return {
        "arity": table.arity,
        "grading": list(table.grading_w),
        "max_level": table.max_level,
        "bounds": {"min": list(lo), "max": list(hi)},
        "scale": scalar_to_json(table.scale),
        "coefficients": [
            {"r": list(m), "value": scalar_to_json(v) if float_digits is None else float(v)}
            for m, v in _items(table)],
    }
