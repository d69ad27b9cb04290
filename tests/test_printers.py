"""The table printers read the sweep's scaled ints and build no Fraction.

`table_to_csv` and `table_to_json` must print what the Fraction-based
printers of `reference_printers` print, byte for byte, on tables built
directly: levels with negative or alternating-sign denominators, levels
without a denominator holding Fractions, floats or complex values, exact,
float and complex scales, empty tables and arity 1-3.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_printers
from conepoint import specio
from conepoint.cli import main
from conepoint.oracle import CoeffTable

FLOAT = st.floats(-1e6, 1e6, allow_nan=False).filter(bool)
RATIO = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 12))
# every table is printed at each of these scales, and at one drawn float scale
SCALES = [Fraction(1), Fraction(-3, 7), 1, 2, 1.0, -1.0, 0.5, 0.1, -2.5e-7,
          complex(1, 0), complex(0.5, -2)]
DIGITS = [None, 0, 1, 9, 17]
QRW2D = Path(__file__).resolve().parents[1] / "specs" / "qrw2d.json"
LOOSE = st.one_of(RATIO, FLOAT, st.builds(complex, FLOAT, FLOAT))


@st.composite
def tables(draw):
    """A CoeffTable factory: each call builds a fresh copy of one drawn table
    at the scale it is given."""
    arity = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(-3, 3)] * arity)
    keys = draw(st.lists(index, unique=True, max_size=12))
    d0 = draw(st.sampled_from([1, -1, 2, -2, 3, -6]))
    cells, runs, level = [], {}, 0
    while keys or not runs:
        n = draw(st.integers(0, len(keys)))
        kind = draw(st.sampled_from(["power", "int", "none"]))
        den = (d0 ** (level + 1) if kind == "power" else None if kind == "none" else
               draw(st.integers(-40, 40).filter(bool)))
        values = st.integers(-10 ** 20, 10 ** 20).filter(bool) if den else LOOSE
        cells += [(m, draw(values)) for m in keys[:n]]
        runs[level], keys, level = (den, n), keys[n:], level + 1
    grading = tuple(draw(st.integers(0, 2)) for _ in range(arity))
    return lambda scale: CoeffTable(arity, dict(cells), dict(runs), grading, level, scale)


def _csv(module):
    return module.table_to_csv


def _json(module):
    return lambda table, digits: specio.canonical_json(module.table_to_json(table, digits))


def _outcome(printer, table, float_digits):
    try:
        return printer(table, float_digits)
    except (TypeError, OverflowError) as e:  # float() of a complex value, or a huge one
        return type(e)


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(tables(), FLOAT)
def test_printers_match_the_fraction_reference(make, drawn_scale):
    for scale in SCALES + [drawn_scale]:
        for digits in DIGITS:
            for text in (_csv, _json):
                assert (_outcome(text(specio), make(scale), digits) ==
                        _outcome(text(reference_printers), make(scale), digits)), (
                    scale, digits, text.__name__)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mode", [(), ("--float",)], ids=["exact", "float"])
@pytest.mark.parametrize("source", [("--preset", "aztec"), ("--preset", "fls"),
                                    ("--spec", str(QRW2D))], ids=["aztec", "fls", "qrw2d"])
def test_oracle_tables_never_read_values(monkeypatch, capsys, source, mode, fmt):
    def refuse(table):
        raise AssertionError("CoeffTable.values was read")

    monkeypatch.setattr(CoeffTable, "values", property(refuse))
    rc = main(["oracle", *source, "--order", "8", "--format", fmt, *mode])
    out = capsys.readouterr().out
    assert rc == 0 and out.count(",") > 100
