"""JSON and CSV serialization for specs, tables, and reports.

Exact rationals serialize as "num/den" strings and round-trip bit-exactly;
floats serialize as JSON numbers, complex values as [re, im] pairs.  The
canonical JSON form (sorted keys, minimal separators, terms sorted by
exponent) is idempotent under parse/re-serialize.  `SpecFormatError` lives in
`errors` and `format_value` beside `CoeffTable` in `oracle`, so that a
command that prints one coefficient loads neither this module nor `json`;
`SpecFormatError` is re-exported here.  This module reads and writes specs
without the oracle: it imports `format_value` only where it prints a table,
which the oracle has already built, so `asym` and `classify` load no sweep.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd
from typing import TYPE_CHECKING, List, Optional, Sequence

from .errors import SpecFormatError
from .polyseries import MultiPoly
from .spec import QuasiRationalSpec

if TYPE_CHECKING:
    from .oracle import CoeffTable


def scalar_to_json(c):
    if isinstance(c, Fraction):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    if isinstance(c, int):
        return str(c)
    if isinstance(c, complex):
        return [c.real, c.imag]
    return float(c)


def scalar_from_json(obj, where: str = "coeff"):
    if isinstance(obj, str):
        try:
            if "/" in obj:
                num, den = obj.split("/")
                return Fraction(int(num), int(den))
            return Fraction(int(obj))
        except (ValueError, ZeroDivisionError) as e:
            raise SpecFormatError(f"{where}: bad rational literal {obj!r}: {e}") from None
    if isinstance(obj, bool):
        raise SpecFormatError(f"{where}: booleans are not scalars")
    if isinstance(obj, (int, float)):
        return float(obj) if isinstance(obj, float) else Fraction(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(type(x) in (int, float) for x in obj):
        return complex(float(obj[0]), float(obj[1]))
    raise SpecFormatError(f"{where}: unrecognized scalar {obj!r}")


def poly_to_json(p: MultiPoly) -> List[dict]:
    return [{"coeff": scalar_to_json(c), "exponents": list(m)}
            for m, c in sorted(p.terms.items())]


def poly_from_json(arity: int, items, where: str = "poly") -> MultiPoly:
    if not isinstance(items, list):
        raise SpecFormatError(f"{where}: expected a list of terms")
    terms = []
    for i, t in enumerate(items):
        try:
            exps = t["exponents"]
            coeff = scalar_from_json(t["coeff"], f"{where}[{i}].coeff")
        except (KeyError, TypeError) as e:
            raise SpecFormatError(f"{where}[{i}]: missing field {e}") from None
        if not isinstance(exps, list) or any(type(e) is not int for e in exps):
            raise SpecFormatError(f"{where}[{i}].exponents: expected integers, got {exps!r}")
        if len(exps) != arity:
            raise SpecFormatError(f"{where}[{i}]: exponent length {len(exps)} != arity {arity}")
        terms.append((exps, coeff))
    return MultiPoly.from_terms(arity, terms)


def spec_to_json(spec: QuasiRationalSpec, points: Optional[Sequence] = None) -> dict:
    d = spec.arity
    names = ["X", "Y", "Z"][:d] if d <= 3 else [f"X{i+1}" for i in range(d)]
    out = {
        "variables": names,
        "numerator": poly_to_json(spec.numerator),
        "factors": [{"poly": poly_to_json(poly), "power": scalar_to_json(power)}
                    for poly, power in spec.factors],
        "cone_direction_u": [scalar_to_json(x) for x in spec.cone_direction_u],
    }
    if spec.name:
        out["name"] = spec.name
    if points is not None:
        out["points"] = [[scalar_to_json(z) for z in Z] for Z in points]
    return out


def spec_from_json(obj: dict) -> QuasiRationalSpec:
    try:
        variables = obj["variables"]
    except (KeyError, TypeError):
        raise SpecFormatError("top level: missing 'variables'") from None
    d = len(variables)
    if d < 1:
        raise SpecFormatError("variables: need at least one")
    numer = poly_from_json(d, obj.get("numerator", [{"coeff": "1", "exponents": [0] * d}]),
                           "numerator")
    factors, items = [], obj.get("factors", [])
    if not isinstance(items, list):
        raise SpecFormatError("factors: expected a list of factors")
    for i, f in enumerate(items):
        try:
            poly = poly_from_json(d, f["poly"], f"factors[{i}].poly")
            power = scalar_from_json(f["power"], f"factors[{i}].power")
        except (KeyError, TypeError) as e:
            raise SpecFormatError(f"factors[{i}]: missing field {e}") from None
        factors.append((poly, power))
    u = _vector(obj.get("cone_direction_u", [-1] * d), d, "cone_direction_u")
    if any(isinstance(x, complex) for x in u):
        raise SpecFormatError("cone_direction_u: the direction must be real")
    return QuasiRationalSpec(d, numer, tuple(factors), u, name=obj.get("name", ""))


def spec_points_from_json(obj: dict) -> Optional[List[tuple]]:
    pts = obj.get("points")
    if pts is None:
        return None
    if not isinstance(pts, list):
        raise SpecFormatError("points: expected a list of points")
    points = [_vector(Z, len(obj["variables"]), f"points[{i}]") for i, Z in enumerate(pts)]
    for i, Z in enumerate(points):
        if not all(Z):
            raise SpecFormatError(f"points[{i}]: a point lies on a torus, so no coordinate "
                                  f"may be 0, got {pts[i]!r}")
    return points


def _vector(items, d: int, where: str) -> tuple:
    """A JSON list of d scalars, each read by scalar_from_json."""
    if not isinstance(items, list) or len(items) != d:
        raise SpecFormatError(f"{where}: expected a list of {d} scalars, got {items!r}")
    return tuple(scalar_from_json(x, f"{where}[{i}]") for i, x in enumerate(items))


def canonical_json(obj) -> str:
    import json  # here, so that CSV tables load no json
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _table_rows(table: CoeffTable, float_digits: Optional[int], csv: bool) -> list:
    """The table's CSV lines or JSON coefficients, one per cell in index order,
    built from the cells and runs without reading values.

    A level's cell x is x/den before scale (x itself when den is None):
    an exact scale a/b gives x*a/(den*b) in lowest terms, or that int
    division's correctly rounded float, and a float scale s gives
    s * (x/den), the double that s times the Fraction gives.  With float
    digits N, a JSON value is the number that its N digits read back as
    (17 digits keep every double), and a complex one the pair [re, im] of
    those."""
    from .oracle import format_value
    s = table.scale
    exact = isinstance(s, (int, Fraction))
    a, b = (s.numerator, s.denominator) if exact else (1, 1)
    t = 1.0 if exact else s
    if csv:
        real = repr if float_digits is None else f"{{:.{float_digits}g}}".format
        value = partial(format_value, float_digits=float_digits)
    elif float_digits is None:
        real, value = float, scalar_to_json
    else:
        real = float if float_digits >= 17 else (
            lambda x: float(f"{float(x):.{float_digits}g}"))

        def value(v):
            return [real(v.real), real(v.imag)] if isinstance(v, complex) else real(v)
    form = ",".join(["%d"] * table.arity) + ",%s"
    row = (lambda m, v: form % (*m, v)) if csv else (lambda m, v: {"r": list(m), "value": v})
    out = []
    items = iter(table.cells.items())
    for den, n in table.runs.values():
        level = zip(range(n), items)
        if den is None or isinstance(t, complex):
            out += [(m, row(m, value(v if s == 1 else s * v))) for _, (m, x) in level
                    for v in [x if den is None else Fraction(x, den)]]
            continue
        ak, q = (a, den * b) if den > 0 else (-a, -den * b)
        if float_digits is None and t == 1:
            out += [(m, row(m, str(p // g) if (g := gcd(p := x * ak, q)) == q else
                            f"{p // g}/{q // g}")) for _, (m, x) in level]
        else:
            out += [(m, row(m, real(t * (x * ak / q)))) for _, (m, x) in level]
    out.sort(key=lambda c: c[0])
    return [r for _, r in out]


def table_to_csv(table: CoeffTable, float_digits: Optional[int] = None) -> str:
    header = ",".join(f"r{i+1}" for i in range(table.arity)) + ",value"
    return "\n".join([header, *_table_rows(table, float_digits, True)]) + "\n"


def table_to_json(table: CoeffTable, float_digits: Optional[int] = None) -> dict:
    lo, hi = table.bounds()
    return {
        "arity": table.arity,
        "grading": list(table.grading_w),
        "max_level": table.max_level,
        "bounds": {"min": list(lo), "max": list(hi)},
        "scale": scalar_to_json(table.scale),
        "coefficients": _table_rows(table, float_digits, False),
    }


def estimate_to_json(est) -> dict:
    return {
        "direction": list(est.direction),
        "value": float(est.value),
        "decay_exponent": est.decay_exponent,
        "formula": est.formula_tag,
        "notes": list(est.notes),
        "per_point": [
            {"point": [scalar_to_json(z) for z in c.Z],
             "formula": c.formula,
             "direction_class": c.direction_class,
             "value": float(c.value)} for c in est.per_point],
    }


def point_data_to_json(data) -> dict:
    def mat(M):
        return [[scalar_to_json(x) for x in row] for row in M]

    return {
        "point": [scalar_to_json(z) for z in data.point_Z],
        "power": scalar_to_json(data.s),
        "q_matrix": mat(data.q_matrix),
        "dual_matrix": mat(data.dual_matrix),
        "normalizer_absdet": scalar_to_json(data.normalizer_absdet),
        "numerator_value": scalar_to_json(data.numerator_value),
        "linear_factors": [{"covector": [scalar_to_json(x) for x in ell], "power": n}
                           for ell, n in data.linear_factors],
        "sign_flipped": data.sign_flipped,
    }
