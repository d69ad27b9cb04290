"""Command-line front end.

Subcommands:

  oracle    exact series coefficients (table up to --order, or one --at)
  asym      asymptotic estimate for one direction
  compare   oracle vs prediction over a direction grid, CSV + summary
  classify  direction classification report at the singular points

Exit codes: 0 success, 2 refusal (obstructed, outside the normal cone, or
a point outside the contour formulas), 3 spec or argument error, 4 numeric
failure.  With a fixed seed, outputs are byte-identical between runs.
`asym`, `compare` and `classify` prepare each singular point once (and
discover the points when the spec gives none); `compare` then evaluates
every grid direction against the prepared points.  They import the
prediction modules (`asympt`, `localgeo`) when they run, so `oracle` loads
only the series oracle and the presets.  The spec type comes from `spec`,
and the series oracle (`oracle`) loads only in `oracle` and `compare`, the
commands that sweep: `asym` and `classify` compile none of it.  The spec
reader and printer (`specio`) and `json` load only where a command reads a
spec file, prints a table or prints JSON (`asym`, `classify`, a refusal's
diagnostics): a preset `oracle --at` or `compare` loads neither.
"""

from __future__ import annotations

import argparse
import itertools
import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .errors import RefusalError, SpecFormatError
from .spec import QuasiRationalSpec, SpecError
from .presets import PRESET_NAMES, preset

if TYPE_CHECKING:
    from .asympt import PreparedPoint

EXIT_OK = 0
EXIT_REFUSAL = 2
EXIT_SPEC = 3
EXIT_NUMERIC = 4
NO_PREDICTION = ("exponential-decay", "lacuna")  # estimates whose 0 stands for a smaller order


class _Parser(argparse.ArgumentParser):
    """Usage errors raise SpecFormatError, so they exit 3 like every other
    argument error (argparse's own code, 2, means refusal here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SpecFormatError(message)


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"needs an integer of at least 1, got {text!r}")
    return int(text)


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"needs a finite number, got {text!r}")
    return x


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="conepoint",
                description="coefficient asymptotics at quadratic cone points, with an "
                            "exact series oracle")
    sub = p.add_subparsers(dest="command", required=True)

    def add_source(sp, discovers=True):
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--preset", choices=PRESET_NAMES)
        src.add_argument("--spec", help="path to a spec JSON file")
        sp.add_argument("--beta", default=None,
                        help="power for the fls preset (rational like 3/4)")
        if discovers:
            sp.add_argument("--seed", type=int, default=0,
                            help="seed of the point search when the spec gives no points")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    po = sub.add_parser("oracle", help="exact series coefficients")
    add_source(po, discovers=False)
    po.add_argument("--float", dest="float_digits", nargs="?", const=17, default=None,
                    type=_positive_int, help="print values as floats (optional digit count)")
    query = po.add_mutually_exclusive_group(required=True)
    query.add_argument("--order", type=int, default=None)
    query.add_argument("--at", default=None, help="single index, e.g. 50,50,50")
    po.add_argument("--format", choices=("csv", "json"),
                    help="table format with --order (default csv)")

    pa = sub.add_parser("asym", help="asymptotic estimate in one direction")
    add_source(pa)
    pa.add_argument("--r", required=True, help="direction, e.g. 0,0,9")
    pa.add_argument("--terms", type=_positive_int, default=1,
                    help="series depth for bare quadratic points")

    pc = sub.add_parser("compare", help="oracle vs prediction over a grid")
    add_source(pc)
    pc.add_argument("--t-list", default="19,29,39")
    pc.add_argument("--slice-step", type=_finite, default=0.1)
    pc.add_argument("--lambda-min", type=_finite, default=None)
    pc.add_argument("--lambda-max", type=_finite, default=2.0)
    pc.add_argument("--cone-margin", type=_finite, default=0.2,
                    help="keep directions with dual form > margin * t^2 on the slice")
    pc.add_argument("--directions", default=None,
                    help="explicit direction list 'i,j,k;i,j,k;...' instead of a slice grid")

    pl = sub.add_parser("classify", help="direction classification report")
    add_source(pl)
    pl.add_argument("--r", required=True)
    return p


_NEGATIVE_VECTOR = re.compile(r"-\d+(?:[,;]-?\d+)+")


def _attach_negative_vectors(argv: Sequence[str]) -> List[str]:
    """Rewrite `--at -1,0,5` as `--at=-1,0,5`: argparse takes any token that
    starts with '-' and is not a plain number for an option."""
    out: List[str] = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE_VECTOR.fullmatch(tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse_vec(text: str, arity: Optional[int]) -> Tuple[int, ...]:
    try:
        r = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SpecFormatError(f"bad integer vector {text!r}") from None
    if arity is not None and len(r) != arity:
        raise SpecFormatError(f"{text!r} has {len(r)} entries, the spec has "
                              f"{arity} variables")
    return r


def _parse_direction(text: str, arity: int) -> Tuple[int, ...]:
    r = _parse_vec(text, arity)
    if not any(r):
        raise SpecFormatError(f"direction {text!r} must be nonzero")
    return r


def _parse_beta(text):
    if text is None:
        return None
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text) if "." not in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise SpecFormatError(f"--beta {text!r} is not a number like 3/4") from None


def _load(args) -> Tuple[QuasiRationalSpec, Optional[list]]:
    """Returns (spec, known_points)."""
    if args.beta is not None and args.preset != "fls":
        raise SpecFormatError("--beta applies only to --preset fls")
    if args.preset:
        pr = preset(args.preset, beta=_parse_beta(args.beta))
        return pr.spec, list(pr.known_points)
    import json
    from . import specio
    with open(args.spec) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise SpecFormatError(f"{args.spec}:{e.lineno}:{e.colno}: {e.msg}") from None
    return specio.spec_from_json(obj), specio.spec_points_from_json(obj)


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_oracle(args) -> int:
    from .oracle import coefficient_at, expand, format_value
    if args.at is not None and args.format is not None:
        raise SpecFormatError("--format applies only to --order tables")
    spec, _ = _load(args)
    if args.at is not None:
        r = _parse_vec(args.at, spec.arity)
        v = coefficient_at(spec, r)
        _emit(format_value(v, args.float_digits) + "\n", args.out)
        return EXIT_OK
    if args.order < 0:
        raise SpecFormatError(f"--order must be nonnegative, got {args.order}")
    from . import specio
    table = expand(spec, args.order)
    if args.format == "json":
        _emit(specio.canonical_json(specio.table_to_json(table, args.float_digits)),
              args.out)
    else:
        _emit(specio.table_to_csv(table, args.float_digits), args.out)
    return EXIT_OK


def _cmd_asym(args) -> int:
    from .asympt import prepare, total_asymptotics
    from . import specio
    spec, points = _load(args)
    r = _parse_direction(args.r, spec.arity)
    prepared = prepare(spec, points, order_terms=args.terms, seed=args.seed)
    est = total_asymptotics(spec, r, points=prepared)
    _emit(specio.canonical_json(specio.estimate_to_json(est)), args.out)
    if est.formula_tag in NO_PREDICTION:
        return EXIT_REFUSAL
    return EXIT_OK


def _cmd_classify(args) -> int:
    from .asympt import decay_exponent, point_data
    from .localgeo import classify_direction
    from . import specio
    spec, points = _load(args)
    r = _parse_direction(args.r, spec.arity)
    report = []
    for data in point_data(spec, points, seed=args.seed):
        cls = classify_direction(data, r)
        entry = specio.point_data_to_json(data)
        entry.update({
            "class": cls.tag.value,
            "margin": cls.margin,
            "dual_rr": specio.scalar_to_json(data.dual_eval(r, r)),
            "decay_exponent_bound": decay_exponent(spec, [(data.point_Z, data.degree)]),
        })
        if data.k == 1:
            ell = data.linear_factors[0][0]
            entry["dual_rl"] = specio.scalar_to_json(data.dual_eval(r, ell))
        report.append(entry)
    _emit(specio.canonical_json({"direction": list(r), "points": report}), args.out)
    return EXIT_OK


def _grid(args, spec, prepared: Sequence[PreparedPoint]) -> List[Tuple[int, ...]]:
    """The integer points of the slices r = (floor(lam_1 t), ...,
    floor(lam_{d-1} t), t) that lie well inside the dual cone of the first
    prepared point."""
    data = prepared[0].data
    lam_lo, lam_hi = args.lambda_min, args.lambda_max
    if lam_lo is None:
        # symmetric slice for Laurent supports, positive slice otherwise
        laurent = any(e < 0 for poly, _ in spec.factors for m in poly.terms for e in m)
        lam_lo = -2.0 if laurent else 0.1
    ts = _parse_vec(args.t_list, None)
    step = args.slice_step
    if step <= 0:
        raise SpecFormatError(f"--slice-step must be positive, got {step!r}")
    lams = [lam_lo + i * step for i in range(int(round((lam_hi - lam_lo) / step)) + 1)]
    out = []
    for t in ts:
        for lam in itertools.product(lams, repeat=spec.arity - 1):
            r = tuple(math.floor(x * t) for x in lam) + (t,)
            if float(data.dual_eval(r, r)) > args.cone_margin * t * t:
                out.append(r)
    return sorted(set(out))


def _cmd_compare(args) -> int:
    from .asympt import prepare, total_asymptotics
    from .oracle import expand_box
    spec, points = _load(args)
    targets = (sorted({_parse_direction(part, spec.arity)
                       for part in args.directions.split(";") if part})
               if args.directions else None)
    prepared = prepare(spec, points, seed=args.seed)
    if targets is None:
        targets = _grid(args, spec, prepared)
    if not targets:
        raise SpecFormatError("empty comparison grid")
    lo = tuple(min(0, min(r[i] for r in targets)) for i in range(spec.arity))
    hi = tuple(max(0, max(r[i] for r in targets)) for i in range(spec.arity))
    table = expand_box(spec, lo, hi)
    header = ",".join(f"r{i+1}" for i in range(spec.arity)) + \
        ",oracle,prediction,rel_error,class"
    lines = [header]
    errors = []
    for r in targets:
        oracle_v = float(table.value_at(r))
        try:
            est = total_asymptotics(spec, r, points=prepared)
        except RefusalError as e:
            lines.append(",".join(map(str, r)) + f",{oracle_v!r},,,{e.diagnostics['class']}")
            continue
        pred_f, cls = float(est.value), est.per_point[0].direction_class
        if est.formula_tag in NO_PREDICTION:  # 0 by convention: no error to measure
            rel = ""
        elif oracle_v == 0.0:
            rel = repr(0.0 if pred_f == 0.0 else float("inf"))
        else:
            errors.append(abs(pred_f - oracle_v) / abs(oracle_v))
            rel = repr(errors[-1])
        lines.append(",".join(map(str, r)) + f",{oracle_v!r},{pred_f!r},{rel},{cls}")
    if errors:
        errors.sort()
        median = errors[len(errors) // 2]
        summary = f"# interior points: {len(errors)}, max rel error {max(errors)!r}, " \
                  f"median rel error {median!r}"
    else:
        summary = "# no predicted points with nonzero oracle values"
    lines.append(summary)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    handlers = {"oracle": _cmd_oracle, "asym": _cmd_asym,
                "compare": _cmd_compare, "classify": _cmd_classify}
    try:
        args = _build_parser().parse_args(_attach_negative_vectors(argv))
        return handlers[args.command](args)
    except RefusalError as e:
        sys.stderr.write(f"refused: {e}\n")
        if e.diagnostics:
            from . import specio
            sys.stderr.write(specio.canonical_json(e.diagnostics))
        return EXIT_REFUSAL
    except (SpecFormatError, SpecError, OSError, KeyError) as e:
        sys.stderr.write(f"spec error: {e}\n")
        return EXIT_SPEC
    except (ArithmeticError, ValueError) as e:
        sys.stderr.write(f"numeric failure: {e}\n")
        return EXIT_NUMERIC


# Forwards to `oracle` and `asympt` the names perfbench/test_perfbench.py and
# tests/test_bench_hooks.py look up here; goes once perfbench wraps functions in
# their home modules.
def __getattr__(name):
    if name == "expand_box":
        from . import oracle
        return oracle.expand_box
    if name not in ("prepare", "total_asymptotics", "PreparedPoint", "classify_direction"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import asympt
    return getattr(asympt, name)


if __name__ == "__main__":
    sys.exit(main())
