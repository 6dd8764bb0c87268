"""Command-line driver.

Subcommands: kernel-eval, stats, sweep, classify, mc, constants, verify.
All data-emitting commands share one JSON shape: a top-level object with
``spec``, ``window``, ``rows`` and ``meta{version, seed, tolerances}``,
plus ``meta.route`` for the moment commands (stats, sweep, classify, mc);
CSV output mirrors ``rows`` with a header line.  Numbers are emitted with
17 significant digits, which round-trips doubles exactly; a non-finite
value (NaN from an Inconclusive fit or an all-zero Monte Carlo sample)
is written as JSON ``null`` or an empty CSV cell.  Output is
deterministic for fixed inputs and seed.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numerical-budget failure, 4 internal-consistency failure (a bug, not a
usage problem).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import __version__
from .analysis import (
    _FIT_WINDOW,
    SweepResult,
    SweepRow,
    classify,
    default_r_grid,
    run_sweep,
)
from .exceptions import (
    InternalConsistencyError,
    NumericalBudgetError,
    UnsupportedConfigurationError,
)
from .kernels import ComplexPoint, KernelSpec, hermitized_kernel, kernel_eval
from .montecarlo import McConfig
from .verification import run_checks
from .window_stats import (
    _TAIL_TOL,
    Route,
    WindowKind,
    c_constant,
    polydisk_limit_constant,
    polydisk_moments,
)
from .asymptotics import c_asymptote


_ROW_FIELDS = ("r", "mean", "variance", "ratio", "r_times_ratio")
_ROUTES = tuple(r.value for r in Route)
# The flags that build a moment sweep default to None, so that a given one
# can be told from an unset one; unset ones take these values.  The last
# three apply to --route mc only.
_SWEEP_DEFAULTS = {"window": "polydisk", "tail_tol": _TAIL_TOL, "route": "spectrum",
                   "seed": 0, "replicas": 100_000, "cell_prob_floor": 1e-12}
_MC_ONLY = ("seed", "replicas", "cell_prob_floor")


def _num(x) -> str:
    """One number as a JSON/CSV token, 17 significant digits for floats."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.17g}"
    raise TypeError(f"not a number: {x!r}")


def _missing(x) -> bool:
    """None or a non-finite float: JSON null, an empty CSV cell."""
    return x is None or (isinstance(x, float) and not math.isfinite(x))


def emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if _missing(obj):
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, int, float)):
        return _num(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(inner + emit_json(v, indent + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {emit_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    """Empty when missing; RFC 4180-quoted when it holds a comma, a quote, \\r
    or \\n (csv.writer with a "\\n" terminator would leave a \\r bare)."""
    if _missing(v):
        return ""
    if isinstance(v, (int, float)):
        return _num(v)
    text = str(v)
    if any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def emit_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    header = list(rows[0])
    lines = [",".join(map(_csv_cell, header))]
    lines += [",".join(_csv_cell(row.get(k)) for k in header) for row in rows]
    # a lone empty cell is quoted, or a reader would skip its line as blank
    return "".join((line or '""') + "\n" for line in lines)


def _document(
    spec, window, rows, seed=None, tolerances=None, *, route=None, extra=None
) -> dict:
    meta = {"version": __version__, "seed": seed}
    if route is not None:
        meta["route"] = route
    meta["tolerances"] = tolerances or {}
    doc = {
        "spec": {"dimension": spec.dimension, "level": list(spec.level)}
        if spec is not None
        else None,
        "window": window,
        "rows": rows,
        "meta": meta,
    }
    if extra:
        doc.update(extra)
    return doc


def _write_output(doc: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = emit_json(doc) + "\n"
    else:
        text = emit_csv(doc["rows"])
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_spec(args) -> KernelSpec:
    """The KernelSpec of --dimension and --level (all zeros when unset)."""
    dimension, text = args.dimension, args.level
    if text is None:
        return KernelSpec(dimension)
    try:
        level = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--level must be comma-separated integers, got {text!r}")
    if len(level) != dimension:
        raise ValueError(
            f"--level has {len(level)} entries but --dimension is {dimension}"
        )
    return KernelSpec(dimension, level)


def _parse_point(text: str, dimension: int) -> ComplexPoint:
    coords = text.split(";")
    if len(coords) != dimension:
        raise ValueError(
            f"point {text!r} has {len(coords)} coordinates, expected {dimension}"
        )
    res, ims = [], []
    for part in coords:
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ValueError(f"coordinate {part!r} must be 're,im'")
        res.append(float(pieces[0]))
        ims.append(float(pieces[1]))
    return ComplexPoint(tuple(res), tuple(ims))


def _parse_grid(text: str | None) -> tuple[float, ...]:
    if text is None:
        return default_r_grid()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("--r-grid as a range must be 'lo:hi:count'")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        return default_r_grid(count, lo, hi)
    return tuple(float(v) for v in text.split(","))


def _add_common(p: argparse.ArgumentParser, *, required: bool = True) -> None:
    p.add_argument("--dimension", type=int, required=required)
    p.add_argument("--level", type=str, default=None)
    _add_output(p)


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv"], default="json", dest="fmt")
    p.add_argument("--out", type=str, default=None)


def _add_mc(p: argparse.ArgumentParser, *, route: bool = True) -> None:
    """The window, tail and Monte Carlo flags of the moment commands, and
    --route unless the command fixes it to mc."""
    p.add_argument("--window", choices=["ball", "polydisk"])
    p.add_argument("--tail-tol", type=float)
    if route:
        p.add_argument("--route", choices=_ROUTES)
    else:
        p.set_defaults(route=Route.MONTE_CARLO.value)
    p.add_argument("--seed", type=int)
    p.add_argument("--replicas", type=int)
    p.add_argument("--cell-prob-floor", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenberg-dpp",
        description=(
            "Exact and asymptotic count statistics for the extended "
            "Heisenberg family of determinantal point processes"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel-eval", help="evaluate the correlation kernel")
    p.set_defaults(handler=_cmd_kernel_eval)
    _add_common(p)
    p.add_argument("--x", type=str, required=True, help="point as 're,im[;re,im...]'")
    p.add_argument("--y", type=str, required=True)

    p = sub.add_parser("stats", help="count moments at one radius")
    p.set_defaults(handler=_cmd_moments)
    _add_common(p)
    p.add_argument("--radius", type=float, required=True)
    _add_mc(p)

    p = sub.add_parser("sweep", help="moments over a radius grid")
    p.set_defaults(handler=_cmd_moments)
    _add_common(p)
    p.add_argument("--r-grid", type=str, default=None, help="'lo:hi:n' or 'r1,r2,...'")
    _add_mc(p)

    p = sub.add_parser("classify", help="hyperuniformity class of a sweep")
    p.set_defaults(handler=_cmd_classify)
    p.add_argument("--in", dest="in_path", type=str, default=None,
                   help="JSON sweep produced by the sweep subcommand")
    _add_common(p, required=False)
    p.add_argument("--r-grid", type=str, default=None)
    p.add_argument("--fit-window", type=float, default=_FIT_WINDOW)
    _add_mc(p)

    p = sub.add_parser("mc", help="Monte Carlo moment estimate")
    p.set_defaults(handler=_cmd_moments)
    _add_common(p)
    p.add_argument("--radius", type=float, required=True)
    _add_mc(p, route=False)

    p = sub.add_parser("constants", help="Class-I constants per level")
    p.set_defaults(handler=_cmd_constants)
    _add_common(p)

    p = sub.add_parser("verify", help="cross-route verification suite")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--check", action="append", default=None,
                   help="run only this check (repeatable)")
    p.add_argument("--tolerance-scale", type=float, default=1.0)
    _add_output(p)
    return parser


# main() parses every call with this one parser; building it takes about a
# millisecond, more than many commands take to run.
_parser = functools.cache(build_parser)


def _cmd_kernel_eval(args) -> int:
    spec = _parse_spec(args)
    x = _parse_point(args.x, spec.dimension)
    y = _parse_point(args.y, spec.dimension)
    raw = kernel_eval(spec, x, y)
    herm = hermitized_kernel(spec, x, y)
    rows = [
        {
            "kernel_re": raw.real,
            "kernel_im": raw.imag,
            "hermitized_re": herm.real,
            "hermitized_im": herm.imag,
        }
    ]
    doc = _document(spec, None, rows, extra={"x": args.x, "y": args.y})
    _write_output(doc, args.fmt, args.out)
    return 0


def _given(args, dests) -> list[str]:
    """The flags among the argparse dests that the command line set."""
    return ["--" + d.replace("_", "-") for d in dests if getattr(args, d) is not None]


def _moment_sweep(args, radii) -> tuple[SweepResult, list[dict], int | None]:
    """Sweep rows of stats, sweep, classify and mc, and the seed to record.
    Sets each unset sweep flag on args to its default."""
    if args.route != Route.MONTE_CARLO.value and (given := _given(args, _MC_ONLY)):
        route = args.route or _SWEEP_DEFAULTS["route"]
        raise ValueError(f"--route {route} reads no {', '.join(given)}")
    for dest, default in _SWEEP_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    spec = _parse_spec(args)
    mc = None
    if args.route == Route.MONTE_CARLO.value:
        mc = McConfig(args.replicas, args.seed, args.cell_prob_floor)
    sweep = run_sweep(spec, args.window, radii, args.route, args.tail_tol, mc)
    rows = [{k: getattr(row, k) for k in _ROW_FIELDS} for row in sweep.rows]
    return sweep, rows, None if mc is None else args.seed


def _cmd_moments(args) -> int:
    """stats, sweep and mc.  stats is a sweep with one radius; mc is stats
    --route mc plus the standard errors and the exact polydisk moments."""
    radii = _parse_grid(args.r_grid) if args.command == "sweep" else (args.radius,)
    sweep, rows, seed = _moment_sweep(args, radii)
    tolerances = {"tail_tol": args.tail_tol}
    if args.command == "mc":
        row = sweep.rows[0]
        exact = polydisk_moments(sweep.spec, row.r, args.tail_tol)
        rows[0].update(
            se_mean=row.se_mean,
            se_var=row.se_var,
            exact_mean=exact.mean,
            exact_variance=exact.variance,
            replicas=args.replicas,
            **{f"{k}_cells": v for k, v in row.cells._asdict().items()},
        )
        tolerances["cell_prob_floor"] = args.cell_prob_floor
    doc = _document(
        sweep.spec, args.window, rows, seed, tolerances, route=args.route
    )
    _write_output(doc, args.fmt, args.out)
    return 0


def _need(ok: bool, name: str, want: str) -> None:
    if not ok:
        raise ValueError(f"--in document: {name} must be {want}")


def _load_sweep(path: str) -> tuple[SweepResult, dict]:
    """A sweep document for classify --in, checked field by field."""
    with open(path) as fh:
        doc = json.load(fh)
    _need(isinstance(doc, dict), "the document", "a JSON object")
    spec, meta, rows = doc.get("spec"), doc.get("meta", {}), doc.get("rows")
    _need(isinstance(spec, dict), "spec", "an object")
    # type(...) is int: JSON booleans load as bool, a subclass of int
    _need(type(spec.get("dimension")) is int, "spec.dimension", "an integer")
    level = spec.get("level")
    level_ok = isinstance(level, list) and all(type(m) is int for m in level)
    _need(level_ok, "spec.level", "a list of integers")
    _need(doc.get("window") in ("ball", "polydisk"), "window", "ball or polydisk")
    _need(isinstance(meta, dict), "meta", "an object")
    # documents written before meta.route existed came from the spectrum route
    route = meta.get("route", Route.SPECTRUM.value)
    _need(route in _ROUTES, "meta.route", "one of " + ", ".join(_ROUTES))
    _need(isinstance(rows, list), "rows", "a list")
    for i, row in enumerate(rows):
        _need(isinstance(row, dict), f"rows[{i}]", "an object")
        for key in _ROW_FIELDS:
            v = row.get(key)
            # a zero mean has no ratio: sweep writes both ratio fields as null
            if key in ("ratio", "r_times_ratio") and row["mean"] == 0:
                if key in row and v is None:
                    continue
            ok = type(v) in (int, float) and math.isfinite(v)
            _need(ok, f"rows[{i}].{key}", "a finite number")
    sweep = SweepResult(
        rows=tuple(
            SweepRow(*(math.nan if row[k] is None else row[k] for k in _ROW_FIELDS))
            for row in rows
        ),
        spec=KernelSpec(spec["dimension"], tuple(level)),
        window_kind=WindowKind(doc["window"]),
        route=Route(route),
    )
    return sweep, doc


def _cmd_classify(args) -> int:
    if args.in_path is not None:
        if given := _given(args, ["dimension", "level", "r_grid", *_SWEEP_DEFAULTS]):
            raise ValueError(f"classify --in reads no {', '.join(given)}")
        sweep, loaded = _load_sweep(args.in_path)
        rows, seed = loaded["rows"], loaded.get("meta", {}).get("seed")
    elif args.dimension is None:
        raise ValueError("classify needs either --in or --dimension")
    else:
        sweep, rows, seed = _moment_sweep(args, _parse_grid(args.r_grid))
    report = dataclasses.asdict(classify(sweep, fit_window=args.fit_window))
    del report["detail"]
    report["class_label"] = report["class_label"].value
    doc = _document(
        sweep.spec,
        sweep.window_kind.value,
        rows,
        seed,
        {"fit_window": args.fit_window},
        route=sweep.route.value,
        extra={"classification": report},
    )
    _write_output(doc, args.fmt, args.out)
    return 0


def _cmd_constants(args) -> int:
    spec = _parse_spec(args)
    rows = []
    for m in spec.level:
        exact = c_constant(m)
        # the square-root asymptote starts at level 1
        asym = c_asymptote(m) if m >= 1 else None
        rows.append(
            {
                "level": m,
                "c_exact": exact,
                "c_asymptote": asym,
                "asymptote_ratio": exact / asym if asym else None,
            }
        )
    doc = _document(
        spec,
        None,
        rows,
        extra={"limit_constant_sum": polydisk_limit_constant(spec)},
    )
    _write_output(doc, args.fmt, args.out)
    return 0


def _cmd_verify(args) -> int:
    scale = args.tolerance_scale
    if not (scale >= 0.0 and math.isfinite(scale)):
        raise ValueError(f"--tolerance-scale must be finite and >= 0, got {scale}")
    results = run_checks(args.check, scale)
    rows = [dataclasses.asdict(r) for r in results]
    for row in rows:
        if not math.isfinite(row["max_delta"]):  # a check that failed outright
            row["max_delta"] = 1e308
    for r in results:
        print(r.line())
    if args.out:
        _write_output(_document(None, None, rows), args.fmt, args.out)
    return 0 if all(r.passed for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except NumericalBudgetError as exc:
        print(f"numerical budget exhausted: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 4
    except (UnsupportedConfigurationError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
