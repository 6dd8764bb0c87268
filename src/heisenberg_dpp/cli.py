"""Command-line driver.

Subcommands: kernel-eval, stats, sweep, classify, mc, constants, verify.
All data-emitting commands share one JSON shape: a top-level object with
``spec``, ``window``, ``rows`` and ``meta{version, seed, tolerances}``;
CSV output mirrors ``rows`` with a header line.  Numbers are emitted with
17 significant digits, which round-trips doubles exactly.  Output is
deterministic for fixed inputs and seed.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numerical-budget failure, 4 internal-consistency failure (a bug, not a
usage problem).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .analysis import (
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
from .montecarlo import McConfig, estimate_moments
from .verification import ToleranceProfile, run_checks
from .window_stats import (
    Route,
    WindowKind,
    c_constant,
    polydisk_limit_constant,
    polydisk_moments,
)
from .asymptotics import c_asymptote


def _num(x) -> str:
    """One number as a JSON/CSV token, 17 significant digits for floats."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x!r} in output")
        return f"{x:.17g}"
    raise TypeError(f"not a number: {x!r}")


def emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
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


def emit_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for k in header:
            v = row[k]
            if v is None:
                cells.append("")
            elif isinstance(v, (int, float)):
                cells.append(_num(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _spec_dict(spec: KernelSpec) -> dict:
    return {"dimension": spec.dimension, "level": list(spec.level)}


def _document(spec, window, rows, seed=None, tolerances=None, extra=None) -> dict:
    doc = {
        "spec": _spec_dict(spec) if spec is not None else None,
        "window": window,
        "rows": rows,
        "meta": {
            "version": __version__,
            "seed": seed,
            "tolerances": tolerances or {},
        },
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


def _parse_level(text: str | None, dimension: int) -> tuple[int, ...]:
    if text is None:
        return tuple([0] * dimension)
    try:
        level = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--level must be comma-separated integers, got {text!r}")
    if len(level) != dimension:
        raise ValueError(
            f"--level has {len(level)} entries but --dimension is {dimension}"
        )
    return level


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


def _row_from_report(r: float, rep) -> dict:
    return {
        "r": r,
        "mean": rep.mean,
        "variance": rep.variance,
        "ratio": rep.ratio,
        "r_times_ratio": r * rep.ratio,
    }


def _add_common(p: argparse.ArgumentParser, *, window: bool = True) -> None:
    p.add_argument("--dimension", type=int, required=True)
    p.add_argument("--level", type=str, default=None)
    if window:
        p.add_argument(
            "--window", choices=["ball", "polydisk"], default="polydisk"
        )
    p.add_argument("--tail-tol", type=float, default=1e-9)
    p.add_argument("--format", choices=["json", "csv"], default="json", dest="fmt")
    p.add_argument("--out", type=str, default=None)


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
    _add_common(p, window=False)
    p.add_argument("--x", type=str, required=True, help="point as 're,im[;re,im...]'")
    p.add_argument("--y", type=str, required=True)

    p = sub.add_parser("stats", help="count moments at one radius")
    _add_common(p)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument(
        "--route",
        choices=["closed", "integral", "spectrum", "mc"],
        default="spectrum",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", type=int, default=100_000)
    p.add_argument("--cell-prob-floor", type=float, default=1e-12)

    p = sub.add_parser("sweep", help="moments over a radius grid")
    _add_common(p)
    p.add_argument("--r-grid", type=str, default=None, help="'lo:hi:n' or 'r1,r2,...'")
    p.add_argument(
        "--route",
        choices=["closed", "integral", "spectrum", "mc"],
        default="spectrum",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", type=int, default=100_000)
    p.add_argument("--cell-prob-floor", type=float, default=1e-12)

    p = sub.add_parser("classify", help="hyperuniformity class of a sweep")
    p.add_argument("--in", dest="in_path", type=str, default=None,
                   help="JSON sweep produced by the sweep subcommand")
    p.add_argument("--dimension", type=int, default=None)
    p.add_argument("--level", type=str, default=None)
    p.add_argument("--window", choices=["ball", "polydisk"], default="polydisk")
    p.add_argument("--r-grid", type=str, default=None)
    p.add_argument(
        "--route",
        choices=["closed", "integral", "spectrum", "mc"],
        default="spectrum",
    )
    p.add_argument("--tail-tol", type=float, default=1e-9)
    p.add_argument("--fit-window", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", type=int, default=100_000)
    p.add_argument("--cell-prob-floor", type=float, default=1e-12)
    p.add_argument("--format", choices=["json", "csv"], default="json", dest="fmt")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("mc", help="Monte Carlo moment estimate")
    _add_common(p)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", type=int, default=100_000)
    p.add_argument("--cell-prob-floor", type=float, default=1e-12)

    p = sub.add_parser("constants", help="Class-I constants per level")
    _add_common(p)

    p = sub.add_parser("verify", help="cross-route verification suite")
    p.add_argument("--check", action="append", default=None,
                   help="run only this check (repeatable)")
    p.add_argument("--tolerance-scale", type=float, default=1.0)
    p.add_argument("--format", choices=["json", "csv"], default="json", dest="fmt")
    p.add_argument("--out", type=str, default=None)
    return parser


def _mc_config(args) -> McConfig:
    return McConfig(
        replicas=args.replicas,
        seed=args.seed,
        cell_prob_floor=args.cell_prob_floor,
    )


def _cmd_kernel_eval(args) -> int:
    spec = KernelSpec(args.dimension, _parse_level(args.level, args.dimension))
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


def _moment_rows(args, radii) -> tuple[KernelSpec, list[dict]]:
    spec = KernelSpec(args.dimension, _parse_level(args.level, args.dimension))
    route = Route(args.route)
    mc = _mc_config(args) if route == Route.MONTE_CARLO else None
    sweep = run_sweep(
        spec, WindowKind(args.window), radii, route, args.tail_tol, mc
    )
    rows = [
        {
            "r": row.r,
            "mean": row.mean,
            "variance": row.variance,
            "ratio": row.ratio,
            "r_times_ratio": row.r_times_ratio,
        }
        for row in sweep.rows
    ]
    return spec, rows


def _cmd_stats(args) -> int:
    spec, rows = _moment_rows(args, (args.radius,))
    doc = _document(
        spec,
        args.window,
        rows,
        seed=args.seed if args.route == "mc" else None,
        tolerances={"tail_tol": args.tail_tol},
    )
    _write_output(doc, args.fmt, args.out)
    return 0


def _cmd_sweep(args) -> int:
    radii = _parse_grid(args.r_grid)
    spec, rows = _moment_rows(args, radii)
    doc = _document(
        spec,
        args.window,
        rows,
        seed=args.seed if args.route == "mc" else None,
        tolerances={"tail_tol": args.tail_tol},
    )
    _write_output(doc, args.fmt, args.out)
    return 0


def _cmd_classify(args) -> int:
    from .analysis import SweepResult, SweepRow

    if args.in_path:
        with open(args.in_path) as fh:
            loaded = json.load(fh)
        spec = KernelSpec(
            loaded["spec"]["dimension"], tuple(loaded["spec"]["level"])
        )
        window = WindowKind(loaded["window"])
        rows = tuple(
            SweepRow(
                r=row["r"],
                mean=row["mean"],
                variance=row["variance"],
                ratio=row["ratio"],
                r_times_ratio=row["r_times_ratio"],
            )
            for row in loaded["rows"]
        )
        sweep = SweepResult(
            rows=rows, spec=spec, window_kind=window, route=Route.SPECTRUM
        )
        out_rows = list(loaded["rows"])
        seed = loaded.get("meta", {}).get("seed")
    else:
        if args.dimension is None:
            raise ValueError("classify needs either --in or --dimension")
        spec = KernelSpec(args.dimension, _parse_level(args.level, args.dimension))
        route = Route(args.route)
        mc = _mc_config(args) if route == Route.MONTE_CARLO else None
        sweep = run_sweep(
            spec,
            WindowKind(args.window),
            _parse_grid(args.r_grid),
            route,
            args.tail_tol,
            mc,
        )
        out_rows = [
            {
                "r": row.r,
                "mean": row.mean,
                "variance": row.variance,
                "ratio": row.ratio,
                "r_times_ratio": row.r_times_ratio,
            }
            for row in sweep.rows
        ]
        window = WindowKind(args.window)
        seed = args.seed if args.route == "mc" else None
    report = classify(sweep, fit_window=args.fit_window)
    doc = _document(
        sweep.spec,
        window.value,
        out_rows,
        seed=seed,
        tolerances={"fit_window": args.fit_window},
        extra={
            "classification": {
                "fitted_slope": report.fitted_slope,
                "slope_stderr": report.slope_stderr,
                "leading_constant": report.leading_constant,
                "class_label": report.class_label.value,
            }
        },
    )
    _write_output(doc, args.fmt, args.out)
    return 0


def _cmd_mc(args) -> int:
    spec = KernelSpec(args.dimension, _parse_level(args.level, args.dimension))
    est = estimate_moments(spec, args.radius, _mc_config(args), args.tail_tol)
    exact = polydisk_moments(spec, args.radius, args.tail_tol)
    rows = [
        {
            "r": args.radius,
            "mean": est.mean_hat,
            "variance": est.var_hat,
            "ratio": est.var_hat / est.mean_hat if est.mean_hat else math.nan,
            "r_times_ratio": args.radius * est.var_hat / est.mean_hat
            if est.mean_hat
            else math.nan,
            "se_mean": est.se_mean,
            "se_var": est.se_var,
            "exact_mean": exact.mean,
            "exact_variance": exact.variance,
            "replicas": est.replicas,
        }
    ]
    doc = _document(
        spec,
        args.window,
        rows,
        seed=args.seed,
        tolerances={"tail_tol": args.tail_tol, "cell_prob_floor": args.cell_prob_floor},
    )
    _write_output(doc, args.fmt, args.out)
    return 0


def _cmd_constants(args) -> int:
    spec = KernelSpec(args.dimension, _parse_level(args.level, args.dimension))
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
    profile = ToleranceProfile(scale=args.tolerance_scale)
    results = run_checks(args.check, profile)
    rows = [
        {
            "name": r.name,
            "passed": r.passed,
            "max_delta": r.max_delta if math.isfinite(r.max_delta) else 1e308,
            "tolerance": r.tolerance,
            "detail": r.detail,
        }
        for r in results
    ]
    for r in results:
        print(r.line())
    if args.out:
        _write_output(_document(None, None, rows), args.fmt, args.out)
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "kernel-eval": _cmd_kernel_eval,
    "stats": _cmd_stats,
    "sweep": _cmd_sweep,
    "classify": _cmd_classify,
    "mc": _cmd_mc,
    "constants": _cmd_constants,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
