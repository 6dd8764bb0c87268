"""Capture golden outputs of the command line for a byte-for-byte comparison.

Usage: PYTHONPATH=src python tests/golden_cli.py OUTDIR [CASE ...]

Runs a fixed list of argv cases in process through ``cli.main``, or only
the named ones (say, the ``mc-*`` cases after a change to the Monte Carlo
streams).  Each case gets its own directory under OUTDIR, runs there (so ``--out`` and
``--in`` paths are relative and every output is independent of OUTDIR),
and keeps, per step, ``<i>.code``, ``<i>.stdout`` and ``<i>.stderr``
next to any file the step wrote.

``tests/golden`` holds the committed capture, which ``test_golden_cli.py``
compares byte for byte with a fresh one.  A change that moves outputs
regenerates it from the repository root with

    rm -rf tests/golden && PYTHONPATH=src python tests/golden_cli.py tests/golden

and lists the moved files.

The cases cover every subcommand in JSON and CSV, the documented error
exits, ``mc``, ``stats --route mc``, ``classify --in`` on exact and Monte
Carlo documents, flags a subcommand does not declare or the chosen mode
does not read, and ``--help``.
The ``verify`` cases run every check, the Monte Carlo gate among them;
a full capture takes about 5 s, most of it the ``verify-mc-gate`` case.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

from heisenberg_dpp import cli
from heisenberg_dpp.verification import ALL_CHECKS

_BALL = ["--window", "ball"]
_D1 = ["--dimension", "1"]
_D2 = ["--dimension", "2"]
_TINY_GRID = ["--r-grid", "1e-320,1e-300,1e-200,1e-100,1,2"]
_CHECK_FLAGS = [
    flag for name in ALL_CHECKS if name != "monte-carlo-gate"
    for flag in ("--check", name)
]

# (case name, steps); the steps of one case share its directory
CASES: list[tuple[str, list[list[str]]]] = [
    ("help", [["--help"]]),
    ("version", [["--version"]]),
    *[(f"help-{cmd}", [[cmd, "--help"]]) for cmd in (
        "kernel-eval", "stats", "sweep", "classify", "mc", "constants", "verify")],
    # kernel-eval
    ("kernel-eval-d1", [["kernel-eval", *_D1, "--x", "1,0", "--y", "0,0"]]),
    ("kernel-eval-d2-csv", [["kernel-eval", *_D2, "--level", "1,2",
                             "--x", "0.3,-0.2;1,0.5", "--y=-0.5,0.1;0,0",
                             "--format", "csv"]]),
    ("kernel-eval-out", [["kernel-eval", *_D1, "--level", "3", "--x", "0.7,0.1",
                          "--y", "0.2,-0.4", "--out", "k.json"]]),
    # exponent -841: the hermitized value needs the Laguerre factors as logs
    ("kernel-eval-far-high-level", [["kernel-eval", *_D2, "--level", "400,300",
                                     "--x=-14.5,0;-14.5,0", "--y", "14.5,0;14.5,0"]]),
    # stats on every route
    ("stats-closed", [["stats", *_D1, *_BALL, "--radius", "2.5", "--route", "closed"]]),
    ("stats-integral-csv", [["stats", *_D2, *_BALL, "--radius", "4", "--route",
                             "integral", "--format", "csv"]]),
    ("stats-spectrum", [["stats", *_D2, "--level", "1,2", "--radius", "3"]]),
    ("stats-spectrum-tail", [["stats", *_D1, "--level", "2", "--radius", "3",
                              "--tail-tol", "1e-6", "--out", "s.json"]]),
    ("stats-high-level", [["stats", *_D1, "--level", "24", "--radius", "3"]]),
    ("stats-mc", [["stats", *_D1, "--radius", "2.5", "--route", "mc",
                   "--replicas", "2000", "--seed", "7"]]),
    # sweep
    ("sweep-closed-csv", [["sweep", *_D1, *_BALL, "--route", "closed",
                           "--r-grid", "1:20:6", "--format", "csv"]]),
    ("sweep-spectrum", [["sweep", *_D1, "--level", "1", "--r-grid", "0.5,1,2,4",
                         "--out", "sw.json"]]),
    ("sweep-integral-csv-out", [["sweep", *_D1, *_BALL, "--route", "integral",
                                 "--r-grid", "0.5:5:4", "--format", "csv",
                                 "--out", "sw.csv"]]),
    ("sweep-tiny-radii", [["sweep", *_D1, *_BALL, "--route", "closed", *_TINY_GRID]]),
    # the integral route batches a grid's radii: the default grid mixes batch
    # sizes, and R = 30000 fails its error target after two good radii
    ("classify-integral-d2", [["classify", *_D2, *_BALL, "--route", "integral"]]),
    ("err-budget-integral-grid", [["sweep", *_D2, *_BALL, "--route", "integral",
                                   "--r-grid", "1,2,30000"]]),
    # classify, directly and from documents sweep wrote
    ("classify-direct", [["classify", *_D1, *_BALL, "--route", "closed"]]),
    ("classify-direct-csv", [["classify", *_D1, "--r-grid", "2:40:8",
                              "--format", "csv"]]),
    ("classify-in-exact", [
        ["sweep", *_D1, "--r-grid", "2:50:8", "--out", "in.json"],
        ["classify", "--in", "in.json"],
        ["classify", "--in", "in.json", "--format", "csv", "--out", "c.csv"],
    ]),
    ("classify-in-mc", [
        ["sweep", *_D1, "--route", "mc", "--r-grid", "2:10:6", "--replicas",
         "3000", "--seed", "3", "--out", "in.json"],
        ["classify", "--in", "in.json", "--fit-window", "0.6"],
    ]),
    ("classify-in-tiny-radii", [
        ["sweep", *_D1, *_BALL, "--route", "closed", *_TINY_GRID, "--out", "in.json"],
        ["classify", "--in", "in.json"],
    ]),
    # mc
    ("mc-polydisk", [["mc", *_D2, "--level", "0,1", "--radius", "2",
                      "--replicas", "2000", "--seed", "5"]]),
    ("mc-ball-csv-out", [["mc", *_D1, *_BALL, "--radius", "1.5", "--replicas",
                          "1000", "--format", "csv", "--out", "mc.csv"]]),
    ("mc-floor", [["mc", *_D1, "--radius", "2", "--replicas", "500",
                   "--cell-prob-floor", "1e-6"]]),
    # constants
    ("constants", [["constants", "--dimension", "3", "--level", "0,1,5"]]),
    ("constants-csv-out", [["constants", *_D2, "--level", "2,0", "--format",
                            "csv", "--out", "c.csv"]]),
    # verify: the deterministic checks, then the Monte Carlo gate
    ("verify-deterministic", [
        ["verify", *_CHECK_FLAGS, "--out", "v.json"],
        ["verify", *_CHECK_FLAGS, "--format", "csv", "--out", "v.csv"],
    ]),
    ("verify-mc-gate", [["verify", "--check", "monte-carlo-gate", "--out", "g.json"]]),
    # documented error exits
    ("err-unknown-command", [["frobnicate"]]),
    ("err-missing-required", [["stats", "--radius", "1.0"]]),
    ("err-bad-point", [["kernel-eval", *_D1, "--x", "1", "--y", "0,0"]]),
    ("err-level-mismatch", [["stats", *_D2, "--level", "1", "--radius", "1"]]),
    ("err-bad-grid", [["sweep", *_D1, "--r-grid", "1:2"]]),
    ("err-unsupported-route", [["stats", *_D2, "--radius", "1", "--route", "closed"]]),
    ("err-mc-ball-d2", [["mc", *_D2, *_BALL, "--radius", "1", "--replicas", "10"]]),
    ("err-budget", [["stats", *_D1, "--radius", "1e4"]]),
    ("err-budget-level", [["stats", *_D1, "--level", "2000", "--radius", "1"]]),
    ("err-tail-target", [["stats", *_D1, "--radius", "2", "--tail-tol", "1e-30"]]),
    ("err-tail-tol-inf", [["stats", *_D1, "--radius", "2", "--tail-tol", "inf"]]),
    # a degree-10^12 Laguerre recurrence is refused before its first step
    ("err-budget-kernel-level", [["kernel-eval", *_D1, "--level", "1000000000000",
                                  "--x", "1,0", "--y", "0,0"]]),
    # the closed ball route prices its Bessel recurrences before the first
    # step, past R ~ 1.34e154 too, where 2R^2 overflows
    ("err-budget-closed-ball", [["stats", *_D1, *_BALL, "--route", "closed",
                                 "--radius", "1e8"]]),
    ("err-budget-closed-ball-overflow", [["stats", *_D1, *_BALL, "--route", "closed",
                                          "--radius", "1e154"]]),
    # below the series cutoff each of the D + 1 Bessel orders is priced,
    # before a spec of D levels is built
    ("err-budget-closed-ball-dimension", [["stats", "--dimension", "100000000", *_BALL,
                                           "--route", "closed", "--radius", "1"]]),
    # the replicas are priced before the first block is drawn
    ("err-budget-mc-replicas", [["mc", *_D1, "--radius", "1", "--replicas",
                                 "1000000000000"]]),
    ("err-classify-no-input", [["classify"]]),
    ("err-classify-missing-file", [["classify", "--in", "absent.json"]]),
    ("err-unknown-check", [["verify", "--check", "nope"]]),
    ("err-verify-zero-scale", [["verify", "--check", "ginibre-constant",
                                "--tolerance-scale", "0"]]),
    ("err-bad-replicas", [["mc", *_D1, "--radius", "1", "--replicas", "0"]]),
    # flags that kernel-eval and constants do not read
    ("constants-window", [["constants", *_D1, "--window", "ball"]]),
    ("constants-tail-tol", [["constants", *_D1, "--tail-tol", "5"]]),
    ("kernel-eval-tail-tol", [["kernel-eval", *_D1, "--x", "0,0", "--y", "0,0",
                               "--tail-tol", "1e-3"]]),
    # flags the chosen mode does not read: Monte Carlo flags on an exact
    # route, the tail target on a closed-form route, sweep flags with
    # classify --in
    ("err-exact-route-mc-flags", [
        ["stats", *_D1, "--radius", "2", "--route", "closed", *_BALL,
         "--replicas", "-5", "--cell-prob-floor", "nan", "--seed", "-1"],
        ["sweep", *_D1, "--r-grid", "1,2", "--seed", "3"],
    ]),
    ("err-closed-route-tail-tol", [["stats", *_D1, *_BALL, "--radius", "2",
                                    "--route", "closed", "--tail-tol", "1e-3"]]),
    ("err-classify-in-sweep-flags", [
        ["sweep", *_D1, "--r-grid", "2:50:8", "--out", "in.json"],
        ["classify", "--in", "in.json", "--tail-tol", "-7", "--replicas", "-3",
         *_BALL, "--dimension", "3", "--level", "9,9,9"],
        ["classify", "--in", "in.json", *_D1],
    ]),
    ("err-verify-negative-scale", [["verify", "--tolerance-scale", "-1"]]),
]


def run_step(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors, --help, --version
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main(argv: list[str]) -> int:
    names = {name for name, _ in CASES}
    unknown = [name for name in argv[1:] if name not in names]
    if not argv or unknown:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        if unknown:
            print(f"unknown case: {', '.join(unknown)}", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    wanted = set(argv[1:]) or names
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    home = os.getcwd()
    for name, steps in CASES:
        if name not in wanted:
            continue
        case_dir = root / name
        case_dir.mkdir(parents=True, exist_ok=True)
        os.chdir(case_dir)
        try:
            for i, step in enumerate(steps):
                code, out, err = run_step(step)
                Path(f"{i}.code").write_text(f"{code}\n")
                Path(f"{i}.stdout").write_text(out)
                Path(f"{i}.stderr").write_text(err)
        finally:
            os.chdir(home)
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
