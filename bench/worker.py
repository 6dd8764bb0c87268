"""Runs one workload in this process and prints its result.

Started by run.py, which pins the thread pools first; see run.py for the
arguments.  Prints one detail line (environment, pass-time quartiles and
pass count, failures, workload diagnostics) and then the result line.

Untraced run: set-up ``SETUP_REPEATS`` times (each a fresh import of the
package, input generation from the seed and warm-up), then passes until
``--seconds`` have gone by, all under a ``RefClock`` (refclock.py), so that
set-up and pass times are given at the host's reference speed.  Traced run:
untraced and traced passes alternate, so the tracing overhead is measured
under the same conditions; then the layer probes run, off the trace.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from refclock import RefClock  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import MC_CELL_FLOOR, WORKLOADS  # noqa: E402

PACKAGE = "heisenberg_dpp"
MODULES = ("specfun", "kernels", "window_stats", "asymptotics", "montecarlo",
           "analysis", "verification", "cli")
SETUP_REPEATS = 11
PROBE_REPEATS = 3
PROBE_MC_REPLICAS = 2000
HARD_LIMIT_S = 150.0  # no new pass starts after this, whatever --seconds says
OUT_DIR = ".bench_out"


def fresh_import() -> dict:
    """Import the package anew, so each set-up pays the import and starts cold."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def environment(root: Path, seed: int) -> dict:
    import mpmath
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = root / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    src = hashlib.sha256()
    for path in sorted((root / "src" / PACKAGE).glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": commit,
        "source_sha256": src.hexdigest()[:16],
        "seed": seed,
        "threads": os_threads(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def os_threads() -> int:
    """Threads of this process, native pools included (Python's count otherwise)."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            return int(next(ln.split()[1] for ln in fh if ln.startswith("Threads:")))
    except (OSError, StopIteration):
        return threading.active_count()


def probes(mods, seed: int, repeats: int) -> dict[str, tuple[float, str]]:
    """Single-layer timings by name, each the median of ``repeats`` calls."""
    ws, mc, ks = mods["window_stats"], mods["montecarlo"], mods["kernels"]

    def median_time(fn):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    out = {}
    for m in (0, 2, 8, 16):
        t = median_time(lambda: ws.build_spectrum(m, 50.0))
        out[f"window_stats.build_spectrum.probe_ms.m{m}_r50"] = (t * 1e3, "ms")
    t = median_time(lambda: ws.variance_ball_integral(3, 10.0))
    out["window_stats.variance_ball_integral.probe_ms.d3_r10"] = (t * 1e3, "ms")
    cfg = mc.McConfig(replicas=PROBE_MC_REPLICAS, seed=seed, cell_prob_floor=MC_CELL_FLOOR)
    spec = ks.KernelSpec(1, (0,))
    mc.estimate_moments(spec, 1.0, cfg)  # spectrum into the cache
    t = median_time(lambda: mc.estimate_moments(spec, 1.0, cfg))
    out["montecarlo.us_per_replica.probe_d1_m0_r1"] = (t / PROBE_MC_REPLICAS * 1e6, "us")
    return out


class Runner:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.attempted = 0
        self.failures: list[str] = []
        self.workdir = root / OUT_DIR / f"work-{os.getpid()}"

    def record(self, results) -> None:
        for label, err in results:
            self.attempted += 1
            if err is not None:
                self.failures.append(f"{label}: {err}")

    def one_pass(self, wl, tracer=None, clock=None) -> tuple[float, float, float | None]:
        """Run every op of one pass; return its wall, CPU and reference time.

        The reference time is None without a clock.  Checks follow, off the clock.
        """
        wl.tracer = tracer
        values, raised = {}, []
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
                stack.enter_context(tracer.span("bench.pass"))
            first = clock.mark() if clock else None
            start, cpu_start = time.perf_counter(), time.process_time()
            wl.begin_pass()
            for op in wl.ops:
                try:
                    if tracer is None:
                        values[op.name] = op.call(*op.args)
                    else:
                        with tracer.span(f"bench.{op.phase or 'op'}", phase=op.phase):
                            values[op.name] = op.call(*op.args)
                except Exception as exc:  # a raising op is a failed operation
                    raised.append((op.name, f"raised {type(exc).__name__}: {exc}"))
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            ref = clock.ref_seconds(first, clock.mark()) if clock else None
        wl.tracer = None
        self.record(raised)
        for op in wl.ops:
            if op.name in values:
                self._checked(op.name, wl.check, op, values[op.name])
        if not raised:
            self._checked("pass", wl.finish_pass, values)
        return elapsed, cpu, ref

    def _checked(self, label, check, *args) -> None:
        try:
            self.record(check(*args))
        except Exception as exc:  # a check that cannot run counts as failed
            self.record([(label, f"check raised {type(exc).__name__}: {exc}")])

    def run(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            return self._run()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _run(self):
        args = self.args
        # End-to-end times are taken at the reference speed; the traced run
        # reports wall times, its untraced and traced passes alternating.
        clock = None if args.trace else RefClock()
        with clock or contextlib.nullcontext():
            return self._measure(clock)

    def _measure(self, clock):
        args = self.args
        setup_times, setup_ref = [], []
        for _ in range(SETUP_REPEATS):
            first = clock.mark() if clock else None
            start = time.perf_counter()
            mods = fresh_import()
            wl = WORKLOADS[args.workload](mods, args.seed, args.size == "tiny", str(self.workdir))
            wl.setup()
            setup_times.append(time.perf_counter() - start)
            if clock:
                setup_ref.append(clock.ref_seconds(first, clock.mark()))

        tracer = Tracer(mods) if args.trace else None
        plain, ref, traced, cpu, snaps = [], [], [], [], []
        begin = time.perf_counter()
        while True:
            if tracer is not None and len(plain) > len(traced):
                traced.append(self.one_pass(wl, tracer)[0])
                snaps.append(tracer.take())
            else:
                wall, cpu_s, ref_s = self.one_pass(wl, clock=clock)
                plain.append(wall)
                cpu.append(cpu_s)
                ref.append(ref_s)
            elapsed = time.perf_counter() - begin
            if len(plain) + len(traced) >= (2 if tracer else 1) and (
                elapsed >= args.seconds or elapsed >= HARD_LIMIT_S
            ):
                break

        q1, med, q3 = quartiles(plain)
        detail = {
            "workload": args.workload,
            "size": args.size,
            "env": environment(self.root, args.seed),
            "pass_wall_s": {"median": med, "q1": q1, "q3": q3, "passes": len(plain)},
            "setup_wall_s_samples": setup_times,
            **wl.report(),
        }
        if clock:
            q1, med, q3 = quartiles(ref)
            detail["pass_s"] = {"median": med, "q1": q1, "q3": q3, "passes": len(ref)}
            detail["setup_s_samples"] = setup_ref
            detail["speed_samples"] = len(clock.samples)
        if tracer is None:
            metrics = {
                "setup_s": (statistics.median(setup_ref), "s"),
                "pass_s": (med, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "ok_frac": (1.0 - len(self.failures) / self.attempted, "frac"),
            }
        else:
            metrics = self._layer_metrics(mods, tracer, snaps, plain, traced, cpu, detail)
        detail.update(attempted=self.attempted, failed=len(self.failures), failures=self.failures[:10])
        return detail, metrics

    def _layer_metrics(self, mods, tracer, snaps, plain, traced, cpu, detail):
        checks = [n for n in mods["verification"].ALL_CHECKS if n != "monte-carlo-gate"]
        per_pass = [layer_metrics(s, checks) for s in snaps]
        first = per_pass[0]
        counts = [k for k, (_, unit) in first.items() if unit == "count"]
        moved = sorted(k for k in counts if any(p[k] != first[k] for p in per_pass[1:]))
        self.record([("trace counts repeat across passes", f"differ: {moved}" if moved else None)])
        metrics = {
            k: first[k] if unit == "count" else (statistics.median(p[k][0] for p in per_pass), unit)
            for k, (_, unit) in first.items()
        }
        metrics["process.cpu_s"] = (statistics.median(cpu), "s")
        metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "frac")
        metrics.update(probes(mods, self.args.seed, 1 if self.args.size == "tiny" else PROBE_REPEATS))
        out = self.root / OUT_DIR / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        tracer.dump(out)
        detail["traced_passes"] = len(traced)
        detail["trace_file"] = str(out.relative_to(self.root))
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative integer below 2**63")
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    detail, metrics = Runner(args, root).run()
    failed = detail["failed"]
    result = {
        "correct": failed == 0,
        "attempted": detail["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
