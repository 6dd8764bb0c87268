"""Benchmark launcher: one workload, one fresh single-threaded process.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                         [--size full|tiny]

Run it from the repository root.  The workload runs in a child process
(bench/worker.py) with the BLAS and OpenMP pools pinned to one thread, so
the process's peak resident memory belongs to that workload alone.  The
last line of standard output is the result object; the line before it
carries the environment and diagnostics.  Exits non-zero without a result
when the package sources are missing or the workload process fails.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 175
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv: list[str]) -> int:
    root = Path.cwd()
    if not (root / "src" / "heisenberg_dpp" / "__init__.py").is_file():
        print("bench: src/heisenberg_dpp not found; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED})
    worker = Path(__file__).resolve().parent / "worker.py"
    proc = subprocess.Popen([sys.executable, str(worker), *argv, "--root", str(root)],
                            env=env, stdout=subprocess.PIPE, text=True)

    def stop(signum, frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"bench: workload process exceeded {TIMEOUT_S} s and was killed", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"bench: workload process exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 4
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
