"""The benchmark's call surface: every package name bench/ wraps or calls.

bench/tracer.py wraps package functions at their module attributes, and the
workloads call a few more names directly.  A deletion in the package that
removes one of them would otherwise show only when a traced benchmark run
(--trace 1) fails.  The tracer's target lists are read from its source,
which this test loads without writing anything under bench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from heisenberg_dpp import verification, window_stats
from heisenberg_dpp.montecarlo import McConfig

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_surface", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_traced_names_are_callable_module_attributes(tracer):
    targets = [*tracer.SPAN_TARGETS.items(), *tracer.LEAF_TARGETS.items()]
    assert targets
    for module_name, attrs in targets:
        module = importlib.import_module(f"heisenberg_dpp.{module_name}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_names_the_workloads_call():
    cfg = McConfig(replicas=1, seed=0, cell_prob_floor=1e-12)
    assert cfg.cell_prob_floor == 1e-12
    assert callable(window_stats._cached_spectrum.cache_clear)
    assert callable(verification.run_checks)
    assert all(map(callable, verification.ALL_CHECKS.values()))
