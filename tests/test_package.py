"""The package surface: every exported name resolves, and only once; the
import builds no dataclass."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys

import heisenberg_dpp


def test_exports_resolve_once():
    names = heisenberg_dpp.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(heisenberg_dpp, n)] == []


def test_import_leaves_dataclasses_unloaded():
    # building a frozen dataclass costs ~0.4-0.8 ms of each import, paid by
    # every CLI process; numpy and the stdlib modules the package uses do
    # not load dataclasses, so any load comes from the package
    code = "import sys, heisenberg_dpp, heisenberg_dpp.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout == "False\n"


def test_no_class_is_a_dataclass():
    modules = [importlib.import_module(f"heisenberg_dpp.{info.name}")
               for info in pkgutil.iter_modules(heisenberg_dpp.__path__)]
    classes = [cls for mod in modules for cls in vars(mod).values()
               if isinstance(cls, type) and cls.__module__ == mod.__name__]
    assert len(classes) > 12
    assert [cls.__qualname__ for cls in classes if dataclasses.is_dataclass(cls)] == []
