"""Every golden CLI case, captured afresh, matches ``tests/golden`` byte for byte.

``golden_cli.py`` documents the command that regenerates the committed
capture.  A case's directory holds each step's exit code, stdout and
stderr and every file the step wrote; the comparison covers the set of
files as well as their bytes.
"""

from pathlib import Path

import pytest

import golden_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
# the Monte Carlo gate takes most of a full capture's time
SLOW_CASES = {"verify-mc-gate"}


def _tree(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_committed_capture_holds_exactly_the_cases():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(name for name, _ in golden_cli.CASES)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(name, marks=pytest.mark.slow) if name in SLOW_CASES else name
        for name, _ in golden_cli.CASES
    ],
)
def test_case_matches_committed_capture(case, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # restored after main pins it for --help
    assert golden_cli.main([str(tmp_path), case]) == 0
    assert _tree(tmp_path / case) == _tree(GOLDEN / case)
