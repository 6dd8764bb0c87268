"""The package surface: every exported name resolves, and only once."""

import heisenberg_dpp


def test_exports_resolve_once():
    names = heisenberg_dpp.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(heisenberg_dpp, n)] == []
