"""The package's records: immutable NamedTuples that keep their checks.

For each of the twelve record types, valid fields survive ``_asdict()``,
``emit_json`` and ``json.loads``, and ``pickle``; assigning to a field
raises AttributeError; ``repr`` reads ``Type(field=value, ...)``; and
invalid fields raise the error, with the message, that the frozen
dataclasses these records replaced raised, from ``_replace`` as well.
"""

import enum
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenberg_dpp.analysis import ClassLabel, ClassReport, SweepResult, SweepRow
from heisenberg_dpp.cli import emit_json
from heisenberg_dpp.exceptions import InternalConsistencyError
from heisenberg_dpp.kernels import ComplexPoint, CorrelationMatrix, KernelSpec
from heisenberg_dpp.montecarlo import CellCounts, McConfig, McEstimate
from heisenberg_dpp.specfun import SpecFunResult
from heisenberg_dpp.verification import CheckResult
from heisenberg_dpp.window_stats import BernoulliSpectrum, MomentReport, Route, WindowKind

finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0)
counts = st.integers(min_value=0, max_value=10**9)
cell_counts = st.builds(CellCounts, counts, counts, counts, counts, counts)
specs = st.integers(1, 4).flatmap(
    lambda d: st.builds(KernelSpec, st.just(d), st.lists(counts, min_size=d, max_size=d))
)


@st.composite
def points(draw):
    n = draw(st.integers(1, 4))
    coords = st.lists(finite, min_size=n, max_size=n)
    return ComplexPoint(tuple(draw(coords)), tuple(draw(coords)))


@st.composite
def matrices(draw):
    """Hermitian by construction, with the one-point intensity on the diagonal."""
    n, dimension = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entries = np.full((n, n), 1.0 / math.pi**dimension, dtype=complex)
    parts = st.floats(-1.0, 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            z = complex(draw(parts), draw(parts))
            entries[i, j], entries[j, i] = z, z.conjugate()
    return CorrelationMatrix(entries, dimension)


@st.composite
def spectra(draw):
    level = draw(st.integers(0, 5))
    probs = draw(st.lists(unit, min_size=level + 1, max_size=level + 8))
    return BernoulliSpectrum(draw(st.floats(1e-3, 1e3)), level, np.array(probs),
                             draw(nonnegative))


@st.composite
def reports(draw):
    mean = draw(st.floats(0.0, 1e12))
    return MomentReport(mean, mean * draw(unit), draw(finite), draw(st.sampled_from(Route)),
                        draw(nonnegative))


# the optional fields of a SweepRow, finite as the CLI writes them: it
# writes a non-finite value as null, so se_var = inf would not round-trip
row_fields = {"se_mean": st.none() | nonnegative, "se_var": st.none() | nonnegative,
              "cells": st.none() | cell_counts}


def rows(r, **fields):
    mean = fields.pop("mean", 1.0)
    return st.builds(SweepRow, st.just(r), st.just(mean), st.floats(0.0, mean), finite,
                     finite, **fields)


@st.composite
def sweeps(draw):
    radii = sorted(draw(st.sets(st.floats(1e-3, 1e3), max_size=5)))
    return SweepResult(tuple(draw(rows(r, **row_fields)) for r in radii),
                       draw(specs), draw(st.sampled_from(WindowKind)),
                       draw(st.sampled_from(Route)))


VALID = {
    "SpecFunResult": st.builds(SpecFunResult, finite, nonnegative),
    "ComplexPoint": points(),
    "KernelSpec": specs,
    "CorrelationMatrix": matrices(),
    "BernoulliSpectrum": spectra(),
    "MomentReport": reports(),
    "McConfig": st.builds(McConfig, st.integers(1, 10**12), st.integers(0, 2**64 - 1),
                          st.floats(0.0, 1.0, exclude_max=True)),
    "McEstimate": st.builds(McEstimate, finite, nonnegative, nonnegative, nonnegative,
                            st.integers(1, 10**9), st.none() | cell_counts),
    "SweepRow": st.floats(1e-3, 1e3).flatmap(lambda r: rows(r, **row_fields)),
    "SweepResult": sweeps(),
    "ClassReport": st.builds(ClassReport, finite, nonnegative, finite,
                             st.sampled_from(ClassLabel),
                             st.dictionaries(st.text(max_size=8), finite, max_size=3)),
    "CheckResult": st.builds(CheckResult, st.text(max_size=12), st.booleans(), nonnegative,
                             nonnegative, st.text(max_size=20), st.none() | st.text(max_size=8),
                             st.none() | nonnegative, st.none() | nonnegative),
}
TYPES = {name: globals()[name] for name in VALID}


def plain(value):
    """A value as the CLI writes it: each record through ``_asdict()``, enums
    by value, arrays and tuples as lists, complex numbers as [re, im]."""
    if hasattr(value, "_asdict"):
        return {k: plain(v) for k, v in value._asdict().items()}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def test_twelve_record_types():
    assert len(TYPES) == 12
    assert all(issubclass(cls, tuple) and hasattr(cls, "_fields") for cls in TYPES.values())


@pytest.mark.parametrize("name", VALID)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_json_and_pickle_round_trip(name, data):
    record = data.draw(VALID[name])
    want = plain(record)
    assert list(want) == list(TYPES[name]._fields)
    assert json.loads(emit_json(want)) == want
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and plain(back) == want


@pytest.mark.parametrize("name", VALID)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_fields_are_read_only(name, data):
    record = data.draw(VALID[name])
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict


@pytest.mark.parametrize("name", VALID)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_repr_names_every_field(name, data):
    record = data.draw(VALID[name])
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"


def test_defaults():
    assert KernelSpec(2) == KernelSpec(2, (0, 0))
    assert McConfig(1, 0).cell_prob_floor == 0.0
    assert McEstimate(1.0, 0.0, 0.0, 0.0, 1).cells is None
    assert SweepRow(1.0, 1.0, 0.5, 0.5, 0.5)[5:] == (None, None, None)
    assert CheckResult("c", True, 0.0, 1.0, "d")[5:] == (None, None, None)
    a, b = (ClassReport(0.0, 0.0, 0.0, ClassLabel.CLASS_I) for _ in range(2))
    assert a.detail == {} and a.detail is not b.detail


def test_spectra_compare_by_identity():
    a = BernoulliSpectrum(1.0, 0, np.array([0.5]), 0.0)
    b = BernoulliSpectrum(1.0, 0, np.array([0.5]), 0.0)
    assert a == a and a != b and not a != a and not a == b
    assert {a: 1, b: 2}[a] == 1


def test_fields_are_normalized():
    point = ComplexPoint([1, 2], (3, 4))
    assert point == ((1.0, 2.0), (3.0, 4.0)) and type(point.re[0]) is float
    assert KernelSpec(2.0, [1, 0.0]) == (2, (1, 0))
    assert McConfig(3.0, 2.0, 0) == (3, 2, 0.0)


_SQUARE = np.eye(2, dtype=complex) / math.pi
_ROW = SweepRow(1.0, 1.0, 0.5, 0.5, 0.5)

# (record, field overrides, error type, message): the dataclasses' checks
INVALID = [
    (SpecFunResult(1.0, 0.0), {"value": math.inf}, ValueError, "non-finite value inf"),
    (SpecFunResult(1.0, 0.0), {"abs_error_bound": -1e-3}, ValueError,
     "negative error bound -0.001"),
    (SpecFunResult(1.0, 0.0), {"abs_error_bound": math.nan}, ValueError,
     "negative error bound nan"),
    (ComplexPoint((0.0,), (0.0,)), {"im": (0.0, 1.0)}, ValueError,
     "re and im must be equal-length, nonempty tuples"),
    (ComplexPoint((0.0,), (0.0,)), {"re": (), "im": ()}, ValueError,
     "re and im must be equal-length, nonempty tuples"),
    (ComplexPoint((0.0,), (0.0,)), {"re": (math.nan,)}, ValueError,
     "re must be finite, got nan"),
    (KernelSpec(1), {"dimension": 0, "level": ()}, ValueError,
     "dimension must be an integer >= 1, got 0"),
    (KernelSpec(1), {"level": (0, 1)}, ValueError, "level needs 1 entries, got 2"),
    (KernelSpec(1), {"level": (-1,)}, ValueError, "level must be an integer >= 0, got -1"),
    (CorrelationMatrix(_SQUARE, 1), {"entries": _SQUARE[:1]}, ValueError,
     "correlation matrix must be square"),
    (CorrelationMatrix(_SQUARE, 1), {"entries": _SQUARE + np.triu(_SQUARE, 1) + 0.5j},
     InternalConsistencyError, "kernel matrix is not Hermitian"),
    (CorrelationMatrix(_SQUARE, 1), {"dimension": 2}, InternalConsistencyError,
     "kernel matrix diagonal deviates from the one-point intensity"),
    (BernoulliSpectrum(1.0, 0, np.array([0.5]), 0.0), {"tail_bound": -1.0}, ValueError,
     "tail_bound must be >= 0"),
    (BernoulliSpectrum(1.0, 0, np.array([0.5]), 0.0), {"level": 1}, ValueError,
     "spectrum truncated before its own level"),
    (MomentReport(1.0, 0.5, 0.5, Route.CLOSED_FORM, 0.0), {"variance": 1.5},
     InternalConsistencyError, "variance 1.5 exceeds mean 1.0"),
    (McConfig(1, 0), {"replicas": 0}, ValueError, "replicas must be an integer >= 1, got 0"),
    (McConfig(1, 0), {"seed": -1}, ValueError, "seed must be an integer >= 0, got -1"),
    (McConfig(1, 0), {"seed": 2**64}, ValueError,
     "seed must fit in 64 unsigned bits, got 18446744073709551616"),
    (McConfig(1, 0), {"cell_prob_floor": 1.0}, ValueError,
     "cell_prob_floor must lie in [0, 1), got 1.0"),
    (McConfig(1, 0), {"cell_prob_floor": math.nan}, ValueError,
     "cell_prob_floor must be finite, got nan"),
    (McEstimate(1.0, 0.0, 0.0, 0.0, 1), {"se_var": -1.0}, ValueError,
     "standard errors and var_hat must be >= 0"),
    (SweepResult((_ROW,), KernelSpec(1), WindowKind.BALL, Route.CLOSED_FORM),
     {"rows": (_ROW, _ROW)}, ValueError, "sweep rows must be sorted by strictly increasing R"),
    (SweepResult((_ROW,), KernelSpec(1), WindowKind.BALL, Route.CLOSED_FORM),
     {"rows": (_ROW._replace(variance=2.0),)}, ValueError,
     "row R=1.0: variance 2.0 exceeds mean 1.0"),
]


@pytest.mark.parametrize("record, changes, error, message", INVALID)
def test_invalid_fields_raise_the_old_errors(record, changes, error, message):
    fields = {**record._asdict(), **changes}
    for build in (lambda: type(record)(**fields), lambda: record._replace(**changes)):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


def test_monte_carlo_rows_may_exceed_their_mean():
    row = _ROW._replace(variance=2.0)
    assert SweepResult((row,), KernelSpec(1), WindowKind.POLYDISK, Route.MONTE_CARLO).rows == (row,)
