"""One argument rule over the public numeric entries.

A number is an int or a float (a complex for a kernel coordinate), never a
str or a bool; an array argument is a number or a 1-D list, tuple or
ndarray, and the result is of the same kind.  Every refusal is a ValueError
that names the argument.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from heisenberg_dpp.analysis import poisson_control_sweep, run_sweep
from heisenberg_dpp.kernels import (
    ComplexPoint,
    KernelSpec,
    correlation_det,
    hermitized_kernel,
    kernel_eval,
    kernel_series_partial,
)
from heisenberg_dpp.specfun import bessel_j, laguerre
from heisenberg_dpp.window_stats import Route, ball_moments, variance_ball_integral

SPEC = KernelSpec(1)

# entry -> (the name its messages give, a call with the bad value in place)
ENTRIES = {
    "bessel_j nu": ("nu", lambda v: bessel_j(v, 1.0)),
    "bessel_j x": ("x", lambda v: bessel_j(0, v)),
    "laguerre n": ("n", lambda v: laguerre(v, 0.0, 1.0)),
    "laguerre alpha": ("alpha", lambda v: laguerre(2, v, 1.0)),
    "laguerre x": ("x", lambda v: laguerre(2, 0.0, v)),
    "kernel_series_partial m": ("m", lambda v: kernel_series_partial(v, 0.5, 0.5j, 5)),
    "kernel_series_partial x": ("x", lambda v: kernel_series_partial(1, v, 0.5j, 5)),
    "kernel_series_partial y": ("y", lambda v: kernel_series_partial(1, 0.5, v, 5)),
    "kernel_series_partial n_terms": ("n_terms", lambda v: kernel_series_partial(1, 0.5, 0.5j, v)),
    "ComplexPoint re": ("re", lambda v: ComplexPoint(v, (0.0,))),
    "ComplexPoint im": ("im", lambda v: ComplexPoint((0.0,), v)),
    "ComplexPoint.from_complex": ("values", ComplexPoint.from_complex),
    "kernel_eval x": ("x", lambda v: kernel_eval(SPEC, v, [0.5])),
    "kernel_eval y": ("y", lambda v: kernel_eval(SPEC, [0.5], v)),
    "hermitized_kernel x": ("x", lambda v: hermitized_kernel(SPEC, v, [0.5])),
    "hermitized_kernel y": ("y", lambda v: hermitized_kernel(SPEC, [0.5], v)),
    "correlation_det imag_tol": ("imag_tol", lambda v: correlation_det(lambda a, b: 1.0, [0], v)),
    "variance_ball_integral radius": ("radius", lambda v: variance_ball_integral(1, v)),
    "ball_moments radius": ("radius", lambda v: ball_moments(1, v, Route.INTEGRAL)),
    # the elements of a sweep grid are radii, and are named so
    "run_sweep r_grid": ("radius", lambda v: run_sweep(SPEC, "ball", v, "closed")),
    "poisson_control_sweep r_grid": ("radius", lambda v: poisson_control_sweep(1, v)),
}

BAD = {
    "str": "1",
    "bool": True,
    "None": None,
    "nested list": [[1.0]],
    "ragged list": [[1.0], [2.0, 3.0]],
    "nan": math.nan,
    "list of str": ["1"],
    "list of bool": [True],
    "list of nan": [math.nan],
    "2-D ndarray": np.ones((2, 2)),
}


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_bad_arguments_are_refused_by_name(entry, bad):
    name, call = ENTRIES[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call(BAD[bad])


def _bits(value):
    """The bytes and kind of an array, or of each report's fields."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    return [tuple(float(f).hex() for f in rep[:3]) + (rep.route,) for rep in value]


RADII = [0.5, 3.0, 12.0]
NODES = [0.0, 0.5, 12.0, 40.0]
POINTS = ([0.5, 1j, -0.25 + 0.75j], [0.3 + 0.1j, -0.2, 1.5j])

# array-taking entries: a call on the array argument(s) given as one kind
ARRAY_CALLS = {
    "bessel_j": lambda kind: bessel_j(3, kind(NODES)),
    "laguerre": lambda kind: laguerre(kind([1, 2, 30]), kind([0.0, 0.5, 1.0]), kind([0.5, 2.0, 7.0])),
    "laguerre broadcast": lambda kind: laguerre(4, 0.5, kind(NODES)),
    "kernel_series_partial": lambda kind: kernel_series_partial(2, *map(kind, POINTS), 20),
    "variance_ball_integral": lambda kind: variance_ball_integral(2, kind(RADII)),
    "ball_moments closed": lambda kind: ball_moments(2, kind(RADII), Route.CLOSED_FORM),
    "ball_moments integral": lambda kind: ball_moments(2, kind(RADII), Route.INTEGRAL),
}


@pytest.mark.parametrize("kind", [list, tuple], ids=["list", "tuple"])
@pytest.mark.parametrize("case", sorted(ARRAY_CALLS))
def test_lists_and_tuples_give_the_bits_of_an_ndarray(case, kind):
    call = ARRAY_CALLS[case]
    assert _bits(call(kind)) == _bits(call(np.array))


def test_a_number_gives_a_number_and_a_sequence_of_one_a_sequence():
    assert type(bessel_j(0, 1.0)) is float
    assert bessel_j(0, [1.0]).tolist() == [bessel_j(0, 1.0)]
    assert laguerre(2, 0.0, (1.0,)).tolist() == [laguerre(2, 0.0, 1.0)]
    assert kernel_series_partial(0, [1], [2], 5).tolist() == [kernel_series_partial(0, 1, 2, 5)]
    assert ball_moments(1, [2.0]) == [ball_moments(1, 2.0)]
    assert run_sweep(SPEC, "polydisk", 2.0, "spectrum").rows == run_sweep(
        SPEC, "polydisk", [2.0], "spectrum"
    ).rows
    assert len(poisson_control_sweep(1, 2.0).rows) == 1


def test_kernel_coordinates_may_be_complex_numbers():
    point = ComplexPoint.from_complex((1 + 2j, 3))
    assert point == ComplexPoint((1.0, 3.0), (2.0, 0.0))
    assert hermitized_kernel(SPEC, 0.5j, [0.5j]) == 1.0 / math.pi
