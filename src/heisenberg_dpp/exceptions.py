"""Shared exception types.

Plain domain violations (bad arguments) raise ValueError and genuine
floating-point range overflows raise OverflowError, matching the stdlib
``math`` conventions.  The classes below cover failure modes specific to
this package.
"""


class HeisenbergDppError(Exception):
    """Base class for package-specific errors."""


class UnsupportedConfigurationError(HeisenbergDppError):
    """Requested (kernel, window, route) combination has no defined value.

    Example: ball-window statistics for a nonzero level in dimension >= 2,
    where no closed form or spectral reduction exists.
    """


class NumericalBudgetError(HeisenbergDppError):
    """A tolerance could not be met within the configured work budget.

    The integral route sets best_estimate and achieved_error; the tail
    certificate (the tail reached) and the cell-grid cap (the cells formed)
    set achieved_error; the work budget sets neither.
    """

    def __init__(self, message, best_estimate=None, achieved_error=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_error = achieved_error


class InternalConsistencyError(HeisenbergDppError):
    """A quantity violated an internal sanity bound.

    Raised when intermediate results land outside windows that valid inputs
    can never produce (e.g. a probability far outside [0, 1], or a
    determinant of a Hermitian matrix with a large imaginary part).  Points
    at a numerical defect rather than at bad user input.
    """
