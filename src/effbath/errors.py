"""Exception and warning types shared across the package."""


class EffbathError(Exception):
    """Base class for all package-specific errors."""


class MissingKeyError(EffbathError, ValueError):
    """A required parameter key is absent from the input mapping."""


class UnknownKeyError(EffbathError, ValueError):
    """The parameter mapping holds a key the model does not read, e.g. a typo."""


class NonPositiveError(EffbathError, ValueError):
    """A parameter, step, horizon, grid end, point count or pad factor is not positive and finite."""


class GridTooLargeError(EffbathError, ValueError):
    """A time grid, a table or a padded transform has more points than a run can hold."""


class ScaleRangeError(EffbathError, ValueError):
    """A derived scale leaves the double range: it is inf or nan, or rounds a divisor to 0."""


class NegativeRateError(EffbathError, ValueError):
    """A nonnegative quantity (gamma, alpha, Delta, a peak count) is negative."""


class ZeroLengthError(EffbathError, ValueError):
    """A length scale used in a coupling conversion is zero."""


class ZeroDampingError(EffbathError, ValueError):
    """gamma = 0 in a spectral table or the exact correlation: undamped, each density is a line."""


class AccuracyError(EffbathError, RuntimeError):
    """An evaluator's stated error bound exceeds the tolerance asked of it.

    Carries the bound in ``achieved``.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class StepTooLargeError(EffbathError, ValueError):
    """Time step too coarse to resolve the fastest oscillation."""


class NonFiniteStateError(EffbathError, RuntimeError):
    """A population trace holds a nan or inf: the march left the finite range, or an input trace has one."""


class ComplexFrequencyError(EffbathError, ValueError):
    """Undamped pole equation produced non-real oscillation frequencies."""


class NoConvergenceError(EffbathError, RuntimeError):
    """Newton iteration on the pole equation did not converge."""


class RootSwapError(EffbathError, RuntimeError):
    """Newton iteration drifted to the pole belonging to the other seed."""


class TooShortError(EffbathError, ValueError):
    """Time series too short for spectral analysis."""


class NonUniformGridError(EffbathError, ValueError):
    """Time samples are not evenly spaced, so no single step describes them."""


class NoPeaksError(EffbathError, ValueError):
    """No local maxima found in a magnitude spectrum."""


class RegimeWarning(UserWarning):
    """A physical-regime assumption is violated; results may be unreliable."""
