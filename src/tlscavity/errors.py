"""Exception and warning types shared across the package."""


class TlscavityError(Exception):
    """Base class for package errors."""


class ConfigError(TlscavityError):
    """Invalid or inconsistent configuration input."""


class StepWindowError(ConfigError, ValueError):
    """Step size outside the Markovian validity window of the step loop.

    A ConfigError, since a config's step count or duration puts it there,
    and a ValueError for callers that reject bad trial points by that type.
    """


class DataError(TlscavityError):
    """Unreadable or malformed data file."""


class FitError(TlscavityError):
    """Fit cannot run or cannot start."""


class FitStartError(FitError, ValueError):
    """A fit parameter's starting value lies outside its bounds.

    A FitError, since the fit cannot start, and a ValueError for callers
    that check a FitParameter's arguments by that type.
    """


class UnidentifiableError(FitError):
    """Data cannot constrain the requested parameters."""


class SaturationError(TlscavityError):
    """The step loop stopped a row: net gain (kappa_tilde <= 0), a bath
    rate negative beyond the clamp's tolerance, or a negative n."""


class StepConvergenceError(TlscavityError):
    """Discretization self-check failed: doubling the step moved the result.

    Stores the relative deviation and the two resolutions: the grid's
    points and the points of the run at twice the step.
    """

    def __init__(self, message, deviation=None, resolutions=None):
        super().__init__(message)
        self.deviation = deviation
        self.resolutions = resolutions


class ValidityWarning(UserWarning):
    """Model evaluated outside its stated validity window."""
