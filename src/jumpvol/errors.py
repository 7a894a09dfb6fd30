"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
I/O or memory failures with 3, and degenerate inference or a numeric
routine that missed its tolerance with 4.
"""


class JumpvolError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(JumpvolError):
    """An input specification, parameter, or run configuration is invalid."""


class InsufficientDataError(ConfigurationError):
    """Too few observations for the requested computation."""


class DegenerateInferenceError(JumpvolError):
    """Inference cannot proceed, e.g. the temperature fell below its floor
    or the shifted center is nonpositive."""


class DegenerateDataError(DegenerateInferenceError):
    """The data carry no usable signal (e.g. every increment is zero)."""


class NumericError(JumpvolError):
    """A numeric routine failed to reach its stated tolerance; the message
    carries diagnostics."""
