"""Volatility inference for jump diffusions from equally spaced increments.

The pipeline simulates discretely observed jump-diffusion paths, detects
jump windows by magnitude thresholding, builds a temperature-corrected and
location-shifted conjugate posterior for the diffusion volatility, and ships
Monte Carlo machinery that verifies the method's calibration and normal
approximation numerically.
"""

from . import diagnostics, errors, harness, posterior, simulate, threshold
# each module's __all__ is its public interface, re-published here
from .diagnostics import *  # noqa: F403
from .errors import *  # noqa: F403
from .harness import *  # noqa: F403
from .posterior import *  # noqa: F403
from .simulate import *  # noqa: F403
from .threshold import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *diagnostics.__all__,
    *errors.__all__,
    *harness.__all__,
    *posterior.__all__,
    *simulate.__all__,
    *threshold.__all__,
]
