"""Jump detection by magnitude thresholding.

Windows whose absolute increment exceeds a threshold ``eta`` are attributed
to jumps; the squared flagged increments estimate the jump part's quadratic
variation.  The default rule sets ``eta`` to a multiple (5 by default) of the
interquartile range of the absolute increments, a simple outlier cutoff that
works because almost all increments come from the diffusion part.
"""

from __future__ import annotations

__all__ = [
    "QvEstimate",
    "ThresholdRule",
    "estimate_jump_qv",
    "interquartile_threshold",
]

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InsufficientDataError

DEFAULT_IQR_MULTIPLIER = 5.0


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's linear interpolation: from ``a`` below ``t = 1/2``, from ``b``
    at and above it."""
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def _quartiles(values: np.ndarray) -> tuple[float, float]:
    """``np.quantile(values, [0.25, 0.75])`` bit for bit, from one sort of
    the 1-d float array ``values`` (at least 2 long), which is reordered.
    One sort costs less than numpy's partition at the five indices needed."""
    # (n - 1) / 4 and 3 (n - 1) / 4 as whole positions and quarters: numpy's
    # virtual indices, which are exact in float64
    lower, upper = divmod(values.size - 1, 4), divmod(3 * (values.size - 1), 4)
    values.sort()
    # a NaN sorts last, and np.quantile answers NaN then
    if math.isnan(values[-1]):
        return math.nan, math.nan
    q1, q3 = (_lerp(float(values[k]), float(values[k + 1]), r / 4) for k, r in (lower, upper))
    return q1, q3


def interquartile_threshold(increments, multiplier: float = DEFAULT_IQR_MULTIPLIER) -> float:
    """Threshold ``eta = multiplier * IQR(|D_1|, ..., |D_n|)``.

    Quartiles use linear interpolation on the order statistics at positions
    ``1 + (n - 1) * p`` (numpy's default convention).  A zero IQR means the
    magnitudes carry no spread to threshold on; the sentinel ``+inf`` is
    returned and nothing gets flagged.
    """
    d = np.asarray(increments, dtype=float)
    if d.size < 4:
        raise InsufficientDataError(f"need at least 4 increments for the IQR rule, got {d.size}")
    if not (np.isfinite(multiplier) and multiplier > 0):
        raise ConfigurationError(f"IQR multiplier must be positive, got {multiplier}")
    q1, q3 = _quartiles(np.abs(d.ravel()))
    spread = q3 - q1
    if spread == 0.0:
        return math.inf
    return multiplier * spread


@dataclass(frozen=True)
class ThresholdRule:
    """Either a fixed threshold or the IQR rule with a given multiplier."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind == "fixed":
            if math.isnan(self.value) or self.value <= 0:
                raise ConfigurationError(f"fixed threshold must be positive, got {self.value}")
        elif self.kind == "iqr":
            if not (np.isfinite(self.value) and self.value > 0):
                raise ConfigurationError(f"IQR multiplier must be positive, got {self.value}")
        else:
            raise ConfigurationError(f"unknown threshold kind {self.kind!r}")

    @classmethod
    def fixed(cls, eta: float) -> "ThresholdRule":
        return cls(kind="fixed", value=float(eta))

    @classmethod
    def iqr(cls, multiplier: float = DEFAULT_IQR_MULTIPLIER) -> "ThresholdRule":
        return cls(kind="iqr", value=float(multiplier))

    @classmethod
    def parse(cls, text: str) -> "ThresholdRule":
        """Parse CLI syntax: ``iqr``, ``iqr:5``, ``fixed:0.5``, ``fixed:inf``."""
        kind, sep, raw = text.partition(":")
        kind = kind.strip().lower()
        try:
            if kind == "iqr":
                value = float(raw) if sep else DEFAULT_IQR_MULTIPLIER
            elif kind == "fixed":
                if not sep:
                    raise ConfigurationError("fixed threshold needs a value, e.g. fixed:0.5")
                value = float(raw)
            else:
                raise ConfigurationError(f"unknown threshold rule {text!r}")
        except ValueError as err:
            raise ConfigurationError(f"cannot parse threshold value in {text!r}") from err
        return cls(kind=kind, value=value)

    def resolve(self, increments) -> float:
        """Realized threshold for these increments."""
        if self.kind == "fixed":
            return self.value
        return interquartile_threshold(increments, self.value)


@dataclass(frozen=True)
class QvEstimate:
    """Thresholded estimate of the jump quadratic variation.

    ``flagged`` lists the 1-based indices with ``|D_i| > eta`` (strict), and
    ``jump_qv_hat`` is the sum of their squared increments.
    """

    eta: float
    jump_qv_hat: float
    flagged: tuple[int, ...]


def estimate_jump_qv(increments, eta: float) -> QvEstimate:
    """Sum of squared increments over the windows with ``|D_i| > eta``."""
    d = np.asarray(increments, dtype=float)
    if math.isnan(eta) or eta <= 0:
        raise ConfigurationError(f"threshold must be positive (or +inf), got {eta}")
    mask = np.abs(d) > eta
    flagged = tuple((np.flatnonzero(mask) + 1).tolist())
    hat = float(np.sum(d[mask] ** 2))
    return QvEstimate(eta=float(eta), jump_qv_hat=hat, flagged=flagged)
