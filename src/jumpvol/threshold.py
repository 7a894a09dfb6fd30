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


def _lerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """numpy's linear interpolation: from ``a`` below ``t = 1/2``, from ``b``
    at and above it."""
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def _quartiles(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.quantile(values, [0.25, 0.75], axis=-1)`` bit for bit, from one
    sort of each row of the float array ``values`` (at least 2 along its last
    axis), which is reordered.  One sort costs less than numpy's partition at
    the five indices needed."""
    # (n - 1) / 4 and 3 (n - 1) / 4 as whole positions and quarters: numpy's
    # virtual indices, which are exact in float64
    n = values.shape[-1]
    lower, upper = divmod(n - 1, 4), divmod(3 * (n - 1), 4)
    values.sort(axis=-1)
    q1, q3 = (_lerp(values[..., k], values[..., k + 1], r / 4) for k, r in (lower, upper))
    # a NaN sorts last, and np.quantile answers NaN for that row then
    unordered = np.isnan(values[..., -1])
    return np.where(unordered, math.nan, q1), np.where(unordered, math.nan, q3)


def interquartile_threshold(increments, multiplier: float = DEFAULT_IQR_MULTIPLIER):
    """Threshold ``eta = multiplier * IQR(|D_1|, ..., |D_n|)`` along the last
    axis: a float for 1-d increments, one per row for a 2-d block.

    Quartiles use linear interpolation on the order statistics at positions
    ``1 + (n - 1) * p`` (numpy's default convention).  A zero IQR means the
    magnitudes carry no spread to threshold on; the sentinel ``+inf`` is
    returned and nothing gets flagged.
    """
    d = np.asarray(increments, dtype=float)
    count = d.shape[-1] if d.ndim else d.size
    if count < 4:
        raise InsufficientDataError(f"need at least 4 increments for the IQR rule, got {count}")
    if not (np.isfinite(multiplier) and multiplier > 0):
        raise ConfigurationError(f"IQR multiplier must be positive, got {multiplier}")
    # infinite magnitudes give a NaN spread, and a product past the float
    # range is inf; neither is an error here
    with np.errstate(invalid="ignore", over="ignore"):
        q1, q3 = _quartiles(np.abs(d))
        spread = q3 - q1
        eta = np.where(spread == 0.0, math.inf, multiplier * spread)
    return eta if eta.ndim else float(eta)


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

    def resolve(self, increments):
        """Realized threshold for these increments: a float for 1-d
        increments, one per row for a 2-d block."""
        if self.kind == "iqr":
            return interquartile_threshold(increments, self.value)
        rows = np.shape(increments)[:-1]
        return np.full(rows, self.value) if rows else self.value


@dataclass(frozen=True)
class QvEstimate:
    """Thresholded estimate of the jump quadratic variation.

    ``flagged`` lists the 1-based indices with ``|D_i| > eta`` (strict), and
    ``jump_qv_hat`` is the sum of their squared increments.
    """

    eta: float
    jump_qv_hat: float
    flagged: tuple[int, ...]


def _flag_rows(d: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flags ``|D_i| > eta`` of each row of the 2-d block ``d`` against
    its ``eta``, and each row's sum of squared flagged increments: one
    reduction (numpy's pairwise sum) per row, as ``np.sum`` on the row alone."""
    flags = np.abs(d) > eta[:, None]
    ends = np.cumsum(np.count_nonzero(flags, axis=1)).tolist()
    with np.errstate(over="ignore"):  # a square or a sum past the float range is inf
        squares = d[flags] ** 2
        hats = [np.add.reduce(squares[start:end]) for start, end in zip([0] + ends, ends)]
    return flags, np.array(hats, dtype=float)


def estimate_jump_qv(increments, eta: float) -> QvEstimate:
    """Sum of squared increments over the windows with ``|D_i| > eta``."""
    d = np.asarray(increments, dtype=float)
    if math.isnan(eta) or eta <= 0:
        raise ConfigurationError(f"threshold must be positive (or +inf), got {eta}")
    flags, hats = _flag_rows(d.reshape(1, -1), np.array([eta], dtype=float))
    flagged = tuple((np.flatnonzero(flags) + 1).tolist())
    return QvEstimate(eta=float(eta), jump_qv_hat=float(hats[0]), flagged=flagged)
