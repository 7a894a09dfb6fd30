"""Discretely observed jump-diffusion paths with generative bookkeeping.

The observed process is a drifted Brownian motion plus an independent
finite-activity jump process on a fixed horizon ``[0, T]``.  Sampling it on an
equally spaced grid of ``n`` points gives increments

    D_i = beta * delta + sqrt(theta_star * delta) * Z_i + mu_i,

where ``delta = T / n``, the ``Z_i`` are iid standard normal, and ``mu_i``
sums the jump sizes landing in the window ``[t_{i-1}, t_i)``.  Simulated
paths carry the hidden truth (the per-window jump sums ``mu_i``, their
squared total, and the affected window indices) so downstream estimators can
be validated against it.

Window indices reported anywhere in this package are 1-based, matching the
increment numbering ``D_1 .. D_n`` and the ``index`` column of the CSV
serialization.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ConfigurationError

SeedLike = Union[int, np.random.SeedSequence, None]


# ---------------------------------------------------------------------------
# Generative specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusionSpec:
    """Ground-truth parameters of the continuous part.

    Attributes
    ----------
    beta : float
        Drift coefficient (level per unit time).
    theta_star : float
        Volatility coefficient (level^2 per unit time); must be positive.
    horizon : float
        Length T of the observation window; must be positive.
    """

    beta: float
    theta_star: float
    horizon: float

    def __post_init__(self):
        if not (np.isfinite(self.theta_star) and self.theta_star > 0):
            raise ConfigurationError(f"theta_star must be positive, got {self.theta_star}")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if not np.isfinite(self.beta):
            raise ConfigurationError(f"beta must be finite, got {self.beta}")


@dataclass(frozen=True)
class TwoPointSizes:
    """Jump sizes drawn uniformly from {-tau, +tau}."""

    tau: float

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ConfigurationError(f"two-point size law requires tau > 0, got {self.tau}")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.choice(np.array([-self.tau, self.tau]), size=count)


@dataclass(frozen=True)
class FixedSize:
    """Every jump has the same (nonzero) size."""

    value: float

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value != 0):
            raise ConfigurationError(f"fixed size law requires a nonzero value, got {self.value}")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.full(count, float(self.value))


@dataclass(frozen=True)
class SizeTable:
    """Jump sizes drawn from a finite table of (value, probability) pairs."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.values) != len(self.probs) or not self.values:
            raise ConfigurationError("size table needs matching, nonempty values and probs")
        if any(not np.isfinite(v) or v == 0 for v in self.values):
            raise ConfigurationError("size table values must be finite and nonzero")
        if any(p < 0 for p in self.probs):
            raise ConfigurationError("size table probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ConfigurationError(f"size table probabilities sum to {sum(self.probs)}, not 1")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.choice(np.array(self.values), size=count, p=np.array(self.probs))


SizeLaw = Union[TwoPointSizes, FixedSize, SizeTable]


@dataclass(frozen=True)
class JumpSpec:
    """Ground-truth parameters of the jump part.

    ``rate`` is the expected number of jumps per unit time (compound Poisson
    arrivals); ``size_law`` draws the iid jump sizes.
    """

    rate: float
    size_law: SizeLaw

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate >= 0):
            raise ConfigurationError(f"jump rate must be >= 0, got {self.rate}")

    @classmethod
    def two_point(cls, rate: float, tau: float) -> "JumpSpec":
        return cls(rate=rate, size_law=TwoPointSizes(tau))

    @classmethod
    def fixed(cls, rate: float, value: float) -> "JumpSpec":
        return cls(rate=rate, size_law=FixedSize(value))

    @classmethod
    def table(cls, rate: float, values, probs) -> "JumpSpec":
        return cls(rate=rate, size_law=SizeTable(tuple(values), tuple(probs)))


@dataclass(frozen=True, eq=False)
class JumpRealization:
    """One realized jump path: strictly increasing times with nonzero sizes."""

    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        sizes = np.asarray(self.sizes, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sizes", sizes)
        if times.shape != sizes.shape or times.ndim != 1:
            raise ConfigurationError("jump times and sizes must be 1-d arrays of equal length")
        if times.size:
            if not np.all(np.isfinite(times)) or not np.all(times > 0):
                raise ConfigurationError("jump times must be finite and positive")
            if np.any(np.diff(times) <= 0):
                raise ConfigurationError("jump times must be strictly increasing")
            if not np.all(np.isfinite(sizes)) or np.any(sizes == 0):
                raise ConfigurationError("jump sizes must be finite and nonzero")

    def __len__(self) -> int:
        return int(self.times.size)


# ---------------------------------------------------------------------------
# Sample paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PathTruth:
    """Hidden generative state of a simulated path.

    ``mu`` holds the per-window jump sums; ``jump_qv`` (their squared total)
    and ``jump_windows`` (the 1-based indices of windows with a nonzero sum)
    are derived from it.
    """

    mu: np.ndarray
    jump_qv: float = field(init=False)
    jump_windows: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        nz = mu[mu != 0.0]
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "jump_qv", float(np.sum(nz * nz)))
        object.__setattr__(self, "jump_windows", tuple(int(i) for i in np.flatnonzero(mu) + 1))


@dataclass(frozen=True, eq=False)
class SamplePath:
    """``n`` equally spaced increments, optionally with their hidden truth."""

    n: int
    delta: float
    increments: np.ndarray
    truth: PathTruth | None = None

    def __post_init__(self):
        increments = np.asarray(self.increments, dtype=float)
        object.__setattr__(self, "increments", increments)
        if increments.ndim != 1 or increments.size != self.n:
            raise ConfigurationError(f"expected {self.n} increments, got shape {increments.shape}")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ConfigurationError(f"delta must be positive, got {self.delta}")
        if self.truth is not None and self.truth.mu.shape != increments.shape:
            raise ConfigurationError("truth.mu must match the increments in length")

    @property
    def horizon(self) -> float:
        """Observation horizon T = n * delta."""
        return self.n * self.delta

    @property
    def times(self) -> np.ndarray:
        """Grid times t_1 .. t_n (right endpoints of the windows)."""
        return np.arange(1, self.n + 1) * self.delta


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate_jumps(spec: JumpSpec, horizon: float, seed: SeedLike = None) -> JumpRealization:
    """Draw one jump realization on ``(0, horizon)``.

    The number of jumps is Poisson(rate * horizon); given the count, the
    times are iid uniform on the open interval and returned sorted, and the
    sizes are iid draws from the size law.  Deterministic given ``seed``.
    """
    if not isinstance(spec, JumpSpec):
        raise ConfigurationError(f"expected a JumpSpec, got {type(spec).__name__}")
    if not (np.isfinite(horizon) and horizon > 0):
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(spec.rate * horizon))
    times = horizon * rng.random(count)
    # rng.random lives on [0, 1); redraw the (measure zero) endpoint hits so
    # every time lies strictly inside (0, horizon)
    bad = (times <= 0.0) | (times >= horizon)
    while np.any(bad):
        times[bad] = horizon * rng.random(int(bad.sum()))
        bad = (times <= 0.0) | (times >= horizon)
    times.sort()
    sizes = spec.size_law.sample(rng, count)
    return JumpRealization(times=times, sizes=sizes)


def bin_jumps(jumps: JumpRealization, n: int, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Assign jumps to the ``n`` sampling windows ``[t_{i-1}, t_i)``.

    Returns the per-window sums of jump sizes and the per-window jump counts.
    A window may receive several jumps; the sum is what the increment sees.
    """
    if n < 1:
        raise ConfigurationError(f"need at least one window, got n={n}")
    mu = np.zeros(n)
    counts = np.zeros(n, dtype=int)
    if len(jumps):
        if np.any(jumps.times >= horizon):
            raise ConfigurationError("jump times must lie strictly inside (0, horizon)")
        idx = np.minimum((jumps.times * (n / horizon)).astype(int), n - 1)
        np.add.at(mu, idx, jumps.sizes)
        np.add.at(counts, idx, 1)
    return mu, counts


def simulate_path_given_jumps(
    diff: DiffusionSpec, jumps: JumpRealization, n: int, seed: SeedLike = None
) -> SamplePath:
    """Simulate the diffusion increments against a fixed jump realization.

    Useful for conditional Monte Carlo: the jump path stays frozen while the
    Brownian part is redrawn.  Truth fields are populated from the binned
    jumps.  Deterministic given ``seed``.
    """
    if n < 2:
        raise ConfigurationError(f"need at least 2 increments, got n={n}")
    delta = diff.horizon / n
    mu, _ = bin_jumps(jumps, n, diff.horizon)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    increments = diff.beta * delta + np.sqrt(diff.theta_star * delta) * z + mu
    return SamplePath(n=n, delta=delta, increments=increments, truth=PathTruth(mu))


def simulate_path(
    diff: DiffusionSpec, jumps: JumpSpec, n: int, seed: SeedLike = None
) -> SamplePath:
    """Simulate ``n`` equally spaced increments of the full process.

    Jump times are drawn exactly and then binned into windows, so a window
    can contain more than one jump; the single-jump-per-window picture is a
    high-frequency approximation, not something the generator enforces.
    Deterministic given ``seed``: the seed is split into independent streams
    for the jump and diffusion parts.
    """
    if n < 2:
        raise ConfigurationError(f"need at least 2 increments, got n={n}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    jump_ss, diff_ss = ss.spawn(2)
    realization = simulate_jumps(jumps, diff.horizon, seed=jump_ss)
    return simulate_path_given_jumps(diff, realization, n, seed=diff_ss)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def write_increments_csv(file, path: SamplePath, with_truth: bool = False) -> None:
    """Write a path as ``index,t_i,D_i[,mu_i]`` rows.

    Floats are formatted with ``repr`` so the file round-trips exactly.
    ``with_truth`` adds the ``mu_i`` column and requires truth to be present.
    """
    if with_truth and path.truth is None:
        raise ConfigurationError("path carries no truth; cannot write mu_i column")
    own = isinstance(file, (str, Path))
    handle = open(file, "w", newline="") if own else file
    try:
        header = "index,t_i,D_i,mu_i" if with_truth else "index,t_i,D_i"
        handle.write(header + "\n")
        d = path.increments
        mu = path.truth.mu if with_truth else None
        for i in range(path.n):
            t_i = (i + 1) * path.delta
            row = f"{i + 1},{t_i!r},{float(d[i])!r}"
            if with_truth:
                row += f",{float(mu[i])!r}"
            handle.write(row + "\n")
    finally:
        if own:
            handle.close()


@dataclass(frozen=True, eq=False)
class IncrementData:
    """Increments read back from CSV, with whatever context the file had."""

    increments: np.ndarray
    horizon: float | None
    mu: np.ndarray | None


def read_increments_csv(file) -> IncrementData:
    """Read increments from ``index,t_i,D_i[,mu_i]`` CSV or a bare column.

    A file with the standard header yields the horizon (the last ``t_i``) and
    the ``mu_i`` column when present.  A headerless file must be a single
    column of raw increments.
    """
    own = isinstance(file, (str, Path))
    handle = open(file, "r", newline="") if own else file
    try:
        rows = [row for row in csv.reader(handle) if row]
    finally:
        if own:
            handle.close()
    if not rows:
        raise ConfigurationError("empty increments file")
    first = rows[0]
    try:
        float(first[0])
        has_header = False
    except ValueError:
        has_header = True
    if not has_header:
        if any(len(row) != 1 for row in rows):
            raise ConfigurationError("headerless increment files must have exactly one column")
        values = np.array([float(row[0]) for row in rows])
        return IncrementData(increments=values, horizon=None, mu=None)
    names = [c.strip() for c in first]
    allowed = {"index", "t_i", "D_i", "mu_i"}
    unknown = set(names) - allowed
    if unknown:
        raise ConfigurationError(f"unknown columns in increments file: {sorted(unknown)}")
    if "D_i" not in names:
        raise ConfigurationError("increments file is missing the D_i column")
    cols = {name: i for i, name in enumerate(names)}
    body = rows[1:]
    if not body:
        raise ConfigurationError("increments file has a header but no rows")
    if any(len(row) != len(names) for row in body):
        raise ConfigurationError("ragged rows in increments file")
    increments = np.array([float(row[cols["D_i"]]) for row in body])
    horizon = float(body[-1][cols["t_i"]]) if "t_i" in cols else None
    mu = np.array([float(row[cols["mu_i"]]) for row in body]) if "mu_i" in cols else None
    return IncrementData(increments=increments, horizon=horizon, mu=mu)


def increments_csv_text(path: SamplePath, with_truth: bool = False) -> str:
    """Render :func:`write_increments_csv` output as a string."""
    buf = io.StringIO()
    write_increments_csv(buf, path, with_truth=with_truth)
    return buf.getvalue()
