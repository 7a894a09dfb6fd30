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

#: Rows formatted per ``write`` call: enough to amortise the joins, while one
#: chunk of text stays a few MB.
_WRITE_CHUNK_ROWS = 65536
#: A ``t_i`` column must lie on ``i * t_n / n`` within this fraction of a step.
_GRID_RTOL = 1e-6
#: Rows per ``np.loadtxt`` call while the error path looks for the bad row.
_RESCAN_BLOCK_ROWS = 4096


def write_increments_csv(file, path: SamplePath, with_truth: bool = False) -> None:
    """Write a path as ``index,t_i,D_i[,mu_i]`` rows, with ``t_i = i * delta``.

    Floats are formatted with ``repr`` so the file round-trips exactly.
    ``with_truth`` adds the ``mu_i`` column and requires truth to be present.
    Rows are formatted a column at a time and written in chunks of
    ``_WRITE_CHUNK_ROWS``, so no copy of the whole text is built.
    """
    if with_truth and path.truth is None:
        raise ConfigurationError("path carries no truth; cannot write mu_i column")
    columns = [path.increments, path.truth.mu] if with_truth else [path.increments]
    own = isinstance(file, (str, Path))
    handle = open(file, "w", newline="") if own else file
    try:
        handle.write("index,t_i,D_i,mu_i\n" if with_truth else "index,t_i,D_i\n")
        for start in range(0, path.n, _WRITE_CHUNK_ROWS):
            stop = min(start + _WRITE_CHUNK_ROWS, path.n)
            times = (np.arange(start + 1, stop + 1) * path.delta).tolist()
            cells = [map(str, range(start + 1, stop + 1)), map(repr, times)]
            cells.extend(map(repr, column[start:stop].tolist()) for column in columns)
            handle.write("\n".join(map(",".join, zip(*cells))))
            handle.write("\n")
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
    column of raw increments.  Every cell must be a number (``nan`` and ``inf``
    parse; the inference rejects them later).  An ``index`` column must read
    1..n, and ``t_i`` must lie on the equally spaced grid ``i * t_n / n``
    within ``1e-6`` of a step.  Empty lines are skipped.  A violation
    raises :class:`ConfigurationError` naming the first bad 1-based data row.
    """
    own = isinstance(file, (str, Path))
    handle = open(file, "r") if own else file
    try:
        # the error path rereads the body, so a stream that cannot seek is
        # buffered first
        return _read_increments(handle if handle.seekable() else io.StringIO(handle.read()))
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"increments file cannot be decoded as text: {err}") from err
    finally:
        if own:
            handle.close()


def _read_increments(handle) -> IncrementData:
    start, first = _next_row(handle)
    if not first:
        raise ConfigurationError("empty increments file")
    header = [cell.strip() for cell in next(csv.reader([first]))]
    try:
        float(header[0])
        names = ["D_i"]
        body = start
    except ValueError:
        names = header
        unknown = set(names) - {"index", "t_i", "D_i", "mu_i"}
        if unknown:
            raise ConfigurationError(f"unknown columns in increments file: {sorted(unknown)}")
        if "D_i" not in names:
            raise ConfigurationError("increments file is missing the D_i column")
        body, row = _next_row(handle)
        if not row:
            raise ConfigurationError("increments file has a header but no rows")
    handle.seek(body)
    try:
        table = _load(handle)
    except ValueError:
        table = None
    if table is None or table.shape[1] != len(names):
        handle.seek(body)
        raise _bad_row_error(handle.readlines(), names)
    cols = {name: i for i, name in enumerate(names)}
    _check_grid(table, cols)
    return IncrementData(
        increments=np.ascontiguousarray(table[:, cols["D_i"]]),
        horizon=float(table[-1, cols["t_i"]]) if "t_i" in cols else None,
        mu=np.ascontiguousarray(table[:, cols["mu_i"]]) if "mu_i" in cols else None,
    )


def _next_row(handle) -> tuple[int, str]:
    """The position and text of the next non-empty line ("" at the end)."""
    while True:
        pos = handle.tell()
        line = handle.readline()
        if not line or line.rstrip("\r\n"):
            return pos, line


def _load(source, usecols=None) -> np.ndarray:
    """Parse CSV rows of numbers: one rule for the read and its rescan."""
    return np.loadtxt(
        source, delimiter=",", ndmin=2, comments=None, quotechar='"', usecols=usecols
    )


def _parses(lines: list[str], width: int, usecols=None) -> bool:
    try:
        return _load(lines, usecols).shape[1] == width
    except ValueError:
        return False


def _bad_row_error(lines: list[str], names: list[str]) -> ConfigurationError:
    """The error naming the first data row in ``lines`` that is not
    ``len(names)`` numbers.  Blocks of rows are parsed first, so only the
    block that fails is parsed row by row."""
    rows = [line for line in lines if line.rstrip("\r\n")]
    width = len(names)
    for first in range(0, len(rows), _RESCAN_BLOCK_ROWS):
        block = rows[first:first + _RESCAN_BLOCK_ROWS]
        if _parses(block, width):
            continue
        for offset, line in enumerate(block):
            if _parses([line], width):
                continue
            where = f"increments file row {first + offset + 1}"
            cells = next(csv.reader([line]))
            if len(cells) != width:
                return ConfigurationError(
                    f"{where} has {len(cells)} cells, expected {width} ({','.join(names)})"
                )
            bad = (f"{name} is not a number: {cell!r}" for j, (name, cell)
                   in enumerate(zip(names, cells)) if not _parses([line], 1, usecols=j))
            return ConfigurationError(f"{where}: {next(bad, f'cannot parse {line!r}')}")
    return ConfigurationError("increments file does not parse as rows of numbers")


def _check_grid(table: np.ndarray, cols: dict) -> None:
    """Reject an ``index`` column that is not 1..n and a ``t_i`` column off
    the equally spaced grid ``i * t_n / n``, naming the first bad row."""
    n = len(table)
    rows = np.arange(1, n + 1)
    bad = []
    if "index" in cols:
        index = table[:, cols["index"]]
        hits = np.flatnonzero(index != rows)
        if hits.size:
            i = hits[0]
            bad.append((i, f"index is {float(index[i])!r}, expected {i + 1}"))
    if "t_i" in cols:
        times = table[:, cols["t_i"]]
        step = times[-1] / n
        grid = rows * step
        with np.errstate(invalid="ignore"):
            hits = np.flatnonzero(~(np.abs(times - grid) <= _GRID_RTOL * step))
        if hits.size:
            i = hits[0]
            bad.append((i, f"t_i is {float(times[i])!r}, off the equally spaced grid "
                           f"i * t_n / n = {float(grid[i])!r}"))
    if bad:
        i, reason = min(bad)
        raise ConfigurationError(f"increments file row {i + 1}: {reason}")
