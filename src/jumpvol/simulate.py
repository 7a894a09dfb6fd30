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

__all__ = [
    "DiffusionSpec",
    "IncrementData",
    "JumpRealization",
    "JumpSpec",
    "PathTruth",
    "SamplePath",
    "SizeTable",
    "TwoPointSizes",
    "bin_jumps",
    "read_increments_csv",
    "simulate_jumps",
    "simulate_path",
    "simulate_path_given_jumps",
    "write_increments_csv",
]

import csv
import io
import multiprocessing
import operator
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigurationError

SeedLike = Union[int, np.random.SeedSequence, None]

# numpy's SeedSequence (O'Neill's seed_seq_fe hash-mix, a pool of 4 uint32
# words): its mix_entropy and generate_state steps as plain integer arithmetic
# on Python ints and on uint64 arrays of values below 2**32, so one call
# derives a block of seeds.  One seed goes through numpy's SeedSequence itself,
# the reference the tests hold this copy to.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const: int, mult: int = _MULT_A) -> tuple:
    """numpy's ``hashmix``: ``value`` hashed, and the next running constant."""
    const_next = const * mult & _MASK32
    h = (value ^ const) * const_next & _MASK32
    return h ^ h >> 16, const_next


def _mix(x, y):
    """numpy's ``mix`` of a pool word with a hashed word."""
    mixed = (_MIX_L * x - _MIX_R * y) & _MASK32
    return mixed ^ mixed >> 16


def _int_words(value) -> list[int]:
    """The little-endian uint32 words of a non-negative integer (``[0]`` for 0)."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _spawned_entropy(entropy, spawn_key: tuple) -> list:
    """The words of ``entropy``, zero-padded to the pool, then those of each
    ``spawn_key`` element: how numpy assembles a spawned sequence's entropy."""
    words = _int_words(entropy)
    words += [0] * (4 - len(words))
    for key in spawn_key:
        words += _int_words(key)
    return words


def _seed_states(words: list, tails: list, n_words: int) -> list[list]:
    """For each ``tail`` of ``tails``, ``generate_state(n_words, np.uint32)``
    of the ``SeedSequence`` whose assembled entropy is ``words + tail``, bit
    for bit, as a list of words.

    ``words`` (at least four) are mixed once for all tails.  A word is a
    Python int below ``2**32`` or a uint64 array of such values; a state word
    is then an array over it, which derives a block of sequences at once.
    """
    # mix_entropy: the first four words fill the pool and mix with each other
    const, pool = _INIT_A, []
    for word in words[:4]:
        h, const = _hashmix(word, const)
        pool.append(h)
    for src, dst in permutations(range(4), 2):
        h, const = _hashmix(pool[src], const)
        pool[dst] = _mix(pool[dst], h)
    states = []
    for tail in tails:
        # every further word mixes into each pool word in turn
        mixer, tail_const = pool.copy(), const
        for word in words[4:] + tail:
            for dst in range(4):
                h, tail_const = _hashmix(word, tail_const)
                mixer[dst] = _mix(mixer[dst], h)
        # generate_state: the pool words in turn, hashed with the B constants
        state, state_const = [], _INIT_B
        for i in range(n_words):
            h, state_const = _hashmix(mixer[i % 4], state_const, _MULT_B)
            state.append(h)
        states.append(state)
    return states


class _StateWords(ISeedSequence):
    """A seed sequence that hands ``PCG64`` the 4 uint64 state words the
    kernel derived, so that ``PCG64`` seeds itself in C.  ``PCG64`` asks for
    exactly those, as ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(seeds, keys) -> list[tuple[np.random.Generator, ...]]:
    """For each non-negative integer seed of a block, the generator
    ``default_rng`` makes of its ``SeedSequence`` spawned at each key of
    ``keys``: the keys ``[[0], [1]]`` give the children of ``spawn(2)``, and
    ``[[]]`` the root stream of ``default_rng(seed)``.  The seeds of a block
    share one word count and get their states from one kernel call over
    uint64 word arrays; a single seed, which that call costs about ten times
    as much as numpy, goes through numpy's own ``SeedSequence``."""
    if len(seeds) == 1:
        return [tuple(np.random.default_rng(np.random.SeedSequence(seeds[0], spawn_key=key))
                      for key in keys)]
    entropy = np.array([_spawned_entropy(seed, ()) for seed in seeds], dtype=np.uint64)
    streams = []
    for w in _seed_states(list(entropy.T), keys, 8):
        # one C-contiguous row of 4 state words per seed, low word first
        states = (np.array(w[0::2]) | np.array(w[1::2]) << 32).T.copy()
        streams.append([np.random.Generator(np.random.PCG64(_StateWords(state)))
                        for state in states])
    return list(zip(*streams))


#: The largest mean that numpy's Poisson sampler takes, and the most 8-byte
#: elements that one numpy array can hold.
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
_MAX_LENGTH = np.iinfo(np.intp).max // 8


def _check_length(length: int, what: str) -> None:
    """Refuse a length that no float64 array can hold, where numpy raises a bare ValueError."""
    if length > _MAX_LENGTH:
        raise ConfigurationError(f"{what} is {length}, more than an array can hold ({_MAX_LENGTH})")


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
        # the draws, and the generator state after them, of rng.choice on the pair
        return np.array([-self.tau, self.tau])[rng.integers(0, 2, size=count)]


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
        for v in self.values:
            if not np.isfinite(v) or v == 0:
                raise ConfigurationError(f"size table values must be finite and nonzero, got {v}")
        if any(p < 0 for p in self.probs):
            raise ConfigurationError("size table probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ConfigurationError(f"size table probabilities sum to {sum(self.probs)}, not 1")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.choice(np.array(self.values), size=count, p=np.array(self.probs))


SizeLaw = Union[TwoPointSizes, SizeTable]


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
        if not isinstance(self.size_law, SizeLaw):
            raise ConfigurationError(f"unknown jump size law {type(self.size_law).__name__}")

    @classmethod
    def two_point(cls, rate: float, tau: float) -> "JumpSpec":
        return cls(rate=rate, size_law=TwoPointSizes(tau))

    @classmethod
    def fixed(cls, rate: float, value: float) -> "JumpSpec":
        return cls(rate=rate, size_law=SizeTable((value,), (1.0,)))

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

    @classmethod
    def _unchecked(cls, times: np.ndarray, sizes: np.ndarray) -> "JumpRealization":
        """A realization from float arrays known to pass the checks above."""
        jumps = object.__new__(cls)
        object.__setattr__(jumps, "times", times)
        object.__setattr__(jumps, "sizes", sizes)
        return jumps

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

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))

    @property
    def jump_qv(self) -> float:
        nz = self.mu[self.mu != 0.0]
        with np.errstate(over="ignore"):  # inf past the float range; TruthSummary refuses it
            return float(np.sum(nz * nz))

    @property
    def jump_windows(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.mu) + 1)


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
    mean = float(spec.rate * horizon)
    if not mean <= _POISSON_LAM_MAX:
        raise ConfigurationError(f"rate * horizon is {mean!r}, above the Poisson limit")
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(mean))
    _check_length(count, f"the jump count drawn for rate * horizon = {mean!r}")
    times = horizon * rng.random(count)
    times.sort()
    # rng.random lives on [0, 1); redraw the (measure zero) endpoint hits so
    # every time lies strictly inside (0, horizon)
    while count and (times[0] <= 0.0 or times[-1] >= horizon):
        bad = (times <= 0.0) | (times >= horizon)
        times[bad] = horizon * rng.random(int(bad.sum()))
        times.sort()
    # two draws may still tie; everything else JumpRealization checks holds
    # by construction: the times are finite and sorted, and each size law
    # that JumpSpec accepts draws finite nonzero sizes
    if np.count_nonzero(times[1:] <= times[:-1]):
        raise ConfigurationError("jump times must be strictly increasing")
    return JumpRealization._unchecked(times, spec.size_law.sample(rng, count))


def _windows(times: np.ndarray, n: int, horizon: float) -> np.ndarray:
    """The 0-based window ``[t_{i-1}, t_i)`` of each jump time."""
    if n < 1:
        raise ConfigurationError(f"need at least one window, got n={n}")
    _check_length(n, "n")
    if np.any(times >= horizon):
        raise ConfigurationError("jump times must lie strictly inside (0, horizon)")
    return np.minimum((times * (n / horizon)).astype(int), n - 1)


def bin_jumps(jumps: JumpRealization, n: int, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Assign jumps to the ``n`` sampling windows ``[t_{i-1}, t_i)``.

    Returns the per-window sums of jump sizes and the per-window jump counts.
    A window may receive several jumps; the sum is what the increment sees.
    """
    idx = _windows(jumps.times, n, horizon)
    # bincount adds each window's sizes in jump order, starting from 0.0
    return np.bincount(idx, weights=jumps.sizes, minlength=n), np.bincount(idx, minlength=n)


def _check_increments(n: int) -> None:
    if n < 2:
        raise ConfigurationError(f"need at least 2 increments, got n={n}")


def _path_rows(diff: DiffusionSpec, realizations, n: int, streams) -> tuple[np.ndarray, np.ndarray]:
    """The increments and the per-window jump sums, each ``(m, n)``, of ``m``
    paths: row ``i`` carries the jumps ``realizations[i]`` and draws its
    normals from the generator ``streams[i]``."""
    m = len(realizations)
    times = np.concatenate([jumps.times for jumps in realizations])
    sizes = np.concatenate([jumps.sizes for jumps in realizations])
    # one bincount over the block adds each window's sizes in jump order,
    # from 0.0, as bin_jumps does for one path
    rows = np.repeat(np.arange(0, m * n, n), [len(jumps) for jumps in realizations])
    windows = _windows(times, n, diff.horizon) + rows
    mu = np.bincount(windows, weights=sizes, minlength=m * n).reshape(m, n)
    delta = diff.horizon / n
    increments = np.empty((m, n))
    for row, stream in zip(increments, streams):
        stream.standard_normal(out=row)
    # beta * delta + sqrt(theta_star * delta) * Z + mu, in place
    increments *= np.sqrt(diff.theta_star * delta)
    increments += diff.beta * delta
    increments += mu
    return increments, mu


def _simulate_rows(
    diff: DiffusionSpec, jumps: JumpSpec, n: int, streams
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_path_rows` of ``m`` paths of the full process: path ``i``
    draws its jumps from ``streams[i][0]`` and its normals from
    ``streams[i][1]``."""
    _check_increments(n)
    realizations = [simulate_jumps(jumps, diff.horizon, seed=stream) for stream, _ in streams]
    return _path_rows(diff, realizations, n, [stream for _, stream in streams])


def simulate_path_given_jumps(
    diff: DiffusionSpec, jumps: JumpRealization, n: int, seed: SeedLike = None
) -> SamplePath:
    """Simulate the diffusion increments against a fixed jump realization.

    Useful for conditional Monte Carlo: the jump path stays frozen while the
    Brownian part is redrawn.  Truth fields are populated from the binned
    jumps.  Deterministic given ``seed``.
    """
    _check_increments(n)
    increments, mu = _path_rows(diff, [jumps], n, [np.random.default_rng(seed)])
    return SamplePath(n, diff.horizon / n, increments[0], PathTruth(mu[0]))


def simulate_path(
    diff: DiffusionSpec, jumps: JumpSpec, n: int, seed: SeedLike = None
) -> SamplePath:
    """Simulate ``n`` equally spaced increments of the full process.

    Jump times are drawn exactly and then binned into windows, so a window
    can contain more than one jump; the single-jump-per-window picture is a
    high-frequency approximation, not something the generator enforces.
    Deterministic given ``seed``: the seed is split into independent streams
    for the jump and diffusion parts, the children ``(0,)`` and ``(1,)`` of
    ``SeedSequence(seed)``, which numpy derives.  This is the one-row call of
    the block simulator the coverage harness runs, whose blocks of seeds get
    the same streams from the package's copy of the ``SeedSequence`` mix.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = [np.random.default_rng(child) for child in ss.spawn(2)]
    increments, mu = _simulate_rows(diff, jumps, n, [streams])
    return SamplePath(n, diff.horizon / n, increments[0], PathTruth(mu[0]))


# ---------------------------------------------------------------------------
# Counts and the process pool
# ---------------------------------------------------------------------------

def _integer(value, what: str) -> int:
    """``value`` as an int: the one rule for replication counts, sample sizes
    and worker counts.  A bool, or a value that is not an integer, is refused,
    named."""
    try:
        number = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise ConfigurationError(f"{what} {value!r} is not an integer")
    return number


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _pool_size(work: int, per_process: int) -> int:
    """How many processes ``work`` units pay for: one for each
    ``per_process`` units, up to the usable CPUs, and at least one.  The one
    rule by which the package sizes a pool that no caller asked for; the
    result of such a call does not depend on it."""
    return max(1, min(_usable_cpus(), work // per_process))


@contextmanager
def _ordered_map(fn, tasks: list, workers: int):
    """An iterator over ``fn(task)`` for each of ``tasks``, in task order: the
    one place where the package starts processes.  One worker, one task, or a
    daemon process (which may not start children) maps in this process;
    otherwise a pool of at most one process a task runs them, for which ``fn``
    and the tasks must pickle.  Leaving the block early drops the tasks not
    yet started and waits for the running ones, so no process outlives it."""
    workers = _integer(workers, "workers")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(tasks))  # a pool starts all its workers at once
    if workers <= 1 or multiprocessing.current_process().daemon:
        yield map(fn, tasks)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield _in_order(pool, fn, tasks, 2 * workers)
    finally:
        pool.shutdown(cancel_futures=True)


def _in_order(pool, fn, tasks: list, window: int):
    """``fn(task)`` for each of ``tasks`` from ``pool``, in task order, with at
    most ``window`` tasks submitted and not yet yielded: a reader slower than
    the pool holds at most ``window`` results."""
    pending = deque()
    for task in tasks:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, task))
    while pending:
        yield pending.popleft().result()


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

#: Rows formatted per task: a forked worker starts at its parent's resident
#: set and adds one block's strings, so blocks stay a few hundred kB of text.
_WRITE_CHUNK_ROWS = 8192
#: Rows each writer process must have to pay for its start: two processes
#: broke even near 32768 rows and were ahead from 65536 on a 2-CPU host.
_ROWS_PER_WORKER = 32768
#: Bytes of body each reader task parses, cut just after a line end.
_READ_BLOCK_BYTES = 2 << 20
#: Bytes of body each reader process must have to pay for its start: 49152
#: rows as the writer formats them (41-45 bytes a row).  Two processes broke
#: even near 65536 rows and were ahead from 98304 on a 2-CPU host.
_READ_BYTES_PER_WORKER = 45 * 49152
#: A ``t_i`` column must lie on ``i * t_n / n`` within this fraction of a step.
_GRID_RTOL = 1e-6


def _opened(file, mode: str):
    """A context manager giving a stream as it is, or a path opened in ``mode``.
    A path is read as UTF-8, past a byte-order mark if it has one."""
    if not isinstance(file, (str, Path)):
        return nullcontext(file)
    if mode == "w":
        return open(file, mode, newline="")
    return open(file, mode, encoding="utf-8-sig")


def _csv_block(task) -> str:
    """The CSV text of one block of rows.  ``task`` is ``(start, delta,
    columns)``: the offset of the block's first row, the step, and the
    block's slice of each column."""
    start, delta, columns = task
    stop = start + len(columns[0])
    times = (np.arange(start + 1, stop + 1) * delta).tolist()
    cells = [map(str, range(start + 1, stop + 1)), map(repr, times)]
    cells.extend(map(repr, column.tolist()) for column in columns)
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def write_increments_csv(file, path: SamplePath, with_truth: bool = False) -> None:
    """Write a path as ``index,t_i,D_i[,mu_i]`` rows, with ``t_i = i * delta``.

    Floats are formatted with ``repr`` so the file round-trips exactly.
    ``with_truth`` adds the ``mu_i`` column and requires truth to be present.
    Blocks of ``_WRITE_CHUNK_ROWS`` rows are formatted a column at a time and
    written in order.  A path of ``2 * _ROWS_PER_WORKER`` rows or more is
    formatted in a process pool, one process a ``_ROWS_PER_WORKER`` rows up to
    the usable CPUs, with at most two blocks a process held at once; the
    bytes do not depend on the CPU count, and no copy of the whole text is
    built.
    """
    if with_truth and path.truth is None:
        raise ConfigurationError("path carries no truth; cannot write mu_i column")
    columns = [path.increments, path.truth.mu] if with_truth else [path.increments]
    tasks = [
        (start, path.delta, [column[start:start + _WRITE_CHUNK_ROWS] for column in columns])
        for start in range(0, path.n, _WRITE_CHUNK_ROWS)
    ]
    with _opened(file, "w") as handle:
        handle.write("index,t_i,D_i,mu_i\n" if with_truth else "index,t_i,D_i\n")
        with _ordered_map(_csv_block, tasks, _pool_size(path.n, _ROWS_PER_WORKER)) as blocks:
            handle.writelines(blocks)


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
    parse; the inference rejects them later).  Header names must be distinct.
    An ``index`` column must read 1..n, the last ``t_i`` must be positive and
    finite, and ``t_i`` must lie on the equally spaced grid ``i * t_n / n``
    within ``1e-6`` of a step.  Empty lines, and a UTF-8 byte-order mark, are
    skipped.  A violation raises :class:`ConfigurationError` naming the first
    bad 1-based data row.

    A path's body is parsed in blocks of about ``_READ_BLOCK_BYTES``, in a
    process pool of one process a ``_READ_BYTES_PER_WORKER`` bytes up to the
    usable CPUs; a stream is parsed whole in this process.  The result does
    not depend on the block size or the CPU count.
    """
    with _opened(file, "r") as handle:
        try:
            if not handle.seekable():
                # the error path rereads the body, so a stream that cannot
                # seek (or a path to one, such as a pipe) is buffered first
                return _read_increments(io.StringIO(handle.read()), None)
            return _read_increments(handle, file if isinstance(file, (str, Path)) else None)
        except UnicodeDecodeError as err:
            raise ConfigurationError(f"increments file cannot be decoded as text: {err}") from err


def _read_increments(handle, path) -> IncrementData:
    """The read of a seekable text ``handle``, opened on ``path`` if that is a
    file that workers may open again, else None."""
    if path is None:  # a stream, read past a byte-order mark as a path is
        mark = handle.tell()
        if handle.read(1) != "\ufeff":
            handle.seek(mark)
    start, first = _next_row(handle)
    if not first:
        raise ConfigurationError("empty increments file")
    header = [cell.strip() for cell in _cells(first)]
    try:
        float(header[0])
        names = ["D_i"]
        body = start
    except ValueError:
        names = header
        unknown = set(names) - {"index", "t_i", "D_i", "mu_i"}
        if unknown:
            raise ConfigurationError(f"unknown columns in increments file: {sorted(unknown)}")
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ConfigurationError(f"repeated columns in increments file: {repeated}")
        if "D_i" not in names:
            raise ConfigurationError("increments file is missing the D_i column")
        body, row = _next_row(handle)
        if not row:
            raise ConfigurationError("increments file has a header but no rows")
    chained = None
    if path is not None and body < 1 << 64:
        # a text file's position is a plain byte offset where its decoder
        # holds no state, as at the end of a line ended by "\n"
        ranges = _byte_ranges(path, body)
        if ranges:  # none if the file shrank since its header was read
            tasks = [(names, path, lo, hi) for lo, hi in ranges]
            size = ranges[-1][1] - ranges[0][0]
            workers = _pool_size(size, _READ_BYTES_PER_WORKER)
            with _ordered_map(_parse_block, tasks, workers) as blocks:
                chained = _chain(blocks, names)
    if chained is None:
        # a stream, lone-CR line ends, a file that shrank, or a block that
        # holds a quote (a quoted cell may span a line end) or bytes that are
        # not UTF-8: the whole body is read as one block
        handle.seek(body)
        chained = _chain([_parse(handle, names)], names)
    columns, index_fault = chained
    times = columns.get("t_i")
    faults = [fault for fault in (index_fault, _grid_fault(times)) if fault]
    if faults:
        row, reason = min(faults)
        raise ConfigurationError(f"increments file row {row + 1}: {reason}")
    return IncrementData(
        increments=columns["D_i"],
        horizon=None if times is None else float(times[-1]),
        mu=columns.get("mu_i"),
    )


def _byte_ranges(path, body: int) -> list[tuple[int, int]]:
    """The file from byte ``body`` on, past a byte-order mark, cut into ranges
    of about ``_READ_BLOCK_BYTES`` that each end just after a ``\n`` (or at
    the end of the file)."""
    with open(path, "rb") as raw:
        # a headerless body starts at position 0, before the mark
        cuts = [max(body, 3) if raw.read(3) == b"\xef\xbb\xbf" else body]
        size = raw.seek(0, os.SEEK_END)
        while cuts[-1] < size:
            raw.seek(cuts[-1] + _READ_BLOCK_BYTES - 1)
            raw.readline()
            cuts.append(min(raw.tell(), size))
    return list(zip(cuts, cuts[1:]))


def _parse_block(task):
    """:func:`_parse` of the bytes ``lo`` to ``hi`` of a file, read as the
    file is opened (UTF-8, universal newlines), or None if they hold a quote
    or are not UTF-8.  ``task`` is ``(names, path, lo, hi)``."""
    names, path, lo, hi = task
    with open(path, "rb") as raw:
        raw.seek(lo)
        data = raw.read(hi - lo)
    if b'"' in data:
        return None
    if not data.strip(b"\r\n"):  # only empty lines, where loadtxt would warn
        return _block_columns(np.empty((0, len(names))), names)
    try:
        return _parse(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None), names)
    except UnicodeDecodeError:
        return None


def _parse(source, names: list) -> tuple:
    """The rows of a seekable text ``source``, from where it stands: the
    :func:`_block_columns` of its table, or ``(None, (row, line))`` for the
    first line that is not ``len(names)`` numbers, with ``row`` its 0-based
    place among the non-empty lines.  The one parse of the read."""
    start = source.tell()
    table = _load(source, len(names))  # bytes that are not UTF-8 raise below
    if table is not None:
        return _block_columns(table, names)
    source.seek(start)
    rows = [line for line in source.readlines() if line.rstrip("\r\n")]
    lo, hi = 0, len(rows)  # the rows before lo parse; the first bad one is before hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _load(rows[lo:mid], len(names)) is None else (mid, hi)
    return None, (lo, rows[lo])


def _block_columns(table: np.ndarray, names: list) -> tuple[dict, tuple]:
    """The columns of a parsed block that the read keeps, by name, and its
    index run: the first index, and the position and value of the first
    index that does not follow on from it (None for each that is missing)."""
    columns = {name: np.ascontiguousarray(table[:, j])
               for j, name in enumerate(names) if name != "index"}
    first = gap = None
    if "index" in names and len(table):
        index = table[:, names.index("index")]
        first = float(index[0])
        hits = np.flatnonzero(index != index[0] + np.arange(len(index)))
        gap = (int(hits[0]), float(index[hits[0]])) if hits.size else None
    return columns, (first, gap)


def _chain(blocks, names: list) -> tuple[dict, tuple | None] | None:
    """The parsed blocks chained in order: each kept column joined, and the
    first row whose index is not its row number, as ``(row, reason)`` with a
    0-based row; None at the first block that must be read whole.  A block's
    bad row is raised, named at its row in the file, once no later block
    must be read whole, so neither the block size nor the CPU count can
    change which fault is named."""
    parts = {name: [] for name in names if name != "index"}
    fault, n = None, 0
    for block in blocks:
        if block is None:
            return None
        columns, run = block
        if columns is None:
            if any(later is None for later in blocks):
                return None
            raise _bad_row_error(n + run[0], run[1], names)
        first, gap = run
        rows = len(columns["D_i"])
        if not rows:
            continue
        if fault is None and first is not None:
            if first != n + 1:
                fault = (n, f"index is {first!r}, expected {n + 1}")
            elif gap:
                fault = (n + gap[0], f"index is {gap[1]!r}, expected {n + gap[0] + 1}")
        for name, column in columns.items():
            parts[name].append(column)
        n += rows
    return {name: np.concatenate(part) for name, part in parts.items()}, fault


def _grid_fault(times: np.ndarray | None) -> tuple | None:
    """The first row whose ``t_i`` is off the equally spaced grid ``i * t_n /
    n``, as ``(row, reason)`` with a 0-based row; the last row if ``t_n`` is
    not a positive, finite horizon."""
    if times is None:
        return None
    n, t_n = len(times), float(times[-1])
    if not (np.isfinite(t_n) and t_n > 0):
        return n - 1, f"t_i is {t_n!r}, but the last t_i, the horizon, must be positive and finite"
    step = t_n / n
    grid = np.arange(1, n + 1) * step
    with np.errstate(invalid="ignore"):
        hits = np.flatnonzero(~(np.abs(times - grid) <= _GRID_RTOL * step))
    if not hits.size:
        return None
    i = hits[0]
    return i, (f"t_i is {float(times[i])!r}, off the equally spaced grid "
               f"i * t_n / n = {float(grid[i])!r}")


def _next_row(handle) -> tuple[int, str]:
    """The position and text of the next non-empty line ("" at the end)."""
    while True:
        pos = handle.tell()
        line = handle.readline()
        if not line or line.rstrip("\r\n"):
            return pos, line


def _load(source, width: int, usecols=None) -> np.ndarray | None:
    """CSV rows of numbers as a table, or None unless they are rows of
    ``width`` numbers: one rule for the read and its search for a bad row."""
    try:
        table = np.loadtxt(
            source, delimiter=",", ndmin=2, comments=None, quotechar='"', usecols=usecols
        )
    except ValueError:  # UnicodeDecodeError included
        return None
    return table if table.shape[1] == width else None


def _cells(line: str) -> list[str]:
    """The CSV cells of one line.  A CR before its end is refused, named: a
    text stream that splits lines at "\\n" only hands lone-CR rows over as
    one line."""
    if "\r" in line.rstrip("\r\n"):
        raise ConfigurationError(
            "increments file has lone-CR line ends, which this text stream does not "
            "split into lines; open it with newline='' or newline=None"
        )
    return next(csv.reader([line]))


def _bad_row_error(row: int, line: str, names: list[str]) -> ConfigurationError:
    """The error that ``line``, 0-based data row ``row``, is not ``len(names)``
    numbers; if it parses alone, a quote opened before it ran on into it."""
    if _load([line], len(names)) is not None:
        return ConfigurationError("increments file does not parse as rows of numbers")
    where = f"increments file row {row + 1}"
    cells = _cells(line)
    if len(cells) != len(names):
        return ConfigurationError(
            f"{where} has {len(cells)} cells, expected {len(names)} ({','.join(names)})"
        )
    bad = (f"{name} is not a number: {cell!r}" for j, (name, cell)
           in enumerate(zip(names, cells)) if _load([line], 1, usecols=j) is None)
    return ConfigurationError(f"{where}: {next(bad, f'cannot parse {line!r}')}")
