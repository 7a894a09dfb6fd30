"""Coverage experiment over a (jump rate, jump size, sample size) grid.

Each grid cell runs many independent replications of the full pipeline
(simulate, threshold, temper, shift, interval) and records how often the
interval covers the true volatility.  Its loop, :func:`replicate`, also runs
the Monte Carlo diagnostics; it derives seeds from ``(base_seed, cell, rep)``,
so results are bitwise reproducible whatever the worker count.
"""

from __future__ import annotations

__all__ = [
    "CoverageConfig",
    "CoverageRow",
    "derive_seed",
    "run_coverage",
    "write_coverage_csv",
]

import math
import operator
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, islice, product

import numpy as np

from .errors import ConfigurationError
from .posterior import InverseGammaParams, _infer_rows
from .simulate import (
    _MASK32,
    DiffusionSpec,
    JumpSpec,
    _integer,
    _opened,
    _ordered_map,
    _seed_states,
    _simulate_rows,
    _spawned_entropy,
    _streams,
)
from .threshold import ThresholdRule

COVERAGE_CSV_HEADER = "lambda,tau,n,reps,coverage,mean_width,mc_stderr,degenerate_count"

#: Replications per task of :func:`replicate` unless its caller asks for
#: fewer: the bits of coverage's ``mean_width`` depend on it.
_BLOCK = 256
#: Increments per chunk of rows that the experiments simulate and infer as
#: one array: a chunk that stays in cache is what makes the array pass pay.
_CHUNK = 2**15


@dataclass(frozen=True)
class CoverageConfig:
    """Grid and per-replication settings of the coverage experiment."""

    diffusion: DiffusionSpec
    lambda_grid: tuple[float, ...] = (4.0, 8.0, 16.0, 32.0)
    tau_grid: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    n_grid: tuple[int, ...] = (5000,)
    reps: int = 1000
    level: float = 0.95
    threshold: ThresholdRule = ThresholdRule.iqr()
    prior: InverseGammaParams = InverseGammaParams(1.0, 1.0)
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lambda_grid", tuple(float(v) for v in self.lambda_grid))
        object.__setattr__(self, "tau_grid", tuple(float(v) for v in self.tau_grid))
        object.__setattr__(self, "n_grid", tuple(_sample_sizes(self.n_grid)))
        if not (self.lambda_grid and self.tau_grid and self.n_grid):
            raise ConfigurationError("all grids must be nonempty")
        object.__setattr__(self, "reps", _integer(self.reps, "reps"))
        if self.reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {self.reps}")
        if not 0.0 < self.level < 1.0:
            raise ConfigurationError(f"level must lie in (0, 1), got {self.level}")

    def cells(self) -> list[tuple[float, float, int]]:
        """Grid cells in their deterministic enumeration order."""
        return list(product(self.lambda_grid, self.tau_grid, self.n_grid))


@dataclass(frozen=True)
class CoverageRow:
    """Aggregated outcome of one grid cell.

    ``reps`` is the requested replication count; coverage, mean width, and
    the binomial ``mc_stderr = sqrt(p(1-p)/m)`` are computed over the
    ``m = reps - degenerate_count`` non-degenerate replications.
    """

    lam: float
    tau: float
    n: int
    reps: int
    coverage: float
    mean_width: float
    mc_stderr: float
    degenerate_count: int


def derive_seed(base_seed: int, cell_index: int, rep_index: int) -> int:
    """Derive the seed for replication ``rep_index`` of cell ``cell_index``.

    The triple is mixed by feeding ``base_seed`` as entropy and
    ``(cell_index, rep_index)`` as the spawn key of a ``numpy.random.
    SeedSequence``; the first 128 bits of its output state are packed into a
    single integer, low word first.  The mapping is deterministic and, for
    all practical purposes, collision-free across distinct triples.  A block
    of reps gets the same seeds from the package's copy of the mix.
    """
    ss = np.random.SeedSequence(base_seed, spawn_key=(cell_index, rep_index))
    low, high = ss.generate_state(2, np.uint64).tolist()
    return low | high << 64


def _derive_seeds(base_seed: int, cell_index: int, reps: range) -> list[int]:
    """``[derive_seed(base_seed, cell_index, rep) for rep in reps]``, from one
    kernel call over the block when every rep fits in one uint32 word."""
    if not reps or min(reps[0], reps[-1]) < 0 or max(reps[0], reps[-1]) > _MASK32:
        return [derive_seed(base_seed, cell_index, rep) for rep in reps]
    rep_words = np.arange(reps.start, reps.stop, reps.step, dtype=np.uint64)
    (w,) = _seed_states(_spawned_entropy(base_seed, (cell_index,)), [[rep_words]], 4)
    low, high = (w[0] | w[1] << 32).tolist(), (w[2] | w[3] << 32).tolist()
    return [lo | hi << 64 for lo, hi in zip(low, high)]


def _run_block(task) -> list:
    stat, cell, index, base_seed, block = task
    return stat(cell, _derive_seeds(base_seed, index, block))


def _sample_sizes(n_grid) -> list[int]:
    """The entries of ``n_grid`` by :func:`_integer`."""
    return [_integer(n, "n_grid entry") for n in n_grid]


def replicate(
    stat, cells, reps: int, base_seed: int, workers: int = 1, block: int = _BLOCK
) -> list[list]:
    """The results of the replications ``rep < reps`` of each cell, one list
    per cell in rep order.  ``stat(cells[index], seeds)`` gives one result per
    seed of a block, ``derive_seed(base_seed, index, rep)`` for its reps, or
    one for the whole block.  Blocks of ``block`` replications run in turn
    or, for ``workers > 1``, in a process pool, for which ``stat`` and the
    cells must pickle; the results do not depend on the worker count, nor on
    ``block`` where ``stat`` gives one result per seed."""
    reps = _integer(reps, "reps")
    blocks = [range(start, min(start + block, reps)) for start in range(0, reps, block)]
    tasks = [
        (stat, cell, index, base_seed, span)
        for index, cell in enumerate(cells)
        for span in blocks
    ]
    with _ordered_map(_run_block, tasks, workers) as results:
        return [list(chain.from_iterable(islice(results, len(blocks)))) for _ in cells]


def _chunks(n: int, rows: list) -> list[list]:
    """``rows`` in runs of about ``_CHUNK`` increments, ``n`` to a row."""
    step = max(1, _CHUNK // n)
    return [rows[start:start + step] for start in range(0, len(rows), step)]


def _simulated_chunks(diff: DiffusionSpec, jumps: JumpSpec, n: int, seeds):
    """The increments and per-window jump sums of the paths of ``seeds``, as
    :func:`simulate_path` draws them, one chunk of rows at a time."""
    for streams in _chunks(n, _streams(seeds, [[0], [1]])):
        yield _simulate_rows(diff, jumps, n, streams)


def _inferred_chunks(diff: DiffusionSpec, jumps: JumpSpec, n: int, seeds, rule, prior):
    """The per-window jump sums and the row inference of the paths of
    ``seeds``, one chunk of rows at a time."""
    horizon = n * (diff.horizon / n)  # SamplePath.horizon
    for increments, mu in _simulated_chunks(diff, jumps, n, seeds):
        yield mu, _infer_rows(increments, horizon, rule, prior)


def _coverage_block(cfg: CoverageConfig, cell, seeds) -> list[tuple[int, float, int]]:
    """The block's one result: how many intervals cover the true volatility,
    the sum of their widths in seed order, and how many inferences are
    degenerate.  ``cell`` holds the jump law and the sample size."""
    jumps, n = cell
    covered, width_sum, degenerate = 0, 0.0, 0
    for _, rows in _inferred_chunks(cfg.diffusion, jumps, n, seeds, cfg.threshold, cfg.prior):
        los, his = rows.intervals(cfg.level)
        for lo, hi in zip(los.tolist(), his.tolist()):
            if math.isnan(lo):
                degenerate += 1
            else:
                covered += lo <= cfg.diffusion.theta_star <= hi
                width_sum += hi - lo
    return [(covered, width_sum, degenerate)]


def run_coverage(config: CoverageConfig, workers: int = 1) -> list[CoverageRow]:
    """Run every grid cell and aggregate one row per cell.

    ``workers`` only controls parallel execution of fixed-size replication
    blocks; the output is identical for any worker count.
    """
    cells = config.cells()
    stat = partial(_coverage_block, config)
    jumps = [(JumpSpec.two_point(lam, tau), n) for lam, tau, n in cells]
    results = replicate(stat, jumps, config.reps, config.base_seed, workers)
    rows = []
    for (lam, tau, n), tallies in zip(cells, results):
        # the blocks' tallies in block order: this order fixes mean_width's bits
        covered, width_sum, degenerate = (reduce(operator.add, sums) for sums in zip(*tallies))
        effective = config.reps - degenerate
        if effective > 0:
            coverage = covered / effective
            mean_width = width_sum / effective
            stderr = math.sqrt(coverage * (1.0 - coverage) / effective)
        else:
            coverage = mean_width = stderr = math.nan
        rows.append(
            CoverageRow(lam, tau, n, config.reps, coverage, mean_width, stderr, degenerate)
        )
    return rows


def write_coverage_csv(file, rows: list[CoverageRow]) -> None:
    """Write coverage rows with the fixed column order."""
    with _opened(file, "w") as handle:
        handle.write(COVERAGE_CSV_HEADER + "\n")
        for row in rows:
            handle.write(
                f"{row.lam!r},{row.tau!r},{row.n},{row.reps},{row.coverage!r},"
                f"{row.mean_width!r},{row.mc_stderr!r},{row.degenerate_count}\n"
            )
