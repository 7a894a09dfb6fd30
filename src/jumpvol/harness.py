"""Coverage experiment over a (jump rate, jump size, sample size) grid.

Each grid cell runs many independent replications of the full pipeline
(simulate, threshold, temper, shift, interval) and records how often the
interval covers the true volatility.  Its loop, :func:`replicate`, also runs
the Monte Carlo diagnostics; it derives seeds from ``(base_seed, cell, rep)``,
so results are bitwise reproducible whatever the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, product
from pathlib import Path

from .errors import ConfigurationError, DegenerateInferenceError
from .posterior import InverseGammaParams, credible_interval, infer_increments
from .seeds import derive_seed
from .simulate import DiffusionSpec, JumpSpec, simulate_path
from .threshold import ThresholdRule

COVERAGE_CSV_HEADER = "lambda,tau,n,reps,coverage,mean_width,mc_stderr,degenerate_count"

#: Replications per task of :func:`replicate`.  Coverage sums its widths per
#: block and then across blocks, in block order.
_BLOCK = 256


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
        object.__setattr__(self, "n_grid", tuple(int(v) for v in self.n_grid))
        if not (self.lambda_grid and self.tau_grid and self.n_grid):
            raise ConfigurationError("all grids must be nonempty")
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


def _run_block(task) -> list:
    stat, cell, index, base_seed, block = task
    return [stat(cell, derive_seed(base_seed, index, rep)) for rep in block]


def replicate(stat, cells, reps: int, base_seed: int, workers: int = 1) -> list[list]:
    """``stat(cells[index], derive_seed(base_seed, index, rep))`` for ``rep <
    reps``, one list per cell in rep order.  Blocks of ``_BLOCK`` replications
    run in turn or, for ``workers > 1``, in a process pool, for which ``stat``
    and the cells must pickle; the results do not depend on the worker count."""
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    blocks = [range(start, min(start + _BLOCK, reps)) for start in range(0, reps, _BLOCK)]
    tasks = [
        (stat, cell, index, base_seed, block)
        for index, cell in enumerate(cells)
        for block in blocks
    ]
    workers = min(workers, len(tasks))  # a pool starts all its workers at once
    if workers <= 1:
        results = map(_run_block, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = iter(list(pool.map(_run_block, tasks, chunksize=1)))
    return [list(chain.from_iterable(islice(results, len(blocks)))) for _ in cells]


def _coverage_outcome(cfg: CoverageConfig, cell, seed) -> tuple[bool, float] | None:
    """One replication: simulate, infer and check whether the interval covers
    the true volatility.  Returns that and the interval's width, or None if
    the inference is degenerate.  ``cell`` holds the jump law and the sample
    size."""
    jumps, n = cell
    path = simulate_path(cfg.diffusion, jumps, n, seed=seed)
    try:
        inf = infer_increments(path.increments, path.horizon, cfg.threshold, cfg.prior)
    except DegenerateInferenceError:
        return None
    interval = credible_interval(inf.modified, cfg.level)
    return interval.contains(cfg.diffusion.theta_star), interval.width


def run_coverage(config: CoverageConfig, workers: int = 1) -> list[CoverageRow]:
    """Run every grid cell and aggregate one row per cell.

    ``workers`` only controls parallel execution of fixed-size replication
    blocks; the output is identical for any worker count.
    """
    cells = config.cells()
    stat = partial(_coverage_outcome, config)
    jumps = [(JumpSpec.two_point(lam, tau), n) for lam, tau, n in cells]
    results = replicate(stat, jumps, config.reps, config.base_seed, workers)
    rows = []
    for (lam, tau, n), outcomes in zip(cells, results):
        degenerate = outcomes.count(None)
        effective = config.reps - degenerate
        covered = sum(1 for outcome in outcomes if outcome and outcome[0])
        width_sum = 0.0  # per block, then across blocks: this order fixes mean_width's bits
        for start in range(0, config.reps, _BLOCK):
            block_width = 0.0
            for outcome in outcomes[start : start + _BLOCK]:
                block_width += outcome[1] if outcome else 0.0
            width_sum += block_width
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
    own = isinstance(file, (str, Path))
    handle = open(file, "w", newline="") if own else file
    try:
        handle.write(COVERAGE_CSV_HEADER + "\n")
        for row in rows:
            handle.write(
                f"{row.lam!r},{row.tau!r},{row.n},{row.reps},{row.coverage!r},"
                f"{row.mean_width!r},{row.mc_stderr!r},{row.degenerate_count}\n"
            )
    finally:
        if own:
            handle.close()
