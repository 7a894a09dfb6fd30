"""Numeric verification of the method's large-sample claims.

Provides a total variation distance by a fixed-node rule (16-point
Gauss–Legendre panels between quantiles of both densities, checked against
the same rule on halved panels to 1e-4), Monte Carlo checks that the
(corrected and uncorrected) posteriors approach their normal limits, the
sandwich formula for the conditional variance of the jump-blind volatility
estimator, a conditional Monte Carlo oracle for its mean squared error around
the biased target it actually estimates, and the jump QV estimator's error rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, NumericError
from .harness import replicate
from .posterior import InverseGammaParams, NormalApprox, compute_mle, infer_increments
from .simulate import (
    DiffusionSpec,
    JumpRealization,
    JumpSpec,
    PathTruth,
    SamplePath,
    bin_jumps,
    simulate_path,
    simulate_path_given_jumps,
)
from .threshold import ThresholdRule, estimate_jump_qv

#: Tails are truncated where both densities fall below this fraction of
#: their peaks.
_TAIL_FRACTION = 1e-12

#: Required absolute accuracy of the TV quadrature.
_TV_ACCURACY = 1e-4

#: Probability levels whose quantiles in each density, with the ends of the
#: truncated support, break the TV integral into panels.  The first and last
#: levels give each density's own support.
_TV_LADDER = (
    1e-14, 1e-10, 1e-6, 1e-4, 1e-3, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
    0.95, 0.98, 0.99, 0.999, 1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-14,
)

#: Gauss–Legendre nodes and weights on [-1, 1], applied on every panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class TruthSummary:
    """Hidden quantities the asymptotics are phrased in.

    ``theta_dagger = theta_star + jump_qv / horizon`` is the point the
    uncorrected posterior concentrates on, and ``kappa_dagger =
    (theta_star / theta_dagger)^2`` is the temperature that restores the
    efficient spread.
    """

    theta_star: float
    jump_qv: float
    horizon: float

    def __post_init__(self):
        if not (np.isfinite(self.theta_star) and self.theta_star > 0):
            raise ConfigurationError(f"theta_star must be positive, got {self.theta_star}")
        if not (np.isfinite(self.jump_qv) and self.jump_qv >= 0):
            raise ConfigurationError(f"jump_qv must be nonnegative, got {self.jump_qv}")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if not np.isfinite(self.theta_dagger):
            raise ConfigurationError(
                f"jump_qv / horizon overflows: {self.jump_qv} / {self.horizon}"
            )

    @property
    def theta_dagger(self) -> float:
        return self.theta_star + self.jump_qv / self.horizon

    @property
    def kappa_dagger(self) -> float:
        return (self.theta_star / self.theta_dagger) ** 2

    @classmethod
    def from_path(cls, diff: DiffusionSpec, path: SamplePath) -> "TruthSummary":
        if path.truth is None:
            raise ConfigurationError("path carries no truth fields")
        return cls(theta_star=diff.theta_star, jump_qv=path.truth.jump_qv, horizon=path.horizon)


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of ``values`` and its standard error."""
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


# ---------------------------------------------------------------------------
# Total variation distance
# ---------------------------------------------------------------------------

def _support_and_knots(dist):
    knots = [dist.ppf(p) for p in _TV_LADDER]
    lo, hi = knots[0], knots[-1]
    grid = np.linspace(lo, hi, 1025)
    peak = float(np.max(dist.pdf(grid)))
    if not peak > 0:
        raise ConfigurationError("density has no visible mass on its own quantile range")
    return lo, hi, peak, knots


def _gauss_legendre(edges: np.ndarray):
    """Nodes and weights of the Gauss–Legendre rule on every panel
    ``[edges[k], edges[k + 1]]``, concatenated panel by panel."""
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def tv_distance(density_a, density_b) -> float:
    """Total variation distance ``(1/2) \\int |f - g|`` by a fixed-node rule.

    Both arguments must expose vectorized ``pdf`` and scalar ``ppf``.  The
    integral runs over the union of the effective supports, truncating tails
    where both densities are below 1e-12 of their peaks.  Panel breakpoints
    are the ends of that range and each density's quantiles at the levels of
    ``_TV_LADDER``; every panel gets a 16-point Gauss–Legendre rule, and both
    densities are evaluated once, on all nodes.  The same rule on the panels
    split in half gives the returned value; if the two rules disagree on
    either mass or on the TV by more than 1e-4, a :class:`NumericError` is
    raised, so the absolute accuracy is 1e-4.  Inputs must each integrate to
    1 within 1e-6 over that range, otherwise a ``ValueError`` is raised.
    """
    lo_a, hi_a, peak_a, knots_a = _support_and_knots(density_a)
    lo_b, hi_b, peak_b, knots_b = _support_and_knots(density_b)
    lo = min(lo_a, lo_b)
    hi = max(hi_a, hi_b)

    def tails_dead(x: float) -> bool:
        return (
            float(density_a.pdf(x)) < _TAIL_FRACTION * peak_a
            and float(density_b.pdf(x)) < _TAIL_FRACTION * peak_b
        )

    span = hi - lo
    for _ in range(60):
        if tails_dead(lo):
            break
        lo -= 0.25 * span
        span = hi - lo
    else:
        raise NumericError("could not truncate the left tail below threshold")
    for _ in range(60):
        if tails_dead(hi):
            break
        hi += 0.25 * span
        span = hi - lo
    else:
        raise NumericError("could not truncate the right tail below threshold")

    edges = np.unique(np.clip([lo, hi] + knots_a + knots_b, lo, hi))
    halves = np.insert(edges, np.arange(1, edges.size), 0.5 * (edges[:-1] + edges[1:]))
    x_coarse, w_coarse = _gauss_legendre(edges)
    x_fine, w_fine = _gauss_legendre(halves)
    x = np.concatenate([x_coarse, x_fine])
    f = density_a.pdf(x)
    g = density_b.pdf(x)
    values = np.stack([f, g, np.abs(f - g)])
    coarse = values[:, : x_coarse.size] @ w_coarse
    fine = values[:, x_coarse.size :] @ w_fine
    error = float(np.max(np.abs(coarse - fine)))
    if error > _TV_ACCURACY:
        raise NumericError(f"quadrature error {error:.2e} exceeds {_TV_ACCURACY:.0e}")

    mass_a, mass_b, l1 = (float(v) for v in fine)
    if abs(mass_a - 1.0) > 1e-6:
        raise ValueError(f"first density integrates to {mass_a}, not 1")
    if abs(mass_b - 1.0) > 1e-6:
        raise ValueError(f"second density integrates to {mass_b}, not 1")
    return min(max(0.5 * l1, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Normal-limit convergence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BvmRow:
    """Mean TV distances to the normal limits at one sample size.

    ``tv_tempered`` pairs the uncorrected tempered posterior with
    ``N(theta_hat, 2 kappa_dagger theta_dagger^2 / n)``; ``tv_modified``
    pairs the shifted posterior with ``N(theta_hat - jump_qv_hat / T,
    2 theta_star^2 / n)``.  Truth enters only through the normal parameters.
    """

    n: int
    reps: int
    tv_tempered: float
    tv_tempered_stderr: float
    tv_modified: float
    tv_modified_stderr: float


def _bvm_distances(diff, jumps, prior, rule, n, seed) -> tuple[float, float]:
    """TV distances of the tempered and shifted posteriors to their limits."""
    path = simulate_path(diff, jumps, n, seed=seed)
    truth = TruthSummary.from_path(diff, path)
    inf = infer_increments(path.increments, path.horizon, rule, prior)
    limit_tempered = NormalApprox(
        mean=inf.theta_hat,
        variance=2.0 * truth.kappa_dagger * truth.theta_dagger**2 / n,
    )
    limit_modified = NormalApprox(
        mean=inf.theta_hat - inf.modified.shift,
        variance=2.0 * truth.theta_star**2 / n,
    )
    return tv_distance(inf.posterior, limit_tempered), tv_distance(inf.modified, limit_modified)


def bvm_convergence_check(
    diff: DiffusionSpec,
    jumps: JumpSpec,
    n_grid,
    reps: int,
    seed: int,
    prior: InverseGammaParams | None = None,
    threshold: ThresholdRule | None = None,
) -> list[BvmRow]:
    """Mean TV distance to the normal limits along an increasing n grid."""
    grid = [int(n) for n in n_grid]
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError("n_grid must be strictly increasing with >= 2 entries")
    if reps < 100:
        raise ConfigurationError(f"need at least 100 replications, got {reps}")
    prior = prior if prior is not None else InverseGammaParams(1.0, 1.0)
    rule = threshold if threshold is not None else ThresholdRule.iqr()
    stat = partial(_bvm_distances, diff, jumps, prior, rule)
    rows = []
    for n, distances in zip(grid, replicate(stat, grid, reps, seed)):
        tempered, modified = (_mean_and_stderr(np.array(tv)) for tv in zip(*distances))
        rows.append(BvmRow(n, reps, *tempered, *modified))
    return rows


# ---------------------------------------------------------------------------
# Conditional variance and MSE of the jump-blind estimator
# ---------------------------------------------------------------------------

def sandwich_variance(truth: TruthSummary, n: int) -> float:
    """Leading term of the conditional variance of ``theta_hat``:
    ``(2 theta_dagger^2 / n) * (1 - (jump_qv / (T theta_dagger))^2)``.

    With no jumps this is the efficiency benchmark ``2 theta_star^2 / n``.
    """
    if n < 1:
        raise ConfigurationError(f"need n >= 1, got {n}")
    ratio = truth.jump_qv / (truth.horizon * truth.theta_dagger)
    return (2.0 * truth.theta_dagger**2 / n) * (1.0 - ratio**2)


@dataclass(frozen=True)
class MseOracleResult:
    """Conditional Monte Carlo for ``theta_hat`` against one fixed jump path.

    ``empirical_mse`` targets ``E (theta_hat - theta_dagger)^2``;
    ``empirical_variance`` is the plain sample variance.  Two closed-form
    candidates for the leading O(1/n) term are reported with their relative
    discrepancies: ``product_form = 2 theta_star theta_dagger / n`` and the
    sandwich value.  The numbers adjudicate; no winner is assumed.
    """

    n: int
    reps: int
    theta_dagger: float
    empirical_mse: float
    empirical_mse_stderr: float
    empirical_variance: float
    empirical_variance_stderr: float
    product_form: float
    sandwich: float

    @property
    def product_form_discrepancy(self) -> float:
        """Relative discrepancy of the empirical MSE from the product form."""
        return abs(self.empirical_mse - self.product_form) / self.product_form

    @property
    def sandwich_discrepancy(self) -> float:
        """Relative discrepancy of the empirical MSE from the sandwich value."""
        return abs(self.empirical_mse - self.sandwich) / self.sandwich


def _mle_given_jumps(diff, fixed_jumps, n, seed) -> float:
    return compute_mle(simulate_path_given_jumps(diff, fixed_jumps, n, seed=seed))


def mse_oracle(
    diff: DiffusionSpec,
    fixed_jumps: JumpRealization,
    n: int,
    reps: int,
    seed: int,
) -> MseOracleResult:
    """Redraw the diffusion part ``reps`` times against one frozen jump path
    and measure how ``theta_hat`` scatters around ``theta_dagger``."""
    if reps < 1000:
        raise ConfigurationError(f"need at least 1000 replications, got {reps}")
    jump_truth = PathTruth(bin_jumps(fixed_jumps, n, diff.horizon)[0])
    horizon = n * (diff.horizon / n)
    truth = TruthSummary(diff.theta_star, jump_truth.jump_qv, horizon)
    (estimates,) = replicate(partial(_mle_given_jumps, diff, fixed_jumps), [n], reps, seed)
    estimates = np.array(estimates)
    mse, mse_stderr = _mean_and_stderr((estimates - truth.theta_dagger) ** 2)
    _, variance_stderr = _mean_and_stderr((estimates - estimates.mean()) ** 2)
    return MseOracleResult(
        n=int(n),
        reps=int(reps),
        theta_dagger=float(truth.theta_dagger),
        empirical_mse=mse,
        empirical_mse_stderr=mse_stderr,
        empirical_variance=float(estimates.var(ddof=1)),
        empirical_variance_stderr=variance_stderr,
        product_form=2.0 * diff.theta_star * truth.theta_dagger / n,
        sandwich=sandwich_variance(truth, n),
    )


# ---------------------------------------------------------------------------
# Error rate of the jump QV estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QvRateResult:
    """Mean absolute estimation error by sample size, with the fitted slope
    of log MAE against log n."""

    n_grid: tuple[int, ...]
    mae: tuple[float, ...]
    mae_stderr: tuple[float, ...]
    slope: float


def _qv_error(diff, jumps, rule, n, seed) -> float:
    """Absolute error of the thresholded jump QV estimate on one path."""
    path = simulate_path(diff, jumps, n, seed=seed)
    estimate = estimate_jump_qv(path.increments, rule.resolve(path.increments))
    return abs(estimate.jump_qv_hat - path.truth.jump_qv)


def qv_error_rate(
    diff: DiffusionSpec,
    jumps: JumpSpec,
    n_grid,
    reps: int,
    seed: int,
    threshold: ThresholdRule | None = None,
) -> QvRateResult:
    """Monte Carlo error-rate regression for the thresholded estimator.

    For each sample size the mean absolute error ``E|hat - true|`` against
    the simulator's truth is estimated over ``reps`` replications, and the
    least-squares slope of log MAE on log n is returned.  If any MAE is zero
    (e.g. no jumps at all) the slope is NaN.
    """
    grid = sorted({int(n) for n in n_grid})
    if len(grid) < 3:
        raise ConfigurationError("n_grid needs at least 3 distinct sample sizes")
    if grid[-1] < 10 * grid[0]:
        raise ConfigurationError("n_grid must span at least one decade")
    if reps < 200:
        raise ConfigurationError(f"need at least 200 replications, got {reps}")
    rule = threshold if threshold is not None else ThresholdRule.iqr()
    results = replicate(partial(_qv_error, diff, jumps, rule), grid, reps, seed)
    mae, stderr = zip(*(_mean_and_stderr(np.array(errors)) for errors in results))
    if min(mae) <= 0.0:
        slope = math.nan
    else:
        slope = float(np.polyfit(np.log(grid), np.log(mae), 1)[0])
    return QvRateResult(n_grid=tuple(grid), mae=mae, mae_stderr=stderr, slope=slope)
