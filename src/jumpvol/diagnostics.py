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

__all__ = [
    "BvmRow",
    "MseOracleResult",
    "QvRateResult",
    "TruthSummary",
    "bvm_convergence_check",
    "mse_oracle",
    "qv_error_rate",
    "sandwich_variance",
    "tv_distance",
]

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, NumericError
from .harness import CoverageConfig, replicate
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
_TV_LADDER = np.array([
    1e-14, 1e-10, 1e-6, 1e-4, 1e-3, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
    0.95, 0.98, 0.99, 0.999, 1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-14,
])
_TV_LADDER.flags.writeable = False

#: Gauss–Legendre nodes and weights on [-1, 1], applied on every panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

#: Smallest sd, relative to its mean, of a normal limit handed to the TV
#: quadrature: the float spacing at the mean is then at most sqrt(eps) of an
#: sd.  The mass check first fails near 1e-12, where the nodes round onto a
#: few floats.
_LIMIT_RESOLUTION = math.sqrt(np.finfo(float).eps)


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
        try:
            float(self.theta_dagger) ** 2
        except OverflowError:
            raise ConfigurationError(
                f"theta_dagger is {self.theta_dagger}, whose square overflows"
            ) from None

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


def _resolved(value: float, what: str, truth: TruthSummary) -> float:
    """``value``, a leading variance, if float64 holds it as a positive
    finite number; otherwise the error naming the volatility at fault."""
    if not math.isfinite(value):
        raise ConfigurationError(
            f"{what} overflows at theta_star = {truth.theta_star!r} "
            f"(theta_dagger = {truth.theta_dagger!r})"
        )
    if not value > 0.0:
        raise ConfigurationError(f"{what} underflows to 0 at theta_star = {truth.theta_star!r}")
    return value


def _limit(mean: float, variance: float, what: str, truth: TruthSummary) -> NormalApprox:
    """The normal limit ``N(mean, variance)`` if float64 resolves it: its
    variance (see :func:`_resolved`) and its sd at its mean; otherwise the
    error naming the volatility at fault."""
    limit = NormalApprox(mean, _resolved(variance, what, truth))
    if limit.sd < _LIMIT_RESOLUTION * abs(mean):
        raise ConfigurationError(
            f"{what} gives an sd of {limit.sd!r}, which float64 cannot resolve at the "
            f"mean {mean!r}, at theta_star = {truth.theta_star!r}"
        )
    return limit


def _scaled(values: np.ndarray) -> tuple[np.ndarray, float]:
    """``values / 2**k`` and ``2**k``, with ``2**k`` near their largest
    magnitude, so that no square or sum of the scaled values overflows.
    Scaling by a power of two is exact."""
    scale = 2.0 ** math.frexp(float(np.max(np.abs(values))))[1]
    return values / scale, scale


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of ``values`` and its standard error, both taken of
    the :func:`_scaled` values and scaled back."""
    scaled, scale = _scaled(values)
    return (
        float(scaled.mean()) * scale,
        float(scaled.std(ddof=1) / math.sqrt(values.size)) * scale,
    )


# ---------------------------------------------------------------------------
# Total variation distance
# ---------------------------------------------------------------------------

def _support_and_knots(dist):
    knots = dist.ppf(_TV_LADDER)
    lo, hi = float(knots[0]), float(knots[-1])
    grid = np.linspace(lo, hi, 1025)
    peak = float(np.max(dist.pdf(grid)))
    if not peak > 0:
        raise ConfigurationError("density has no visible mass on its own quantile range")
    return lo, hi, peak, knots


def _gauss_legendre(left: np.ndarray, right: np.ndarray):
    """Nodes and weights of the Gauss–Legendre rule on every panel
    ``[left[k], right[k]]``, concatenated panel by panel."""
    half = 0.5 * (right - left)[:, None]
    mid = 0.5 * (left + right)[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def tv_distance(density_a, density_b) -> float:
    """Total variation distance ``(1/2) \\int |f - g|`` by a fixed-node rule.

    Both arguments must expose ``pdf`` and ``ppf`` that take a float or an
    array.  The integral runs over the union of the effective supports,
    truncating tails where both densities are below 1e-12 of their peaks.
    Panel breakpoints are the ends of that range and each density's
    quantiles at the levels of ``_TV_LADDER``, all asked for in one ``ppf``
    call; every panel gets a 16-point Gauss–Legendre rule, and both
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

    edges = np.unique(np.clip(np.concatenate(([lo, hi], knots_a, knots_b)), lo, hi))
    # the coarse panels, then each of them split at its midpoint
    halves = np.empty(2 * edges.size - 1)
    halves[::2] = edges
    halves[1::2] = 0.5 * (edges[:-1] + edges[1:])
    x, w = _gauss_legendre(
        np.concatenate((edges[:-1], halves[:-1])), np.concatenate((edges[1:], halves[1:]))
    )
    f = density_a.pdf(x)
    g = density_b.pdf(x)
    values = np.stack([f, g, np.abs(f - g)])
    split = _GL_NODES.size * (edges.size - 1)
    coarse = values[:, :split] @ w[:split]
    fine = values[:, split:] @ w[split:]
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
    limit_tempered = _limit(
        inf.theta_hat,
        2.0 * truth.kappa_dagger * truth.theta_dagger**2 / n,
        "the tempered limit variance 2 kappa_dagger theta_dagger^2 / n",
        truth,
    )
    limit_modified = _limit(
        inf.theta_hat - inf.modified.shift,
        2.0 * truth.theta_star**2 / n,
        "the limit variance 2 theta_star^2 / n",
        truth,
    )
    return tv_distance(inf.posterior, limit_tempered), tv_distance(inf.modified, limit_modified)


def bvm_convergence_check(
    diff: DiffusionSpec,
    jumps: JumpSpec,
    n_grid,
    reps: int,
    seed: int,
    prior: InverseGammaParams = CoverageConfig.prior,
    threshold: ThresholdRule = CoverageConfig.threshold,
) -> list[BvmRow]:
    """Mean TV distance to the normal limits along an increasing n grid."""
    grid = [int(n) for n in n_grid]
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError("n_grid must be strictly increasing with >= 2 entries")
    if reps < 100:
        raise ConfigurationError(f"need at least 100 replications, got {reps}")
    stat = partial(_bvm_distances, diff, jumps, prior, threshold)
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
    return _resolved(
        (2.0 * truth.theta_dagger**2 / n) * (1.0 - ratio**2),
        "the sandwich variance",
        truth,
    )


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
    product_form = _resolved(
        2.0 * diff.theta_star * truth.theta_dagger / n, "the product form", truth
    )
    sandwich = sandwich_variance(truth, n)
    (estimates,) = replicate(partial(_mle_given_jumps, diff, fixed_jumps), [n], reps, seed)
    estimates = np.array(estimates)
    mse, mse_stderr = _mean_and_stderr((estimates - truth.theta_dagger) ** 2)
    squares = (estimates - estimates.mean()) ** 2
    _, variance_stderr = _mean_and_stderr(squares)
    scaled, scale = _scaled(squares)  # so the sum in estimates.var(ddof=1) cannot overflow
    return MseOracleResult(
        n=int(n),
        reps=int(reps),
        theta_dagger=float(truth.theta_dagger),
        empirical_mse=mse,
        empirical_mse_stderr=mse_stderr,
        empirical_variance=float(scaled.sum() / (reps - 1)) * scale,
        empirical_variance_stderr=variance_stderr,
        product_form=product_form,
        sandwich=sandwich,
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
    threshold: ThresholdRule = CoverageConfig.threshold,
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
    results = replicate(partial(_qv_error, diff, jumps, threshold), grid, reps, seed)
    mae, stderr = zip(*(_mean_and_stderr(np.array(errors)) for errors in results))
    if min(mae) <= 0.0:
        slope = math.nan
    else:
        slope = float(np.polyfit(np.log(grid), np.log(mae), 1)[0])
    return QvRateResult(n_grid=tuple(grid), mae=mae, mae_stderr=stderr, slope=slope)
