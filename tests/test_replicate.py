"""The shared replication loop, and the four Monte Carlo experiments on it
pinned bit for bit to plain per-replication loops written out here."""

import io
import math

import numpy as np
import pytest

from jumpvol import (
    BvmRow,
    ConfigurationError,
    CoverageConfig,
    CoverageRow,
    DegenerateInferenceError,
    DiffusionSpec,
    InverseGammaParams,
    JumpRealization,
    JumpSpec,
    MseOracleResult,
    NormalApprox,
    QvRateResult,
    ThresholdRule,
    TruthSummary,
    bvm_convergence_check,
    compute_mle,
    credible_interval,
    derive_seed,
    estimate_jump_qv,
    infer_increments,
    mse_oracle,
    qv_error_rate,
    run_coverage,
    sandwich_variance,
    simulate_path,
    simulate_path_given_jumps,
    tv_distance,
    write_coverage_csv,
)
from jumpvol import harness
from jumpvol.harness import replicate

DIFF = DiffusionSpec(beta=1.0, theta_star=10.0, horizon=1.0)
JUMPS = JumpSpec.two_point(5.0, 3.0)
PRIOR = InverseGammaParams(1.0, 1.0)
IQR = ThresholdRule.iqr()


def _seed_of(cell, seed):
    return cell, seed


def test_replicate_passes_each_rep_its_derived_seed_in_rep_order():
    # 300 reps cross the edge of the first 256-rep block
    results = replicate(_seed_of, ["a", "b"], 300, 5)
    assert results == [
        [(cell, derive_seed(5, index, rep)) for rep in range(300)]
        for index, cell in enumerate(["a", "b"])
    ]


def test_replicate_rejects_fewer_than_one_worker():
    with pytest.raises(ConfigurationError):
        replicate(_seed_of, ["a"], 3, 0, workers=0)


def test_replicate_caps_the_pool_at_the_task_count(monkeypatch):
    # a pool starts all of its workers at once, so a huge worker count must
    # not reach it; this stand-in records the count and maps in-process
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    results = replicate(_seed_of, ["a", "b"], 3, 5, workers=10**6)
    assert sizes == [2]
    assert results == replicate(_seed_of, ["a", "b"], 3, 5)


# ---------------------------------------------------------------------------
# Reference loops: each experiment as one plain loop over replications
# ---------------------------------------------------------------------------

def _coverage_reference(config):
    rows = []
    for cell, (lam, tau, n) in enumerate(config.cells()):
        jumps = JumpSpec.two_point(lam, tau)
        covered = degenerate = 0
        width_sum = 0.0
        for start in range(0, config.reps, 256):
            block_width = 0.0
            for rep in range(start, min(start + 256, config.reps)):
                seed = derive_seed(config.base_seed, cell, rep)
                path = simulate_path(config.diffusion, jumps, n, seed=seed)
                try:
                    inf = infer_increments(
                        path.increments, path.horizon, config.threshold, config.prior
                    )
                except DegenerateInferenceError:
                    degenerate += 1
                    continue
                interval = credible_interval(inf.modified, config.level)
                covered += int(interval.contains(config.diffusion.theta_star))
                block_width += interval.width
            width_sum += block_width
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


def _bvm_reference(n_grid, reps, seed):
    rows = []
    for cell, n in enumerate(n_grid):
        tv_t = np.empty(reps)
        tv_m = np.empty(reps)
        for rep in range(reps):
            path = simulate_path(DIFF, JUMPS, n, seed=derive_seed(seed, cell, rep))
            truth = TruthSummary.from_path(DIFF, path)
            inf = infer_increments(path.increments, path.horizon, IQR, PRIOR)
            limit_tempered = NormalApprox(
                mean=inf.theta_hat, variance=2.0 * truth.kappa_dagger * truth.theta_dagger**2 / n
            )
            limit_modified = NormalApprox(
                mean=inf.theta_hat - inf.modified.shift, variance=2.0 * truth.theta_star**2 / n
            )
            tv_t[rep] = tv_distance(inf.posterior, limit_tempered)
            tv_m[rep] = tv_distance(inf.modified, limit_modified)
        rows.append(BvmRow(
            n=n,
            reps=reps,
            tv_tempered=float(tv_t.mean()),
            tv_tempered_stderr=float(tv_t.std(ddof=1) / math.sqrt(reps)),
            tv_modified=float(tv_m.mean()),
            tv_modified_stderr=float(tv_m.std(ddof=1) / math.sqrt(reps)),
        ))
    return rows


def _qvrate_reference(n_grid, reps, seed):
    mae = []
    stderr = []
    for cell, n in enumerate(n_grid):
        errors = np.empty(reps)
        for rep in range(reps):
            path = simulate_path(DIFF, JUMPS, n, seed=derive_seed(seed, cell, rep))
            estimate = estimate_jump_qv(path.increments, IQR.resolve(path.increments))
            errors[rep] = abs(estimate.jump_qv_hat - path.truth.jump_qv)
        mae.append(float(errors.mean()))
        stderr.append(float(errors.std(ddof=1) / math.sqrt(reps)))
    slope = float(np.polyfit(np.log(n_grid), np.log(mae), 1)[0])
    return QvRateResult(tuple(n_grid), tuple(mae), tuple(stderr), slope)


def _mse_reference(fixed, n, reps, seed):
    estimates = np.empty(reps)
    for rep in range(reps):
        path = simulate_path_given_jumps(DIFF, fixed, n, seed=derive_seed(seed, 0, rep))
        if rep == 0:
            theta_dagger = DIFF.theta_star + path.truth.jump_qv / path.horizon
            truth = TruthSummary.from_path(DIFF, path)
        estimates[rep] = compute_mle(path)
    sq = (estimates - theta_dagger) ** 2
    centered = (estimates - estimates.mean()) ** 2
    return MseOracleResult(
        n=n,
        reps=reps,
        theta_dagger=float(theta_dagger),
        empirical_mse=float(sq.mean()),
        empirical_mse_stderr=float(sq.std(ddof=1) / math.sqrt(reps)),
        empirical_variance=float(estimates.var(ddof=1)),
        empirical_variance_stderr=float(centered.std(ddof=1) / math.sqrt(reps)),
        product_form=2.0 * DIFF.theta_star * theta_dagger / n,
        sandwich=sandwich_variance(truth, n),
    )


def _csv(rows) -> str:
    buf = io.StringIO()
    write_coverage_csv(buf, rows)
    return buf.getvalue()


@pytest.mark.parametrize(
    "lambda_grid, tau_grid, threshold",
    [
        ((4.0, 16.0), (2.0,), IQR),
        # about one replication in seven is degenerate here
        ((8.0,), (2.0,), ThresholdRule.fixed(0.04)),
    ],
)
def test_coverage_matches_plain_loop(lambda_grid, tau_grid, threshold):
    config = CoverageConfig(
        diffusion=DIFF,
        lambda_grid=lambda_grid,
        tau_grid=tau_grid,
        n_grid=(500,),
        reps=300,
        threshold=threshold,
        base_seed=3,
    )
    expected = _csv(_coverage_reference(config))
    assert _csv(run_coverage(config, workers=1)) == expected
    assert _csv(run_coverage(config, workers=2)) == expected


def test_bvm_matches_plain_loop():
    rows = bvm_convergence_check(DIFF, JUMPS, (200, 400), 100, 7, prior=PRIOR, threshold=IQR)
    assert rows == _bvm_reference((200, 400), 100, 7)


def test_qvrate_matches_plain_loop():
    result = qv_error_rate(DIFF, JUMPS, (100, 300, 1000), 200, 8, threshold=IQR)
    assert result == _qvrate_reference((100, 300, 1000), 200, 8)


def test_mse_matches_plain_loop():
    fixed = JumpRealization(times=np.array([0.25, 0.5]), sizes=np.array([3.0, -2.0]))
    assert mse_oracle(DIFF, fixed, 200, 1000, 9) == _mse_reference(fixed, 200, 1000, 9)
