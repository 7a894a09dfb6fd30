"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line with the measured values (run pytest
with ``-s`` to see the lines as they happen; they are also shown for any
failing test).  Tolerances are fixed here, not calibrated after the fact.
"""

import io
import math

import numpy as np
from scipy.integrate import quad

from jumpvol import (
    CoverageConfig,
    DiffusionSpec,
    InverseGammaParams,
    JumpSpec,
    NormalApprox,
    SamplePath,
    ThresholdRule,
    bvm_convergence_check,
    compute_mle,
    derive_seed,
    gibbs_update,
    infer_increments,
    mse_oracle,
    run_coverage,
    simulate_jumps,
    simulate_path,
    tv_distance,
    write_coverage_csv,
)

DIFF = DiffusionSpec(beta=1.0, theta_star=10.0, horizon=1.0)
JUMPS = JumpSpec.two_point(5.0, 3.0)
PRIOR = InverseGammaParams(1.0, 1.0)
IQR5 = ThresholdRule.iqr(5.0)


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_coverage_calibration():
    # (lambda, tau) in {4,8}x{2,4}, n=5000, 1000 reps: coverage in [0.93, 0.97]
    config = CoverageConfig(
        diffusion=DIFF,
        lambda_grid=(4.0, 8.0),
        tau_grid=(2.0, 4.0),
        n_grid=(5000,),
        reps=1000,
        level=0.95,
        threshold=IQR5,
        prior=PRIOR,
        base_seed=20260809,
    )
    rows = run_coverage(config, workers=2)
    detail = "; ".join(
        f"(lam={r.lam:g}, tau={r.tau:g}): {r.coverage:.3f}±{r.mc_stderr:.3f}" for r in rows
    )
    ok = all(0.93 <= r.coverage <= 0.97 for r in rows) and all(
        r.degenerate_count == 0 for r in rows
    )
    assert _report("1 coverage calibration", ok, detail)


def test_criterion_2_efficiency():
    # lambda=0, n=5000, 2000 reps: variance of the shifted center and the
    # mean posterior variance both within 15% of 2 theta*^2 / n
    n, reps = 5000, 2000
    nojumps = JumpSpec.two_point(0.0, 3.0)
    centers = np.empty(reps)
    posterior_vars = np.empty(reps)
    for rep in range(reps):
        path = simulate_path(DIFF, nojumps, n, seed=derive_seed(5150, 0, rep))
        inf = infer_increments(path.increments, path.horizon, IQR5, PRIOR)
        centers[rep] = inf.theta_hat - inf.qv.jump_qv_hat / path.horizon
        posterior_vars[rep] = inf.modified.variance
    target = 2.0 * DIFF.theta_star**2 / n
    center_var = centers.var(ddof=1)
    mean_post_var = posterior_vars.mean()
    ok_center = abs(center_var - target) / target <= 0.15
    ok_post = abs(mean_post_var - target) / target <= 0.15
    detail = (
        f"target={target:.5f}, center var={center_var:.5f} "
        f"(rel {abs(center_var - target) / target:.3f}), mean posterior var="
        f"{mean_post_var:.5f} (rel {abs(mean_post_var - target) / target:.3f})"
    )
    assert _report("2 efficiency", ok_center and ok_post, detail)


def test_criterion_3_bvm_convergence():
    # mean TV to the normal limit strictly decreasing over n in
    # {1000, 4000, 16000} and < 0.05 at n=16000
    rows = bvm_convergence_check(
        DIFF, JUMPS, (1000, 4000, 16000), reps=150, seed=13, prior=PRIOR, threshold=IQR5
    )
    tv = [r.tv_modified for r in rows]
    tv_uncorrected = [r.tv_tempered for r in rows]
    decreasing = all(b < a for a, b in zip(tv, tv[1:])) and all(
        b < a for a, b in zip(tv_uncorrected, tv_uncorrected[1:])
    )
    terminal = tv[-1] < 0.05
    detail = ", ".join(f"n={r.n}: TV={r.tv_modified:.4f}±{r.tv_modified_stderr:.4f}" for r in rows)
    assert _report("3 normal-limit convergence", decreasing and terminal, detail)


def _posterior_moments_by_quadrature(a, b, n, theta_hat, kappa):
    def logkern(t):
        like = (-n / (2.0 * kappa)) * math.log(t) - n * theta_hat / (2.0 * kappa * t)
        return like + (-a - 1.0) * math.log(t) - b / t

    mode = (n * theta_hat / (2.0 * kappa) + b) / (n / (2.0 * kappa) + a + 1.0)
    scale = logkern(mode)

    def kern(t, k=0):
        return (t**k) * math.exp(logkern(t) - scale)

    lo = hi = mode
    while kern(hi) > 1e-18:
        hi *= 2.0
    while kern(lo) > 1e-18:
        lo *= 0.5
    moments = [
        quad(lambda t, k=k: kern(t, k), lo, hi, limit=300, epsabs=1e-13, epsrel=1e-13)[0]
        for k in (0, 1, 2)
    ]
    mean = moments[1] / moments[0]
    return mean, moments[2] / moments[0] - mean * mean


def test_criterion_4_conjugacy_oracle():
    # 100 randomized (a, b, kappa, data): closed-form mean and variance match
    # adaptive quadrature within 1e-6 relative
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.5, 5.0)
        b = rng.uniform(0.5, 5.0)
        kappa = rng.uniform(0.1, 1.5)
        n = int(rng.integers(5, 40))
        horizon = rng.uniform(0.5, 2.0)
        increments = rng.normal(0.0, math.sqrt(rng.uniform(0.5, 4.0)), n)
        path = SamplePath(n=n, delta=horizon / n, increments=increments)
        post = gibbs_update(InverseGammaParams(a, b), path, kappa)
        mean_q, var_q = _posterior_moments_by_quadrature(a, b, n, compute_mle(path), kappa)
        worst = max(
            worst,
            abs(post.mean - mean_q) / abs(mean_q),
            abs(post.variance - var_q) / abs(var_q),
        )
    ok = worst <= 1e-6
    assert _report("4 conjugacy oracle", ok, f"worst relative error {worst:.2e} over 100 draws")


def test_criterion_5_qv_estimator_rate():
    # log-log regression of MAE vs n over {1000, 4000, 16000}, 500 reps:
    # slope in [-0.65, -0.35]
    from jumpvol import qv_error_rate

    result = qv_error_rate(DIFF, JUMPS, (1000, 4000, 16000), reps=500, seed=99, threshold=IQR5)
    ok = -0.65 <= result.slope <= -0.35
    detail = (
        f"slope={result.slope:.3f}, MAE="
        + ", ".join(f"{n}:{m:.3f}" for n, m in zip(result.n_grid, result.mae))
    )
    assert _report("5 qv estimator rate", ok, detail)


def test_criterion_6_sandwich_variance_and_mse_report():
    # conditional on one fixed jump realization: empirical variance of
    # theta_hat at n=5000 over 4000 reps within 10% of the sandwich value;
    # the closed-form discrepancy report must be emitted (no pass/fail on
    # which candidate wins)
    fixed = simulate_jumps(JUMPS, DIFF.horizon, seed=314)
    result = mse_oracle(DIFF, fixed, n=5000, reps=4000, seed=41)
    rel = abs(result.empirical_variance - result.sandwich) / result.sandwich
    ok_var = rel <= 0.10
    report_ok = (
        math.isfinite(result.product_form_discrepancy)
        and math.isfinite(result.sandwich_discrepancy)
        and result.product_form > 0.0
    )
    detail = (
        f"empirical var={result.empirical_variance:.4f}, sandwich={result.sandwich:.4f} "
        f"(rel {rel:.3f}); MSE report: empirical={result.empirical_mse:.4f}, "
        f"product-form candidate={result.product_form:.4f} "
        f"(discrepancy {result.product_form_discrepancy:.3f}), sandwich candidate="
        f"{result.sandwich:.4f} (discrepancy {result.sandwich_discrepancy:.3f})"
    )
    assert _report("6 sandwich variance + MSE adjudication", ok_var and report_ok, detail)


def test_criterion_7_identity_suite():
    checks = []

    # kappa = 1 when nothing exceeds the threshold
    path = simulate_path(DIFF, JumpSpec.two_point(0.0, 3.0), 1000, seed=1)
    inf = infer_increments(path.increments, path.horizon, IQR5, PRIOR)
    checks.append(("kappa=1 with no flags", inf.qv.flagged == () and inf.kappa == 1.0))

    # zero shift when nothing is flagged
    checks.append(("zero shift", inf.modified.shift == 0.0))

    # TV(f, f) = 0
    f = NormalApprox(mean=2.0, variance=3.0)
    checks.append(("TV(f,f)=0", tv_distance(f, f) < 1e-10))

    # schedule-independent coverage CSV
    config = CoverageConfig(
        diffusion=DIFF,
        lambda_grid=(4.0, 8.0),
        tau_grid=(2.0,),
        n_grid=(500,),
        reps=80,
        base_seed=17,
    )
    buffers = []
    for workers in (1, 4):
        buf = io.StringIO()
        write_coverage_csv(buf, run_coverage(config, workers=workers))
        buffers.append(buf.getvalue())
    checks.append(("worker-independent CSV", buffers[0] == buffers[1]))

    ok = all(passed for _, passed in checks)
    detail = "; ".join(f"{name}: {'ok' if passed else 'FAILED'}" for name, passed in checks)
    assert _report("7 identity suite", ok, detail)
