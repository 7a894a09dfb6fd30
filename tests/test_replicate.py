"""The shared replication loop, and the four Monte Carlo experiments on it
pinned bit for bit to plain per-replication loops written out here."""

import contextlib
import io
import json
import math
import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from jumpvol import diagnostics, harness, simulate
from jumpvol.cli import main
from jumpvol.harness import _run_block, replicate

DIFF = DiffusionSpec(beta=1.0, theta_star=10.0, horizon=1.0)
JUMPS = JumpSpec.two_point(5.0, 3.0)
PRIOR = InverseGammaParams(1.0, 1.0)
IQR = ThresholdRule.iqr()


def _seeds_of(cell, seeds):
    return [(cell, seed) for seed in seeds]


@pytest.mark.parametrize("block", [1, 7, 256, 1000])
def test_replicate_passes_each_rep_its_derived_seed_in_rep_order(block):
    # 300 reps cross the edge of the first 256-rep block
    results = replicate(_seeds_of, ["a", "b"], 300, 5, block=block)
    assert results == [
        [(cell, derive_seed(5, index, rep)) for rep in range(300)]
        for index, cell in enumerate(["a", "b"])
    ]


def test_replicate_rejects_fewer_than_one_worker():
    with pytest.raises(ConfigurationError):
        replicate(_seeds_of, ["a"], 3, 0, workers=0)


@pytest.fixture
def inline_pool(monkeypatch):
    """The size of each pool asked for: every pool is a stand-in that
    records its size and maps in this process."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, task):
            done = Future()
            done.set_result(fn(task))
            return done

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
    return sizes


def test_replicate_caps_the_pool_at_the_task_count(inline_pool):
    # a pool starts all of its workers at once, so a huge worker count must
    # not reach it
    results = replicate(_seeds_of, ["a", "b"], 3, 5, workers=10**6)
    assert inline_pool == [2]
    assert results == replicate(_seeds_of, ["a", "b"], 3, 5)


@pytest.mark.parametrize("workers", ["2", None, True, 1.5])
def test_a_worker_count_that_is_not_an_integer_is_refused_named(workers):
    # "2" and None once ended in a bare TypeError from the < 1 comparison;
    # True and 1.5 ran one worker
    config = CoverageConfig(
        diffusion=DIFF, lambda_grid=(4.0,), tau_grid=(2.0,), n_grid=(300,), reps=3
    )
    with pytest.raises(ConfigurationError, match=f"^workers {workers!r} is not an integer$"):
        run_coverage(config, workers=workers)


@pytest.mark.parametrize(
    "experiment",
    [
        lambda reps: CoverageConfig(diffusion=DIFF, reps=reps),
        lambda reps: bvm_convergence_check(DIFF, JUMPS, (40, 80), reps, 0),
        lambda reps: mse_oracle(DIFF, JumpRealization(np.array([]), np.array([])), 100, reps, 0),
        lambda reps: qv_error_rate(DIFF, JUMPS, (20, 60, 200), reps, 0),
    ],
    ids=["coverage", "bvm", "mse", "qvrate"],
)
@pytest.mark.parametrize("reps", ["5", None, True], ids=repr)
def test_a_replication_count_that_is_not_an_integer_is_refused_before_its_floor(
    experiment, reps
):
    # each experiment compares reps with its floor before replicate() sees it:
    # "5" and None ended in a bare TypeError there, and True passed as 1
    with pytest.raises(ConfigurationError, match=f"^reps {reps!r} is not an integer$"):
        experiment(reps)


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
    "lambda_grid, tau_grid, threshold, n, reps",
    [
        pytest.param((4.0, 16.0), (2.0,), IQR, 500, 300,
                     id="lambda_grid0-tau_grid0-threshold0"),
        # about one replication in seven is degenerate here
        pytest.param((8.0,), (2.0,), ThresholdRule.fixed(0.04), 500, 300,
                     id="lambda_grid1-tau_grid1-threshold1"),
        # 163 rows per chunk: a chunk edge inside the first 256-rep block,
        # and a block edge at rep 256
        pytest.param((4.0, 16.0), (2.0,), IQR, 200, 300, id="chunk-and-block-edges"),
        # more increments than a chunk holds: one row per chunk
        pytest.param((8.0,), (3.0,), IQR, 40_000, 5, id="one-row-chunks"),
        pytest.param((0.0,), (1.0,), ThresholdRule.fixed(math.inf), 500, 300,
                     id="no-jumps-nothing-flagged"),
        pytest.param((8.0,), (2.0,), ThresholdRule.fixed(0.04), 2000, 300,
                     id="fixed-0.04-at-n-2000"),
    ],
)
def test_coverage_matches_plain_loop(lambda_grid, tau_grid, threshold, n, reps):
    config = CoverageConfig(
        diffusion=DIFF,
        lambda_grid=lambda_grid,
        tau_grid=tau_grid,
        n_grid=(n,),
        reps=reps,
        threshold=threshold,
        base_seed=3,
    )
    expected = _csv(_coverage_reference(config))
    assert _csv(run_coverage(config, workers=1)) == expected
    assert _csv(run_coverage(config, workers=2)) == expected


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    n=st.integers(4, 2500),
    rate=st.sampled_from([0.0, 4.0, 16.0, 64.0]),
    tau=st.floats(0.05, 8.0),
    beta=st.floats(-5.0, 5.0),
    level=st.floats(0.5, 0.999),
    prior=st.sampled_from([PRIOR, InverseGammaParams(2.0, 0.5), InverseGammaParams(0.1, 10.0)]),
    threshold=st.sampled_from(
        [IQR, ThresholdRule.iqr(3.0), ThresholdRule.fixed(0.04), ThresholdRule.fixed(math.inf)]
    ),
    reps=st.integers(1, 300),
    seed=st.integers(0, 2**32),
)
def test_coverage_matches_plain_loop_anywhere(
    n, rate, tau, beta, level, prior, threshold, reps, seed
):
    config = CoverageConfig(
        diffusion=DiffusionSpec(beta=beta, theta_star=10.0, horizon=1.0),
        lambda_grid=(rate,),
        tau_grid=(tau,),
        n_grid=(n,),
        reps=reps,
        level=level,
        threshold=threshold,
        prior=prior,
        base_seed=seed,
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


# ---------------------------------------------------------------------------
# The diagnostics' process pools
# ---------------------------------------------------------------------------

NO_JUMPS = JumpRealization(np.array([]), np.array([]))

#: Each pooled diagnostic: its golden config, and a config long enough to
#: pool two processes at the shipped work a process.
_POOLED = {
    "bvm": ({"n_grid": [200, 400], "reps": 100, "seed": 0},
            {"n_grid": [1000, 4000], "reps": 100, "seed": 1}),
    "mse": ({"n": 200, "reps": 1000, "seed": 0}, {"n": 5000, "reps": 1000, "seed": 1}),
    "qvrate": ({"n_grid": [100, 300, 1000], "reps": 200, "seed": 0},
               {"n_grid": [500, 2000, 8000], "reps": 200, "seed": 1}),
}


def _cpus(count):
    return mock.patch.object(simulate, "_usable_cpus", lambda: count)


def _a_process_a_unit():
    """Every diagnostic's pool sized at one process for each unit of work."""
    return mock.patch.multiple(diagnostics, _BVM_REPS_PER_WORKER=1,
                               _MSE_INCREMENTS_PER_WORKER=1, _QV_INCREMENTS_PER_WORKER=1)


def _diag(name, config, workdir):
    """The exit code, CSV and stderr of ``jumpvol diag <name>`` on ``config``."""
    (workdir / "diag.json").write_text(json.dumps(config))
    out, err = workdir / "diag.csv", io.StringIO()
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["diag", name, "--config", str(workdir / "diag.json"), "--out", str(out)])
    return code, out.read_text() if out.exists() else None, err.getvalue()


@pytest.mark.parametrize("which", ["golden", "long"])
@pytest.mark.parametrize("name", list(_POOLED))
def test_a_pooled_diagnostic_writes_the_rows_of_one_process(name, which, tmp_path):
    # the golden configs are pooled with a process for each unit of work, the
    # long ones with the work a process as shipped
    golden, long = _POOLED[name]
    config, work = (golden, _a_process_a_unit()) if which == "golden" else (long, nullcontext())
    pool = mock.Mock(wraps=ProcessPoolExecutor)
    with _cpus(2), work, mock.patch.object(simulate, "ProcessPoolExecutor", pool):
        pooled = _diag(name, config, tmp_path)
    assert pool.call_args == mock.call(max_workers=2)
    assert pooled[0] == 0
    with _cpus(1):
        assert pooled == _diag(name, config, tmp_path)


def test_a_daemon_process_runs_the_diagnostics_itself(tmp_path):
    # a multiprocessing.Pool worker is a daemon, which may not start children
    # ("daemonic processes are not allowed to have children")
    with _cpus(2), _a_process_a_unit():
        outer = multiprocessing.get_context("fork").Pool(1)
        try:
            texts = [outer.apply(_diag, (name, golden, tmp_path))
                     for name, (golden, _) in _POOLED.items()]
        finally:
            outer.close()
            outer.join()
    with _cpus(1):
        assert texts == [_diag(name, golden, tmp_path) for name, (golden, _) in _POOLED.items()]
    assert all(code == 0 for code, _, _ in texts)


def _refusing_block(refusals, log, task):
    """``_run_block(task)``, logged to ``log`` as ``cell start stop``, but a
    block that holds a ``(cell, rep)`` of ``refusals`` refuses it: at once if
    its value is None, else that many seconds after the block is computed
    and logged."""
    _, _, cell, _, block = task
    refused = [(rep, delay) for (index, rep), delay in refusals.items()
               if index == cell and rep in block]
    if refused and refused[0][1] is None:
        raise ConfigurationError(f"cell {cell} rep {refused[0][0]} refused")
    results = _run_block(task)
    with open(log, "a") as handle:
        handle.write(f"{cell} {block.start} {block.stop}\n")
    if refused:
        time.sleep(refused[0][1])
        raise ConfigurationError(f"cell {cell} rep {refused[0][0]} refused")
    return results


@pytest.mark.parametrize("name", list(_POOLED))
def test_a_refusal_in_a_later_block_is_the_serial_runs_after_the_blocks_before_it(
    name, tmp_path
):
    # the refusal three quarters into the first cell comes a while after its
    # block is computed; one in the fourth block, which two processes start
    # in that while, comes at once, so a pool meets it first; yet the run
    # raises the earlier one, as the serial run does, and only once every
    # block before it is computed
    golden, _ = _POOLED[name]
    reps, cells = golden["reps"], len(golden.get("n_grid", [0]))
    runs = []
    for cpus in (2, 1):
        refusals = {(0, reps * 3 // 4): 0.3 if cpus > 1 else 0.0,
                    (min(1, cells - 1), reps - 1): None}
        log = tmp_path / f"blocks-{cpus}"
        log.touch()
        with _cpus(cpus), _a_process_a_unit(), \
                mock.patch.object(harness, "_run_block", partial(_refusing_block, refusals, log)):
            runs.append(_diag(name, golden, tmp_path))
        blocks = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        refused = [start for cell, start, stop in blocks
                   if cell == 0 and start <= reps * 3 // 4 < stop]
        assert len(refused) == 1
        assert refused[0] > 0 or cpus == 1  # pooled, the refused block is not the first
        computed = {rep for cell, start, stop in blocks if cell == 0 for rep in range(start, stop)}
        assert computed >= set(range(refused[0]))
    assert runs[0] == runs[1]
    assert runs[0] == (
        2, None, f"jumpvol: configuration error: cell 0 rep {reps * 3 // 4} refused\n"
    )


@pytest.mark.parametrize(
    "run, cpus, per_process, sizes",
    [
        # the small configs the suite runs, at the shipped work a process:
        # no pool
        (lambda: mse_oracle(DIFF, NO_JUMPS, 100, 1000, 0), 2, {}, []),
        (lambda: qv_error_rate(DIFF, JUMPS, (20, 60, 200), 200, 0), 2, {}, []),
        # a process for each 100 bvm replications, so its floor is pooled
        (lambda: bvm_convergence_check(DIFF, JUMPS, (40, 80), 100, 0), 2, {}, [2]),
        (lambda: bvm_convergence_check(DIFF, JUMPS, (40, 80), 149, 0), 3, {}, [2]),
        (lambda: bvm_convergence_check(DIFF, JUMPS, (40, 80), 150, 0), 3, {}, [3]),
        # mse's work is reps * n increments, qvrate's reps times the grid's sum
        (lambda: mse_oracle(DIFF, NO_JUMPS, 100, 1000, 0), 2,
         {"_MSE_INCREMENTS_PER_WORKER": 50_001}, []),
        (lambda: mse_oracle(DIFF, NO_JUMPS, 100, 1000, 0), 2,
         {"_MSE_INCREMENTS_PER_WORKER": 50_000}, [2]),
        (lambda: qv_error_rate(DIFF, JUMPS, (20, 60, 200), 200, 0), 2,
         {"_QV_INCREMENTS_PER_WORKER": 28_001}, []),
        (lambda: qv_error_rate(DIFF, JUMPS, (20, 60, 200), 200, 0), 2,
         {"_QV_INCREMENTS_PER_WORKER": 28_000}, [2]),
    ],
    ids=["mse-small", "qvrate-small", "bvm-floor", "bvm-149-on-3", "bvm-150-on-3",
         "mse-below", "mse-at", "qvrate-below", "qvrate-at"],
)
def test_a_diagnostic_pools_a_process_for_each_unit_of_work_up_to_the_cpus(
    run, cpus, per_process, sizes, inline_pool
):
    work = mock.patch.multiple(diagnostics, **per_process) if per_process else nullcontext()
    with _cpus(cpus), work:
        pooled = run()
    assert inline_pool == sizes
    with _cpus(1):
        assert pooled == run()
