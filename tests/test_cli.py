import json
import math
import subprocess
import sys

import numpy as np
import pytest

from jumpvol import (
    InverseGammaParams,
    ThresholdRule,
    bin_jumps,
    bvm_normal,
    compute_kappa,
    compute_mle,
    credible_interval,
    estimate_jump_qv,
    gibbs_update,
    modify_posterior,
    simulate_jumps,
    simulate_path,
    DiffusionSpec,
    JumpSpec,
    NumericError,
)
from jumpvol.cli import main


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    # JUMPVOL_SEED overrides every --seed and config seed, so an exported value
    # would change what these tests simulate
    monkeypatch.delenv("JUMPVOL_SEED", raising=False)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_row_count(tmp_path, capsys):
    out = tmp_path / "path.csv"
    code, _, _ = run_cli(["simulate", "--out", str(out), "--seed", "1"], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,t_i,D_i"
    assert len(lines) == 5001  # header + default n=5000


def test_simulate_byte_identical_rerun(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["simulate", "--n", "300", "--seed", "9", "--out", str(a)], capsys)
    run_cli(["simulate", "--n", "300", "--seed", "9", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_simulate_truth_column_zero_without_jumps(tmp_path, capsys):
    out = tmp_path / "path.csv"
    code, _, _ = run_cli(
        ["simulate", "--n", "50", "--rate", "0", "--seed", "2", "--with-truth", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "index,t_i,D_i,mu_i"
    assert all(row.rsplit(",", 1)[1] == "0.0" for row in rows[1:])


def test_simulate_config_file(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"theta_star": 4.0, "jump_rate": 2.0},
                "n": 40,
                "seed": 5,
                "with_truth": True,
            }
        )
    )
    out = tmp_path / "path.csv"
    code, _, _ = run_cli(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 41


def test_simulate_table_size_law_config(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {
                    "jump_rate": 40.0,
                    "jump_sizes": {"kind": "table", "values": [-2.0, 5.0], "probs": [0.5, 0.5]},
                },
                "n": 200,
                "seed": 3,
                "with_truth": True,
            }
        )
    )
    out = tmp_path / "path.csv"
    code, _, _ = run_cli(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0
    mu = np.array(
        [float(line.rsplit(",", 1)[1]) for line in out.read_text().strip().splitlines()[1:]]
    )
    assert np.any(mu != 0.0)

    # the config reaches the law: the same truth as the library run at this seed
    spec = JumpSpec.table(40.0, [-2.0, 5.0], [0.5, 0.5])
    diff = DiffusionSpec(beta=1.0, theta_star=10.0, horizon=1.0)
    assert np.array_equal(mu, simulate_path(diff, spec, 200, seed=3).truth.mu)

    # mu_i sums every jump in window i, and a window may hold several: with c_i
    # jumps it is -2a + 5(c_i - a) for some integer 0 <= a <= c_i (0 when c_i = 0)
    jump_ss, _ = np.random.SeedSequence(3).spawn(2)
    _, counts = bin_jumps(simulate_jumps(spec, 1.0, seed=jump_ss), 200, 1.0)
    for value, c in zip(mu, counts):
        assert value in {-2.0 * a + 5.0 * (c - a) for a in range(c + 1)}


def test_infer_threshold_object_config(tmp_path, capsys):
    csv_path = tmp_path / "path.csv"
    run_cli(["simulate", "--n", "400", "--seed", "8", "--out", str(csv_path)], capsys)
    cfg = tmp_path / "infer.json"
    cfg.write_text(json.dumps({"threshold": {"kind": "fixed", "value": 2.0}}))
    code, out, _ = run_cli(
        ["infer", "--config", str(cfg), "--input", str(csv_path), "--out", "-"], capsys
    )
    assert code == 0
    assert json.loads(out)["eta"] == 2.0


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n": 40, "sample_size": 10}))
    code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 2
    assert "sample_size" in err


def test_env_seed_overrides_flag(tmp_path, capsys, monkeypatch):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    monkeypatch.setenv("JUMPVOL_SEED", "123")
    run_cli(["simulate", "--n", "100", "--seed", "7", "--out", str(a)], capsys)
    monkeypatch.delenv("JUMPVOL_SEED")
    run_cli(["simulate", "--n", "100", "--seed", "123", "--out", str(b)], capsys)
    run_cli(["simulate", "--n", "100", "--seed", "7", "--out", str(c)], capsys)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("source", ["env", "flag", "config"])
def test_negative_seed_exits_2(source, tmp_path, capsys, monkeypatch):
    args = ["simulate", "--n", "5", "--out", "-"]
    if source == "env":
        monkeypatch.setenv("JUMPVOL_SEED", "-1")
    elif source == "flag":
        args += ["--seed", "-1"]
    else:
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"seed": -1}))
        args += ["--config", str(cfg)]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert "seed" in err.lower() and "-1" in err
    assert out == ""


@pytest.mark.parametrize(
    "command, key, value",
    [
        (["simulate"], "n", 2.5),
        (["simulate"], "seed", True),
        (["coverage"], "reps", "abc"),
        (["coverage"], "workers", 1.5),
        (["diag", "mse"], "jumps_seed", "7"),
        (["infer"], "density_grid", True),
    ],
)
def test_non_integer_config_value_exits_2(command, key, value, tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("0.1\n-0.2\n0.3\n-0.4\n0.5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    args = command + ["--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == ["infer"]:
        args += ["--input", str(raw)]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert repr(key) in err


@pytest.mark.parametrize(
    "command, config, key",
    [
        (["infer"], {"level": "abc"}, "level"),
        (["infer"], {"horizon": True}, "horizon"),
        (["infer"], {"prior": {"shape": None, "rate": 1.0}}, "shape"),
        (["infer"], {"threshold": {"kind": "iqr", "value": "5"}}, "value"),
        (["simulate"], {"model": {"theta_star": "x"}}, "theta_star"),
        (["simulate"], {"model": {"jump_sizes": {"kind": "two_point", "tau": "3"}}}, "tau"),
        (["coverage"], {"level": False}, "level"),
        (["diag", "sandwich"], {"jump_qv": None}, "jump_qv"),
    ],
)
def test_non_numeric_float_config_value_exits_2(command, config, key, tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("0.1\n-0.2\n0.3\n-0.4\n0.5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    args = command + ["--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == ["infer"]:
        args += ["--input", str(raw)]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert repr(key) in err


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def test_infer_matches_library_pipeline(tmp_path, capsys):
    csv_path = tmp_path / "path.csv"
    out_path = tmp_path / "result.json"
    run_cli(["simulate", "--n", "2000", "--seed", "3", "--out", str(csv_path)], capsys)
    code, _, _ = run_cli(
        ["infer", "--input", str(csv_path), "--out", str(out_path)], capsys
    )
    assert code == 0
    record = json.loads(out_path.read_text())

    diff = DiffusionSpec(beta=1.0, theta_star=10.0, horizon=1.0)
    path = simulate_path(diff, JumpSpec.two_point(5.0, 3.0), 2000, seed=3)
    qv = estimate_jump_qv(path.increments, ThresholdRule.iqr().resolve(path.increments))
    theta_hat = compute_mle(path)
    kappa = compute_kappa(theta_hat, qv, path.horizon)
    post = gibbs_update(InverseGammaParams(1.0, 1.0), path, kappa)
    modified = modify_posterior(post, qv, path.horizon)
    interval = credible_interval(modified, 0.95)
    approx = bvm_normal(theta_hat, qv, path.horizon, path.n)

    assert record["theta_hat"] == theta_hat
    assert record["jump_qv_hat"] == qv.jump_qv_hat
    assert record["eta"] == qv.eta
    assert record["kappa"] == kappa
    assert record["posterior"] == {
        "shape": post.ig.shape,
        "rate": post.ig.rate,
        "shift": modified.shift,
    }
    assert record["interval"] == {"level": 0.95, "lo": interval.lo, "hi": interval.hi}
    assert record["bvm"] == {"mean": approx.mean, "variance": approx.variance}


def test_infer_end_to_end_brackets_truth(tmp_path, capsys):
    # full pipeline at the showcase configuration: the interval contains the
    # generating volatility 10
    csv_path = tmp_path / "path.csv"
    run_cli(["simulate", "--seed", "42", "--out", str(csv_path)], capsys)
    code, out, _ = run_cli(["infer", "--input", str(csv_path), "--out", "-"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["interval"]["lo"] <= 10.0 <= record["interval"]["hi"]


def test_infer_headerless_input(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    rng = np.random.default_rng(0)
    raw.write_text("".join(f"{float(x)!r}\n" for x in rng.normal(0, 0.05, 400)))
    code, out, _ = run_cli(["infer", "--input", str(raw), "--out", "-"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["kappa"] == 1.0  # pure noise: nothing gets flagged
    assert record["jump_qv_hat"] == 0.0
    assert record["interval"]["lo"] < record["interval"]["hi"]


def test_infer_infinite_fixed_threshold_gives_plain_bayes(tmp_path, capsys):
    csv_path = tmp_path / "path.csv"
    run_cli(["simulate", "--n", "500", "--seed", "4", "--out", str(csv_path)], capsys)
    code, out, _ = run_cli(
        ["infer", "--input", str(csv_path), "--threshold", "fixed:inf", "--out", "-"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["kappa"] == 1.0
    assert record["jump_qv_hat"] == 0.0
    assert record["posterior"]["shift"] == 0.0
    assert record["eta"] == math.inf


def test_infer_degenerate_exits_4(tmp_path, capsys):
    csv_path = tmp_path / "path.csv"
    run_cli(["simulate", "--n", "200", "--seed", "4", "--out", str(csv_path)], capsys)
    code, out, _ = run_cli(
        ["infer", "--input", str(csv_path), "--threshold", "fixed:1e-300", "--out", "-"],
        capsys,
    )
    assert code == 4
    diagnostic = json.loads(out)
    assert diagnostic["error"] == "degenerate_inference"


def test_infer_non_finite_increment_names_row(tmp_path, capsys):
    csv_path = tmp_path / "path.csv"
    rows = ["index,t_i,D_i", "1,0.2,0.1", "2,0.4,-0.3", "3,0.6,nan", "4,0.8,0.2", "5,1.0,0.4"]
    csv_path.write_text("\n".join(rows) + "\n")
    code, out, err = run_cli(["infer", "--input", str(csv_path), "--out", "-"], capsys)
    assert code == 2
    assert "row 3" in err
    assert out == ""


def test_infer_missing_input_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["infer", "--input", str(tmp_path / "nope.csv")], capsys)
    assert code == 2
    assert "not found" in err


def test_infer_density_grid(tmp_path, capsys):
    csv_path = tmp_path / "path.csv"
    density = tmp_path / "density.csv"
    run_cli(["simulate", "--n", "500", "--seed", "6", "--out", str(csv_path)], capsys)
    code, _, _ = run_cli(
        [
            "infer",
            "--input",
            str(csv_path),
            "--out",
            str(tmp_path / "r.json"),
            "--density-grid",
            "128",
            "--density-out",
            str(density),
        ],
        capsys,
    )
    assert code == 0
    lines = density.read_text().strip().splitlines()
    assert lines[0] == "theta,density"
    assert len(lines) == 129
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all(values[:, 1] >= 0.0)
    assert values[0, 0] < values[-1, 0]


def test_infer_truncate_positive_changes_interval(tmp_path, capsys):
    # heavy shift with tiny data so real mass sits below zero
    raw = tmp_path / "raw.csv"
    raw.write_text("".join(f"{x}\n" for x in (1.0, -1.0, 1.0, 5.0, -1.0, 1.0)))
    args = ["infer", "--input", str(raw), "--threshold", "fixed:2.0", "--out", "-"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    plain = json.loads(out)
    code, out, _ = run_cli(args + ["--truncate-positive"], capsys)
    assert code == 0
    clipped = json.loads(out)
    assert plain["interval"]["lo"] < 0.0 < clipped["interval"]["lo"]


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def test_coverage_zero_reps_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["coverage", "--reps", "0", "--out", "-"], capsys)
    assert code == 2
    assert "reps" in err


def test_coverage_worker_count_invariance(tmp_path, capsys):
    cfg = tmp_path / "cov.json"
    cfg.write_text(
        json.dumps(
            {"lambda_grid": [4, 8], "tau_grid": [2], "n_grid": [400], "reps": 40, "seed": 11}
        )
    )
    one, eight = tmp_path / "w1.csv", tmp_path / "w8.csv"
    code, _, _ = run_cli(
        ["coverage", "--config", str(cfg), "--workers", "1", "--out", str(one)], capsys
    )
    assert code == 0
    code, _, _ = run_cli(
        ["coverage", "--config", str(cfg), "--workers", "8", "--out", str(eight)], capsys
    )
    assert code == 0
    assert one.read_bytes() == eight.read_bytes()
    header = one.read_text().splitlines()[0]
    assert header == "lambda,tau,n,reps,coverage,mean_width,mc_stderr,degenerate_count"


def test_coverage_rejects_jump_fields_in_model(tmp_path, capsys):
    cfg = tmp_path / "cov.json"
    cfg.write_text(json.dumps({"model": {"jump_rate": 3.0}, "reps": 5}))
    code, _, err = run_cli(["coverage", "--config", str(cfg), "--out", "-"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# diag
# ---------------------------------------------------------------------------

def test_diag_sandwich_benchmark_value(capsys):
    code, out, _ = run_cli(["diag", "sandwich", "--n", "5000", "--out", "-"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,statistic,value,mc_stderr"
    n, stat, value, stderr = lines[1].split(",")
    assert (n, stat, stderr) == ("5000", "sandwich_variance", "")
    assert float(value) == pytest.approx(2.0 * 100.0 / 5000.0)


def test_diag_sandwich_with_jumps(tmp_path, capsys):
    cfg = tmp_path / "sw.json"
    cfg.write_text(json.dumps({"theta_star": 10.0, "jump_qv": 45.0, "horizon": 1.0, "n": 5000}))
    code, out, _ = run_cli(["diag", "sandwich", "--config", str(cfg), "--out", "-"], capsys)
    assert code == 0
    value = float(out.strip().splitlines()[1].split(",")[2])
    assert value == pytest.approx(0.4)


def test_diag_qvrate_output_shape(tmp_path, capsys):
    cfg = tmp_path / "qv.json"
    cfg.write_text(json.dumps({"n_grid": [200, 800, 3200], "reps": 200, "seed": 8}))
    code, out, _ = run_cli(["diag", "qvrate", "--config", str(cfg), "--out", "-"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    stats = [line.split(",")[1] for line in lines[1:]]
    assert stats == ["qv_mae", "qv_mae", "qv_mae", "qv_mae_log_slope"]
    slope_line = lines[-1].split(",")
    assert slope_line[0] == ""
    assert math.isfinite(float(slope_line[2]))


def test_diag_mse_output_shape(tmp_path, capsys):
    cfg = tmp_path / "mse.json"
    cfg.write_text(json.dumps({"n": 800, "reps": 1000, "seed": 3, "jumps_seed": 12}))
    code, out, _ = run_cli(["diag", "mse", "--config", str(cfg), "--out", "-"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    stats = [line.split(",")[1] for line in lines[1:]]
    assert stats == [
        "theta_dagger",
        "empirical_mse",
        "empirical_variance",
        "mse_product_form",
        "sandwich_variance",
        "mse_vs_product_form",
        "mse_vs_sandwich",
    ]


def test_diag_bvm_output_shape(tmp_path, capsys):
    cfg = tmp_path / "bvm.json"
    cfg.write_text(json.dumps({"n_grid": [500, 2000], "reps": 100, "seed": 2}))
    code, out, _ = run_cli(["diag", "bvm", "--config", str(cfg), "--out", "-"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    stats = {line.split(",")[1] for line in lines[1:]}
    assert stats == {"tv_tempered", "tv_modified"}


def test_diag_bvm_at_posterior_shapes_above_1e8(tmp_path, capsys):
    # at n = 16000 the tempered shapes reach about 2.4e8, where the closed-form
    # quantile alone misses its mass tolerance near q = 1 - 1e-6
    cfg = tmp_path / "bvm.json"
    cfg.write_text(json.dumps({
        "model": {"jump_rate": 16.0, "jump_sizes": {"kind": "two_point", "tau": 8.0}},
        "n_grid": [1000, 16000],
        "reps": 100,
        "seed": 0,
    }))
    code, out, _ = run_cli(["diag", "bvm", "--config", str(cfg), "--out", "-"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 5


# ---------------------------------------------------------------------------
# exit codes and entry point
# ---------------------------------------------------------------------------

def test_numeric_error_exits_4(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise NumericError("quadrature error 2.00e-04 exceeds 1e-04")

    monkeypatch.setattr("jumpvol.cli.bvm_convergence_check", fail)
    code, out, err = run_cli(["diag", "bvm", "--out", "-"], capsys)
    assert code == 4
    assert json.loads(out) == {
        "error": "numeric",
        "message": "quadrature error 2.00e-04 exceeds 1e-04",
    }
    assert "Traceback" not in err


def test_io_failure_exits_3(tmp_path, capsys):
    code, _, err = run_cli(["simulate", "--n", "10", "--out", str(tmp_path)], capsys)
    assert code == 3
    assert "I/O" in err


def test_output_directory_must_exist(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    code, _, err = run_cli(["simulate", "--n", "10", "--out", str(target)], capsys)
    assert code == 2


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jumpvol.cli", "simulate", "--n", "5", "--out", "-"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("index,t_i,D_i")
