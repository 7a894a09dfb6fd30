import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from jumpvol.cli import _SCHEMAS, main


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
    code, err = _run_with_config(command, config, tmp_path, capsys)
    assert code == 2
    assert repr(key) in err


@pytest.mark.parametrize(
    "command, config, key",
    [
        (["simulate"], {"model": 5}, "model"),
        (["coverage"], {"prior": 5}, "prior"),
        (["coverage"], {"lambda_grid": ["a"]}, "lambda_grid"),
        (["coverage"], {"n_grid": 5000}, "n_grid"),
        (
            ["simulate"],
            {"model": {"jump_sizes": {"kind": "table", "values": ["a"], "probs": [1.0]}}},
            "values",
        ),
        (["simulate"], {"with_truth": "no"}, "with_truth"),
        (["infer"], {"truncate_positive": "no"}, "truncate_positive"),
        (["simulate"], {"out": 5}, "out"),
        (["simulate"], {"out": []}, "out"),
        (["infer"], {"input": 5}, "input"),
        (["infer"], {"density_out": 5, "density_grid": 5}, "density_out"),
        (["simulate", "--with-truth"], {"with_truth": "no"}, "with_truth"),
        (["infer", "--truncate-positive"], {"truncate_positive": "x"}, "truncate_positive"),
    ],
)
def test_wrong_type_config_value_exits_2(command, config, key, tmp_path, capsys):
    # object, list, boolean and string keys: before, these raised TypeError or
    # ValueError, or a string "no" was read as true; a config value is checked
    # even when a flag overrides it
    code, err = _run_with_config(command, config, tmp_path, capsys)
    assert code == 2
    assert repr(key) in err
    assert not (tmp_path / "out").exists()


def _run_with_config(command, config, tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("0.1\n-0.2\n0.3\n-0.4\n0.5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    args = command + ["--config", str(cfg), "--out", str(tmp_path / "out")]
    if command[0] == "infer":
        args += ["--input", str(raw)]
    code, _, err = run_cli(args, capsys)
    return code, err


# Generated configs.  A key's own strategy draws values in its valid range, and
# junk (small numbers, null, short strings, lists and objects) brings the wrong
# types, nestings and out-of-range values.  Every size is drawn small (n and
# n_grid entries <= 200, reps <= 3, workers <= 2, jump_rate <= 50,
# density_grid <= 50, horizon <= 10), so no example allocates much memory or
# starts more than two processes.  Junk strings use letters only, so an output
# path stays in the working directory.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(-3.0, 3.0),
    st.text(alphabet="ab", max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["a", "kind"]), st.integers(0, 2), max_size=2),
)


def _object(fields, always=()):
    """A JSON object with each field of ``fields`` drawn or left out (those in
    ``always`` are always drawn); now and then a field is replaced by junk
    (wrong type, null or a wrong nesting) or an unknown key is added."""

    @st.composite
    def draw_object(draw):
        obj = {
            key: draw(value)
            for key, value in fields.items()
            if key in always or draw(st.booleans())
        }
        fault = draw(st.sampled_from(["none"] * 5 + ["junk", "unknown"]))
        if fault == "junk":
            obj[draw(st.sampled_from(sorted(fields)))] = draw(_JUNK)
        elif fault == "unknown":
            obj["unknown_key"] = draw(_JUNK)
        return obj

    return draw_object()


_DIFFUSION = {
    "beta": st.floats(-5.0, 5.0),
    "theta_star": st.floats(0.1, 20.0),
    "horizon": st.floats(0.1, 10.0),
}
_SIZE_LAW = st.one_of(
    _object({"kind": st.just("two_point"), "tau": st.floats(0.1, 5.0)}, always=["kind", "tau"]),
    _object({"kind": st.just("fixed"), "value": st.floats(0.1, 5.0)}, always=["kind", "value"]),
    _object(
        {
            "kind": st.just("table"),
            "values": st.lists(st.floats(0.1, 5.0), max_size=3),
            "probs": st.sampled_from([[1.0], [0.5, 0.5], [0.2], []]),
        },
        always=["kind", "values", "probs"],
    ),
    st.sampled_from([{"kind": "zz"}, {"tau": 1.0}]),
)
_MODEL = _object({**_DIFFUSION, "jump_rate": st.floats(0.0, 50.0), "jump_sizes": _SIZE_LAW})
_PRIOR = _object(
    {"shape": st.floats(0.1, 10.0), "rate": st.floats(0.1, 10.0)}, always=["shape", "rate"]
)
_THRESHOLD = st.one_of(
    st.sampled_from(["iqr", "iqr:5", "fixed:0.5", "fixed:inf", "iqr:0", "zz:1", "iqr:x"]),
    _object(
        {"kind": st.sampled_from(["iqr", "fixed", "zz"]), "value": st.floats(0.1, 10.0)},
        always=["kind", "value"],
    ),
)
_PATH = st.sampled_from(["-", "-", "out.csv", "missing/out.csv"])
_SEED = st.integers(0, 2**64)
_N = st.integers(2, 200)
_N_GRID = st.one_of(
    st.lists(st.integers(2, 200), min_size=1, max_size=4, unique=True).map(sorted),
    st.just([10, 40, 160]),
)
_REPS = st.integers(1, 3)
_LEVEL = st.floats(0.05, 0.99)

_CONFIG_KEYS = {
    "simulate": {
        "model": _MODEL, "n": _N, "seed": _SEED, "out": _PATH, "with_truth": st.booleans()
    },
    "infer": {
        "input": _PATH,
        "out": _PATH,
        "horizon": st.floats(0.1, 10.0),
        "threshold": _THRESHOLD,
        "prior": _PRIOR,
        "level": _LEVEL,
        "truncate_positive": st.booleans(),
        "density_grid": st.integers(2, 50),
        "density_out": _PATH,
    },
    "coverage": {
        "model": _object(_DIFFUSION),
        "lambda_grid": st.lists(st.floats(0.0, 50.0), min_size=1, max_size=3),
        "tau_grid": st.lists(st.floats(0.1, 5.0), min_size=1, max_size=3),
        "n_grid": _N_GRID,
        "reps": _REPS,
        "level": _LEVEL,
        "threshold": _THRESHOLD,
        "prior": _PRIOR,
        "seed": _SEED,
        "out": _PATH,
        "workers": st.integers(1, 2),
    },
    "diag bvm": {
        "model": _MODEL, "n_grid": _N_GRID, "reps": _REPS, "prior": _PRIOR,
        "threshold": _THRESHOLD, "seed": _SEED, "out": _PATH,
    },
    "diag sandwich": {
        "theta_star": st.floats(0.1, 20.0), "jump_qv": st.floats(0.0, 20.0),
        "horizon": st.floats(0.1, 10.0), "n": _N, "out": _PATH,
    },
    "diag mse": {
        "model": _MODEL, "n": _N, "reps": _REPS, "jumps_seed": _SEED, "seed": _SEED,
        "out": _PATH,
    },
    "diag qvrate": {
        "model": _MODEL, "n_grid": _N_GRID, "reps": _REPS, "threshold": _THRESHOLD,
        "seed": _SEED, "out": _PATH,
    },
}
# left out, these would take their defaults, which make an example slow
_SIZE_KEYS = ["n", "n_grid", "reps", "workers"]


def test_generated_configs_cover_every_schema_key():
    assert {name: set(keys) for name, keys in _CONFIG_KEYS.items()} == {
        name: set(table) for name, table in _SCHEMAS.items()
    }


def test_readme_config_table_matches_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config files", 1)[1].split("Nested objects", 1)[0]
    documented = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            documented[cells[0].strip("`")] = set(cells[3].split(", "))
    used = {}
    for command, keys in _SCHEMAS.items():
        for key in keys:
            used.setdefault(key, set()).add(command)
    assert documented == used


@settings(
    derandomize=True,
    deadline=None,
    max_examples=50,
)
@given(data=st.data())
@pytest.mark.parametrize("command", sorted(_CONFIG_KEYS))
def test_generated_config_exits_cleanly(command, data, tmp_path_factory):
    # For diag bvm, mse and qvrate this covers only the config checks: _REPS
    # draws 1-3, below their reps floors of 100, 1000 and 200, so every
    # example exits 2 before any replication runs.
    keys = _CONFIG_KEYS[command]
    config = data.draw(_object(keys, always=[key for key in _SIZE_KEYS if key in keys]))
    work = tmp_path_factory.mktemp("config")
    (work / "cfg.json").write_text(json.dumps(config))
    args = command.split() + ["--config", "cfg.json"]
    if command == "infer":
        (work / "raw.csv").write_text("".join(f"{0.1 * (-1) ** i * i}\n" for i in range(1, 40)))
        args += ["--input", "raw.csv"]
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


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


@pytest.mark.parametrize(
    "rows, message",
    [
        (["1,0.5,0.1", "2,1.0,abc"], "row 2: D_i is not a number: 'abc'"),
        (["1,0.5,0.1", "2,1.0,"], "row 2: D_i is not a number: ''"),
        (["1,0.5,1_0", "2,1.0,0.2"], "row 1: D_i is not a number: '1_0'"),
        (["1,0.5,0.1", "2,1.0"], "row 2 has 2 cells, expected 3"),
        # empty lines are not rows
        (["1,0.5,0.1", "", "2,1.0,0.2,7"], "row 2 has 4 cells, expected 3"),
        # unequally spaced t_i with a gap in index
        (["1,0.1,0.1", "2,0.7,-0.3", "3,0.8,0.2", "5,0.9,0.1", "6,1.0,0.4"], "row 1: t_i"),
        (["1,0.2,0.1", "2,0.4,-0.3", "3,0.6,0.2", "5,0.8,0.1", "6,1.0,0.4"], "row 4: index"),
        (["1,0.2,0.1", "2,0.4,-0.3", "3,0.6000003,0.2", "4,0.8,0.1", "5,1.0,0.4"], "row 3: t_i"),
        (["1,0.2,0.1", "2,0.4,-0.3", "3,0.6,0.2", "4,0.8,0.1", "5,nan,0.4"], "row 1: t_i"),
    ],
)
def test_infer_malformed_csv_names_row(rows, message, tmp_path, capsys):
    csv_path = tmp_path / "path.csv"
    csv_path.write_text("\n".join(["index,t_i,D_i"] + rows) + "\n")
    code, out, err = run_cli(["infer", "--input", str(csv_path), "--out", "-"], capsys)
    assert code == 2
    assert message in err
    assert out == ""


def test_infer_undecodable_csv_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "path.csv"
    csv_path.write_bytes(b"index,t_i,D_i\n1,0.5,0.1\n2,1.0,\xff\n")
    code, out, err = run_cli(["infer", "--input", str(csv_path), "--out", "-"], capsys)
    assert code == 2
    # under a single-byte locale the byte decodes to a non-numeric cell
    assert "decoded" in err or "row 2" in err
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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--density-grid", "1", "--density-out", "DIR/d.csv"], "at least 2 points"),
        (["--density-grid", "5"], "density output path required"),
        (["--density-grid", "5", "--density-out", "DIR/missing/d.csv"], "does not exist"),
    ],
)
def test_infer_density_arguments_checked_before_output(flags, message, tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("0.1\n-0.2\n0.3\n-0.4\n0.5\n")
    out = tmp_path / "r.json"
    flags = [flag.replace("DIR", str(tmp_path)) for flag in flags]
    args = ["infer", "--input", str(raw), "--out", str(out)] + flags
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert message in err
    assert not out.exists()


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


def test_infer_truncate_positive_with_all_mass_below_zero_exits_4(tmp_path, capsys):
    # a prior this strong puts the posterior near zero, so the shift of 25
    # moves all of its mass below zero and nothing is left to renormalize
    raw = tmp_path / "raw.csv"
    raw.write_text("".join(f"{x}\n" for x in (1.0, -1.0, 1.0, 5.0, -1.0, 1.0)))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"prior": {"shape": 1e9, "rate": 1e-3}}))
    args = ["infer", "--input", str(raw), "--threshold", "fixed:2.0", "--config", str(config)]
    code, out, err = run_cli(args + ["--truncate-positive", "--out", "-"], capsys)
    assert code == 4
    diagnostic = json.loads(out)
    assert diagnostic["error"] == "degenerate_inference"
    assert "mass_below_zero is 1.0" in diagnostic["message"]
    assert "quantile level" not in out + err


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

@pytest.mark.parametrize(
    "args",
    [
        ["diag", "sandwich", "--seed", "3"],
        ["diag", "sandwich", "--reps", "2"],
        ["diag", "sandwich", "--threshold", "iqr"],
        ["diag", "bvm", "--n", "10"],
        ["diag", "qvrate", "--n", "10"],
        ["diag", "mse", "--threshold", "iqr"],
    ],
)
def test_diag_rejects_flags_of_other_diagnostics(args, capsys):
    # each diagnostic takes only the flags of its own config keys
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", "-"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--out", "-")])
def test_diag_flag_before_subcommand_is_named(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diag", flag, value, "bvm"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: diag flags go after the subcommand" in captured.err
    assert "invalid choice" not in captured.err
    assert captured.out == ""


def test_diag_help_still_works(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diag", "-h"])
    assert exc.value.code == 0
    assert "{bvm,sandwich,mse,qvrate}" in capsys.readouterr().out


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


def test_memory_error_exits_3(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr("jumpvol.cli.simulate_path", fail)
    code, out, err = run_cli(["simulate", "--n", "10", "--out", "-"], capsys)
    assert code == 3
    assert out == ""
    assert err == "jumpvol: out of memory: Unable to allocate 7.28 TiB for an array\n"


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


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the root solver is imported only when a closed-form quantile misses
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, jumpvol.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
