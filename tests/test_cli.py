import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    GibbsPosterior,
    JumpSpec,
    NumericError,
)
from jumpvol.cli import _SCHEMAS, DEFAULT_MODEL, build_parser, main


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


def test_simulate_fixed_size_of_zero_names_the_value(tmp_path, capsys):
    config = {"model": {"jump_sizes": {"kind": "fixed", "value": 0}}}
    code, err = _run_with_config(["simulate"], config, tmp_path, capsys)
    assert code == 2
    assert "nonzero, got 0.0" in err


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
# path stays in the working directory.  A number key now and then draws an
# integer beyond float range, which it must refuse; the size keys never do,
# as a huge size could allocate before a check refuses it.
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


def _number(low, high):
    """A float in [low, high], or one time in ten an integer beyond float range."""
    huge = st.integers(2**1024, 2**1100).flatmap(lambda k: st.sampled_from([k, -k]))
    return st.integers(0, 9).flatmap(lambda pick: huge if pick == 0 else st.floats(low, high))


_DIFFUSION = {
    "beta": _number(-5.0, 5.0),
    "theta_star": _number(0.1, 20.0),
    "horizon": _number(0.1, 10.0),
}
_SIZE_LAW = st.one_of(
    _object({"kind": st.just("two_point"), "tau": _number(0.1, 5.0)}, always=["kind", "tau"]),
    _object({"kind": st.just("fixed"), "value": _number(0.1, 5.0)}, always=["kind", "value"]),
    _object(
        {
            "kind": st.just("table"),
            "values": st.lists(_number(0.1, 5.0), max_size=3),
            "probs": st.sampled_from([[1.0], [0.5, 0.5], [0.2], []]),
        },
        always=["kind", "values", "probs"],
    ),
    st.sampled_from([{"kind": "zz"}, {"tau": 1.0}]),
)
_MODEL = _object({**_DIFFUSION, "jump_rate": _number(0.0, 50.0), "jump_sizes": _SIZE_LAW})
_PRIOR = _object(
    {"shape": _number(0.1, 10.0), "rate": _number(0.1, 10.0)}, always=["shape", "rate"]
)
_THRESHOLD = st.one_of(
    st.sampled_from(["iqr", "iqr:5", "fixed:0.5", "fixed:inf", "iqr:0", "zz:1", "iqr:x"]),
    _object(
        {"kind": st.sampled_from(["iqr", "fixed", "zz"]), "value": _number(0.1, 10.0)},
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
_LEVEL = _number(0.05, 0.99)

_CONFIG_KEYS = {
    "simulate": {
        "model": _MODEL, "n": _N, "seed": _SEED, "out": _PATH, "with_truth": st.booleans()
    },
    "infer": {
        "input": _PATH,
        "out": _PATH,
        "horizon": _number(0.1, 10.0),
        "threshold": _THRESHOLD,
        "prior": _PRIOR,
        "level": _LEVEL,
        "truncate_positive": st.booleans(),
        "density_grid": st.integers(2, 50),
        "density_out": _PATH,
    },
    "coverage": {
        "model": _object(_DIFFUSION),
        "lambda_grid": st.lists(_number(0.0, 50.0), min_size=1, max_size=3),
        "tau_grid": st.lists(_number(0.1, 5.0), min_size=1, max_size=3),
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
        "theta_star": _number(0.1, 20.0), "jump_qv": _number(0.0, 20.0),
        "horizon": _number(0.1, 10.0), "n": _N, "out": _PATH,
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


def test_readme_layout_lists_every_module():
    root = Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("## Layout", 1)[1].split("```", 2)[1]
    documented = set(re.findall(r"^  (\w+\.py) ", block, re.MULTILINE))
    modules = {path.name for path in (root / "src" / "jumpvol").glob("*.py")}
    assert documented == modules - {"__init__.py"}


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


# Each command that runs replications, at its reps floor and n <= 60 (coverage
# at a few reps), with the default jump rate of its model.
_FLOOR_RUNS = {
    "coverage": {"lambda_grid": [4.0], "tau_grid": [1.0], "n_grid": [60], "reps": 8},
    "diag bvm": {"n_grid": [20, 60], "reps": 100},
    "diag mse": {"n": 60, "reps": 1000},
    "diag qvrate": {"n_grid": [6, 20, 60], "reps": 200},
}


@st.composite
def _floor_runs(draw):
    """A command of ``_FLOOR_RUNS`` with one or two of ``beta`` (either
    sign), ``theta_star``, ``horizon``, ``jump_rate`` and the size law (a
    two-point ``tau``, or a ``table`` of values of either sign) drawn
    log-uniformly from 1e-300 to 1e300.  ``jump_rate * horizon`` stays at
    1e4 or less, so that no draw allocates gigabytes."""
    command = draw(st.sampled_from(sorted(_FLOOR_RUNS)))
    config = {"model": {}, **_FLOOR_RUNS[command]}  # a key below replaces, never mutates
    model = config["model"]
    keys = draw(st.lists(
        st.sampled_from(["beta", "theta_star", "horizon", "jump_rate", "sizes"]),
        min_size=1, max_size=2, unique=True,
    ))

    def power(high=300.0):
        return 10.0 ** draw(st.floats(-300.0, high))

    def signed():
        return draw(st.sampled_from([-1.0, 1.0])) * power()

    if "beta" in keys:
        model["beta"] = signed()
    if "theta_star" in keys:
        model["theta_star"] = power()
    rate = config["lambda_grid"][0] if command == "coverage" else DEFAULT_MODEL["jump_rate"]
    horizon = DEFAULT_MODEL["horizon"]
    if "horizon" in keys:
        horizon = model["horizon"] = power(300.0 if "jump_rate" in keys else math.log10(1e4 / rate))
    if "jump_rate" in keys:
        rate = power(math.log10(1e4 / horizon))
        if command == "coverage":
            config["lambda_grid"] = [rate]
        else:
            model["jump_rate"] = rate
    if "sizes" in keys and command == "coverage":
        config["tau_grid"] = [power()]
    elif "sizes" in keys and draw(st.booleans()):
        model["jump_sizes"] = {"kind": "two_point", "tau": power()}
    elif "sizes" in keys:
        probs = draw(st.sampled_from([[1.0], [0.25, 0.75], [0.2, 0.3, 0.5]]))
        model["jump_sizes"] = {"kind": "table", "values": [signed() for _ in probs],
                               "probs": probs}
    return command, config


def _finite_or_documented(command: str, text: str) -> bool:
    """Whether every number of a command's CSV is finite, apart from the
    ``nan`` of ``qv_mae_log_slope`` and of a coverage cell whose
    replications are all degenerate."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    if command == "coverage":
        return all(
            all(math.isfinite(float(cell)) for cell in row[:4] + row[7:])
            and (row[3] == row[7] or all(math.isfinite(float(cell)) for cell in row[4:7]))
            for row in rows
        )
    return all(
        all(math.isfinite(float(cell)) for cell in row[2:] if cell)
        or (row[1] == "qv_mae_log_slope" and math.isnan(float(row[2])))
        for row in rows
    )


@settings(derandomize=True, deadline=None, max_examples=70)
@given(run=_floor_runs())
# a drift whose MLE overflows, and one whose squared error does
@example(run=("diag mse", {"model": {"beta": 1e300}, "n": 100, "reps": 1000}))
@example(run=("diag mse", {"model": {"beta": 1e100}, "n": 20, "reps": 1000}))
# jump sizes whose squares are finite but whose sums overflow: the flagged
# sum of a coverage row, and a diag qvrate error, whose stderr took inf - inf
@example(run=("coverage", {"model": {}, "lambda_grid": [4.0], "tau_grid": [1e154],
                           "n_grid": [60], "reps": 8}))
@example(run=("diag qvrate", {"model": {"beta": -1e18,
                                        "jump_sizes": {"kind": "two_point", "tau": 1e154}},
                              "n_grid": [6, 20, 60], "reps": 200}))
# a normal limit so narrow that the TV tail search squares a z past 1e154
@example(run=("diag bvm", {"model": {"theta_star": 1e-154, "horizon": 1e-152},
                           "n_grid": [20, 60], "reps": 100}))
def test_every_replicating_command_exits_with_finite_output_or_a_message(
    run, tmp_path_factory
):
    # a numpy warning fails the run under Tier-1's warnings filter, and any
    # other exception escapes main as a traceback would
    command, config = run
    work = tmp_path_factory.mktemp("floor")
    (work / "cfg.json").write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split() + ["--config", str(work / "cfg.json"),
                                       "--out", str(work / "out")])
    if code == 0:
        assert _finite_or_documented(command, (work / "out").read_text())
    elif code == 4:
        assert json.loads(out.getvalue())["message"]
    else:
        assert code in (2, 3) and err.getvalue().startswith("jumpvol: ")


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
    assert record["eta"] is None  # RFC 8259 JSON has no Infinity


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")

    return json.loads(text, parse_constant=refuse)


def test_infer_with_a_zero_iqr_writes_null_eta(tmp_path, capsys):
    # at this volatility the diffusion is lost in the rounding of the drift,
    # so every |D_i| is alike, the IQR is 0 and no threshold is finite
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"theta_star": 1e-300}, "n": 500}))
    csv_path = tmp_path / "path.csv"
    run_cli(["simulate", "--config", str(cfg), "--seed", "2", "--out", str(csv_path)], capsys)
    code, out, _ = run_cli(["infer", "--input", str(csv_path), "--out", "-"], capsys)
    assert code == 0
    assert '"eta": null' in out
    assert _strict_json(out)["eta"] is None


def test_infer_result_that_is_not_finite_exits_4(tmp_path, capsys, monkeypatch):
    # a non-finite number in the result never reaches the output as Infinity
    def infinite_normal(theta_hat, qv, horizon, n):
        return SimpleNamespace(mean=math.inf, variance=1.0)

    monkeypatch.setattr("jumpvol.cli.bvm_normal", infinite_normal)
    csv_path = tmp_path / "path.csv"
    run_cli(["simulate", "--n", "500", "--seed", "4", "--out", str(csv_path)], capsys)
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(["infer", "--input", str(csv_path), "--out", str(out_path)], capsys)
    assert code == 4
    diagnostic = _strict_json(out)
    assert diagnostic["error"] == "numeric"
    assert "not finite" in diagnostic["message"]
    assert not out_path.exists()


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


def test_infer_refuses_a_repeated_column(monkeypatch, capsys):
    # without the check the last D_i column would silently win
    body = "D_i,D_i\n0.1,0.2\n0.3,0.4\n-0.2,0.1\n0.05,0.3\n0.2,-0.1\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(body))
    code, out, err = run_cli(["infer", "--input", "-", "--out", "-"], capsys)
    assert code == 2
    assert "repeated columns in increments file: ['D_i']" in err
    assert out == ""


def test_infer_names_an_infinite_bvm_variance(tmp_path, capsys):
    csv_path = tmp_path / "big.csv"
    csv_path.write_text("D_i\n1e150\n-2e150\n3e150\n1e150\n-1e150\n2e150\n")
    code, out, err = run_cli(["infer", "--input", str(csv_path), "--out", "-"], capsys)
    assert code == 2
    assert "variance must be positive and finite, got inf" in err
    assert out == ""


def test_infer_theta_hat_that_overflows_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "path.csv"
    run_cli(["simulate", "--n", "20", "--out", str(csv_path)], capsys)
    code, out, err = run_cli(
        ["infer", "--input", str(csv_path), "--horizon", "1e-320", "--out", "-"], capsys
    )
    assert (code, out) == (2, "")
    assert "theta_hat = sum D_i^2 / horizon overflows" in err and "horizon = 1e-320" in err


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
        (["--density-out", "DIR/d.csv"], "density_grid is not"),
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
    assert not (tmp_path / "d.csv").exists()


def test_infer_writes_nothing_when_the_density_grid_fails(tmp_path, capsys, monkeypatch):
    # the grid and its densities are computed before the result is written
    def fail(self, x):
        raise NumericError("density missed its tolerance")

    monkeypatch.setattr(GibbsPosterior, "pdf", fail)
    raw = tmp_path / "raw.csv"
    raw.write_text("0.1\n-0.2\n0.3\n-0.4\n0.5\n")
    result, density = tmp_path / "r.json", tmp_path / "d.csv"
    args = ["infer", "--input", str(raw), "--density-grid", "5", "--density-out", str(density)]
    code, out, _ = run_cli(args + ["--out", "-"], capsys)
    assert code == 4
    assert json.loads(out) == {"error": "numeric", "message": "density missed its tolerance"}
    code, _, _ = run_cli(args + ["--out", str(result)], capsys)
    assert code == 4
    assert not result.exists() and not density.exists()


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


@pytest.mark.parametrize(
    "config, fragment",
    [
        # two of the three replications have jumps whose squares overflow
        pytest.param({"tau_grid": [1e160]},
                     "theta_hat = sum D_i^2 / horizon overflows: sum D_i^2 = inf, horizon = 1.0",
                     id="jump-squares"),
        pytest.param({"tau_grid": [1.0], "model": {"theta_star": 1e307}},
                     "posterior rate overflows to inf at theta_hat = ", id="posterior-rate"),
    ],
)
def test_coverage_overflow_is_refused_not_counted_degenerate(config, fragment, tmp_path, capsys):
    cfg = tmp_path / "cov.json"
    cfg.write_text(json.dumps({"lambda_grid": [1.0], "n_grid": [50], **config}))
    code, out, err = run_cli(
        ["coverage", "--config", str(cfg), "--reps", "3", "--out", "-"], capsys
    )
    assert (code, out) == (2, "")
    assert fragment in err


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
        ["diag", "sandwich", "--horizon", "1"],
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


@pytest.mark.parametrize(
    "diag, config",
    [
        ("sandwich", {"theta_star": 1e300}),
        ("bvm", {"model": {"theta_star": 1e300}, "n_grid": [1000, 2000], "reps": 100}),
        ("mse", {"model": {"theta_star": 1e300}, "reps": 1000, "n": 100}),
    ],
)
def test_diag_volatility_whose_square_overflows_exits_2(diag, config, tmp_path, capsys):
    code, err = _run_with_config(["diag", diag], config, tmp_path, capsys)
    assert code == 2
    assert "theta_dagger is 1e+300, whose square overflows" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "diag, config",
    [
        ("sandwich", {"theta_star": 1.2e154, "n": 1}),
        ("mse", {"model": {"theta_star": 1.2e154}, "reps": 1000, "n": 100}),
        ("bvm", {"model": {"theta_star": 1.2e154}, "n_grid": [200, 400], "reps": 100}),
    ],
)
def test_diag_volatility_whose_doubled_square_overflows_exits_2(diag, config, tmp_path, capsys):
    # (1.2e154)^2 is finite, twice it is not
    code, err = _run_with_config(["diag", diag], config, tmp_path, capsys)
    assert code == 2
    assert "overflows at theta_star = 1.2e+154 (theta_dagger = 1.2e+154)" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "diag, config, what",
    [
        ("mse", {"model": {"theta_star": 1e-300}, "reps": 1000, "n": 100}, "the sandwich variance"),
        ("mse", {"model": {"theta_star": 1e-300, "jump_rate": 0.0}, "reps": 1000, "n": 100},
         "the product form"),
        ("sandwich", {"theta_star": 1e-300, "n": 1}, "the sandwich variance"),
        ("bvm", {"model": {"theta_star": 1e-300}, "n_grid": [200, 400], "reps": 100},
         "the tempered limit variance"),
        ("bvm", {"model": {"theta_star": 1e-300, "jump_rate": 0.0}, "n_grid": [200, 400],
                 "reps": 100}, "the tempered limit variance"),
    ],
)
def test_diag_volatility_that_underflows_exits_2(diag, config, what, tmp_path, capsys):
    code, err = _run_with_config(["diag", diag], config, tmp_path, capsys)
    assert code == 2
    theta_star = config.get("model", config)["theta_star"]
    assert what in err and f"underflows to 0 at theta_star = {theta_star!r}" in err
    assert not (tmp_path / "out").exists()


def test_diag_bvm_limit_too_narrow_to_resolve_exits_2(tmp_path, capsys):
    config = {"model": {"theta_star": 1e-160, "jump_rate": 0.0}, "n_grid": [200, 400], "reps": 100}
    code, err = _run_with_config(["diag", "bvm"], config, tmp_path, capsys)
    assert code == 2
    assert "cannot resolve at the mean" in err and "at theta_star = 1e-160" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "diag, config",
    [
        pytest.param(
            "mse", {"model": {"theta_star": 1e150}, "reps": 1000, "n": 100}, id="mse-1e150"
        ),
        # the sum of squared deviations behind empirical_variance would overflow
        pytest.param(
            "mse", {"model": {"theta_star": 3e153}, "reps": 1000, "n": 100}, id="mse-3e153"
        ),
        pytest.param(
            "qvrate",
            {"model": {"theta_star": 1e200}, "n_grid": [100, 300, 1000], "reps": 200},
            id="qvrate-1e200",
        ),
    ],
)
def test_diag_stderr_of_large_values_is_finite(diag, config, tmp_path, capsys):
    # the squares behind each mc_stderr would overflow unscaled
    code, _ = _run_with_config(["diag", diag], config, tmp_path, capsys)
    assert code == 0
    rows = [line.split(",") for line in (tmp_path / "out").read_text().splitlines()[1:]]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[2:] if cell)


def test_diag_cell_that_is_not_finite_exits_4(tmp_path, capsys):
    # a jump of 1e200 has a square of inf, so each absolute QV error is nan
    cfg = tmp_path / "cfg.json"
    config = {
        "model": {"jump_sizes": {"kind": "two_point", "tau": 1e200}},
        "n_grid": [20, 60, 200],
        "reps": 200,
    }
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, stdout, _ = run_cli(["diag", "qvrate", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 4
    diagnostic = json.loads(stdout)
    assert diagnostic["error"] == "numeric"
    assert diagnostic["message"].startswith("qv_mae at n = 20 is not finite: nan")
    assert not out.exists()


def test_jump_sizes_whose_squares_overflow_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    config = {"model": {"jump_sizes": {"kind": "two_point", "tau": 1e200}}, "n": 200, "reps": 1000}
    cfg.write_text(json.dumps(config))
    code, _, err = run_cli(["diag", "mse", "--config", str(cfg), "--out", "-"], capsys)
    assert code == 2
    assert "jump_qv is inf: the squared jump sizes overflow float64" in err


@pytest.mark.parametrize(
    "config, fragments",
    [
        pytest.param({"model": {"beta": 1e300}, "n": 100, "reps": 1000},
                     ["theta_hat = sum D_i^2 / horizon overflows"], id="mle"),
        pytest.param({"model": {"beta": 1e100}, "n": 20, "reps": 1000},
                     ["the squared error (theta_hat - theta_dagger)^2 overflows", "(beta = 1e+100)"],
                     id="squared-error"),
    ],
)
def test_diag_mse_drift_that_overflows_exits_2(config, fragments, tmp_path, capsys):
    # the drift beta * delta dominates each increment; the refusal comes
    # before numpy can warn of the overflow, which Tier-1 would fail
    code, err = _run_with_config(["diag", "mse"], config, tmp_path, capsys)
    assert code == 2
    assert all(fragment in err for fragment in fragments)
    assert not (tmp_path / "out").exists()


# A JSON integer beyond float range, which a number key refuses.
_HUGE = 10**400


@pytest.mark.parametrize(
    "argv, config, env, code, fragment",
    [
        pytest.param(["simulate"], b'{"out": "\xff\xfe"}', {}, 2, "invalid JSON in cfg.json",
                     id="not-utf8"),
        pytest.param(["simulate"], '{"n": 1' + "0" * 5000 + "}", {}, 2, "invalid JSON in cfg.json",
                     id="too-many-digits"),
        pytest.param(["simulate"], "[" * 100_000 + "]" * 100_000, {}, 2, "invalid JSON in cfg.json",
                     id="too-deep"),
        pytest.param(["simulate"], "{", {}, 2, "invalid JSON in cfg.json", id="not-json"),
        pytest.param(["simulate"], "[1]", {}, 2, "config cfg.json must be a JSON object",
                     id="not-an-object"),
        pytest.param(["simulate", "--config", "missing.json"], None, {}, 2,
                     "config file not found: missing.json", id="missing-config"),
        pytest.param(["simulate"], {"model": {"theta_star": _HUGE}}, {}, 2,
                     "config key 'theta_star' must be a number", id="huge-theta-star"),
        pytest.param(["infer"], {"level": _HUGE}, {}, 2, "config key 'level' must be a number",
                     id="huge-level"),
        pytest.param(["simulate"],
                     {"model": {"jump_sizes": {"kind": "table", "values": [_HUGE], "probs": [1]}}},
                     {}, 2, "config key 'values' must be a list of numbers",
                     id="huge-table-value"),
        pytest.param(["infer"], {"prior": {"shape": 2.0}}, {}, 2, "config key 'rate' is missing",
                     id="missing-nested-key"),
        pytest.param(["infer"], {"threshold": 5}, {}, 2, "cannot interpret threshold 5",
                     id="threshold-of-wrong-type"),
        pytest.param(["simulate"], None, {"JUMPVOL_SEED": "abc"}, 2,
                     "JUMPVOL_SEED must be an integer, got 'abc'", id="env-seed-not-an-integer"),
        pytest.param(["simulate", "--tau", "0"], None, {}, 2,
                     "two-point size law requires tau > 0, got 0.0", id="simulate-tau-of-0"),
        pytest.param(["diag", "qvrate"],
                     {"model": {"jump_rate": 0.0}, "threshold": "fixed:inf",
                      "n_grid": [20, 60, 200], "reps": 200},
                     {}, 0, "\n200,qv_mae,0.0,0.0\n,qv_mae_log_slope,nan,\n",
                     id="qvrate-nan-slope"),
    ],
)
def test_boundary_input_exits_with_its_code(
    argv, config, env, code, fragment, tmp_path, capsys, monkeypatch
):
    # the code and message of each boundary rule, never a traceback (a jump of
    # 1e200 is the case of test_diag_cell_that_is_not_finite_exits_4); a config
    # object is written as JSON, a string or bytes as they are
    monkeypatch.chdir(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    (tmp_path / "raw.csv").write_text("0.1\n-0.2\n0.3\n-0.4\n0.5\n")
    if config is not None:
        text = json.dumps(config) if isinstance(config, dict) else config
        (tmp_path / "cfg.json").write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = argv + ["--config", "cfg.json"]
    if argv[0] == "infer":
        argv = argv + ["--input", "raw.csv"]
    got, out, err = run_cli(argv + ["--out", "-"], capsys)
    assert (got, "Traceback" in err) == (code, False)
    assert fragment in out + err


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_FLAG_SETS = {
    "simulate": "--config --n --out --rate --seed --tau --with-truth",
    "infer": "--config --density-grid --density-out --horizon --input --level --out --threshold "
    "--truncate-positive",
    "coverage": "--config --level --out --reps --seed --threshold --workers",
    "diag bvm": "--config --out --reps --seed --threshold",
    "diag qvrate": "--config --out --reps --seed --threshold",
    "diag sandwich": "--config --n --out",
    "diag mse": "--config --n --out --reps --seed",
}


def _subparser(parser, names):
    for name in names:
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = commands.choices[name]
    return parser


def test_every_command_has_a_pinned_flag_set():
    assert set(_FLAG_SETS) == set(_SCHEMAS)


@pytest.mark.parametrize("command, flags", _FLAG_SETS.items())
def test_flag_sets_are_pinned(command, flags):
    parser = _subparser(build_parser(), command.split())
    options = {option for action in parser._actions for option in action.option_strings}
    assert sorted(options - {"-h", "--help"}) == flags.split()


# ---------------------------------------------------------------------------
# exit codes and entry point
# ---------------------------------------------------------------------------

# more float64 elements than one numpy array can hold (its limit is
# np.iinfo(np.intp).max // 8), so the size is refused before any allocation
_HUGE = 2**62
_ABOVE_POISSON_LIMIT = {"lambda_grid": [1e300, 2e300], "tau_grid": [1.0], "n_grid": [100],
                        "reps": 1}


@pytest.mark.parametrize(
    "args, config, message",
    [
        (["simulate", "--rate", "1e300"], None, "rate * horizon is 1e+300, above the Poisson"),
        (["simulate"], {"model": {"horizon": 1e300}}, "rate * horizon is 5e+300"),
        (["coverage", "--workers", "1"], _ABOVE_POISSON_LIMIT, "rate * horizon is 1e+300"),
        (["coverage", "--workers", "2"], _ABOVE_POISSON_LIMIT, "rate * horizon is 1e+300"),
        (["simulate", "--rate", "5e18"], None, "more than an array can hold"),
        (["simulate", "--n", str(_HUGE)], None, f"n is {_HUGE}, more than an array can hold"),
        (["diag", "bvm"], {"n_grid": [_HUGE, _HUGE + 1], "reps": 100}, f"n is {_HUGE}"),
        (["diag", "mse", "--n", str(_HUGE)], None, f"n is {_HUGE}"),
        (
            ["infer", "--input", "RAW", "--density-grid", str(_HUGE), "--density-out", "DENSITY"],
            None,
            f"density grid is {_HUGE}, more than an array can hold",
        ),
    ],
    ids=["simulate-rate", "simulate-horizon", "coverage-1-worker", "coverage-2-workers",
         "simulate-jump-count", "simulate-n", "diag-bvm-n", "diag-mse-n", "infer-density-grid"],
)
def test_sizes_numpy_cannot_draw_or_hold_exit_2(args, config, message, tmp_path, capsys):
    raw, density, out = tmp_path / "raw.csv", tmp_path / "d.csv", tmp_path / "out"
    raw.write_text("0.1\n-0.2\n0.3\n-0.4\n0.5\n")
    args = [{"RAW": str(raw), "DENSITY": str(density)}.get(arg, arg) for arg in args]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args += ["--config", str(tmp_path / "cfg.json")]
    code, stdout, err = run_cli(args + ["--out", str(out)], capsys)
    assert code == 2
    assert message in err
    assert stdout == "" and "Traceback" not in err
    assert not out.exists() and not density.exists()


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
    # start-up pays for scipy.special and scipy's private support modules
    # only: the root solver is imported only when a closed-form quantile
    # misses, and no other scipy subpackage is needed at all
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, jumpvol.cli; "
            "print(' '.join(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    allowed = {"__config__", "_cyutility", "_distributor_init", "_lib", "special", "version"}
    assert set(proc.stdout.split()) <= allowed
