"""Command line interface: ``simulate``, ``infer``, ``coverage``, ``diag``.

JSON configs come in, CSV/JSON artifacts go out.  Unknown config keys are
rejected, all numeric output is written with round-trip-safe formatting, and
every command is deterministic given (config, seed).  The ``JUMPVOL_SEED``
environment variable overrides any configured seed.

Exit codes: 0 success, 2 configuration error, 3 I/O failure, 4 degenerate
inference or a numeric routine that missed its tolerance (with a structured
diagnostic JSON on stdout).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from .diagnostics import TruthSummary, bvm_convergence_check, mse_oracle, sandwich_variance
from .errors import ConfigurationError, DegenerateInferenceError, NumericError
from .harness import CoverageConfig, run_coverage, write_coverage_csv
from .posterior import InverseGammaParams, bvm_normal, credible_interval, infer_increments
from .simulate import (
    DiffusionSpec,
    FixedSize,
    JumpSpec,
    SizeTable,
    TwoPointSizes,
    read_increments_csv,
    simulate_jumps,
    simulate_path,
    write_increments_csv,
)
from .threshold import ThresholdRule, qv_error_rate

DEFAULT_SEED = 0
DEFAULT_MODEL = {
    "beta": 1.0,
    "theta_star": 10.0,
    "horizon": 1.0,
    "jump_rate": 5.0,
    "jump_sizes": {"kind": "two_point", "tau": 3.0},
}

_MODEL_KEYS = {"beta", "theta_star", "horizon", "jump_rate", "jump_sizes"}
_MODEL_BASE_KEYS = {"beta", "theta_star", "horizon"}
_PRIOR_KEYS = {"shape", "rate"}
_SIZE_KEYS = {
    "two_point": {"kind", "tau"},
    "fixed": {"kind", "value"},
    "table": {"kind", "values", "probs"},
}


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigurationError(f"unknown config keys in {where}: {sorted(unknown)}")


def _load_config(path: str | None, allowed: set, where: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            config = json.load(handle)
    except FileNotFoundError as err:
        raise ConfigurationError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"invalid JSON in {path}: {err}") from err
    if not isinstance(config, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    _check_keys(config, allowed, where)
    return config


def _size_law(spec: dict):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError("jump_sizes must be an object with a 'kind'")
    kind = spec["kind"]
    if kind not in _SIZE_KEYS:
        raise ConfigurationError(f"unknown jump size law {kind!r}")
    _check_keys(spec, _SIZE_KEYS[kind], "jump_sizes")
    if kind == "two_point":
        return TwoPointSizes(_config_float(spec, "tau"))
    if kind == "fixed":
        return FixedSize(_config_float(spec, "value"))
    return SizeTable(tuple(spec["values"]), tuple(spec["probs"]))


def _model_from(config: dict, with_jumps: bool = True):
    merged = dict(DEFAULT_MODEL)
    merged.update(config.get("model", {}))
    _check_keys(merged, _MODEL_KEYS, "model")
    diff = DiffusionSpec(
        beta=_config_float(merged, "beta"),
        theta_star=_config_float(merged, "theta_star"),
        horizon=_config_float(merged, "horizon"),
    )
    if not with_jumps:
        _check_keys(config.get("model", {}), _MODEL_BASE_KEYS, "model")
        return diff, None
    jumps = JumpSpec(
        rate=_config_float(merged, "jump_rate"), size_law=_size_law(merged["jump_sizes"])
    )
    return diff, jumps


def _prior_from(config: dict) -> InverseGammaParams:
    raw = config.get("prior", {"shape": 1.0, "rate": 1.0})
    _check_keys(raw, _PRIOR_KEYS, "prior")
    return InverseGammaParams(shape=_config_float(raw, "shape"), rate=_config_float(raw, "rate"))


def _threshold_from(args, config: dict) -> ThresholdRule:
    raw = args.threshold if args.threshold is not None else config.get("threshold", "iqr:5")
    if isinstance(raw, str):
        return ThresholdRule.parse(raw)
    if isinstance(raw, dict):
        _check_keys(raw, {"kind", "value"}, "threshold")
        return ThresholdRule(kind=str(raw["kind"]), value=_config_float(raw, "value"))
    raise ConfigurationError(f"cannot interpret threshold {raw!r}")


def _config_int(config: dict, key: str, default):
    """The integer ``config[key]``, or ``default`` when the key is absent."""
    if key not in config:
        return default
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _config_float(config: dict, key: str, default=None) -> float:
    """The number ``config[key]`` as a float, or ``default`` when the key is
    absent; with no default the key is required."""
    if key not in config:
        if default is None:
            raise ConfigurationError(f"config key {key!r} is missing")
        return default
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _nonnegative_seed(seed: int, source: str) -> int:
    if seed < 0:
        raise ConfigurationError(f"{source} must be a nonnegative integer, got {seed}")
    return seed


def _resolve_seed(flag_seed, config: dict) -> int:
    env = os.environ.get("JUMPVOL_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as err:
            raise ConfigurationError(f"JUMPVOL_SEED must be an integer, got {env!r}") from err
        return _nonnegative_seed(seed, "JUMPVOL_SEED")
    if flag_seed is not None:
        return _nonnegative_seed(flag_seed, "--seed")
    return _nonnegative_seed(_config_int(config, "seed", DEFAULT_SEED), "config key 'seed'")


def _resolve_out(flag_out, config: dict, key: str = "out") -> str:
    out = flag_out if flag_out is not None else config.get(key, "-")
    if out != "-":
        parent = Path(out).resolve().parent
        if not parent.is_dir():
            raise ConfigurationError(f"output directory does not exist: {parent}")
    return out


def _resolve_input(flag_input, config: dict) -> str:
    source = flag_input if flag_input is not None else config.get("input", "-")
    if source != "-" and not Path(source).is_file():
        raise ConfigurationError(f"input file not found: {source}")
    return source


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _diag_csv(rows) -> str:
    lines = ["n,statistic,value,mc_stderr"]
    for n, statistic, value, stderr in rows:
        n_txt = "" if n is None else str(n)
        se_txt = "" if stderr is None else repr(float(stderr))
        lines.append(f"{n_txt},{statistic},{float(value)!r},{se_txt}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

_SIMULATE_KEYS = {"model", "n", "seed", "out", "with_truth"}


def cmd_simulate(args) -> int:
    config = _load_config(args.config, _SIMULATE_KEYS, "simulate config")
    if args.rate is not None or args.tau is not None:
        model = dict(config.get("model", {}))
        if args.rate is not None:
            model["jump_rate"] = args.rate
        if args.tau is not None:
            model["jump_sizes"] = {"kind": "two_point", "tau": args.tau}
        config["model"] = model
    diff, jumps = _model_from(config)
    n = args.n if args.n is not None else _config_int(config, "n", 5000)
    seed = _resolve_seed(args.seed, config)
    out = _resolve_out(args.out, config)
    with_truth = args.with_truth or bool(config.get("with_truth", False))
    path = simulate_path(diff, jumps, n, seed=seed)
    buf = io.StringIO()
    write_increments_csv(buf, path, with_truth=with_truth)
    _write_text(out, buf.getvalue())
    return 0


_INFER_KEYS = {
    "input",
    "out",
    "horizon",
    "threshold",
    "prior",
    "level",
    "truncate_positive",
    "density_grid",
    "density_out",
}


def cmd_infer(args) -> int:
    config = _load_config(args.config, _INFER_KEYS, "infer config")
    source = _resolve_input(args.input, config)
    out = _resolve_out(args.out, config)
    rule = _threshold_from(args, config)
    prior = _prior_from(config)
    level = args.level if args.level is not None else _config_float(config, "level", 0.95)
    truncate = args.truncate_positive or bool(config.get("truncate_positive", False))
    density_grid = args.density_grid
    if density_grid is None:
        density_grid = _config_int(config, "density_grid", None)
    density_out = args.density_out if args.density_out is not None else config.get("density_out")

    data = read_increments_csv(sys.stdin if source == "-" else source)
    if args.horizon is not None:
        horizon = args.horizon
    elif "horizon" in config:
        horizon = _config_float(config, "horizon")
    elif data.horizon is not None:
        horizon = data.horizon
    else:
        horizon = 1.0

    inf = infer_increments(data.increments, horizon, rule, prior)
    dist = inf.modified.truncated_positive() if truncate else inf.modified
    interval = credible_interval(dist, level)
    approx = bvm_normal(inf.theta_hat, inf.qv, horizon, inf.n)
    post = inf.posterior
    record = {
        "theta_hat": inf.theta_hat,
        "jump_qv_hat": inf.qv.jump_qv_hat,
        "eta": inf.qv.eta,
        "kappa": inf.kappa,
        "posterior": {"shape": post.ig.shape, "rate": post.ig.rate, "shift": inf.modified.shift},
        "interval": {"level": level, "lo": interval.lo, "hi": interval.hi},
        "bvm": {"mean": approx.mean, "variance": approx.variance},
    }
    _write_text(out, json.dumps(record, indent=2) + "\n")

    if density_grid is not None:
        if density_grid < 2:
            raise ConfigurationError(f"density grid needs at least 2 points, got {density_grid}")
        if density_out is None:
            raise ConfigurationError("density output path required when density_grid is set")
        _resolve_out(density_out, {}, key="out")
        # grid spans the central 99.9% posterior mass
        grid = np.linspace(dist.ppf(0.0005), dist.ppf(0.9995), density_grid)
        density = dist.pdf(grid)
        lines = ["theta,density"]
        lines.extend(f"{float(t)!r},{float(p)!r}" for t, p in zip(grid, density))
        _write_text(density_out, "\n".join(lines) + "\n")
    return 0


_COVERAGE_KEYS = {
    "model",
    "lambda_grid",
    "tau_grid",
    "n_grid",
    "reps",
    "level",
    "threshold",
    "prior",
    "seed",
    "out",
    "workers",
}


def cmd_coverage(args) -> int:
    config = _load_config(args.config, _COVERAGE_KEYS, "coverage config")
    diff, _ = _model_from(config, with_jumps=False)
    seed = _resolve_seed(args.seed, config)
    out = _resolve_out(args.out, config)
    reps = args.reps if args.reps is not None else _config_int(config, "reps", 1000)
    workers = args.workers if args.workers is not None else _config_int(config, "workers", 1)
    coverage_config = CoverageConfig(
        diffusion=diff,
        lambda_grid=tuple(config.get("lambda_grid", (4.0, 8.0, 16.0, 32.0))),
        tau_grid=tuple(config.get("tau_grid", (1.0, 2.0, 4.0, 8.0))),
        n_grid=tuple(config.get("n_grid", (5000,))),
        reps=reps,
        level=args.level if args.level is not None else _config_float(config, "level", 0.95),
        threshold=_threshold_from(args, config),
        prior=_prior_from(config),
        base_seed=seed,
    )
    rows = run_coverage(coverage_config, workers=workers)
    buf = io.StringIO()
    write_coverage_csv(buf, rows)
    _write_text(out, buf.getvalue())
    return 0


_DIAG_KEYS = {
    "bvm": {"model", "n_grid", "reps", "prior", "threshold", "seed", "out"},
    "sandwich": {"theta_star", "jump_qv", "horizon", "n", "out"},
    "mse": {"model", "n", "reps", "jumps_seed", "seed", "out"},
    "qvrate": {"model", "n_grid", "reps", "threshold", "seed", "out"},
}


def cmd_diag(args) -> int:
    sub = args.diag_command
    config = _load_config(args.config, _DIAG_KEYS[sub], f"diag {sub} config")
    out = _resolve_out(args.out, config)

    if sub == "sandwich":
        theta_star = _config_float(config, "theta_star", DEFAULT_MODEL["theta_star"])
        jump_qv = _config_float(config, "jump_qv", 0.0)
        horizon = _config_float(config, "horizon", DEFAULT_MODEL["horizon"])
        n = args.n if args.n is not None else _config_int(config, "n", 5000)
        truth = TruthSummary.from_values(theta_star, jump_qv, horizon)
        value = sandwich_variance(truth, horizon, n)
        _write_text(out, _diag_csv([(n, "sandwich_variance", value, None)]))
        return 0

    seed = _resolve_seed(args.seed, config)
    if sub == "bvm":
        diff, jumps = _model_from(config)
        n_grid = tuple(config.get("n_grid", (1000, 4000, 16000)))
        reps = args.reps if args.reps is not None else _config_int(config, "reps", 200)
        rows = bvm_convergence_check(
            diff,
            jumps,
            n_grid,
            reps,
            seed,
            prior=_prior_from(config),
            threshold=_threshold_from(args, config),
        )
        table = []
        for row in rows:
            table.append((row.n, "tv_tempered", row.tv_tempered, row.tv_tempered_stderr))
            table.append((row.n, "tv_modified", row.tv_modified, row.tv_modified_stderr))
        _write_text(out, _diag_csv(table))
        return 0

    if sub == "qvrate":
        diff, jumps = _model_from(config)
        n_grid = tuple(config.get("n_grid", (1000, 4000, 16000)))
        reps = args.reps if args.reps is not None else _config_int(config, "reps", 500)
        result = qv_error_rate(
            diff, jumps, n_grid, reps, seed, threshold=_threshold_from(args, config)
        )
        table = [
            (n, "qv_mae", mae, stderr)
            for n, mae, stderr in zip(result.n_grid, result.mae, result.mae_stderr)
        ]
        table.append((None, "qv_mae_log_slope", result.slope, None))
        _write_text(out, _diag_csv(table))
        return 0

    # mse: one fixed jump realization, diffusion redrawn per replication
    diff, jumps = _model_from(config)
    n = args.n if args.n is not None else _config_int(config, "n", 5000)
    reps = args.reps if args.reps is not None else _config_int(config, "reps", 4000)
    jumps_seed = _nonnegative_seed(
        _config_int(config, "jumps_seed", seed + 1), "config key 'jumps_seed'"
    )
    fixed = simulate_jumps(jumps, diff.horizon, seed=jumps_seed)
    result = mse_oracle(diff, fixed, n, reps, seed)
    table = [
        (n, "theta_dagger", result.theta_dagger, None),
        (n, "empirical_mse", result.empirical_mse, result.empirical_mse_stderr),
        (n, "empirical_variance", result.empirical_variance, result.empirical_variance_stderr),
        (n, "mse_product_form", result.product_form, None),
        (n, "sandwich_variance", result.sandwich, None),
        (n, "mse_vs_product_form", result.product_form_discrepancy, None),
        (n, "mse_vs_sandwich", result.sandwich_discrepancy, None),
    ]
    _write_text(out, _diag_csv(table))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpvol",
        description="Volatility inference for jump diffusions from equally spaced increments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate increments and write them as CSV")
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--out", help="output CSV path, or - for stdout")
    sim.add_argument("--n", type=int, help="number of increments")
    sim.add_argument("--seed", type=int, help="RNG seed")
    sim.add_argument("--rate", type=float, help="jumps per unit time")
    sim.add_argument("--tau", type=float, help="two-point jump magnitude")
    sim.add_argument("--with-truth", action="store_true", help="include the mu_i column")
    sim.set_defaults(func=cmd_simulate)

    inf = sub.add_parser("infer", help="run the inference pipeline on an increments CSV")
    inf.add_argument("--config", help="JSON config file")
    inf.add_argument("--input", help="increments CSV path, or - for stdin")
    inf.add_argument("--out", help="output JSON path, or - for stdout")
    inf.add_argument("--threshold", help="threshold rule, e.g. iqr:5 or fixed:0.5")
    inf.add_argument("--level", type=float, help="credible level (default 0.95)")
    inf.add_argument("--horizon", type=float, help="observation horizon T")
    inf.add_argument(
        "--truncate-positive",
        action="store_true",
        help="clip the shifted posterior to (0, inf) and renormalize",
    )
    inf.add_argument("--density-grid", type=int, help="emit this many (theta, density) rows")
    inf.add_argument("--density-out", help="CSV path for the density grid")
    inf.set_defaults(func=cmd_infer)

    cov = sub.add_parser("coverage", help="empirical coverage over a (rate, size, n) grid")
    cov.add_argument("--config", help="JSON config file")
    cov.add_argument("--out", help="output CSV path, or - for stdout")
    cov.add_argument("--reps", type=int, help="replications per cell")
    cov.add_argument("--seed", type=int, help="base seed")
    cov.add_argument("--level", type=float, help="credible level")
    cov.add_argument("--threshold", help="threshold rule")
    cov.add_argument("--workers", type=int, help="parallel workers (output-invariant)")
    cov.set_defaults(func=cmd_coverage)

    diag = sub.add_parser("diag", help="asymptotic-claim diagnostics")
    diag.add_argument(
        "diag_command", choices=("bvm", "sandwich", "mse", "qvrate"), help="diagnostic to run"
    )
    diag.add_argument("--config", help="JSON config file")
    diag.add_argument("--out", help="output CSV path, or - for stdout")
    diag.add_argument("--n", type=int, help="sample size (sandwich, mse)")
    diag.add_argument("--reps", type=int, help="replications")
    diag.add_argument("--seed", type=int, help="base seed")
    diag.add_argument("--threshold", help="threshold rule (bvm, qvrate)")
    diag.set_defaults(func=cmd_diag)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as err:
        print(f"jumpvol: configuration error: {err}", file=sys.stderr)
        return 2
    except DegenerateInferenceError as err:
        diagnostic = {"error": "degenerate_inference", "message": str(err)}
        sys.stdout.write(json.dumps(diagnostic, indent=2) + "\n")
        return 4
    except NumericError as err:
        diagnostic = {"error": "numeric", "message": str(err)}
        sys.stdout.write(json.dumps(diagnostic, indent=2) + "\n")
        return 4
    except OSError as err:
        print(f"jumpvol: I/O error: {err}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
