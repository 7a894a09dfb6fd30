"""Command line interface: ``simulate``, ``infer``, ``coverage``, ``diag``.

JSON configs come in, CSV/JSON artifacts go out.  Unknown config keys are
rejected, all numeric output is written with round-trip-safe formatting, and
every command is deterministic given (config, seed).  The ``JUMPVOL_SEED``
environment variable overrides any configured seed.

Exit codes: 0 success, 2 configuration error, 3 I/O or memory failure, 4
degenerate inference or a numeric routine that missed its tolerance (with a
structured diagnostic JSON on stdout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .diagnostics import (
    TruthSummary,
    bvm_convergence_check,
    mse_oracle,
    qv_error_rate,
    sandwich_variance,
)
from .errors import ConfigurationError, DegenerateInferenceError, NumericError
from .harness import CoverageConfig, run_coverage, write_coverage_csv
from .posterior import InverseGammaParams, bvm_normal, credible_interval, infer_increments
from .simulate import (
    DiffusionSpec,
    JumpSpec,
    SizeTable,
    TwoPointSizes,
    _check_length,
    _opened,
    read_increments_csv,
    simulate_jumps,
    simulate_path,
    write_increments_csv,
)
from .threshold import ThresholdRule

DEFAULT_SEED = 0
DEFAULT_MODEL = {
    "beta": 1.0,
    "theta_star": 10.0,
    "horizon": 1.0,
    "jump_rate": 5.0,
    "jump_sizes": {"kind": "two_point", "tau": 3.0},
}


# ---------------------------------------------------------------------------
# Config schema
#
# A table maps each config key of a command (or of a nested object) to
# ``(type, default)``.  A type is called as ``type(value, name)`` on a JSON
# value or a flag and returns what the command uses, or raises a
# ``ConfigurationError`` naming the key.  A default is already such a value;
# ``_REQUIRED`` marks a key that must be given, and None one whose fallback
# the command works out itself.
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A float, or an integer within float range, which ``float()`` converts."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def _leaf(what: str, valid, convert=None):
    def check(value, name: str):
        if not valid(value):
            raise ConfigurationError(f"{name} must be {what}, got {value!r}")
        return value if convert is None else convert(value)

    return check


_int = _leaf("an integer", _is_int)
_nonnegative = _leaf("a nonnegative integer", lambda value: value >= 0)
_float = _leaf("a number", _is_number, float)
_bool = _leaf("true or false", lambda value: isinstance(value, bool))
_str = _leaf("a string", lambda value: isinstance(value, str))
_dict = _leaf("a JSON object", lambda value: isinstance(value, dict))
_floats = _leaf(
    "a list of numbers",
    lambda value: isinstance(value, list) and all(map(_is_number, value)),
    lambda value: tuple(map(float, value)),
)
_ints = _leaf(
    "a list of integers",
    lambda value: isinstance(value, list) and all(map(_is_int, value)),
    tuple,
)


def _seed(value, name: str) -> int:
    return _nonnegative(_int(value, name), name)


def _resolve(table: dict, config: dict, where: str, args=None) -> dict:
    """Every key of ``table`` resolved as the flag ``args.<key>``, else
    ``config[key]``, else the default.  Unknown keys are rejected, and a
    config value is checked even when a flag overrides it."""
    unknown = set(config) - set(table)
    if unknown:
        raise ConfigurationError(f"unknown config keys in {where}: {sorted(unknown)}")
    resolved = {}
    for key, (kind, default) in table.items():
        flag = getattr(args, key, None)
        if key in config:
            resolved[key] = kind(config[key], f"config key {key!r}")
        if flag is not None:
            resolved[key] = kind(flag, "--" + key.replace("_", "-"))
        elif key not in config:
            if default is _REQUIRED:
                raise ConfigurationError(f"config key {key!r} is missing")
            resolved[key] = default
    return resolved


def _object(table: dict, build, where: str):
    """A JSON object checked against ``table`` and passed to ``build``."""

    def check(value, name: str):
        return build(**_resolve(table, _dict(value, name), where))

    return check


_SIZE_LAWS = {
    "two_point": _object({"tau": (_float, _REQUIRED)}, TwoPointSizes, "jump_sizes"),
    "fixed": _object(
        {"value": (_float, _REQUIRED)}, lambda value: SizeTable((value,), (1.0,)), "jump_sizes"
    ),
    "table": _object(
        {"values": (_floats, _REQUIRED), "probs": (_floats, _REQUIRED)}, SizeTable, "jump_sizes"
    ),
}


def _size_law(value, name: str):
    """A ``jump_sizes`` object: its ``kind`` picks the table of its other keys."""
    kind = _dict(value, name).get("kind")
    if not isinstance(kind, str) or kind not in _SIZE_LAWS:
        raise ConfigurationError(f"unknown jump size law {kind!r} in 'jump_sizes'")
    return _SIZE_LAWS[kind]({key: v for key, v in value.items() if key != "kind"}, name)


_threshold_object = _object(
    {"kind": (_str, _REQUIRED), "value": (_float, _REQUIRED)}, ThresholdRule, "threshold"
)


def _threshold(value, name: str) -> ThresholdRule:
    """A rule string such as ``iqr:5`` or a ``{"kind", "value"}`` object."""
    if isinstance(value, str):
        return ThresholdRule.parse(value)
    if isinstance(value, dict):
        return _threshold_object(value, name)
    raise ConfigurationError(f"cannot interpret threshold {value!r}")


def _specs(beta, theta_star, horizon, jump_rate, jump_sizes):
    return DiffusionSpec(beta, theta_star, horizon), JumpSpec(jump_rate, jump_sizes)


_DIFFUSION = {key: (_float, DEFAULT_MODEL[key]) for key in ("beta", "theta_star", "horizon")}
_diffusion = _object(_DIFFUSION, DiffusionSpec, "model")
_model = _object(
    {
        **_DIFFUSION,
        "jump_rate": (_float, DEFAULT_MODEL["jump_rate"]),
        "jump_sizes": (_size_law, _size_law(DEFAULT_MODEL["jump_sizes"], "jump_sizes")),
    },
    _specs,
    "model",
)
_prior = _object(
    {"shape": (_float, _REQUIRED), "rate": (_float, _REQUIRED)}, InverseGammaParams, "prior"
)

# entries shared by several commands
_MODEL = (_model, _model({}, "model"))
_PRIOR = (_prior, CoverageConfig.prior)
_THRESHOLD = (_threshold, CoverageConfig.threshold)
_LEVEL = (_float, CoverageConfig.level)
_N_GRID = (_ints, (1000, 4000, 16000))
_SEED = (_seed, DEFAULT_SEED)
_OUT = (_str, "-")

_SCHEMAS = {
    "simulate": {
        "model": _MODEL,
        "n": (_int, 5000),
        "seed": _SEED,
        "out": _OUT,
        "with_truth": (_bool, False),
    },
    "infer": {
        "input": (_str, "-"),
        "out": _OUT,
        "horizon": (_float, None),  # else the input's last t_i, else 1.0
        "threshold": _THRESHOLD,
        "prior": _PRIOR,
        "level": _LEVEL,
        "truncate_positive": (_bool, False),
        "density_grid": (_int, None),
        "density_out": (_str, None),
    },
    "coverage": {
        "model": (_diffusion, _diffusion({}, "model")),
        "lambda_grid": (_floats, CoverageConfig.lambda_grid),
        "tau_grid": (_floats, CoverageConfig.tau_grid),
        "n_grid": (_ints, CoverageConfig.n_grid),
        "reps": (_int, CoverageConfig.reps),
        "level": _LEVEL,
        "threshold": _THRESHOLD,
        "prior": _PRIOR,
        "seed": _SEED,
        "out": _OUT,
        "workers": (_int, 1),
    },
    "diag bvm": {
        "model": _MODEL,
        "n_grid": _N_GRID,
        "reps": (_int, 200),
        "prior": _PRIOR,
        "threshold": _THRESHOLD,
        "seed": _SEED,
        "out": _OUT,
    },
    "diag sandwich": {
        "theta_star": (_float, DEFAULT_MODEL["theta_star"]),
        "jump_qv": (_float, 0.0),
        "horizon": (_float, DEFAULT_MODEL["horizon"]),
        "n": (_int, 5000),
        "out": _OUT,
    },
    "diag mse": {
        "model": _MODEL,
        "n": (_int, 5000),
        "reps": (_int, 4000),
        "jumps_seed": (_seed, None),  # else seed + 1
        "seed": _SEED,
        "out": _OUT,
    },
    "diag qvrate": {
        "model": _MODEL,
        "n_grid": _N_GRID,
        "reps": (_int, 500),
        "threshold": _THRESHOLD,
        "seed": _SEED,
        "out": _OUT,
    },
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except FileNotFoundError as err:
        raise ConfigurationError(f"config file not found: {path}") from err
    except (ValueError, RecursionError) as err:  # not UTF-8 JSON, or too long or deep to decode
        raise ConfigurationError(f"invalid JSON in {path}: {err}") from err
    if not isinstance(config, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    return config


def _configure(args) -> SimpleNamespace:
    """The command's settings from its table, its flags and ``--config``.
    A seed comes from ``JUMPVOL_SEED``, else ``--seed``, else the config,
    else ``DEFAULT_SEED``."""
    schema = args.schema
    settings = _resolve(_SCHEMAS[schema], _load_config(args.config), f"{schema} config", args)
    env = os.environ.get("JUMPVOL_SEED")
    if "seed" in settings and env is not None:
        try:
            seed = int(env)
        except ValueError as err:
            raise ConfigurationError(f"JUMPVOL_SEED must be an integer, got {env!r}") from err
        settings["seed"] = _seed(seed, "JUMPVOL_SEED")
    return SimpleNamespace(**settings)


def _check_out(out: str):
    """Where ``out`` is written: stdout for ``-``, else the checked path."""
    if out == "-":
        return sys.stdout
    parent = Path(out).resolve().parent
    if not parent.is_dir():
        raise ConfigurationError(f"output directory does not exist: {parent}")
    return out


def _write_text(out, text: str) -> None:
    with _opened(out, "w") as handle:
        handle.write(text)


def _diag_csv(rows) -> str:
    """The diagnostic's CSV.  A cell that is not finite is refused, except the
    documented ``nan`` of ``qv_mae_log_slope`` when an MAE is 0."""
    lines = ["n,statistic,value,mc_stderr"]
    for n, statistic, value, stderr in rows:
        finite = math.isfinite(value) and (stderr is None or math.isfinite(stderr))
        if not finite and not (statistic == "qv_mae_log_slope" and math.isnan(value)):
            raise NumericError(
                f"{statistic} at n = {n} is not finite: {value!r}, mc_stderr {stderr!r}"
            )
        n_txt = "" if n is None else str(n)
        se_txt = "" if stderr is None else repr(float(stderr))
        lines.append(f"{n_txt},{statistic},{float(value)!r},{se_txt}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _configure(args)
    diff, jumps = cfg.model
    if args.rate is not None:
        jumps = replace(jumps, rate=args.rate)
    if args.tau is not None:
        jumps = replace(jumps, size_law=TwoPointSizes(args.tau))
    out = _check_out(cfg.out)
    path = simulate_path(diff, jumps, cfg.n, seed=cfg.seed)
    write_increments_csv(out, path, with_truth=cfg.with_truth)
    return 0


def cmd_infer(args) -> int:
    cfg = _configure(args)
    if cfg.input != "-" and not Path(cfg.input).is_file():
        raise ConfigurationError(f"input file not found: {cfg.input}")
    out = _check_out(cfg.out)
    density_grid = cfg.density_grid
    if density_grid is not None:
        if density_grid < 2:
            raise ConfigurationError(f"density grid needs at least 2 points, got {density_grid}")
        _check_length(density_grid, "density grid")
        if cfg.density_out is None:
            raise ConfigurationError("density output path required when density_grid is set")
        density_out = _check_out(cfg.density_out)

    data = read_increments_csv(sys.stdin if cfg.input == "-" else cfg.input)
    horizon = cfg.horizon
    if horizon is None:
        horizon = data.horizon if data.horizon is not None else 1.0

    inf = infer_increments(data.increments, horizon, cfg.threshold, cfg.prior)
    dist = inf.modified.truncated_positive() if cfg.truncate_positive else inf.modified
    interval = credible_interval(dist, cfg.level)
    approx = bvm_normal(inf.theta_hat, inf.qv, horizon, inf.n)
    post = inf.modified
    record = {
        "theta_hat": inf.theta_hat,
        "jump_qv_hat": inf.qv.jump_qv_hat,
        "eta": inf.qv.eta if math.isfinite(inf.qv.eta) else None,  # no finite threshold
        "kappa": inf.kappa,
        "posterior": {"shape": post.ig.shape, "rate": post.ig.rate, "shift": post.shift},
        "interval": {"level": cfg.level, "lo": interval.lo, "hi": interval.hi},
        "bvm": {"mean": approx.mean, "variance": approx.variance},
    }
    try:
        texts = [(out, json.dumps(record, indent=2, allow_nan=False) + "\n")]
    except ValueError as err:
        raise NumericError(f"the inference result is not finite: {record}") from err
    if density_grid is not None:
        # grid spans the central 99.9% posterior mass
        grid = np.linspace(dist.ppf(0.0005), dist.ppf(0.9995), density_grid)
        lines = ["theta,density"]
        lines.extend(f"{float(t)!r},{float(p)!r}" for t, p in zip(grid, dist.pdf(grid)))
        texts.append((density_out, "\n".join(lines) + "\n"))
    for sink, text in texts:  # nothing is written until everything is computed
        _write_text(sink, text)
    return 0


def cmd_coverage(args) -> int:
    cfg = _configure(args)
    out = _check_out(cfg.out)
    coverage_config = CoverageConfig(
        diffusion=cfg.model,
        lambda_grid=cfg.lambda_grid,
        tau_grid=cfg.tau_grid,
        n_grid=cfg.n_grid,
        reps=cfg.reps,
        level=cfg.level,
        threshold=cfg.threshold,
        prior=cfg.prior,
        base_seed=cfg.seed,
    )
    rows = run_coverage(coverage_config, workers=cfg.workers)
    write_coverage_csv(out, rows)
    return 0


def _bvm_rows(cfg):
    diff, jumps = cfg.model
    rows = bvm_convergence_check(
        diff, jumps, cfg.n_grid, cfg.reps, cfg.seed, prior=cfg.prior, threshold=cfg.threshold
    )
    for row in rows:
        yield row.n, "tv_tempered", row.tv_tempered, row.tv_tempered_stderr
        yield row.n, "tv_modified", row.tv_modified, row.tv_modified_stderr


def _sandwich_rows(cfg):
    truth = TruthSummary(cfg.theta_star, cfg.jump_qv, cfg.horizon)
    yield cfg.n, "sandwich_variance", sandwich_variance(truth, cfg.n), None


def _mse_rows(cfg):
    # one fixed jump realization, diffusion redrawn per replication
    diff, jumps = cfg.model
    n = cfg.n
    jumps_seed = cfg.jumps_seed if cfg.jumps_seed is not None else cfg.seed + 1
    fixed = simulate_jumps(jumps, diff.horizon, seed=jumps_seed)
    result = mse_oracle(diff, fixed, n, cfg.reps, cfg.seed)
    return [
        (n, "theta_dagger", result.theta_dagger, None),
        (n, "empirical_mse", result.empirical_mse, result.empirical_mse_stderr),
        (n, "empirical_variance", result.empirical_variance, result.empirical_variance_stderr),
        (n, "mse_product_form", result.product_form, None),
        (n, "sandwich_variance", result.sandwich, None),
        (n, "mse_vs_product_form", result.product_form_discrepancy, None),
        (n, "mse_vs_sandwich", result.sandwich_discrepancy, None),
    ]


def _qvrate_rows(cfg):
    diff, jumps = cfg.model
    result = qv_error_rate(diff, jumps, cfg.n_grid, cfg.reps, cfg.seed, threshold=cfg.threshold)
    for n, mae, stderr in zip(result.n_grid, result.mae, result.mae_stderr):
        yield n, "qv_mae", mae, stderr
    yield None, "qv_mae_log_slope", result.slope, None


#: Each diagnostic's help and its ``(n, statistic, value, mc_stderr)`` rows.
_DIAGS = {
    "bvm": ("mean TV distance of the posteriors to their normal limits", _bvm_rows),
    "sandwich": ("sandwich variance of the jump-blind estimator", _sandwich_rows),
    "mse": ("conditional Monte Carlo MSE of the jump-blind estimator", _mse_rows),
    "qvrate": ("error rate of the thresholded jump QV estimator", _qvrate_rows),
}


def cmd_diag(args) -> int:
    cfg = _configure(args)
    out = _check_out(cfg.out)
    _write_text(out, _diag_csv(_DIAGS[args.diag_command][1](cfg)))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

#: The help of each config key that has a flag; see ``_add_command``.
_FLAGS = {
    "input": "increments CSV path, or - for stdin",
    "out": "output path, or - for stdout",
    "n": "number of increments",
    "reps": "replications",
    "seed": "RNG seed",
    "threshold": "threshold rule, e.g. iqr:5 or fixed:0.5",
    "level": "credible level",
    "with_truth": "include the mu_i column",
    "truncate_positive": "clip the shifted posterior to (0, inf) and renormalize",
    "density_grid": "emit this many (theta, density) rows",
    "density_out": "CSV path for the density grid",
    "workers": "parallel workers (output-invariant)",
}

# how a flag of each schema type parses (else as a string); a flag left unset
# is None, so the config value or the default applies
_FLAG_KINDS = {_int: {"type": int}, _seed: {"type": int}, _float: {"type": float},
               _bool: {"action": "store_true", "default": None}}


def _add_command(commands, schema: str, summary: str, func):
    """The subparser for ``_SCHEMAS[schema]``, named by its last word: its flags
    are ``--config`` and one for each of its keys in ``_FLAGS``."""
    parser = commands.add_parser(schema.split()[-1], help=summary)
    parser.add_argument("--config", help="JSON config file")
    for key, (kind, _) in _SCHEMAS[schema].items():
        if key in _FLAGS:
            flag = "--" + key.replace("_", "-")
            parser.add_argument(flag, help=_FLAGS[key], **_FLAG_KINDS.get(kind, {}))
    parser.set_defaults(func=func, schema=schema)
    return parser


class _MisplacedDiagFlag(argparse.Action):
    """A ``diag`` flag given before the diagnostic's name."""

    def __call__(self, parser, namespace, values, option_string=None):
        example = f"jumpvol diag bvm {option_string} ..."
        raise argparse.ArgumentError(self, f"diag flags go after the subcommand, as in {example!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpvol",
        description="Volatility inference for jump diffusions from equally spaced increments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = _add_command(sub, "simulate", "simulate increments and write them as CSV", cmd_simulate)
    sim.add_argument("--rate", type=float, help="jumps per unit time")
    sim.add_argument("--tau", type=float, help="two-point jump magnitude")
    inf = _add_command(sub, "infer", "run the inference pipeline on an increments CSV", cmd_infer)
    inf.add_argument("--horizon", type=float, help="observation horizon T")
    _add_command(sub, "coverage", "empirical coverage over a (rate, size, n) grid", cmd_coverage)

    diag = sub.add_parser("diag", help="asymptotic-claim diagnostics")
    for flag in ("--config", "--out", "--n", "--reps", "--seed", "--threshold"):
        diag.add_argument(
            flag, action=_MisplacedDiagFlag, default=argparse.SUPPRESS, help=argparse.SUPPRESS
        )
    diags = diag.add_subparsers(dest="diag_command", required=True)
    for name, (summary, _) in _DIAGS.items():
        _add_command(diags, f"diag {name}", summary, cmd_diag)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as err:
        print(f"jumpvol: configuration error: {err}", file=sys.stderr)
        return 2
    except (DegenerateInferenceError, NumericError) as err:
        kind = "numeric" if isinstance(err, NumericError) else "degenerate_inference"
        sys.stdout.write(json.dumps({"error": kind, "message": str(err)}, indent=2) + "\n")
        return 4
    except (OSError, MemoryError) as err:
        kind = "out of memory" if isinstance(err, MemoryError) else "I/O error"
        print(f"jumpvol: {kind}: {err}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
