"""Workloads of the jumpvol benchmark and their traced replicas.

Each workload family builds its inputs from the benchmark seed, runs one
user-level operation through jumpvol's public functions or
``jumpvol.cli.main``, and checks that operation's output.  For the traced
run it can also replay the same operation as a *traced pass*: the
benchmark's own code calls each public function in the order the package
calls it, on the same seeds, and records a span around every call.  The
replica's output must equal the untraced operation's output exactly, so the
per-layer numbers describe the work the untraced operation really did.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import statistics
import time
from pathlib import Path

import numpy as np

import jumpvol as jv
from jumpvol import cli

#: The benchmark's own copy of the coverage CSV header, so a changed header
#: fails the output check instead of being compared with itself.
COVERAGE_HEADER = "lambda,tau,n,reps,coverage,mean_width,mc_stderr,degenerate_count"

DIFFUSION = jv.DiffusionSpec(beta=1.0, theta_star=10.0, horizon=1.0)
PRIOR = jv.InverseGammaParams(1.0, 1.0)
RULE = jv.ThresholdRule.iqr(5.0)
LEVEL = 0.95
#: Jump law of the CSV and normal-limit workloads (the CLI's default model).
RATE, TAU = 5.0, 3.0

#: Stages of one replication, in ``run_replication``'s order.
COVERAGE_STAGES = (
    "seeds.derive_seed",
    "simulate.simulate_path",
    "threshold.resolve",
    "threshold.estimate_jump_qv",
    "posterior.compute_mle",
    "posterior.update",
    "posterior.credible_interval",
)
#: Stages of ``jumpvol infer`` after the command has parsed its arguments.
INFER_STAGES = (
    "simulate.read_increments_csv",
    "threshold.resolve",
    "threshold.estimate_jump_qv",
    "posterior.compute_mle",
    "posterior.update",
    "posterior.credible_interval",
)


class CheckFailed(Exception):
    """An operation ran, but its output is wrong."""


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory as ``(id, name, start_ns, end_ns, parent, rep)``.

    A span is stored when it ends, as a tuple of atoms, which the garbage
    collector stops tracking; a growing list of lists would make every full
    collection in the traced code slower.  ``parent`` is the id of the
    enclosing span (-1 for none) and ``rep`` the replication the span belongs
    to.  Nothing is written until :meth:`write` is called at the end of the run.
    """

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.next_id = 0
        self.rep = None

    def span(self, name):
        return _Span(self, name)

    def totals(self, first, last):
        """``name -> [total ns, count]`` over the spans ``first:last``."""
        out = {}
        for _, name, start, end, _, _ in self.spans[first:last]:
            entry = out.setdefault(name, [0, 0])
            entry[0] += end - start
            entry[1] += 1
        return out

    def write(self, path: Path) -> None:
        origin = min((span[2] for span in self.spans), default=0)
        with open(path, "w") as handle:
            for ident, name, start, end, parent, rep in self.spans:
                record = {"id": ident, "name": name, "start_ns": start - origin,
                          "end_ns": end - origin, "parent": parent, "rep": rep}
                handle.write(json.dumps(record) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "ident", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.ident = tr.next_id
        tr.next_id += 1
        tr.stack.append(self.ident)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tracer
        tr.stack.pop()
        tr.spans.append((self.ident, self.name, self.start, end, tr.stack[-1], tr.rep))
        return False


class Counts:
    """Work counts of traced passes, which repeat exactly for one seed, and the
    time spent in scalar pdf calls."""

    def __init__(self):
        self.paths = 0
        self.jump_windows = 0
        self.flagged = 0
        self.true_flagged = 0
        self.pipelines = 0
        self.degenerate = 0
        self.tv_calls = 0
        self.pdf_evals = 0
        self.pdf_scalar_calls = 0
        self.pdf_scalar_ns = 0

    def flags(self, flagged, truth) -> None:
        windows = set(truth.jump_windows)
        self.paths += 1
        self.jump_windows += len(windows)
        self.flagged += len(flagged)
        self.true_flagged += sum(1 for i in flagged if i in windows)

    def metrics(self) -> dict:
        return {
            "simulate.jumps_per_path": self.jump_windows / self.paths,
            "threshold.flagged_per_path": self.flagged / self.paths,
            "threshold.flag_precision": self.true_flagged / self.flagged if self.flagged else 1.0,
            "threshold.flag_recall": (
                self.true_flagged / self.jump_windows if self.jump_windows else 1.0
            ),
            "posterior.degenerate_frac": self.degenerate / self.pipelines,
        }


class CountedDensity:
    """Forwards ``pdf`` and ``ppf`` to a density, counting and timing pdf calls.

    ``tv_distance`` calls ``pdf`` with Python floats from the quadrature and
    with arrays on its support grid; a float call counts as one evaluation
    and is timed, an array call counts as one evaluation per element.
    """

    def __init__(self, dist, counts: Counts):
        self.dist = dist
        self.counts = counts

    def pdf(self, x):
        if isinstance(x, float):
            start = time.perf_counter_ns()
            value = self.dist.pdf(x)
            self.counts.pdf_scalar_ns += time.perf_counter_ns() - start
            self.counts.pdf_scalar_calls += 1
            self.counts.pdf_evals += 1
            return value
        self.counts.pdf_evals += np.size(x)
        return self.dist.pdf(x)

    def ppf(self, q):
        return self.dist.ppf(q)


def median(values) -> float:
    return float(statistics.median(values))


def overhead(passes, untraced) -> float:
    """Median over rounds of traced time over untraced time, minus one."""
    return median(seconds / op for (_, _, seconds), op in zip(passes, untraced)) - 1.0


def mean_us(per_pass, name) -> float:
    """Median over passes of the mean microseconds per call of ``name``."""
    return median(ns / count / 1e3 for ns, count in (t[name] for t in per_pass))


def traced_replication(tr, counts, base_seed, cell, rep, jumps, n):
    """One replication up to the shifted posterior, in ``run_replication``'s
    order, with a span around every public call.  Like the package, it raises
    ``DegenerateInferenceError`` when the temperature falls below its floor."""
    with tr.span("seeds.derive_seed"):
        seed = jv.derive_seed(base_seed, cell, rep)
    with tr.span("simulate.simulate_path"):
        path = jv.simulate_path(DIFFUSION, jumps, n, seed=seed)
    with tr.span("threshold.resolve"):
        eta = RULE.resolve(path.increments)
    with tr.span("threshold.estimate_jump_qv"):
        qv = jv.estimate_jump_qv(path.increments, eta)
    counts.flags(qv.flagged, path.truth)
    with tr.span("posterior.compute_mle"):
        theta_hat = jv.compute_mle(path)
    counts.pipelines += 1
    with tr.span("posterior.update"):
        kappa = jv.compute_kappa(theta_hat, qv, path.horizon)
        post = jv.gibbs_update(PRIOR, path, kappa)
        modified = jv.modify_posterior(post, qv, path.horizon)
    return path, qv, theta_hat, post, modified


# ---------------------------------------------------------------------------
# Coverage experiment
# ---------------------------------------------------------------------------

class Coverage:
    """``run_coverage`` on the default 16-cell grid, ``iqr:5``, level 0.95."""

    def __init__(self, seed: int, reps: int, workers: int):
        if reps > 256:
            # the replica sums widths in one block per cell, as the harness
            # does for up to 256 replications
            raise ValueError("the traced coverage replica supports at most 256 reps per cell")
        self.config = jv.CoverageConfig(
            diffusion=DIFFUSION, reps=reps, level=LEVEL, threshold=RULE, prior=PRIOR,
            base_seed=seed,
        )
        self.workers = workers
        self.work = len(self.config.cells()) * reps
        self.reference = None

    def warm_up(self) -> None:
        jv.run_coverage(dataclasses.replace(self.config, reps=1), workers=self.workers)

    def prepare(self) -> None:
        """The workers=1 output is the reference every later output must equal."""
        text = self.run(1)
        self.check_shape(text)
        self.reference = text

    def run(self, workers: int) -> str:
        rows = jv.run_coverage(self.config, workers=workers)
        buf = io.StringIO()
        jv.write_coverage_csv(buf, rows)
        return buf.getvalue()

    def op(self) -> str:
        return self.run(self.workers)

    def check_shape(self, text: str) -> None:
        lines = text.splitlines()
        if not lines or lines[0] != COVERAGE_HEADER:
            raise CheckFailed("coverage CSV header differs from the fixed header")
        if len(lines) != 1 + len(self.config.cells()):
            raise CheckFailed(
                f"coverage CSV has {len(lines) - 1} rows, not {len(self.config.cells())}"
            )
        for line in lines[1:]:
            fields = line.split(",")
            if len(fields) != 8 or int(fields[3]) != self.config.reps:
                raise CheckFailed(f"malformed coverage row {line!r}")
            if not 0.0 <= float(fields[4]) <= 1.0:
                raise CheckFailed(f"coverage outside [0, 1] in row {line!r}")

    def check(self, text: str) -> None:
        self.check_shape(text)
        if text != self.reference:
            raise CheckFailed("coverage CSV differs from the workers=1 output for the same seed")

    def traced_pass(self, tr: Tracer, counts: Counts) -> str:
        cfg = self.config
        rows = []
        for cell, (lam, tau, n) in enumerate(cfg.cells()):
            jumps = jv.JumpSpec.two_point(lam, tau)
            covered = degenerate = 0
            width_sum = 0.0
            for rep in range(cfg.reps):
                tr.rep = cell * cfg.reps + rep
                with tr.span("replication"):
                    try:
                        *_, modified = traced_replication(tr, counts, cfg.base_seed, cell, rep,
                                                          jumps, n)
                        with tr.span("posterior.credible_interval"):
                            interval = jv.credible_interval(modified, cfg.level)
                    except jv.DegenerateInferenceError:
                        counts.degenerate += 1
                        degenerate += 1
                        continue
                    covered += int(interval.contains(cfg.diffusion.theta_star))
                    width_sum += interval.width
            effective = cfg.reps - degenerate
            if effective > 0:
                coverage = covered / effective
                mean_width = width_sum / effective
                stderr = math.sqrt(coverage * (1.0 - coverage) / effective)
            else:
                coverage = mean_width = stderr = math.nan
            rows.append(jv.CoverageRow(lam, tau, n, cfg.reps, coverage, mean_width, stderr,
                                       degenerate))
        tr.rep = None
        buf = io.StringIO()
        jv.write_coverage_csv(buf, rows)
        return buf.getvalue()

    def timed_ops(self) -> dict:
        """Untraced operations of the traced run: both worker counts, so that
        parallel efficiency is measured whichever one the workload uses."""
        return {1: lambda: self.run(1), 2: lambda: self.run(2)}

    def layer_metrics(self, tr, passes, untraced, counts) -> dict:
        per_pass = [tr.totals(first, last) for first, last, _ in passes]
        metrics = {name + ".us": mean_us(per_pass, name) for name in COVERAGE_STAGES}
        metrics.update(counts.metrics())
        stage_s = [sum(t[name][0] for name in COVERAGE_STAGES if name in t) / 1e9
                   for t in per_pass]
        metrics["harness.self_us_per_rep"] = median(
            (op - stages) / self.work * 1e6 for op, stages in zip(untraced[1], stage_s)
        )
        metrics["harness.parallel_efficiency"] = median(
            one / (2.0 * two) for one, two in zip(untraced[1], untraced[2])
        )
        metrics["trace.overhead_frac"] = overhead(passes, untraced[1])
        return metrics


# ---------------------------------------------------------------------------
# CLI round trip on a large CSV
# ---------------------------------------------------------------------------

class CsvRoundTrip:
    """``jumpvol simulate --out F`` and then ``jumpvol infer --input F``."""

    def __init__(self, seed: int, rows: int, workdir: Path):
        self.seed = seed
        self.rows = rows
        self.work = rows
        tag = f"{os.getpid()}-{rows}"
        self.config_path = workdir / f"simulate-{tag}.json"
        self.csv_path = workdir / f"increments-{tag}.csv"
        self.json_path = workdir / f"infer-{tag}.json"
        model = {"beta": DIFFUSION.beta, "theta_star": DIFFUSION.theta_star,
                 "horizon": DIFFUSION.horizon, "jump_rate": RATE,
                 "jump_sizes": {"kind": "two_point", "tau": TAU}}
        self.config_path.write_text(json.dumps({"model": model, "n": rows}))
        # the benchmark's own sum(D^2)/T, from the path the simulator draws
        path = jv.simulate_path(DIFFUSION, jv.JumpSpec.two_point(RATE, TAU), rows, seed=seed)
        horizon = rows * (DIFFUSION.horizon / rows)
        self.expected_theta = math.fsum((path.increments * path.increments).tolist()) / horizon
        self.splits = []

    def warm_up(self) -> None:
        small = CsvRoundTrip(self.seed, 1000, self.csv_path.parent)
        try:
            small.check(small.op())
        finally:
            small.cleanup()

    def op(self) -> dict:
        start = time.perf_counter()
        code_sim = cli.main(["simulate", "--config", str(self.config_path),
                             "--seed", str(self.seed), "--out", str(self.csv_path)])
        mid = time.perf_counter()
        code_inf = cli.main(["infer", "--input", str(self.csv_path),
                             "--out", str(self.json_path)])
        end = time.perf_counter()
        self.splits.append((mid - start, end - mid))
        if code_sim != 0 or code_inf != 0:
            raise CheckFailed(f"exit codes simulate={code_sim} infer={code_inf}")
        return json.loads(self.json_path.read_text())

    def check(self, record: dict) -> None:
        theta = record["theta_hat"]
        if not abs(theta - self.expected_theta) <= 1e-12 * abs(self.expected_theta):
            raise CheckFailed(f"theta_hat {theta!r} != sum(D^2)/T {self.expected_theta!r}")
        if not 0.0 < record["kappa"] <= 1.0:
            raise CheckFailed(f"kappa {record['kappa']!r} outside (0, 1]")
        lo, hi = record["interval"]["lo"], record["interval"]["hi"]
        if not lo < hi:
            raise CheckFailed(f"interval [{lo!r}, {hi!r}] is empty")

    def cleanup(self) -> None:
        for path in (self.config_path, self.csv_path, self.json_path):
            path.unlink(missing_ok=True)

    def traced_pass(self, tr: Tracer, counts: Counts) -> dict:
        """Replays ``cmd_simulate`` and ``cmd_infer`` call by call."""
        tr.rep = 0
        with tr.span("cli.simulate"):
            with tr.span("simulate.simulate_path"):
                path = jv.simulate_path(DIFFUSION, jv.JumpSpec.two_point(RATE, TAU), self.rows,
                                        seed=self.seed)
            with tr.span("simulate.write_increments_csv"):
                buf = io.StringIO()
                jv.write_increments_csv(buf, path)
                text = buf.getvalue()
            with tr.span("cli.write_text"):
                with open(self.csv_path, "w", newline="") as handle:
                    handle.write(text)
        with tr.span("cli.infer"):
            with tr.span("simulate.read_increments_csv"):
                data = jv.read_increments_csv(str(self.csv_path))
            horizon = data.horizon
            increments = data.increments
            with tr.span("threshold.resolve"):
                eta = RULE.resolve(increments)
            with tr.span("threshold.estimate_jump_qv"):
                qv = jv.estimate_jump_qv(increments, eta)
            counts.flags(qv.flagged, path.truth)
            with tr.span("posterior.compute_mle"):
                theta_hat = jv.mle_from_increments(increments, horizon)
            counts.pipelines += 1
            with tr.span("posterior.update"):
                kappa = jv.compute_kappa(theta_hat, qv, horizon)
                post = jv.tempered_update(PRIOR, increments.size, theta_hat, kappa)
                modified = jv.modify_posterior(post, qv, horizon)
            with tr.span("posterior.credible_interval"):
                interval = jv.credible_interval(modified, LEVEL)
        tr.rep = None
        self.csv_bytes = len(text.encode())
        return {"theta_hat": theta_hat, "kappa": kappa,
                "interval": {"lo": interval.lo, "hi": interval.hi}}

    def timed_ops(self) -> dict:
        return {1: self.op}

    def layer_metrics(self, tr, passes, untraced, counts) -> dict:
        per_pass = [tr.totals(first, last) for first, last, _ in passes]
        write_s = median(t["simulate.write_increments_csv"][0] / 1e9 for t in per_pass)
        read_s = median(t["simulate.read_increments_csv"][0] / 1e9 for t in per_pass)
        stage_s = [sum(t[name][0] for name in INFER_STAGES) / 1e9 for t in per_pass]
        metrics = {name + ".us": mean_us(per_pass, name) for name in
                   ("simulate.simulate_path", "threshold.resolve", "threshold.estimate_jump_qv",
                    "posterior.compute_mle", "posterior.update", "posterior.credible_interval")}
        metrics.update(counts.metrics())
        metrics.update({
            "simulate.write_increments_csv.s": write_s,
            "simulate.write_mb_per_s": self.csv_bytes / 1e6 / write_s,
            "simulate.read_increments_csv.s": read_s,
            "simulate.read_mb_per_s": self.csv_bytes / 1e6 / read_s,
            "cli.infer.self_s": median(
                infer - stages for (_, infer), stages in zip(self.splits, stage_s)
            ),
            "trace.overhead_frac": overhead(passes, untraced[1]),
        })
        return metrics


# ---------------------------------------------------------------------------
# Normal-limit diagnostics
# ---------------------------------------------------------------------------

class Bvm:
    """``bvm_convergence_check`` with rate 5, tau 3 on a fixed n grid."""

    def __init__(self, seed: int, n_grid: tuple, reps: int):
        self.seed = seed
        self.n_grid = tuple(n_grid)
        self.reps = reps
        self.jumps = jv.JumpSpec.two_point(RATE, TAU)
        self.work = len(self.n_grid) * reps
        self.reference = None

    def warm_up(self) -> None:
        # one pipeline pass and one TV pair at the smallest n
        path = jv.simulate_path(DIFFUSION, self.jumps, self.n_grid[0],
                                seed=jv.derive_seed(self.seed, 0, 0))
        qv = jv.estimate_jump_qv(path.increments, RULE.resolve(path.increments))
        theta_hat = jv.compute_mle(path)
        post = jv.gibbs_update(PRIOR, path, jv.compute_kappa(theta_hat, qv, path.horizon))
        jv.tv_distance(post, jv.NormalApprox(mean=theta_hat, variance=post.variance))

    def op(self) -> list:
        return jv.bvm_convergence_check(DIFFUSION, self.jumps, self.n_grid, self.reps,
                                        self.seed, prior=PRIOR, threshold=RULE)

    def check(self, rows: list) -> None:
        if [row.n for row in rows] != list(self.n_grid):
            raise CheckFailed(f"bvm rows cover n={[row.n for row in rows]}, not {self.n_grid}")
        for row in rows:
            for value in (row.tv_tempered, row.tv_modified):
                if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                    raise CheckFailed(f"TV value {value!r} at n={row.n} outside [0, 1]")
            for value in (row.tv_tempered_stderr, row.tv_modified_stderr):
                if not (math.isfinite(value) and value >= 0.0):
                    raise CheckFailed(f"TV stderr {value!r} at n={row.n} is not finite")
        if self.reference is None:
            self.reference = rows
        elif rows != self.reference:
            raise CheckFailed("bvm rows differ between runs of the same seed")

    def traced_pass(self, tr: Tracer, counts: Counts) -> list:
        """Replays ``bvm_convergence_check`` call by call."""
        rows = []
        for cell, n in enumerate(self.n_grid):
            tv_t = np.empty(self.reps)
            tv_m = np.empty(self.reps)
            for rep in range(self.reps):
                tr.rep = cell * self.reps + rep
                with tr.span("replication"):
                    path, qv, theta_hat, post, modified = traced_replication(
                        tr, counts, self.seed, cell, rep, self.jumps, n
                    )
                    truth = jv.TruthSummary.from_path(DIFFUSION, path)
                    limit_tempered = jv.NormalApprox(
                        mean=theta_hat,
                        variance=2.0 * truth.kappa_dagger * truth.theta_dagger**2 / n,
                    )
                    limit_modified = jv.NormalApprox(
                        mean=theta_hat - qv.jump_qv_hat / path.horizon,
                        variance=2.0 * truth.theta_star**2 / n,
                    )
                    with tr.span("diagnostics.tv_distance"):
                        tv_t[rep] = jv.tv_distance(CountedDensity(post, counts),
                                                   CountedDensity(limit_tempered, counts))
                    with tr.span("diagnostics.tv_distance"):
                        tv_m[rep] = jv.tv_distance(CountedDensity(modified, counts),
                                                   CountedDensity(limit_modified, counts))
                    counts.tv_calls += 2
            rows.append(jv.BvmRow(
                n=n, reps=self.reps,
                tv_tempered=float(tv_t.mean()),
                tv_tempered_stderr=float(tv_t.std(ddof=1) / math.sqrt(self.reps)),
                tv_modified=float(tv_m.mean()),
                tv_modified_stderr=float(tv_m.std(ddof=1) / math.sqrt(self.reps)),
            ))
        tr.rep = None
        return rows

    def timed_ops(self) -> dict:
        # bvm_convergence_check refuses fewer than 100 replications, so a
        # smaller probe is traced only
        return {1: self.op} if self.reps >= 100 else {}

    def layer_metrics(self, tr, passes, untraced, counts) -> dict:
        per_pass = [tr.totals(first, last) for first, last, _ in passes]
        metrics = {name + ".us": mean_us(per_pass, name) for name in
                   ("seeds.derive_seed", "simulate.simulate_path", "threshold.resolve",
                    "threshold.estimate_jump_qv", "posterior.compute_mle", "posterior.update")}
        metrics.update(counts.metrics())
        metrics["posterior.pdf_scalar.us"] = counts.pdf_scalar_ns / counts.pdf_scalar_calls / 1e3
        metrics["diagnostics.tv_distance.ms"] = mean_us(per_pass, "diagnostics.tv_distance") / 1e3
        metrics["diagnostics.tv_distance.pdf_evals"] = counts.pdf_evals / counts.tv_calls
        if untraced:
            metrics["trace.overhead_frac"] = overhead(passes, untraced[1])
        return metrics
