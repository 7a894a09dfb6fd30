#!/usr/bin/env python3
"""Benchmark of jumpvol: end-to-end workloads and a traced per-layer run.

Run it from the repository root, for example::

    python3 bench/run.py --workload coverage_grid --seed 1 --seconds 30 --trace 0

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished and its output has been checked.  All of
them run in this one process, except ``coverage_grid_w2``, whose operation
runs on a pool of two worker processes.

- ``coverage_grid``: ``run_coverage`` on the default 16-cell grid
  (rate 4..32 x size 1..8), n = 5000, ``iqr:5``, level 0.95, 64
  replications per cell, ``workers=1``.
- ``coverage_grid_w2``: the same with ``workers=2``.
- ``cli_csv_1m``: ``jumpvol simulate --n 1000000 --out F`` and then
  ``jumpvol infer --input F``, both through ``jumpvol.cli.main``.
- ``diag_bvm``: ``bvm_convergence_check`` with rate 5, tau 3,
  ``n_grid=(1000, 4000)`` and 100 replications per n.

With ``--trace 0`` the run times the operation for ``--seconds`` seconds and
reports the end-to-end metrics: ``setup_s``, the import time plus the median
of three set-ups (input generation and a warm-up operation); ``work_per_s``,
the work of one operation (replications, or CSV rows for ``cli_csv_1m``) over
the median operation time; and ``peak_rss_mb``, the peak resident set of this
process or of its largest worker.  With ``--trace 1`` it alternates untraced
operations with traced replicas of the same operation (see
``workloads.py``) and reports the per-layer metrics.  A layer that the
workload's own operation does not reach is measured on a small probe of the
workload that does reach it, so every per-layer metric is present in every
traced run; the detail line lists the metrics that came from a probe.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the run's metadata and the workload's own named figures.  Both are
also written to ``bench/out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: Operation sizes.  ``tiny`` exists for the benchmark's own smoke test.
SIZES = {
    "full": {"cov_reps": 64, "csv_rows": 1_000_000, "bvm_grid": (1000, 4000), "bvm_reps": 100},
    "tiny": {"cov_reps": 2, "csv_rows": 2000, "bvm_grid": (40, 80), "bvm_reps": 100},
}
#: Sizes of the probes that fill in layers a workload does not reach.
PROBE_SIZES = {
    "full": {"cov_reps": 4, "csv_rows": 20_000, "bvm_grid": (1000,), "bvm_reps": 2, "seconds": 1.0},
    "tiny": {"cov_reps": 1, "csv_rows": 2000, "bvm_grid": (40,), "bvm_reps": 2, "seconds": 0.0},
}

#: workload -> (family, pool workers)
WORKLOADS = {
    "coverage_grid": ("coverage", 1),
    "coverage_grid_w2": ("coverage", 2),
    "cli_csv_1m": ("csv", 1),
    "diag_bvm": ("bvm", 1),
}

#: Repeated set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}

#: Per-layer metric -> (unit, the end-to-end figure it should move, the
#: workload on which it should move it).  ``work_per_s`` is
#: ``coverage_reps_per_s`` on the coverage workloads, ``csv_rows_per_s``
#: (one ``simulate_csv_s`` plus one ``infer_s`` per million rows) on
#: ``cli_csv_1m`` and ``bvm_reps_per_s`` on ``diag_bvm``.
LAYERS = {
    "seeds.derive_seed.us": ("us", "coverage_reps_per_s", "coverage_grid"),
    "simulate.simulate_path.us": ("us", "coverage_reps_per_s", "coverage_grid"),
    "simulate.jumps_per_path": ("count", "coverage_reps_per_s", "coverage_grid"),
    "simulate.write_increments_csv.s": ("s", "simulate_csv_s", "cli_csv_1m"),
    "simulate.write_mb_per_s": ("MB/s", "simulate_csv_s", "cli_csv_1m"),
    "simulate.read_increments_csv.s": ("s", "infer_s and peak_rss_mb", "cli_csv_1m"),
    "simulate.read_mb_per_s": ("MB/s", "infer_s and peak_rss_mb", "cli_csv_1m"),
    "threshold.resolve.us": ("us", "coverage_reps_per_s (infer_s slightly)",
                             "coverage_grid (cli_csv_1m)"),
    "threshold.estimate_jump_qv.us": ("us", "coverage_reps_per_s (infer_s slightly)",
                                      "coverage_grid (cli_csv_1m)"),
    "threshold.flagged_per_path": ("count", "none: must repeat exactly", "all"),
    "threshold.flag_precision": ("frac", "none: must repeat exactly", "all"),
    "threshold.flag_recall": ("frac", "none: must repeat exactly", "all"),
    "posterior.compute_mle.us": ("us", "coverage_reps_per_s", "coverage_grid"),
    "posterior.update.us": ("us", "coverage_reps_per_s", "coverage_grid"),
    "posterior.credible_interval.us": ("us", "coverage_reps_per_s", "coverage_grid"),
    "posterior.degenerate_frac": ("frac", "coverage_reps_per_s", "coverage_grid"),
    "posterior.pdf_scalar.us": ("us", "bvm_reps_per_s", "diag_bvm"),
    "diagnostics.tv_distance.ms": ("ms", "bvm_reps_per_s", "diag_bvm"),
    "diagnostics.tv_distance.pdf_evals": ("count", "bvm_reps_per_s", "diag_bvm"),
    "harness.self_us_per_rep": ("us", "coverage_reps_per_s", "coverage_grid"),
    "harness.parallel_efficiency": ("frac", "coverage_reps_per_s", "coverage_grid_w2"),
    "cli.infer.self_s": ("s", "infer_s", "cli_csv_1m"),
    "trace.overhead_frac": ("frac", "none: the cost of tracing itself", "all"),
}

#: Which end-to-end figure ``work_per_s`` is, per family.
WORK_NAMES = {"coverage": "coverage_reps_per_s", "csv": "csv_rows_per_s", "bvm": "bvm_reps_per_s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=sorted(SIZES))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def make_family(wl, kind, seed, size, workers):
    if kind == "coverage":
        return wl.Coverage(seed, size["cov_reps"], workers)
    if kind == "csv":
        return wl.CsvRoundTrip(seed, size["csv_rows"], OUT / "work")
    return wl.Bvm(seed, size["bvm_grid"], size["bvm_reps"])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def tail(values):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    return {"percentile": pct, "value": statistics.quantiles(values, n=100)[pct - 1]}


def metadata(wl, seed) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "jumpvol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jumpvol": wl.jv.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


class Tally:
    """Attempted and failed operations, with the first few failure messages.

    ``check_errors`` are the exceptions by which an output check reports a
    wrong output.
    """

    def __init__(self, check_errors):
        self.check_errors = check_errors
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, fn, check):
        """Time ``fn()``, check its output; return (seconds, output or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as err:  # any failure of the program counts, the loop goes on
            seconds = time.perf_counter() - start
            self.fail(err)
            return seconds, None
        seconds = time.perf_counter() - start
        try:
            check(out)
        except self.check_errors as err:
            self.fail(err)
        return seconds, out

    def fail(self, err):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(err).__name__}: {err}")


def prepare(family, tally) -> None:
    """Run the family's untimed reference operation, if it has one."""
    if hasattr(family, "prepare"):
        tally.run(family.prepare, lambda _: None)


def another_fits(start, deadline, times) -> bool:
    """Whether one more operation of the median length ends before ``deadline``."""
    return time.perf_counter() - start + statistics.median(times) <= deadline


def run_untraced(family, seconds, tally):
    times = []
    start = time.perf_counter()
    while True:
        times.append(tally.run(family.op, family.check)[0])
        if not another_fits(start, seconds, times):
            return times


def run_traced(wl, family, seconds, tracer, tally) -> dict:
    """Rounds of one untraced operation per timed mode and one traced replica
    of it, until ``seconds`` are spent.  Interleaving them keeps both halves of
    every paired difference under the same machine conditions."""
    counts = wl.Counts()
    ops = family.timed_ops()
    untraced = {mode: [] for mode in ops}
    passes = []
    rounds = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        for mode, fn in ops.items():
            untraced[mode].append(tally.run(fn, family.check)[0])
        first = len(tracer.spans)
        elapsed = tally.run(lambda: family.traced_pass(tracer, counts), family.check)[0]
        passes.append((first, len(tracer.spans), elapsed))
        rounds.append(time.perf_counter() - begin)
        if not another_fits(start, seconds, rounds):
            return family.layer_metrics(tracer, passes, untraced, counts)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jumpvol" / "__init__.py").is_file():
        print(f"bench: no jumpvol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads as wl
    import_s = time.perf_counter() - start
    if Path(wl.jv.__file__).resolve().parent != SRC / "jumpvol":
        print(f"bench: imported jumpvol from {wl.jv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    kind, workers = WORKLOADS[args.workload]
    size = SIZES[args.scale]
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    families = []
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            family = make_family(wl, kind, args.seed, size, workers)
            families.append(family)
            family.warm_up()
            setup_times.append(time.perf_counter() - begin)
        setup_s = import_s + statistics.median(setup_times)
        tally = Tally((wl.CheckFailed, KeyError, TypeError, ValueError))
        prepare(family, tally)
        detail = {"workload": args.workload, "trace": args.trace, "scale": args.scale,
                  "meta": metadata(wl, args.seed)}
        if args.trace == 0:
            times = run_untraced(family, args.seconds, tally)
            work_per_s = family.work / statistics.median(times)
            metrics = {"setup_s": setup_s, "work_per_s": work_per_s, "peak_rss_mb": peak_rss_mb()}
            named = {WORK_NAMES[kind]: work_per_s, "setup_s": setup_s,
                     "peak_rss_mb": metrics["peak_rss_mb"],
                     "failed_frac": tally.failed / tally.attempted,
                     "op_s": {"samples": len(times), "median": statistics.median(times),
                              "tail": tail(times), "values": times}}
            if kind == "csv":
                for index, name in enumerate(("simulate_csv_s", "infer_s")):
                    values = [split[index] for split in family.splits]
                    named[name] = {"samples": len(values), "median": statistics.median(values),
                                   "tail": tail(values)}
            detail["named"] = named
            units = END_TO_END
        else:
            tracer = wl.Tracer()
            metrics = run_traced(wl, family, args.seconds, tracer, tally)
            probes = PROBE_SIZES[args.scale]
            probed = []
            for probe_kind in ("coverage", "csv", "bvm"):
                if probe_kind == kind or set(LAYERS) <= set(metrics):
                    continue
                probe = make_family(wl, probe_kind, args.seed, probes, 1)
                families.append(probe)
                prepare(probe, tally)
                for name, value in run_traced(wl, probe, probes["seconds"], tracer, tally).items():
                    if name not in metrics:
                        metrics[name] = value
                        probed.append(name)
            missing = set(LAYERS) - set(metrics)
            if missing:
                raise RuntimeError(f"traced run produced no value for {sorted(missing)}")
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            detail["spans"] = len(tracer.spans)
            detail["probed"] = probed
            units = {name: spec[0] for name, spec in LAYERS.items()}
    finally:
        for made in families:
            if hasattr(made, "cleanup"):
                made.cleanup()

    detail["errors"] = tally.errors
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=2))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
