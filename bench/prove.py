#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Run it from the repository root, for example::

    python3 bench/prove.py --seeds 1-10 --out bench/out/prove.json

Runs are made one after another, never in parallel.  For every workload and
metric it reports the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median``.  With ``--trace`` the per-layer metrics are summarised instead,
and a seed listed twice shows whether the counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,1,2,2")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    trace = int(args.trace)
    sys.path.insert(0, str(HERE))
    import run

    report = {"seconds": args.seconds, "seeds": seeds, "trace": trace, "workloads": {}}
    if trace:
        report["layers"] = {name: {"unit": unit, "moves": moves, "on": on}
                            for name, (unit, moves, on) in run.LAYERS.items()}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            outcome = run_once(workload, seed, args.seconds, trace)
            runs.append(outcome)
            values = {k: v["value"] for k, v in outcome["result"]["metrics"].items()}
            print(workload, seed, json.dumps(values), "failed", outcome["result"]["failed"],
                  flush=True)
        report.setdefault("meta", runs[0]["detail"]["meta"])
        metrics = {}
        for name, spec in runs[0]["result"]["metrics"].items():
            values = [outcome["result"]["metrics"][name]["value"] for outcome in runs]
            entry = {"unit": spec["unit"], **summarise(values)}
            by_seed = {}
            for seed, value in zip(seeds, values):
                by_seed.setdefault(seed, set()).add(value)
            if len(by_seed) < len(seeds):
                entry["repeats_exactly"] = all(len(v) == 1 for v in by_seed.values())
            metrics[name] = entry
        report["workloads"][workload] = {
            "attempted": sum(outcome["result"]["attempted"] for outcome in runs),
            "failed": sum(outcome["result"]["failed"] for outcome in runs),
            "metrics": metrics,
        }
        for name, entry in metrics.items():
            print(f"  {workload} {name}: median {entry['median']:.6g} spread {entry['spread']}",
                  flush=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
