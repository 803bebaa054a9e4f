"""Regenerate the stored reference figures (reference.json).

    python3 bench/reference.py                  # every workload
    python3 bench/reference.py --workload numeric-witness

Runs the benchmark as BENCHMARK.json describes it, once per seed 1-10 and
workload with --trace 0, plus one traced run per workload, and records for
each end-to-end metric the median, the quartiles and the spread (distance
between the quartiles as a share of the median). Run from the repository
root on an otherwise idle machine; the runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)


def run(spec, workload, seed, trace) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = BENCH_DIR / "reference.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = f"{platform.machine()}, {platform.python_implementation()} " \
                     f"{platform.python_version()}, {len(os.sched_getaffinity(0))} cores"
    doc["run_seconds"] = spec["run_seconds"]
    for name in names:
        results = [run(spec, name, seed, 0) for seed in SEEDS]
        failed = {r["failed"] / r["attempted"] for r in results}
        entry = {"seeds": list(SEEDS), "correct": all(r["correct"] for r in results),
                 "failed_share": sorted(failed), "metrics": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            entry["metrics"][metric["name"]] = summary(values)
            s = entry["metrics"][metric["name"]]
            print(f"{name:16s} {metric['name']:14s} median {s['median']:.6g} "
                  f"spread {100 * s['spread']:.1f}% (bound {100 * metric['bound']:.0f}%)")
        traced = run(spec, name, SEEDS[0], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        doc.setdefault("workloads", {})[name] = entry
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
