"""stealthguard benchmark: run one workload for one seed, print one JSON line.

    python3 bench/run.py --workload certify-scale --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke

Every workload is a closed loop: one caller in this process runs a fixed
round of operations back to back (cli-cold starts one child process at a
time) and repeats whole rounds until --seconds have passed, so the share
of failed operations is the same in every run. Set-up (import, input
generation, warm-up) is not timed with the operations; it is repeated in
fresh processes and reported as its own metric.

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run
(see tracer.py). --smoke runs one round of every workload, plain and
traced, on smaller inputs, with every check on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# workloads.py builds these; it is imported only after the timed import
WORKLOADS = ("certify-scale", "query-mix", "numeric-witness", "cli-cold")
SETUP_CHILDREN = 2  # set-up samples taken in fresh processes, besides this one
# One BLAS thread, here and in every child: the loop has one caller, and on
# a small shared machine idle BLAS workers spinning against other load
# made single operations vary by up to 2x between runs.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def setup(name: str, seed: int, smoke: bool):
    """Import the program, build the inputs and warm up.

    Returns (workload, set-up seconds, import seconds, modules imported).
    The benchmark's own modules load outside the timed part; networkx,
    which only the checks use, loads with the first check.
    """
    start = perf_counter()
    import_s, imported = (0.0, 0) if name == "cli-cold" else tracer.import_package()
    imported_at = perf_counter()
    import workloads
    built_at = perf_counter()
    workload = workloads.WORKLOADS[name](seed, smoke)
    for op in workload.warmup:
        time_op(op)
    return workload, (imported_at - start) + (perf_counter() - built_at), import_s, imported


def time_op(op):
    """Run one operation; returns (seconds, output or the exception)."""
    start = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        out = exc
    return perf_counter() - start, out


def setup_in_fresh_process(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        fail(f"set-up in a fresh process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Measurement:
    """Times whole rounds of a workload, then checks the outputs.

    The first output of each operation is checked in full by ``finish``,
    after the timed rounds, so the checks (which build large networkx
    graphs) do not disturb the timings; every later output must give the
    same digest. ``checked`` may be shared between two measurements of one
    workload so the checks run once.
    """

    def __init__(self, workload, checked=None):
        self.workload = workload
        self.checked = {} if checked is None else checked  # index -> (digest, problems)
        self.pending = {}  # op index -> first output, not yet checked
        self.results = []  # (op index, digest) of every operation run
        self.times = []
        self.agents = 0
        self.rounds = 0
        self.failed = 0
        self.faults = {}
        self.problems = {}

    def run_round(self, trace=None) -> None:
        for index, op in enumerate(self.workload.round):
            if trace is not None:
                trace.op += 1
            seconds, out = time_op(op)
            self.times.append(seconds)
            self.agents += op.agents
            if isinstance(out, Exception):
                digest = ("raised", type(out).__name__, str(out))
            else:
                digest = op.digest(out)
            if index not in self.checked:
                self.checked[index] = (digest, None)
                self.pending[index] = out
            self.results.append((index, digest))
        self.rounds += 1

    def run_for(self, seconds: float, trace=None) -> None:
        start = perf_counter()
        while True:
            self.run_round(trace)
            if perf_counter() - start >= seconds:
                break

    def finish(self) -> None:
        for index, out in self.pending.items():
            op = self.workload.round[index]
            bad = ([f"raised {type(out).__name__}: {out}"] if isinstance(out, Exception)
                   else op.check(out))
            self.checked[index] = (self.checked[index][0], bad)
        self.pending.clear()
        for index, digest in self.results:
            op = self.workload.round[index]
            first_digest, bad = self.checked[index]
            if digest != first_digest:
                bad = ["output differs from the first round"]
            if not bad:
                continue
            self.failed += 1
            if op.known_fault:
                self.faults[op.known_fault] = self.faults.get(op.known_fault, 0) + 1
            else:
                self.problems[f"{op.kind} #{index}"] = "; ".join(bad)

    @property
    def round_s(self) -> float:
        return sum(self.times) / self.rounds


def end_to_end(m: Measurement, setup_samples, peak_rss_kb) -> dict:
    times = m.times
    total = sum(times)
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(times) / total, "ops/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p90": (p90, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "agents_per_s": (m.agents / total, "agents/s"),
    }


def per_layer(totals: dict, rounds: int, import_s: float, imported: int,
              process_s: float, overhead: float) -> dict:
    self_s = totals.get("self_s", {})
    calls = totals.get("calls", {})
    inclusive = totals.get("inclusive_s", {})
    counts = totals.get("counts", {})

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    metrics = {}
    for layer in ("separators", "topology", "design", "cli"):
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / rounds, "s/round")
    for layer in ("separators", "topology", "design"):
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) / rounds, "count/round")
    metrics.update({
        "separators.agents_per_s": (rate(counts.get("separators.agents_certified", 0),
                                         self_s.get("separators", 0.0)), "agents/s"),
        "separators.agents_certified": (counts.get("separators.agents_certified", 0) / rounds,
                                        "count/round"),
        "separators.augmenting_paths": (counts.get("separators.augmenting_paths", 0) / rounds,
                                        "count/round"),
        "topology.parse_mb_per_s": (rate(counts.get("topology.parse_bytes", 0) / 1e6,
                                         inclusive.get("parse_topology", 0.0)), "MB/s"),
        "simulation.attack_search_s": (inclusive.get("find_perfect_attack", 0.0) / rounds,
                                       "s/round"),
        "simulation.toeplitz_mb_computed": (counts.get("simulation.toeplitz_bytes", 0) / 1e6
                                            / rounds, "MB/round"),
        "simulation.realize_s": (inclusive.get("realize", 0.0) / rounds, "s/round"),
        "simulation.normal_rank_s": (inclusive.get("normal_rank", 0.0) / rounds, "s/round"),
        "simulation.simulate_s": (inclusive.get("simulate", 0.0) / rounds, "s/round"),
        "simulation.steps_per_s": (rate(counts.get("simulation.steps", 0),
                                        inclusive.get("simulate", 0.0)), "steps/s"),
        "cli.import_s": (import_s, "s"),
        "cli.imported_modules": (imported, "count"),
        "cli.process_s": (process_s, "s"),
        "trace.overhead_pct": (overhead, "%"),
    })
    return metrics


def traced_run(workload, seconds, import_s, imported):
    """Half the time untraced, half traced; per-layer metrics."""
    plain = Measurement(workload)
    plain.run_for(seconds / 2)
    plain.finish()
    traced = Measurement(workload, plain.checked)
    if workload.cli is not None:
        workload.cli.traced = True
        traced.run_for(seconds / 2)
        workload.cli.traced = False
        totals, spans = workload.cli.trace, workload.cli.spans
        import_s = statistics.median(workload.cli.import_s)
        imported = statistics.median(workload.cli.imported_modules)
        process_s = statistics.median(plain.times)
    else:
        trace = tracer.Tracer()
        trace.install()
        try:
            traced.run_for(seconds / 2, trace)
        finally:
            trace.uninstall()
        totals, spans = tracer.aggregate(trace.spans, trace.counts), trace.spans
        process_s = 0.0
    traced.finish()
    overhead = 100.0 * (traced.round_s / plain.round_s - 1.0)
    metrics = per_layer(totals, traced.rounds, import_s, imported, process_s, overhead)
    return plain, traced, metrics, spans


def write_spans(name: str, seed: int, spans) -> None:
    out = ROOT / ".benchwork"
    out.mkdir(exist_ok=True)
    fields = ("id", "parent", "layer", "name", "start", "end", "self_s", "op")
    with open(out / f"spans-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "fields": fields, "spans": spans}, fh)


def report(measurements, metrics: dict) -> dict:
    problems = {}
    faults = {}
    for m in measurements:
        problems.update(m.problems)
        for fault, count in m.faults.items():
            faults[fault] = faults.get(fault, 0) + count
    for where, what in sorted(problems.items()):
        sys.stderr.write(f"bench: WRONG {where}: {what}\n")
    for fault, count in sorted(faults.items()):
        sys.stderr.write(f"bench: known fault x{count}: {fault}\n")
    return {
        "correct": not problems,
        "attempted": sum(len(m.times) for m in measurements),
        "failed": sum(m.failed for m in measurements),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> int:
    """One plain and one traced round of every workload, smaller inputs."""
    ok = True
    for name in WORKLOADS:
        workload, _setup_s, import_s, imported = setup(name, 0, smoke=True)
        try:
            plain, traced, metrics, _spans = traced_run(workload, 0.0, import_s, imported)
        finally:
            workload.close()
        result = report([plain, traced], metrics)
        ok = ok and result["correct"]
        print(json.dumps({"workload": name, "correct": result["correct"],
                          "attempted": result["attempted"], "failed": result["failed"]}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick run of every workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "stealthguard" / "__init__.py").is_file():
        fail(f"no stealthguard sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("STEALTHGUARD_SEED", None)
    os.environ.update(SINGLE_THREAD)
    if args.smoke:
        return smoke()
    if args.workload is None:
        fail("--workload is required")
    if not args.setup_only and (args.seconds is None or args.seconds <= 0):
        fail("--seconds is required and must be positive")

    workload, setup_s, import_s, imported = setup(args.workload, args.seed, smoke=False)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            plain, traced, metrics, spans = traced_run(workload, args.seconds, import_s,
                                                       imported)
            write_spans(args.workload, args.seed, spans)
            measurements = [plain, traced]
        else:
            m = Measurement(workload)
            m.run_for(args.seconds)
            if workload.cli is not None:
                peak_kb = workload.cli.peak_rss_kb
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            m.finish()
            samples = [setup_s] + [setup_in_fresh_process(args.workload, args.seed)
                                   for _ in range(SETUP_CHILDREN)]
            metrics = end_to_end(m, samples, peak_kb)
            measurements = [m]
            sys.stderr.write(f"bench: {m.rounds} rounds of {len(workload.round)} ops; "
                             f"set-up samples {['%.3f' % s for s in samples]}\n")
    finally:
        workload.close()
    print(json.dumps(report(measurements, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
