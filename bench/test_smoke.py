"""Tests of the benchmark itself: its generator, the smoke run, and its
refusal to run without the program's sources.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import bench_oracles as oracles  # noqa: E402
import workloads  # noqa: E402

# known-fault operations per round: 9 of the 15 fixed chain searches, and
# the 3 malformed CLI inputs
FAULTS_PER_ROUND = {"certify-scale": 0, "query-mix": 0, "numeric-witness": 9, "cli-cold": 3}


def test_generated_designs_meet_the_closed_form_minimum():
    rng = random.Random(7)
    for xy in (True, False):
        d = workloads.random_design(rng, 40, 5, 3, xy)
        assert len(d.edges) == oracles.closed_form_links(40, 5, 3, xy)
        g = oracles.separator_digraph(d, xy)
        for i in d.agents_checked():
            assert oracles.disjoint_paths(g, f"x{i}", oracles.SINK) >= 3
        cut = workloads.cut_link(rng, d)
        assert len(cut.edges) == len(d.edges) - 1


def test_unlabelled_chain_is_the_programs_platoon():
    import stealthguard as sg
    d = workloads.chain_design(None, 30, 2, 2, relabel=False)
    built = sg.synthesize_platoon(30, 2, 2, observers_attackable=False).topology
    assert built == workloads.to_topology(sg, d)


def test_broken_attack_is_not_linked():
    rng = random.Random(3)
    d = workloads.cut_link(rng, workloads.random_design(rng, 30, 4, 3, True),
                           from_unobserved=True)
    agents, observers = workloads.broken_attack(d)
    assert len(agents) == 3
    assert oracles.linking_size(d, agents, observers) < 3


def test_smoke_run_is_correct_with_only_the_known_faults():
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = {r["workload"]: r for r in map(json.loads, proc.stdout.splitlines())}
    assert set(results) == set(FAULTS_PER_ROUND)
    for name, result in results.items():
        assert result["correct"], name
        # one plain and one traced round
        assert result["failed"] == 2 * FAULTS_PER_ROUND[name], name


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".benchwork" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                               "query-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
