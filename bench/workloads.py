"""Seeded inputs, operations and their checks for the four workloads.

Every workload is one fixed round of operations. The seed changes the
wiring, labels, attack sets and realization seeds, never the sizes, so
two seeds cost about the same. The benchmark's designs come from its own
generator below (not from the program's ``synthesize``, which certifies
internally): minimum-link robust designs with random targets, chain
(platoon) designs, and either of them with one link removed, which puts
them below the closed-form minimum and so makes them non-robust.

An operation's check runs outside the timed region. It compares the
output with answers computed separately (see bench_oracles.py); later rounds
only compare a digest of the output with the first round's.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import bench_oracles as oracles
from tracer import merge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# find_perfect_attack decides rank with a cut-off relative to the largest
# singular value; along a long chain the first nonzero Markov parameter is
# tiny, so certified systems get a "stealthy" trace or an ambiguity error.
FAULT_RANK_CUTOFF = ("find_perfect_attack mistakes a weakly detectable input on a "
                     "certified chain for a stealthy one (relative rank cut-off)")
FAULT_CLI_INPUT = "malformed input is not answered with a message and exit 2"


@dataclass(frozen=True)
class Design:
    """A topology as the benchmark knows it: 1-based (sender, receiver)
    edges with every self-loop, and observer k -> agent it reads."""

    n: int
    m: int
    p: int
    xy: bool
    edges: tuple
    sensors: dict
    removed: tuple | None = None

    @property
    def robust(self) -> bool:
        return self.removed is None

    def successors(self, j: int) -> list:
        return sorted(b for a, b in self.edges if a == j and b != j)

    def agents_checked(self) -> list:
        observed = set(self.sensors.values())
        return [i for i in range(1, self.n + 1) if self.xy or i not in observed]


def random_design(rng, n, m, p, xy) -> Design:
    """Minimum-link robust design: every unobserved agent feeds p distinct
    observed agents; for class xy every observed agent also feeds p-1
    observed peers. Labels are shuffled."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    observed, unobserved = order[:m], order[m:]
    edges = {(i, i) for i in range(1, n + 1)}
    if xy:
        for j in observed:
            peers = [o for o in observed if o != j]
            edges.update((j, t) for t in rng.sample(peers, p - 1))
    for j in unobserved:
        edges.update((j, t) for t in rng.sample(observed, p))
    return Design(n, m, p, xy, tuple(sorted(edges)),
                  {k: a for k, a in enumerate(observed, start=1)})


def chain_design(rng, n, m, p, relabel=True) -> Design:
    """Class-x platoon: each of the first n-m agents in chain order feeds
    the next p; sensors read the last m. Without relabelling this is the
    topology ``synthesize_platoon(n, m, p)`` builds."""
    order = list(range(1, n + 1))
    if relabel:
        rng.shuffle(order)
    edges = {(i, i) for i in range(1, n + 1)}
    for pos in range(n - m):
        edges.update((order[pos], order[pos + k]) for k in range(1, p + 1))
    return Design(n, m, p, False, tuple(sorted(edges)),
                  {k: order[n - m + k - 1] for k in range(1, m + 1)})


def cut_link(rng, d: Design, from_unobserved=False) -> Design:
    observed = set(d.sensors.values())
    links = [e for e in d.edges if e[0] != e[1]
             and not (from_unobserved and e[0] in observed)]
    gone = rng.choice(links)
    return replace(d, edges=tuple(e for e in d.edges if e != gone), removed=gone)


def design_text(rng, d: Design) -> str:
    """The line format, records in random order, with a comment."""
    records = [f"edge x{a} x{b}" for a, b in d.edges]
    records += [f"sensor y{k} x{j}  # observer" for k, j in sorted(d.sensors.items())]
    rng.shuffle(records)
    return "\n".join([f"# benchmark design, n={d.n}", f"{d.n} {d.m} {d.p}"] + records) + "\n"


def to_topology(sg, d: Design):
    return sg.DcsTopology(n=d.n, m=d.m, agent_edges=d.edges, observer_assignment=d.sensors)


def ids(agents, observers) -> str:
    return ",".join([f"x{i}" for i in sorted(agents)] + [f"y{k}" for k in sorted(observers)])


def random_attack(rng, d: Design, size: int):
    pool = [("x", i) for i in range(1, d.n + 1)]
    if d.xy:
        pool += [("y", k) for k in range(1, d.m + 1)]
    chosen = rng.sample(pool, size)
    return ({i for kind, i in chosen if kind == "x"},
            {k for kind, k in chosen if kind == "y"})


def broken_attack(d: Design):
    """For a design cut at an unobserved agent j: j plus the agents it
    still feeds. j's paths all run through attacked agents, so the
    linking falls one short of the p inputs."""
    j = d.removed[0]
    return {j, *d.successors(j)}, set()


@dataclass(frozen=True)
class Linking:
    """A linking as the CLI reports it, shaped like the program's result."""

    size: int
    paths: list


@dataclass
class Op:
    kind: str
    agents: int  # n of the topology the operation handles
    run: Callable
    check: Callable  # output -> list of problems
    digest: Callable = lambda out: out
    known_fault: str | None = None


@dataclass
class Workload:
    round: list
    warmup: list
    cli: "CliRunner | None" = None

    def close(self) -> None:
        if self.cli is not None:
            self.cli.close()


# ---------------------------------------------------------------- certify-scale

SAMPLE_AGENTS = 20  # agents per design whose separator networkx recomputes


def _agent_sample(d: Design, extra=()) -> set:
    """A sample of the certified agents, fixed by the design, plus `extra`."""
    agents = d.agents_checked()
    rng = random.Random(hash(d.edges))
    return {f"x{i}" for i in rng.sample(agents, min(SAMPLE_AGENTS, len(agents)))} | set(extra)


def _certify_problems(d: Design, doc: dict) -> list:
    problems = []
    p = d.p
    counts = doc["per_agent_min_separator"]
    if set(counts) != {f"x{i}" for i in d.agents_checked()}:
        return ["certified agent set is wrong"]
    # the sample, every agent reported short of p, and the agent that lost a link
    extra = [a for a, k in counts.items() if k < p]
    if d.removed is not None and f"x{d.removed[0]}" in counts:
        extra.append(f"x{d.removed[0]}")
    want = {a: min(p, k) for a, k in
            oracles.sink_paths(d, d.xy, sorted(_agent_sample(d, extra)), p).items()}
    wrong = sorted(a for a in want if counts[a] != want[a])
    if wrong:
        problems.append(f"separator sizes differ from networkx at {wrong[:5]}")
    if doc["robust"] != d.robust:
        problems.append(f"verdict robust={doc['robust']}, expected {d.robust}")
    minimum = oracles.closed_form_links(d.n, d.m, p, d.xy)
    if d.robust and len(d.edges) != minimum:
        problems.append(f"design has {len(d.edges)} links, closed form {minimum}")
    if not d.robust and len(d.edges) >= minimum:
        problems.append("cut design is not below the closed-form minimum")
    ce = doc["counterexample"]
    if d.robust:
        if ce is not None:
            problems.append("robust design came with a counterexample")
        return problems
    if ce is None:
        return problems + ["non-robust verdict without a counterexample"]
    bad_agents = {int(a[1:]) for a in ce["attack_agents"]}
    bad_observers = {int(y[1:]) for y in ce["attack_observers"]}
    size = len(bad_agents) + len(bad_observers)
    if size > p:
        problems.append(f"counterexample has {size} > p={p} targets")
    if ce["agent"] not in {f"x{i}" for i in bad_agents}:
        problems.append("counterexample omits its own agent")
    if len(ce["separator"]) != counts[ce["agent"]]:
        problems.append("counterexample separator size differs from the count")
    g = oracles.separator_digraph(d, d.xy)
    if not oracles.separates(g, ce["agent"], oracles.SINK, set(ce["separator"])):
        problems.append("counterexample separator does not separate")
    if oracles.linking_size(d, bad_agents, bad_observers) >= size:
        problems.append("counterexample attack is fully linked (detectable)")
    return problems


def _certify_op(sg, rng, d: Design) -> Op:
    text = design_text(rng, d)

    def run():
        top, p = sg.parse_topology(text)
        report = sg.certify_robustness(top, p, observers_attackable=d.xy)
        return json.dumps(report.to_dict(), sort_keys=True)

    return Op("certify", d.n, run, lambda out: _certify_problems(d, json.loads(out)))


def _design_of(top, p, xy) -> Design:
    return Design(top.n, top.m, p, xy, tuple(sorted(top.agent_edges)),
                  dict(top.observer_assignment))


def _synthesis_problems(sg, result, n, m, p, xy) -> list:
    problems = []
    minimum = oracles.closed_form_links(n, m, p, xy)
    if result.link_count != minimum or len(result.topology.agent_edges) != minimum:
        problems.append(f"{result.link_count} links, closed form {minimum}")
    if sg.min_links_value(n, m, p, xy) != minimum:
        problems.append("min_links_value disagrees with the closed form")
    if not result.certified:
        problems.append("synthesized design not certified")
    d = _design_of(result.topology, p, xy)
    short = [a for a, k in oracles.sink_paths(d, xy, sorted(_agent_sample(d)), p).items()
             if k < p]
    if short:
        problems.append(f"agents with fewer than p disjoint paths: {short[:5]}")
    return problems


def _synthesis_op(sg, n, m, p, xy, platoon=False) -> Op:
    if platoon:
        def run():
            return sg.synthesize_platoon(n, m, p, observers_attackable=xy)
    else:
        def run():
            return sg.synthesize(sg.SynthesisSpec(n=n, m=m, p=p, observers_attackable=xy))
    return Op("platoon" if platoon else "synthesize", n, run,
              lambda r: _synthesis_problems(sg, r, n, m, p, xy),
              digest=lambda r: (r.link_count, r.certified, r.topology))


def certify_scale(seed: int, smoke: bool) -> Workload:
    import stealthguard as sg
    rng = random.Random(f"certify-scale/{seed}")
    k = 10 if smoke else 1  # smoke mode shrinks every size by this factor

    def n(v):
        return max(24, v // k)

    ops = [
        _certify_op(sg, rng, random_design(rng, n(300), 6, 5, True)),
        _certify_op(sg, rng, cut_link(rng, random_design(rng, n(300), 6, 5, True))),
        _certify_op(sg, rng, chain_design(rng, n(500), 3, 2)),
        _certify_op(sg, rng, cut_link(rng, chain_design(rng, n(500), 3, 2))),
        _certify_op(sg, rng, random_design(rng, n(200), 10, 10, True)),
        _certify_op(sg, rng, random_design(rng, n(400), 4, 3, False)),
        _certify_op(sg, rng, cut_link(rng, random_design(rng, n(400), 4, 3, False))),
        _synthesis_op(sg, n(250), 5, 4, True),
        _synthesis_op(sg, n(400), 2, 2, False, platoon=True),
    ]
    warm = random.Random(f"warmup/{seed}")
    warmup = [_certify_op(sg, warm, random_design(warm, 40, 4, 3, True)),
              _certify_op(sg, warm, cut_link(warm, chain_design(warm, 40, 2, 2))),
              _synthesis_op(sg, 30, 3, 2, True),
              _synthesis_op(sg, 30, 2, 2, False, platoon=True)]
    return Workload(ops, warmup)


# -------------------------------------------------------------------- query-mix

def _linking_problems(d, agents, observers, result) -> list:
    size = len(agents) + len(observers)
    want = oracles.linking_size(d, agents, observers)
    problems = []
    if result.size != want:
        problems.append(f"linking {result.size}, networkx says {want}")
    if len(result.paths) != result.size:
        problems.append("linking path count differs from its size")
    starts = {f"u{t}" for t in range(1, size + 1)}
    ends = {f"y{k}" for k in d.sensors}
    problems += oracles.path_problems(result.paths, oracles.attack_edges(d, agents, observers),
                                      starts, ends, share_ends=False)
    return problems


def _separator_problems(g, s, t, result) -> list:
    want = oracles.disjoint_paths(g, s, t)
    if result.size != want:
        return [f"{s}->{t}: {result.size} disjoint paths, networkx says {want}"]
    if want is None:
        return []
    problems = []
    if len(result.witness) != want or not oracles.separates(g, s, t, result.witness):
        problems.append(f"{s}->{t}: witness is not a minimum separator")
    if len(result.disjoint_paths) != want:
        problems.append(f"{s}->{t}: path count differs from the size")
    problems += oracles.path_problems(result.disjoint_paths, set(g.edges), {s}, {t},
                                      share_ends=True)
    return problems


def _query_ops(sg, rng, d: Design) -> list:
    top = to_topology(sg, d)
    ops = []
    for size in (2, d.p, d.p + 2):
        agents, observers = random_attack(rng, d, size)
        system = sg.StructuredSystem(top, sg.AttackScenario(agents, observers, len(agents) + len(observers)))
        ops.append(Op("linking", d.n, lambda s=system: sg.max_linking(s),
                      lambda r, a=agents, o=observers: _linking_problems(d, a, o, r),
                      digest=lambda r: (r.size, r.paths)))
    agents, observers = random_attack(rng, d, d.p + 1)
    size = len(agents) + len(observers)
    system = sg.StructuredSystem(top, sg.AttackScenario(agents, observers, size))
    ops.append(Op("invertible", d.n, lambda: sg.is_structurally_left_invertible(system),
                  lambda r: [] if r == (oracles.linking_size(d, agents, observers) == size)
                  else [f"left invertible {r}, networkx linking disagrees"]))

    def separator_digest(r):
        return (r.size, sorted(r.witness or ()), r.disjoint_paths)

    for _ in range(2):
        s, t = (f"x{i}" for i in rng.sample(range(1, d.n + 1), 2))
        ops.append(Op("disjoint", d.n, lambda s=s, t=t: sg.max_disjoint_paths(sg.topology_graph(top), s, t),
                      lambda r, s=s, t=t: _separator_problems(oracles.topology_digraph(d), s, t, r),
                      digest=separator_digest))
    s = f"x{rng.randint(1, d.n)}"
    ops.append(Op("to-sink", d.n,
                  lambda: sg.max_disjoint_paths(
                      sg.build_separator_graph(top, collapse_observers=not d.xy), s, oracles.SINK),
                  lambda r: _separator_problems(oracles.separator_digraph(d, d.xy), s, oracles.SINK, r),
                  digest=separator_digest))

    def roundtrip_problems(out):
        parsed, p = out
        same = ((parsed.n, parsed.m, parsed.agent_edges, parsed.observer_assignment, p)
                == (d.n, d.m, frozenset(d.edges), d.sensors, d.p))
        return [] if same else ["parse(format(t)) != t"]

    # the writer is looked up when the op runs, so a traced run sees the wrapper
    for writer in ("format_topology", "topology_to_json"):
        ops.append(Op("roundtrip", d.n,
                      lambda w=writer: sg.parse_topology(getattr(sg, w)(top, d.p)),
                      roundtrip_problems, digest=lambda out: (out[0] == top, out[1])))
    return ops


def query_mix(seed: int, smoke: bool) -> Workload:
    import stealthguard as sg
    rng = random.Random(f"query-mix/{seed}")
    shapes = [(50, 3, 2, "robust"), (100, 4, 3, "chain"), (150, 5, 3, "cut"),
              (200, 6, 4, "robust"), (300, 5, 2, "chain"), (400, 8, 4, "cut")]
    if smoke:
        shapes = shapes[:3]
    ops = []
    for n, m, p, kind in shapes:
        if kind == "chain":
            d = chain_design(rng, n, m, p)
        else:
            d = random_design(rng, n, m, p, True)
            if kind == "cut":
                d = cut_link(rng, d)
        ops += _query_ops(sg, rng, d)
    warm = random.Random(f"warmup/{seed}")
    warmup = _query_ops(sg, warm, random_design(warm, 30, 3, 2, True))
    return Workload(ops, warmup)


# -------------------------------------------------------------- numeric-witness

SIM_STEPS = 200
CALIBRATION_SAMPLES = 20_000


def _pattern_problems(d: Design, agents, observers, real) -> list:
    a = np.zeros((d.n, d.n), dtype=bool)
    for s, r in d.edges:
        a[r - 1, s - 1] = True
    c = np.zeros((d.m, d.n), dtype=bool)
    for k, j in d.sensors.items():
        c[k - 1, j - 1] = True
    targets = [("x", i) for i in sorted(agents)] + [("y", k) for k in sorted(observers)]
    b = np.zeros((d.n, len(targets)), dtype=bool)
    dd = np.zeros((d.m, len(targets)), dtype=bool)
    for t, (kind, i) in enumerate(targets):
        (b if kind == "x" else dd)[i - 1, t] = True
    same = all(np.array_equal(mat != 0, pat) for mat, pat in
               ((real.A, a), (real.B, b), (real.C, c), (real.D, dd)))
    return [] if same else ["realization does not follow the structure"]


def _witness_problems(sg, d, agents, observers, system, out) -> list:
    real, rank, trace, residue_shift = out
    size = len(agents) + len(observers)
    linked = oracles.linking_size(d, agents, observers) == size
    problems = _pattern_problems(d, agents, observers, real)
    if sg.is_structurally_left_invertible(system) != linked:
        problems.append("structural verdict disagrees with the networkx linking")
    if (rank == size) != linked:
        problems.append(f"normal rank {rank} of {size} disagrees with the structural verdict {linked}")
    if (trace is None) != linked:
        problems.append(f"attack {'found' if linked else 'missing'}; "
                        f"structural verdict left_invertible={linked}")
    if trace is not None:
        peak_y, peak_x = oracles.output_deviation(real.A, real.B, real.C, real.D,
                                                  trace.inputs, trace.horizon + d.n)
        if not (peak_x > 0.5 and peak_y <= 1e-6):
            problems.append(f"replayed witness: max |dy| {peak_y:.2e}, max |dx| {peak_x:.2e}")
        if residue_shift > 1e-6:
            problems.append("simulated witness moves the detector residue")
    return problems


def _witness_op(sg, d: Design, agents, observers, real_seed, known_fault=None) -> Op:
    size = len(agents) + len(observers)
    system = sg.StructuredSystem(to_topology(sg, d), sg.AttackScenario(agents, observers, size))

    def run():
        real = sg.realize(system, seed=real_seed)
        rank = sg.normal_rank(real)
        trace = sg.find_perfect_attack(real)
        sim = sg.simulate(real, attack=trace, seed=real_seed, horizon=SIM_STEPS)
        return real, rank, trace, float(np.max(np.abs(sim.delta_residues)))

    return Op("witness", d.n, run,
              lambda out: _witness_problems(sg, d, agents, observers, system, out),
              digest=lambda out: (out[1], out[2] is None), known_fault=known_fault)


def _calibration_op(sg, d: Design, real_seed, sim_seed) -> Op:
    from scipy.stats import chi2
    system = sg.StructuredSystem(to_topology(sg, d), sg.AttackScenario(set(), set(), 0))
    real = sg.realize(system, seed=real_seed)

    def check(rate):
        q = float(chi2.sf(real.eta, d.m))
        sigma = (q * (1 - q) / CALIBRATION_SAMPLES) ** 0.5
        return [] if abs(rate - q) <= 4 * sigma else [f"false-alarm rate {rate} vs {q:.4f}"]

    return Op("calibration", d.n,
              lambda: sg.false_alarm_rate(real, samples=CALIBRATION_SAMPLES, burn_in=200,
                                          seed=sim_seed),
              check)


# (n, realize seed) of the chain searches below that fail today
RANK_CUTOFF_FAILURES = {(20, 4), (30, 0), (30, 2), (30, 4),
                        (45, 0), (45, 1), (45, 2), (45, 3), (45, 4)}


def known_fault_witness_ops(sg) -> list:
    """Certified chains where find_perfect_attack goes wrong on some
    realize seeds; the inputs do not depend on the benchmark seed. Only
    the searches that fail today are marked as the known fault; the
    others are checked like any operation."""
    ops = []
    for n in (20, 30, 45):
        d = chain_design(None, n, 2, 2, relabel=False)
        for real_seed in range(5):
            fault = FAULT_RANK_CUTOFF if (n, real_seed) in RANK_CUTOFF_FAILURES else None
            ops.append(_witness_op(sg, d, {1, 2}, set(), real_seed, known_fault=fault))
    return ops


def numeric_witness(seed: int, smoke: bool) -> Workload:
    import stealthguard as sg
    rng = random.Random(f"numeric-witness/{seed}")
    # Sizes rise in small steps and the heaviest fifth of a round is one
    # group of similar cost (n=70-80 searches and calibrations), so the
    # median and the 90th percentile fall inside groups, not on a gap.
    shapes = [(20, 3, 2), (25, 3, 2), (30, 4, 2), (35, 4, 3), (40, 4, 3), (45, 5, 2),
              (50, 5, 2), (55, 5, 3), (70, 6, 3), (80, 6, 3)]
    if smoke:
        shapes = shapes[:2]
    ops = known_fault_witness_ops(sg)
    for n, m, p in shapes:
        d = random_design(rng, n, m, p, True)
        ops.append(_witness_op(sg, d, *random_attack(rng, d, p), rng.randrange(10**6)))
        cut = cut_link(rng, d, from_unobserved=True)
        ops.append(_witness_op(sg, cut, *broken_attack(cut), rng.randrange(10**6)))
    for _ in range(1 if smoke else 4):
        d = random_design(rng, 30, 4, 2, True)
        ops.append(_calibration_op(sg, d, rng.randrange(10**6), rng.randrange(10**6)))
    warm = random.Random(f"warmup/{seed}")
    d = random_design(warm, 40, 4, 2, True)
    cut = cut_link(warm, d, from_unobserved=True)
    warmup = known_fault_witness_ops(sg)[:3] + [
        _witness_op(sg, d, *random_attack(warm, d, 2), 1),
        _witness_op(sg, cut, *broken_attack(cut), 2),
        _calibration_op(sg, d, 3, 4)]
    return Workload(ops, warmup)


# --------------------------------------------------------------------- cli-cold

class CliRunner:
    """Runs ``python -m stealthguard.cli`` in a fresh process, one at a
    time, and keeps the largest child's peak RSS. When ``traced`` the
    child runs under the tracer (cli_child.py) and its layer totals are
    summed here."""

    TIMEOUT_S = 120

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env.pop("STEALTHGUARD_SEED", None)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.peak_rss_kb = 0
        self.traced = False
        self.trace = {}
        self.spans = []
        self.import_s = []
        self.imported_modules = []
        self.calls = 0

    def run(self, argv):
        self.calls += 1
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        stats_path = self.workdir / f"trace-{self.calls}.json"
        if self.traced:
            cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(stats_path), *argv]
        else:
            cmd = [sys.executable, "-m", "stealthguard.cli", *argv]
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    cwd=ROOT, env=self.env)
            watchdog = threading.Timer(self.TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.traced and stats_path.exists():
            stats = json.loads(stats_path.read_text())
            stats_path.unlink()
            merge(self.trace, stats["trace"])
            self.spans += [span[:-1] + [self.calls] for span in stats["spans"]]
            self.import_s.append(stats["import_s"])
            self.imported_modules.append(stats["imported_modules"])
        return code, out_path.read_text(), err_path.read_text()

    def close(self) -> None:
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()


def _text_design(text: str):
    """Header and record counts of the line format, parsed here."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n, m, p = (int(v) for v in lines[0])
    edges = {(ln[1], ln[2]) for ln in lines[1:] if ln[0] == "edge"}
    sensors = [ln for ln in lines[1:] if ln[0] == "sensor"]
    return n, m, p, edges, sensors


def _expect_json(code, want_code, out, err) -> tuple:
    if code != want_code:
        return None, [f"exit {code}, expected {want_code}: {err.strip()[-200:]}"]
    try:
        return json.loads(out), []
    except json.JSONDecodeError:
        return None, ["output is not JSON"]


def _cli_op(cli, kind, agents, argv, check, known_fault=None) -> Op:
    return Op(kind, agents, lambda: cli.run(argv), lambda out: check(*out),
              digest=lambda out: out[:2], known_fault=known_fault)


def _write(cli, name, text) -> str:
    path = cli.workdir / name
    path.write_text(text)
    return str(path)


def _cli_certify(rng, cli, n) -> Op:
    d = random_design(rng, n, 10, 5, True)

    def check(code, out, err):
        doc, problems = _expect_json(code, 0, out, err)
        return problems if doc is None else _certify_problems(d, doc)
    path = _write(cli, "certify.txt", design_text(rng, d))
    return _cli_op(cli, "certify", d.n, ["certify", "--topology", path, "--json"], check)


def _cli_analyze(rng, cli) -> Op:
    cut = cut_link(rng, random_design(rng, 60, 5, 3, True), from_unobserved=True)
    agents, observers = broken_attack(cut)

    def check(code, out, err):
        doc, problems = _expect_json(code, 1, out, err)
        if doc is None:
            return problems
        if doc["left_invertible"] or doc["attack_inputs"] != len(agents):
            problems.append("analyze verdict is wrong")
        linking = Linking(doc["linking_size"], [tuple(p) for p in doc["linking_paths"]])
        return problems + _linking_problems(cut, agents, observers, linking)
    path = _write(cli, "analyze.txt", design_text(rng, cut))
    return _cli_op(cli, "analyze", cut.n, ["analyze", "--topology", path, "--attack",
                                           ids(agents, observers), "--json"], check)


def _cli_synthesize(rng, cli, command, xy) -> Op:
    n, m, p = 100, rng.randint(4, 6), rng.randint(2, 4)

    def check(code, out, err):
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"]
        got = _text_design(out)
        want = oracles.closed_form_links(n, m, p, xy)
        if got[:3] != (n, m, p) or len(got[3]) != want or len(got[4]) != m:
            return [f"{command}: {len(got[3])} links, closed form {want}"]
        return []
    return _cli_op(cli, command, n, [command, "--n", str(n), "--m", str(m), "--p", str(p),
                                     "--class", "xy" if xy else "x"], check)


def _cli_sensors(rng, cli) -> Op:
    n, p = 300, rng.randint(1, 6)
    k1, k2 = rng.choice((1.0, 1.5, 2.0, 3.0)), rng.choice((1.0, 1.5, 2.0, 3.0))

    def check(code, out, err):
        doc, problems = _expect_json(code, 0, out, err)
        if doc is None:
            return problems
        cost, m = min((k1 * oracles.closed_form_links(n, m, p, True) + k2 * m, m)
                      for m in range(p, n + 1))
        if (doc["m"], doc["total_cost"]) != (m, cost):
            problems.append(f"sensors: m={doc['m']} cost={doc['total_cost']}, "
                            f"brute force m={m} cost={cost}")
        return problems
    return _cli_op(cli, "sensors", n, ["sensors", "--n", str(n), "--p", str(p), "--k1", str(k1),
                                       "--k2", str(k2), "--json"], check)


def _cli_simulate(rng, cli, path) -> Op:
    d = random_design(rng, 30, 4, 2, True)
    _write(cli, path, design_text(rng, d))
    agents, observers = random_attack(rng, d, 2)

    def check(code, out, err):
        doc, problems = _expect_json(code, 0, out, err)
        if doc is None:
            return problems
        if doc["horizon"] != 500 or doc["attack_inputs"] != 2:
            problems.append("simulate report has the wrong shape")
        if not (0 <= doc["nominal_alarm_rate"] <= 1 and doc["max_abs_delta_residue"] > 0):
            problems.append("simulate report is implausible")
        return problems
    return _cli_op(cli, "simulate", d.n,
                   ["simulate", "--topology", str(cli.workdir / path), "--attack",
                    ids(agents, observers), "--horizon", "500",
                    "--seed", str(rng.randrange(10**6)), "--json"], check)


def _cli_attack(rng, cli) -> Op:
    cut = cut_link(rng, random_design(rng, 24, 3, 2, True), from_unobserved=True)

    def check(code, out, err):
        doc, problems = _expect_json(code, 0, out, err)
        if doc is None:
            return problems
        if not doc["found"] or doc["max_abs_delta_residue"] > 1e-6:
            problems.append("attack: no stealthy witness on an uncertified set")
        return problems
    path = _write(cli, "attack.txt", design_text(rng, cut))
    return _cli_op(cli, "attack", cut.n, ["attack", "--topology", path, "--attack",
                                          ids(*broken_attack(cut)),
                                          "--seed", str(rng.randrange(10**6)), "--json"], check)


def _refused(code, out, err):
    if code == 2 and err.startswith("error:") and "Traceback" not in err:
        return []
    return [f"exit {code}, expected 2 with a message: {err.strip()[-120:]}"]


def _cli_malformed(cli, simulate_path) -> list:
    """Fixed malformed inputs, the same for every seed."""
    doc = {"n": 2, "m": 1, "p": 1, "edges": [["x1", "x1"], ["x2", "x2"], ["x1", "x2"]],
           "sensors": [["y1", "x2"]]}
    null_n = _write(cli, "null-n.json", json.dumps(dict(doc, n=None)))
    fractional = _write(cli, "fractional.json", json.dumps(dict(doc, n=2.7, p=1.9)))
    return [
        _cli_op(cli, "malformed", 2, ["certify", "--topology", null_n], _refused,
                FAULT_CLI_INPUT),
        _cli_op(cli, "malformed", 2, ["certify", "--topology", fractional], _refused,
                FAULT_CLI_INPUT),
        _cli_op(cli, "malformed", 30, ["simulate", "--topology", str(cli.workdir / simulate_path),
                                       "--eta", "-1"], _refused, FAULT_CLI_INPUT),
    ]


def cli_cold(seed: int, smoke: bool) -> Workload:
    rng = random.Random(f"cli-cold/{seed}")
    cli = CliRunner(ROOT / ".benchwork" / f"cli-{os.getpid()}")
    ops = [_cli_certify(rng, cli, 60 if smoke else 200), _cli_analyze(rng, cli),
           _cli_synthesize(rng, cli, "synthesize", True),
           _cli_synthesize(rng, cli, "platoon", False),
           _cli_sensors(rng, cli), _cli_simulate(rng, cli, "simulate.txt"),
           _cli_attack(rng, cli)] + _cli_malformed(cli, "simulate.txt")
    warmup = [Op("sensors", 10, lambda: cli.run(["sensors", "--n", "10", "--p", "2",
                                                 "--k1", "1", "--k2", "1"]),
                 lambda out: [] if out[0] == 0 else ["warm-up command failed"])]
    return Workload(ops, warmup, cli=cli)


WORKLOADS = {
    "certify-scale": certify_scale,
    "query-mix": query_mix,
    "numeric-witness": numeric_witness,
    "cli-cold": cli_cold,
}

