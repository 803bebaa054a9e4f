"""Brute-force reference implementations used to cross-check the library.

Everything here trades speed for obvious correctness: exhaustive subset
removal for separators, exhaustive path-family search for linkings, a
flow search that queues every split-vertex copy, exhaustive attack-set
enumeration for robustness verdicts, graphs built one edge at a time as
plain string adjacency, the attack-to-output transfer matrix evaluated
in floating point, the filter's Riccati recursion stepped one step at a
time, plant and filter stepped together one step at a time, and the
normal rank from a fixed number of exact draws.
"""

from collections import deque
from itertools import combinations

import numpy as np

from stealthguard import (
    AttackScenario,
    DcsTopology,
    StructuredSystem,
    is_structurally_left_invertible,
)
from stealthguard.separators import _VertexFlowNet
from stealthguard.simulation import _pencil_rank
from stealthguard.topology import OBSERVER_SINK, Digraph, agent_id, attack_input_id, \
    observer_id, parse_agent_id, parse_observer_id


class StringGraph(dict):
    """Plain string adjacency, built one edge at a time: each node id maps
    to its successor ids in insertion order. It reads like the library's
    ``Digraph`` through ``nodes`` and ``successors``."""

    def add_node(self, v) -> None:
        self.setdefault(v, [])

    def add_edge(self, u, v) -> None:
        self.add_node(u)
        self.add_node(v)
        assert v not in self[u], f"duplicate edge {u!r} -> {v!r}"
        self[u].append(v)

    def nodes(self) -> list:
        return list(self)

    def successors(self, v) -> list:
        return list(self[v])


def digraph(names, edges) -> Digraph:
    """The library's ``Digraph`` on ``names`` with the (tail, head) id
    pairs of ``edges``, each vertex's successors in edge order."""
    index = {v: i for i, v in enumerate(names)}
    succ = [[] for _ in names]
    for a, b in edges:
        succ[index[a]].append(index[b])
    return Digraph(tuple(names), tuple(map(tuple, succ)))


class CopyQueueFlowNet(_VertexFlowNet):
    """The flow core with a plain breadth-first search over both split-vertex
    copies: entry and exit copies are queued alike on a deque, and the path
    update walks back one copy at a time."""

    def _augment(self) -> bool:
        succ, pred, nxt, sink = self._succ, self._pred, self._next, self._sink
        self._parent = parent = [-1] * (2 * self._nv)
        parent[self._source] = -2
        queue = deque([self._source])
        while queue and parent[sink] == -1:
            u = queue.popleft()
            x = u >> 1
            if u & 1:
                if pred[x] != -1 and parent[u - 1] == -1:
                    parent[u - 1] = u
                    queue.append(u - 1)
                for w in succ[x]:
                    v = 2 * w
                    if parent[v] == -1:
                        parent[v] = u
                        if v == sink:
                            break
                        queue.append(v)
            else:  # entry copy: its one usable arc leads to an exit copy, never the sink
                v = u + 1 if pred[x] == -1 else 2 * pred[x] + 1
                if parent[v] == -1:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] == -1:
            return False
        v = sink
        while v != self._source:
            u = parent[v]
            if u & 1 and not v & 1:
                if u == v + 1:
                    pred[v >> 1] = nxt[v >> 1] = -1
                else:
                    nxt[u >> 1] = v >> 1
                    pred[v >> 1] = u >> 1
            v = u
        return True


def reachable(graph, start, blocked=frozenset()):
    """Set of nodes reachable from start without entering blocked, start
    included."""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for succ in graph.successors(node):
            if succ not in seen and succ not in blocked:
                seen.add(succ)
                frontier.append(succ)
    return seen


def separates(graph, source, sink, blocked):
    """True when every path from source to sink meets blocked."""
    seen = {source}
    frontier = [source]
    while frontier:
        node = frontier.pop()
        for succ in graph.successors(node):
            if succ == sink:
                return False
            if succ not in seen and succ not in blocked:
                seen.add(succ)
                frontier.append(succ)
    return True


def brute_min_separator(graph, source, sink):
    """Size of the smallest internal vertex set disconnecting the pair.

    None when sink is a direct successor of source (no separator exists).
    """
    if sink in graph.successors(source):
        return None
    internal = [v for v in graph.nodes() if v != source and v != sink]
    for size in range(len(internal) + 1):
        for subset in combinations(internal, size):
            if separates(graph, source, sink, set(subset)):
                return size
    raise AssertionError("removing every internal vertex must separate a nonadjacent pair")


def closest_min_separator(graph, source, sink):
    """The minimum separator of a nonadjacent pair closest to the source:
    of all separators of the smallest size, the one that leaves the fewest
    vertices reachable from the source. Checked to be unique."""
    size = brute_min_separator(graph, source, sink)
    internal = [v for v in graph.nodes() if v != source and v != sink]
    by_reach = {}
    for subset in combinations(internal, size):
        if separates(graph, source, sink, set(subset)):
            reach = len(reachable(graph, source, set(subset)))
            by_reach.setdefault(reach, []).append(frozenset(subset))
    (closest,) = by_reach[min(by_reach)]
    return closest


def simple_paths_to(graph, source, sinks):
    """All simple paths from source to any node in sinks, as tuples."""
    paths = []
    trail = [source]
    on_trail = {source}

    def walk(node):
        if node in sinks:
            paths.append(tuple(trail))
            return
        for succ in graph.successors(node):
            if succ in on_trail:
                continue
            trail.append(succ)
            on_trail.add(succ)
            walk(succ)
            trail.pop()
            on_trail.remove(succ)

    walk(source)
    return paths


def reference_topology_graph(topology: DcsTopology) -> StringGraph:
    """``topology_graph`` built edge by edge: agents, then observers; sorted
    agent edges, then each observer's edge by observer index."""
    g = StringGraph()
    for i in range(1, topology.n + 1):
        g.add_node(agent_id(i))
    for k in range(1, topology.m + 1):
        g.add_node(observer_id(k))
    for (a, b) in sorted(topology.agent_edges):
        g.add_edge(agent_id(a), agent_id(b))
    for k in sorted(topology.observer_assignment):
        g.add_edge(agent_id(topology.observer_assignment[k]), observer_id(k))
    return g


def reference_attack_graph(sys: StructuredSystem) -> StringGraph:
    """The attack graph of ``max_linking`` built edge by edge: the
    communication graph, then input u<t> feeding the t-th target."""
    g = reference_topology_graph(sys.topology)
    for t, target in enumerate(sys.scenario.target_ids(), start=1):
        g.add_edge(attack_input_id(t), target)
    return g


def reference_separator_graph(topology: DcsTopology, collapse_observers: bool) -> StringGraph:
    """``build_separator_graph`` built edge by edge, sink ``o`` last."""
    if not collapse_observers:
        g = reference_topology_graph(topology)
        g.add_node(OBSERVER_SINK)
        for k in range(1, topology.m + 1):
            g.add_edge(observer_id(k), OBSERVER_SINK)
        return g
    g = StringGraph()
    for i in range(1, topology.n + 1):
        g.add_node(agent_id(i))
    g.add_node(OBSERVER_SINK)
    for (a, b) in sorted(topology.agent_edges):
        g.add_edge(agent_id(a), agent_id(b))
    for j in sorted(topology.observed_agents):
        g.add_edge(agent_id(j), OBSERVER_SINK)
    return g


def reference_patterns(sys: StructuredSystem):
    """Boolean zero patterns of (A, B, C, D), set entry by entry: edge
    (sender, receiver) in the receiver's row of A, sensor k's agent in row
    k of C, and the t-th of ``scenario.target_ids()`` in column t of B
    (an agent) or D (an observer)."""
    top = sys.topology
    n, m, p = top.n, top.m, sys.scenario.num_inputs
    A, B = np.zeros((n, n), dtype=bool), np.zeros((n, p), dtype=bool)
    C, D = np.zeros((m, n), dtype=bool), np.zeros((m, p), dtype=bool)
    for (sender, receiver) in top.agent_edges:
        A[receiver - 1, sender - 1] = True
    for k, j in top.observer_assignment.items():
        C[k - 1, j - 1] = True
    for t, target in enumerate(sys.scenario.target_ids()):
        if target.startswith("x"):
            B[parse_agent_id(target) - 1, t] = True
        else:
            D[parse_observer_id(target) - 1, t] = True
    return A, B, C, D


def brute_max_linking(sys: StructuredSystem) -> int:
    """Largest family of fully vertex-disjoint paths, one per attack input,
    each ending at a distinct observer. Exhaustive branch and bound."""
    graph = reference_attack_graph(sys)
    sources = [attack_input_id(t) for t in range(1, sys.num_attack_inputs + 1)]
    sinks = {observer_id(k) for k in range(1, sys.topology.m + 1)}
    per_source = [simple_paths_to(graph, s, sinks) for s in sources]
    best = 0

    def extend(idx, used, count):
        nonlocal best
        if count + (len(per_source) - idx) <= best:
            return
        if idx == len(per_source):
            best = max(best, count)
            return
        for path in per_source[idx]:
            verts = set(path)
            if not (used & verts):
                extend(idx + 1, used | verts, count + 1)
        extend(idx + 1, used, count)

    extend(0, set(), 0)
    return best


def enumerate_attacks(topology: DcsTopology, p: int, observers_attackable: bool):
    """Every nonempty attack scenario of size <= p in the given class."""
    pool = [("x", i) for i in range(1, topology.n + 1)]
    if observers_attackable:
        pool += [("y", k) for k in range(1, topology.m + 1)]
    for size in range(1, p + 1):
        for combo in combinations(pool, size):
            agents = {i for kind, i in combo if kind == "x"}
            observers = {k for kind, k in combo if kind == "y"}
            yield AttackScenario(compromised_agents=agents,
                                 compromised_observers=observers, p_bound=p)


def brute_robust(topology: DcsTopology, p: int, observers_attackable: bool) -> bool:
    """Robustness by checking left invertibility of every bounded attack."""
    return all(
        is_structurally_left_invertible(StructuredSystem(topology=topology, scenario=scen))
        for scen in enumerate_attacks(topology, p, observers_attackable))


def random_digraph(rng, max_nodes=7, edge_prob=0.35) -> Digraph:
    """Random digraph on 2..max_nodes vertices, self-loops included."""
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"v{i}" for i in range(n)]
    return digraph(names, [(a, b) for a in names for b in names if rng.random() < edge_prob])


def random_topology(rng, n_max=5, edge_prob=0.4, n=None, m=None) -> DcsTopology:
    """Random control topology with mandatory self-loops and m dedicated sensors."""
    if n is None:
        n = int(rng.integers(1, n_max + 1))
    if m is None:
        m = int(rng.integers(0, n + 1))
    edges = {(i, i) for i in range(1, n + 1)}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b and rng.random() < edge_prob:
                edges.add((a, b))
    observed = [int(v) + 1 for v in rng.permutation(n)[:m]]
    assignment = {k + 1: observed[k] for k in range(m)}
    return DcsTopology(n=n, m=m, agent_edges=edges, observer_assignment=assignment)


def evaluate_transfer(real, z: complex) -> np.ndarray:
    """Attack-to-output transfer matrix C (zI - A)^-1 B + D at one complex
    frequency: the float reference for the exact ``normal_rank``."""
    n = real.n
    resolvent = np.linalg.solve(z * np.eye(n) - real.A, real.B)
    return real.C @ resolvent + real.D


def plain_riccati(A, C, Q, R, steps: int):
    """The steady-state filter's Riccati recursion, stepped `steps` times
    from the prediction covariance P = Q, in its textbook form: K = P C^T
    (C P C^T + R)^-1, filtered covariance (I - K C) P, next P = A (I - K C)
    P A^T + Q. Returns the filtered covariance and K at the last P."""
    identity = np.eye(len(A))
    P = Q
    for _ in range(steps):
        K = P @ C.T @ np.linalg.inv(C @ P @ C.T + R)
        P = A @ (identity - K @ C) @ P @ A.T + Q
    K = P @ C.T @ np.linalg.inv(C @ P @ C.T + R)
    return (identity - K @ C) @ P, K


def stepped_run(real, x0, plant_in, sensor_in):
    """Plant and filter stepped together for len(plant_in) steps, in the
    textbook order: the plant is x_{k+1} = A x_k + plant_in[k] from x_0 =
    x0 and reads y_k = C x_k + sensor_in[k]; the filter starts from a zero
    estimate, predicts A xhat_{k-1}, takes the residue y_k - C times that
    prediction, and sets xhat_k to the prediction plus K times the residue.
    Returns (states, estimates, outputs, residues), one row per step."""
    A, C, K = real.A, real.C, real.K
    steps, n, m = len(plant_in), real.n, real.m
    states = np.zeros((steps, n))
    estimates = np.zeros((steps, n))
    outputs = np.zeros((steps, m))
    residues = np.zeros((steps, m))
    x = x0
    xh = np.zeros(n)
    for k in range(steps):
        states[k] = x
        y = C @ x + sensor_in[k]
        outputs[k] = y
        predicted = A @ xh
        residues[k] = y - C @ predicted
        xh = predicted + K @ residues[k]
        estimates[k] = xh
        x = A @ x + plant_in[k]
    return states, estimates, outputs, residues


def seven_draw_rank(real, seed: int = 0) -> int:
    """Normal rank as the best of up to 7 exact GF(q) pencil draws on the
    reachable part, stopping early only at full column rank."""
    rng = np.random.default_rng(seed)
    A, B, C = real._reachable_part
    best = 0
    for _ in range(7):
        best = max(best, _pencil_rank(A, B, C, real.D, rng))
        if best == real.num_inputs:
            break
    return best
