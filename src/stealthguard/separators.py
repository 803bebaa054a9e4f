"""Vertex separators, disjoint-path certificates and robustness verdicts.

The workhorse is a unit-vertex-capacity max flow: every graph vertex is
split into an entry and an exit copy joined by a capacity-1 arc, original
edges get a capacity above any achievable flow, and the flow value between
two terminals then equals the maximum number of internally vertex-disjoint
paths. By duality that value also equals the smallest vertex separator,
and the saturated split arcs on the source side of the final residual
graph form a canonical minimum separator (the one nearest the source),
read from the marks of the flow's last, failed search. Augmentation is by
shortest path (breadth-first search), so results are deterministic for a
fixed input.

Networks are built in integer vertex numbers, from the ``succ`` of the
graph layer's one graph type, :class:`stealthguard.topology.Digraph`.
``max_disjoint_paths`` runs on the graph it is given; certification runs
on ``build_separator_graph``; linking and left invertibility run on the
topology's cached communication digraph and append the attack inputs, the
super source and the sink; the numeric layer's linking bound builds
``max_linking``'s network from a pattern. Ids are looked up in a graph's
``names`` only when a result object is made.

All functions are pure; certification builds one network per sink and
reuses it for every agent, resetting its capacities between agents.

A vertex passes at most one unit of flow, so at most one of its in-edges
carries flow. An entry copy therefore has exactly one usable residual arc:
its split arc while no flow enters the vertex, and otherwise the reverse
of the one in-edge that carries flow in. The network records that in-edge
per vertex as it applies each augmenting path, and the search expands an
entry copy in O(1) instead of scanning the in-edges of a sensor hub. The
record is read only while the split arc is saturated, so resetting the
capacities between agents also retires it.
"""

from __future__ import annotations

from collections import deque

from .topology import (
    AttackScenario,
    DcsTopology,
    Digraph,
    StructuredSystem,
    _Record,
    _set,
    _whole_number,
    attack_input_id,
    build_separator_graph,
)


class InfeasibilityError(ValueError):
    """No topology can meet the requested robustness level."""


class SeparatorResult(_Record):
    """Outcome of a disjoint-path / separator query.

    ``size`` is None exactly when no finite separator exists (the endpoints
    are adjacent); otherwise size == len(witness) == len(disjoint_paths).
    """

    __match_args__ = ("size", "witness", "disjoint_paths")

    def __init__(self, size: int | None, witness: frozenset | None, disjoint_paths: tuple):
        _set(self, "size", size)
        _set(self, "witness", witness)
        _set(self, "disjoint_paths", disjoint_paths)


class LinkingResult(_Record):
    """Maximum family of fully vertex-disjoint attack-to-sensor paths."""

    __match_args__ = ("size", "paths")

    def __init__(self, size: int, paths: tuple):
        _set(self, "size", size)
        _set(self, "paths", paths)


class Counterexample(_Record):
    """A deficient separator converted into a concrete attack set."""

    __match_args__ = ("agent", "separator", "attack")

    def __init__(self, agent: str, separator: frozenset, attack: AttackScenario):
        _set(self, "agent", agent)
        _set(self, "separator", separator)
        _set(self, "attack", attack)


class RobustnessReport(_Record):
    """Verdict of :func:`certify_robustness`.

    ``per_agent_min_separator`` records, for every certified agent in
    ascending order, the smallest separator cutting it off from the sensor
    sink, saturated at ``p`` (the search stops augmenting once the budget
    is matched, so a recorded value of p means "at least p"). The verdict
    is robust exactly when every recorded value is >= p. The report holds
    that dict, so it is unhashable.
    """

    __match_args__ = ("robust", "observers_attackable", "p", "per_agent_min_separator",
                      "counterexample")

    def __init__(self, robust: bool, observers_attackable: bool, p: int,
                 per_agent_min_separator: dict, counterexample: Counterexample | None):
        _set(self, "robust", robust)
        _set(self, "observers_attackable", observers_attackable)
        _set(self, "p", p)
        _set(self, "per_agent_min_separator", per_agent_min_separator)
        _set(self, "counterexample", counterexample)

    def to_dict(self) -> dict:
        doc = {
            "robust": self.robust,
            "attack_class": "xy" if self.observers_attackable else "x",
            "p": self.p,
            "per_agent_min_separator": dict(self.per_agent_min_separator),
            "counterexample": None,
        }
        if self.counterexample is not None:
            ce = self.counterexample
            targets = ce.attack.target_ids()
            split = len(ce.attack.compromised_agents)
            doc["counterexample"] = {
                "agent": ce.agent,
                # the attack is the agent plus its separator, in target order
                "separator": [v for v in targets if v != ce.agent],
                "attack_agents": targets[:split],
                "attack_observers": targets[split:],
            }
        return doc


class _VertexFlowNet:
    """Split-vertex flow network toward one sink, reused across sources.

    Built from integer successor lists: vertex v's successors are
    ``succ[v]``, and every result is in vertex numbers. Every split arc has
    capacity 1. A flow leaves the exit copy of its source and ends at the
    entry copy of the sink, so neither endpoint's own split arc lies on an
    augmenting path. When the endpoints are not adjacent every augmenting
    path crosses a split arc and carries one unit; callers never flow
    between adjacent endpoints.

    An entry copy has no arc list: the search leaves it along its split
    arc while that is free, and otherwise along the reverse of the one
    in-edge carrying the vertex's unit, which ``_augment`` records in
    ``_inflow``. That is the only arc a scan of its in-edges would find
    usable, so the search visits the copies in the same order.
    """

    def __init__(self, succ, sink: int):
        nv = len(succ)
        self._nv = nv
        edge_cap = nv + 1  # exceeds any achievable flow, so never in a min cut
        # entry copy of vertex i is 2i, exit copy is 2i+1. Arc pairs (e, e^1)
        # are forward and residual; the split arcs come first, so arc id
        # e < 2*nv is the split arc of vertex e // 2 (and so has the id of
        # its entry copy), and then one pair per edge, by tail vertex and
        # successor order. Only exit copies have arc lists.
        out = [[2 * i + 1] for i in range(nv)]
        heads, tails = [], []
        arc = 2 * nv
        for u, ws in enumerate(succ):
            if u in ws:  # self-loops never lie on a simple path
                at = ws.index(u)
                ws = ws[:at] + ws[at + 1:]
            if ws:
                out[u] += range(arc, arc + 2 * len(ws), 2)
                heads += ws
                tails += [2 * u + 1] * len(ws)
                arc += 2 * len(ws)
        to = [0] * arc
        to[0:2 * nv:2] = range(1, 2 * nv, 2)
        to[1:2 * nv:2] = range(0, 2 * nv, 2)
        to[2 * nv::2] = [2 * w for w in heads]
        to[2 * nv + 1::2] = tails
        self._to, self._out = to, out
        self._init_cap = [1, 0] * nv + [edge_cap, 0] * len(heads)
        self._cap = list(self._init_cap)
        # the forward edge arc carrying flow into vertex i; read only while
        # i's split arc is saturated, so a stale entry needs no reset. The
        # sink takes many units, but the search never expands its entry copy.
        self._inflow = [0] * nv
        self._sink = 2 * sink
        self._source = None

    def _augment(self) -> bool:
        """Push one unit along a shortest residual path, if there is one."""
        to, cap, out, inflow, sink = self._to, self._cap, self._out, self._inflow, self._sink
        self._parent = parent = [-1] * (2 * self._nv)
        parent[self._source] = -2
        queue = deque([self._source])
        while queue and parent[sink] == -1:
            u = queue.popleft()
            if u & 1:
                for e in out[u >> 1]:
                    v = to[e]
                    if cap[e] > 0 and parent[v] == -1:
                        parent[v] = e
                        if v == sink:
                            break
                        queue.append(v)
            else:  # entry copy: its one usable arc leads to an exit copy, never the sink
                e = u if cap[u] else inflow[u >> 1] ^ 1
                v = to[e]
                if parent[v] == -1:
                    parent[v] = e
                    queue.append(v)
        if parent[sink] == -1:
            return False
        nv2 = 2 * self._nv
        v = sink
        while v != self._source:
            e = parent[v]
            cap[e] -= 1
            cap[e ^ 1] += 1
            if e >= nv2 and not e & 1:  # flow now enters v along this edge
                inflow[v >> 1] = e
            v = to[e ^ 1]
        return True

    def max_flow(self, source: int, cutoff=None) -> int:
        """Flow value from vertex ``source`` to the sink, stopping at ``cutoff``.

        Starts from zero flow, so it discards the previous call's flow.
        """
        self._cap[:] = self._init_cap
        self._source = 2 * source + 1
        self._parent = None
        flow = 0
        while (cutoff is None or flow < cutoff) and self._augment():
            flow += 1
        return flow

    def source_side_cut(self) -> list:
        """Vertices whose split arc crosses the residual source side.

        Read, ascending, from the marks of max_flow's last search, which
        failed and so reached just that side; RuntimeError if it hit its cutoff.
        """
        parent = self._parent
        if parent is None or parent[self._sink] != -1:
            raise RuntimeError("no source side: max_flow stopped at its cutoff")
        return [i for i in range(self._nv) if parent[2 * i] != -1 and parent[2 * i + 1] == -1]

    def extract_paths(self, count) -> list:
        """Decompose the flow into `count` vertex-disjoint vertex paths."""
        used = [self._init_cap[e] - self._cap[e] for e in range(0, len(self._cap), 2)]
        to, out = self._to, self._out
        paths = []
        src = (self._source - 1) // 2
        for _ in range(count):
            path = [src]
            cur = self._source
            while cur != self._sink:
                # from an exit copy along a used edge to an entry copy, then
                # across that vertex's split arc to its exit copy
                for e in out[cur >> 1]:
                    if e % 2 == 0 and used[e // 2] > 0:
                        used[e // 2] -= 1
                        cur = to[e]
                        break
                else:  # pragma: no cover - flow conservation rules this out
                    raise AssertionError("flow decomposition dead-ended")
                if cur != self._sink:
                    used[cur >> 1] -= 1
                    path.append(cur >> 1)
                    cur += 1
            path.append(self._sink // 2)
            paths.append(path)
        return paths


def max_disjoint_paths(graph: Digraph, source, sink) -> SeparatorResult:
    """Count disjoint source-to-sink paths and return a matching separator.

    Paths may share only the two endpoints and the witness is a minimum
    vertex separator excluding them; adjacent endpoints admit no finite
    separator and yield a result with ``size=None``.
    """
    index = graph._index
    if source not in index or sink not in index:
        raise KeyError(f"unknown endpoint: {source!r} or {sink!r}")
    if source == sink:
        raise ValueError("source and sink must differ")
    s, t = index[source], index[sink]
    if t in graph.succ[s]:
        return SeparatorResult(size=None, witness=None, disjoint_paths=())
    net = _VertexFlowNet(graph.succ, t)
    value = net.max_flow(s)
    names = graph.names
    witness = frozenset(names[v] for v in net.source_side_cut())
    paths = tuple(tuple(names[v] for v in p) for p in net.extract_paths(value))
    assert len(witness) == value
    return SeparatorResult(size=value, witness=witness, disjoint_paths=paths)


def _linking_flow(state_succ, m: int, input_succ):
    """(network, value) of a maximum fully vertex-disjoint linking: r states
    with successors ``state_succ`` among the states and the m sensors
    r..r+m-1, which feed the sink, then inputs with successors
    ``input_succ``, which a source feeds; source and sink come last."""
    r, p_in = len(state_succ), len(input_succ)
    source, sink = r + m + p_in, r + m + p_in + 1
    succ = (list(state_succ) + [(sink,)] * m + list(input_succ)
            + [tuple(range(r + m, r + m + p_in)), ()])
    net = _VertexFlowNet(succ, sink)
    return net, net.max_flow(source)


def max_linking(sys: StructuredSystem) -> LinkingResult:
    """Largest family of fully vertex-disjoint paths from the attack inputs
    to the observers in the attack-augmented graph.

    Endpoints count toward disjointness: two paths may not share even an
    input node or a sensor node.
    """
    p_in = sys.num_attack_inputs
    if p_in == 0:
        return LinkingResult(size=0, paths=())
    n, m = sys.topology.n, sys.topology.m
    graph = sys.topology._core
    # input t is vertex n+m+t-1 and feeds the t-th of scenario.target_ids()
    inputs = [(v,) for v in sys.scenario._target_vertices(n)]
    net, value = _linking_flow(graph.succ[:n], m, inputs)
    names = graph.names + tuple(map(attack_input_id, range(1, p_in + 1)))
    paths = tuple(tuple(names[v] for v in p[1:-1]) for p in net.extract_paths(value))
    return LinkingResult(size=value, paths=paths)


def is_structurally_left_invertible(sys: StructuredSystem) -> bool:
    """True when every admissible realization lets the attack inputs be
    reconstructed from the sensor outputs (generically).

    Holds exactly when the attack graph carries a disjoint linking that
    uses every attack input. Vacuously true for an empty attack set.
    """
    p_in = sys.num_attack_inputs
    if p_in == 0:
        return True
    if p_in > sys.topology.m:
        # fewer sensors than attack inputs can never separate them
        return False
    return max_linking(sys).size == p_in


def certify_robustness(topology: DcsTopology, p: int,
                       observers_attackable: bool = True) -> RobustnessReport:
    """Decide whether every attack of size <= p stays reconstructible.

    Reduces to separator sizes toward the sensor sink: with observers in
    the attack surface every agent needs a separator of size >= p, and in
    the agents-only class just the unobserved agents do (the collapsed
    reduction). On failure the first deficient separator (agents scanned
    in ascending order) is converted into a concrete attack set of size
    <= p that defeats left invertibility: the agent itself plus every
    separator member.
    """
    p = _whole_number(p, "attack budget p")
    if p < 0:
        raise ValueError("attack budget p must be nonnegative")
    if observers_attackable and topology.m < p:
        raise InfeasibilityError(
            f"m={topology.m} sensors cannot withstand p={p} attacks on the "
            f"full surface: an adversary hitting all sensors plus one agent "
            f"always stays hidden; need m >= p")
    graph = build_separator_graph(topology, collapse_observers=not observers_attackable)
    names, succ = graph.names, graph.succ
    if observers_attackable:
        agents = range(1, topology.n + 1)
    else:
        agents = sorted(topology.unobserved_agents)
    net = _VertexFlowNet(succ, len(succ) - 1)
    counts = {}
    counterexample = None
    for i in agents:
        size = net.max_flow(i - 1, cutoff=p)
        counts[names[i - 1]] = size
        if size < p and counterexample is None:
            cut = net.source_side_cut()
            # vertices below n are agents, the rest observers (class xy only)
            attack = AttackScenario(
                compromised_agents={i} | {v + 1 for v in cut if v < topology.n},
                compromised_observers={v - topology.n + 1 for v in cut if v >= topology.n},
                p_bound=p)
            counterexample = Counterexample(agent=names[i - 1],
                                            separator=frozenset(names[v] for v in cut),
                                            attack=attack)
    robust = counterexample is None
    return RobustnessReport(robust=robust, observers_attackable=observers_attackable,
                            p=p, per_agent_min_separator=counts,
                            counterexample=counterexample)
