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
reuses it for every agent, clearing its flow between agents. An agent
with a one-hop fan needs no flow: p observed receivers other than itself
(in class xy its own sensor counts as one) give p paths that share only
the agent and the sink, since every sensor is dedicated to one agent, so
its separator is at least p. The paper's minimal designs give every agent
such a fan and so certify in linear time; a chain agent, whose paths run
through other unobserved agents, still runs one flow.

The split graph is never built. A vertex passes at most one unit of flow,
so the flow is two vertex arrays: the vertex that sends each vertex its
unit and the vertex that takes it. An entry copy then has exactly one
usable residual arc: its split arc while the vertex is free, and otherwise
the reverse of the edge from the vertex that feeds it. So the search
expands an entry copy in O(1) instead of scanning the in-edges of a sensor
hub. An exit copy's residual arcs are the reverse of its split arc while
the vertex carries a unit, and then its edges, which never saturate and
so need no capacities. Clearing the flow resets the two arrays, O(|V|).

Only exit copies are queued. The search marks an entry copy and follows
its one arc at once. Every exit copy but the source's has exactly one
residual in-arc, from one entry copy, so a search that queued both copies
would reach and expand the exit copies in the same order: every
augmenting path, flow, cut and path family is the one that search finds.
"""

from __future__ import annotations

from .topology import (
    AttackScenario,
    DcsTopology,
    Digraph,
    StructuredSystem,
    _Record,
    _budget,
    _set,
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
    ``succ[v]``, and every result is in vertex numbers. Entry copy 2v and
    exit copy 2v+1 exist only as numbers in the search. The flow is
    ``_pred[v]``, the vertex that sends v its unit, and ``_next[v]``, the
    vertex that takes it; both are -1 while v carries nothing. A flow
    leaves the exit copy of its source and ends at the entry copy of the
    sink, so neither endpoint's split arc lies on an augmenting path;
    callers never flow between adjacent endpoints.

    Entry copy 2v has one usable arc: to its own exit copy while v is free,
    and otherwise back to the exit copy of ``_pred[v]``. Exit copy 2v+1
    goes back to its own entry copy while v carries a unit, and then to the
    entry copy of every successor. A self-loop leads an exit copy to an
    entry copy that is already marked, or at the source to one that leads
    only back to the source.

    The search queues exit copies only: reaching an unmarked entry copy, it
    marks it and its arc's exit copy together. That exit copy's one residual
    in-arc is the arc just followed, so it is queued where a queue of both
    copies would have put it, and the search finds the same paths.
    """

    def __init__(self, succ, sink: int):
        self._succ = succ
        self._nv = len(succ)
        self._sink = 2 * sink
        self._source = None

    def _augment(self) -> bool:
        """Push one unit along a shortest residual path, if there is one."""
        succ, pred, nxt, sink, source = self._succ, self._pred, self._next, self._sink, self._source
        self._parent = parent = [-1] * (2 * self._nv)
        parent[source] = -2
        queue = [source]
        for u in queue:  # the list grows while it is read
            x = u >> 1
            if pred[x] != -1 and parent[u - 1] == -1:
                # back across x's split arc; entry copy 2x then leads back to pred[x]
                parent[u - 1] = u
                f = 2 * pred[x] + 1
                if parent[f] == -1:
                    parent[f] = u - 1
                    queue.append(f)
            for w in succ[x]:
                v = 2 * w
                if parent[v] == -1:
                    parent[v] = u
                    if v == sink:
                        break
                    f = v + 1 if pred[w] == -1 else 2 * pred[w] + 1
                    if parent[f] == -1:
                        parent[f] = v
                        queue.append(f)
            if parent[sink] != -1:
                break
        else:
            return False
        # walk back one exit-to-entry step at a time: a forward edge passes
        # the unit on, and a step back across a split arc frees its vertex.
        # Crossing an edge backward needs no record, as the path's next step
        # rewrites the tail vertex.
        v = sink
        while True:
            u = parent[v]
            x, y = u >> 1, v >> 1
            if x == y:
                pred[y] = nxt[y] = -1
            else:
                nxt[x] = y
                pred[y] = x
            if u == source:
                return True
            v = parent[u]

    def max_flow(self, source: int, cutoff=None) -> int:
        """Flow value from vertex ``source`` to the sink, stopping at ``cutoff``.

        Starts from zero flow, so it discards the previous call's flow.
        """
        self._pred = [-1] * self._nv
        self._next = [-1] * self._nv
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

    def extract_paths(self) -> list:
        """The flow as vertex-disjoint vertex paths, in the source's successor order."""
        pred, nxt = self._pred, self._next
        src, sink = self._source >> 1, self._sink >> 1
        paths = []
        for w in dict.fromkeys(self._succ[src]):  # a repeated successor starts one path
            if pred[w] == src:
                path = [src, w]
                while w != sink:
                    w = nxt[w]
                    path.append(w)
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
    paths = tuple(tuple(names[v] for v in p) for p in net.extract_paths())
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
    paths = tuple(tuple(names[v] for v in p[1:-1]) for p in net.extract_paths())
    return LinkingResult(size=value, paths=paths)


def is_structurally_left_invertible(sys: StructuredSystem) -> bool:
    """True when every admissible realization lets the attack inputs be
    reconstructed from the sensor outputs (generically).

    Holds exactly when the attack graph carries a disjoint linking that
    uses every attack input. Vacuously true for an empty attack set,
    whose linking has size 0.
    """
    p_in = sys.num_attack_inputs
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

    An agent with p observed receivers other than itself (in class xy an
    observed agent's own sensor counts as one) is recorded as p without a
    flow; every other agent runs one max flow, cut off at p.
    """
    p = _budget(p)
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
    # a fan vertex reaches the sink through no vertex but its own: an
    # observed agent (through its dedicated observer in class xy) and, in
    # class xy, an observer
    fan = bytearray(len(succ))
    for j in topology.observer_assignment.values():
        fan[j - 1] = 1
    if observers_attackable:
        fan[topology.n:-1] = b"\x01" * topology.m
    counts = {}
    counterexample = None
    for i in agents:
        # p fan successors other than the agent give p paths that share only
        # the agent and the sink, so no flow is needed
        fanned = sum(map(fan.__getitem__, succ[i - 1])) - fan[i - 1] >= p
        size = p if fanned else net.max_flow(i - 1, cutoff=p)
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
