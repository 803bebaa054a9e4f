"""Directed-graph model of a distributed control network.

Agents ``x1..xn`` hold scalar states updated from in-neighbor states;
observers ``y1..ym`` are dedicated sensors, each reading exactly one agent.
An edge is an ordered pair (sender, receiver): ``(xj, xi)`` feeds agent j's
state into agent i's update law, i.e. a nonzero in row i, column j of the
state matrix. Every agent keeps an explicit self-loop, and the observer
assignment is injective (no two sensors share an agent).

Node ids are plain strings ("x3", "y1"). Attack inputs in the augmented
graph get "u1", "u2", ...; the separator reduction adds the sink id "o".
All containers here are immutable or treated as read-only once built, so
values can be shared freely across threads.

This module, like the rest of the graph layer, needs only the standard
library. The boolean zero patterns of the state, output and attack
matrices (``state_pattern`` and friends, and ``topology_from_patterns``)
are numpy arrays, so they live in :mod:`stealthguard.simulation`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

OBSERVER_SINK = "o"

_AGENT_ID = re.compile(r"^x([1-9][0-9]*)$")
_OBSERVER_ID = re.compile(r"^y([1-9][0-9]*)$")


def agent_id(i: int) -> str:
    return f"x{i}"


def observer_id(k: int) -> str:
    return f"y{k}"


def attack_input_id(t: int) -> str:
    return f"u{t}"


def parse_agent_id(node: str) -> int:
    """Agent index behind an ``x<i>`` id, or ValueError."""
    m = _AGENT_ID.match(node)
    if not m:
        raise ValueError(f"not an agent id: {node!r}")
    return int(m.group(1))


def parse_observer_id(node: str) -> int:
    m = _OBSERVER_ID.match(node)
    if not m:
        raise ValueError(f"not an observer id: {node!r}")
    return int(m.group(1))


class TopologyFormatError(ValueError):
    """Malformed topology text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Digraph:
    """Small insertion-ordered digraph on hashable node ids.

    At most one edge per ordered pair; adding a duplicate raises. Successor
    lists preserve insertion order so every traversal is deterministic.
    """

    __slots__ = ("_succ",)

    def __init__(self):
        self._succ: dict = {}

    def add_node(self, v) -> None:
        if v not in self._succ:
            self._succ[v] = []

    def add_edge(self, u, v) -> None:
        self.add_node(u)
        self.add_node(v)
        if v in self._succ[u]:
            raise ValueError(f"duplicate edge {u!r} -> {v!r}")
        self._succ[u].append(v)

    def has_node(self, v) -> bool:
        return v in self._succ

    def has_edge(self, u, v) -> bool:
        return u in self._succ and v in self._succ[u]

    def nodes(self) -> list:
        return list(self._succ)

    def successors(self, v) -> list:
        return list(self._succ[v])

    def edges(self):
        for u, outs in self._succ.items():
            for v in outs:
                yield (u, v)

    @property
    def num_nodes(self) -> int:
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        return sum(len(outs) for outs in self._succ.values())


@dataclass(frozen=True)
class DcsTopology:
    """Communication topology: n agents, m dedicated observers, agent edges.

    ``agent_edges`` holds (sender, receiver) index pairs, 1-based, and must
    contain (i, i) for every agent. ``observer_assignment`` maps observer
    index k to the agent it reads; it must cover 1..m and be injective.
    """

    n: int
    m: int
    agent_edges: frozenset
    observer_assignment: dict

    def __post_init__(self):
        object.__setattr__(self, "agent_edges",
                           frozenset((int(a), int(b)) for a, b in self.agent_edges))
        object.__setattr__(self, "observer_assignment",
                           {int(k): int(v) for k, v in dict(self.observer_assignment).items()})
        if self.n < 0 or self.m < 0 or self.m > self.n:
            raise ValueError(f"need 0 <= m <= n, got n={self.n} m={self.m}")
        for (a, b) in self.agent_edges:
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"edge ({a}, {b}) out of range for n={self.n}")
        for i in range(1, self.n + 1):
            if (i, i) not in self.agent_edges:
                raise ValueError(f"agent x{i} is missing its self-loop")
        if set(self.observer_assignment) != set(range(1, self.m + 1)):
            raise ValueError("observer assignment must cover exactly y1..ym")
        targets = list(self.observer_assignment.values())
        for j in targets:
            if not (1 <= j <= self.n):
                raise ValueError(f"observer target x{j} out of range")
        if len(set(targets)) != len(targets):
            raise ValueError("observers must be dedicated: one agent per sensor")

    @property
    def link_count(self) -> int:
        """Number of agent-to-agent links, self-loops included."""
        return len(self.agent_edges)

    @property
    def observed_agents(self) -> frozenset:
        return frozenset(self.observer_assignment.values())

    @property
    def unobserved_agents(self) -> frozenset:
        return frozenset(range(1, self.n + 1)) - self.observed_agents

    def observer_of(self, agent: int) -> int | None:
        for k, j in self.observer_assignment.items():
            if j == agent:
                return k
        return None


@dataclass(frozen=True)
class AttackScenario:
    """A concrete attack set: which agents and observers carry hostile inputs.

    ``p_bound`` is the adversary's budget; the set sizes must not exceed it.
    Attack inputs are numbered with compromised agents first (ascending),
    then compromised observers (ascending).
    """

    compromised_agents: frozenset
    compromised_observers: frozenset
    p_bound: int

    def __post_init__(self):
        object.__setattr__(self, "compromised_agents",
                           frozenset(int(i) for i in self.compromised_agents))
        object.__setattr__(self, "compromised_observers",
                           frozenset(int(k) for k in self.compromised_observers))
        if self.p_bound < 0:
            raise ValueError("p_bound must be nonnegative")
        if self.num_inputs > self.p_bound:
            raise ValueError(
                f"attack set of size {self.num_inputs} exceeds budget p={self.p_bound}")

    @property
    def num_inputs(self) -> int:
        return len(self.compromised_agents) + len(self.compromised_observers)

    def target_ids(self) -> list:
        """Attacked node ids in attack-input order."""
        return ([agent_id(i) for i in sorted(self.compromised_agents)]
                + [observer_id(k) for k in sorted(self.compromised_observers)])


@dataclass(frozen=True)
class StructuredSystem:
    """A topology together with an attack scenario; fixes the zero pattern
    of the state, output and attack matrices."""

    topology: DcsTopology
    scenario: AttackScenario

    def __post_init__(self):
        top, sc = self.topology, self.scenario
        for i in sc.compromised_agents:
            if not (1 <= i <= top.n):
                raise ValueError(f"compromised agent x{i} out of range")
        for k in sc.compromised_observers:
            if not (1 <= k <= top.m):
                raise ValueError(f"compromised observer y{k} out of range")

    @property
    def num_attack_inputs(self) -> int:
        return self.scenario.num_inputs


# ---- graph construction ----

def topology_graph(topology: DcsTopology) -> Digraph:
    """The communication digraph over agents and observers."""
    g = Digraph()
    for i in range(1, topology.n + 1):
        g.add_node(agent_id(i))
    for k in range(1, topology.m + 1):
        g.add_node(observer_id(k))
    for (a, b) in sorted(topology.agent_edges):
        g.add_edge(agent_id(a), agent_id(b))
    for k in sorted(topology.observer_assignment):
        g.add_edge(agent_id(topology.observer_assignment[k]), observer_id(k))
    return g


def build_attack_graph(sys: StructuredSystem) -> Digraph:
    """Communication graph plus one input node per attacked element.

    Input ``u<t>`` points at the t-th attacked node (agents first, then
    observers, each block ascending). Nothing else changes.
    """
    g = topology_graph(sys.topology)
    for t, target in enumerate(sys.scenario.target_ids(), start=1):
        g.add_edge(attack_input_id(t), target)
    return g


def build_separator_graph(topology: DcsTopology, collapse_observers: bool = False) -> Digraph:
    """Reduction graph with a single sink ``o`` behind the sensors.

    With ``collapse_observers`` false the graph keeps observer nodes and
    wires each of them into ``o``, so separators may contain observers.
    With it true the observers vanish and each observed agent is wired
    straight into ``o``; separators are then sets of agents only.
    """
    if not collapse_observers:
        g = topology_graph(topology)
        g.add_node(OBSERVER_SINK)
        for k in range(1, topology.m + 1):
            g.add_edge(observer_id(k), OBSERVER_SINK)
        return g
    g = Digraph()
    for i in range(1, topology.n + 1):
        g.add_node(agent_id(i))
    g.add_node(OBSERVER_SINK)
    for (a, b) in sorted(topology.agent_edges):
        g.add_edge(agent_id(a), agent_id(b))
    for j in sorted(topology.observed_agents):
        g.add_edge(agent_id(j), OBSERVER_SINK)
    return g


# ---- file format ----
# Line-oriented text: a header "n m p", then "edge x<i> x<j>" and
# "sensor y<k> x<j>" records, '#' starts a comment. A JSON object with keys
# n, m, p, edges, sensors is accepted interchangeably.

def parse_topology(text: str):
    """Parse topology text (or JSON); returns (DcsTopology, p)."""
    if text.lstrip()[:1] == "{":
        return _parse_topology_json(text)
    header = None
    edges = []
    sensors = {}
    seen_edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 3:
                raise TopologyFormatError("header must be 'n m p'", lineno)
            try:
                header = tuple(int(f) for f in fields)
            except ValueError:
                raise TopologyFormatError("header must be three integers", lineno) from None
            continue
        kind = fields[0]
        if kind == "edge":
            if len(fields) != 3:
                raise TopologyFormatError("edge record needs two agent ids", lineno)
            try:
                pair = (parse_agent_id(fields[1]), parse_agent_id(fields[2]))
            except ValueError as exc:
                raise TopologyFormatError(str(exc), lineno) from None
            if pair in seen_edges:
                raise TopologyFormatError(
                    f"repeated edge x{pair[0]} x{pair[1]} (multi-edges are not allowed)", lineno)
            seen_edges.add(pair)
            edges.append(pair)
        elif kind == "sensor":
            if len(fields) != 3:
                raise TopologyFormatError("sensor record needs observer and agent ids", lineno)
            try:
                k = parse_observer_id(fields[1])
                j = parse_agent_id(fields[2])
            except ValueError as exc:
                raise TopologyFormatError(str(exc), lineno) from None
            if k in sensors:
                raise TopologyFormatError(f"observer y{k} assigned twice", lineno)
            sensors[k] = j
        else:
            raise TopologyFormatError(f"unknown record {kind!r}", lineno)
    if header is None:
        raise TopologyFormatError("empty topology file")
    n, m, p = header
    if p < 0:
        raise TopologyFormatError("attack budget p must be nonnegative")
    try:
        top = DcsTopology(n=n, m=m, agent_edges=edges, observer_assignment=sensors)
    except ValueError as exc:
        raise TopologyFormatError(str(exc)) from None
    return top, p


def _parse_topology_json(text: str):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting recurses
        raise TopologyFormatError(f"bad JSON: {exc}") from None
    for key in ("n", "m", "p", "edges", "sensors"):
        if key not in doc:
            raise TopologyFormatError(f"JSON topology is missing key {key!r}")
    for key in ("n", "m", "p"):
        if type(doc[key]) is not int:  # bool is an int subclass; reject it too
            raise TopologyFormatError(
                f"JSON topology key {key!r} must be an integer, got {doc[key]!r}")
    try:
        edges = [(parse_agent_id(a), parse_agent_id(b)) for a, b in doc["edges"]]
        sensor_pairs = [(parse_observer_id(y), parse_agent_id(x))
                        for y, x in doc["sensors"]]
    except (TypeError, ValueError) as exc:
        raise TopologyFormatError(f"bad JSON topology: {exc}") from None
    sensors = {}
    for k, j in sensor_pairs:
        if k in sensors:
            raise TopologyFormatError(f"observer y{k} assigned twice")
        sensors[k] = j
    if len(edges) != len(set(edges)):
        raise TopologyFormatError("repeated edge (multi-edges are not allowed)")
    p = doc["p"]
    if p < 0:
        raise TopologyFormatError("attack budget p must be nonnegative")
    try:
        top = DcsTopology(n=doc["n"], m=doc["m"],
                          agent_edges=edges, observer_assignment=sensors)
    except ValueError as exc:
        raise TopologyFormatError(str(exc)) from None
    return top, p


def format_topology(topology: DcsTopology, p: int) -> str:
    """Canonical text form; parse(format(t)) reproduces t exactly."""
    lines = [f"{topology.n} {topology.m} {p}"]
    for (a, b) in sorted(topology.agent_edges):
        lines.append(f"edge x{a} x{b}")
    for k in sorted(topology.observer_assignment):
        lines.append(f"sensor y{k} x{topology.observer_assignment[k]}")
    return "\n".join(lines) + "\n"


def topology_to_json(topology: DcsTopology, p: int) -> str:
    doc = {
        "n": topology.n,
        "m": topology.m,
        "p": p,
        "edges": [[agent_id(a), agent_id(b)] for (a, b) in sorted(topology.agent_edges)],
        "sensors": [[observer_id(k), agent_id(topology.observer_assignment[k])]
                    for k in sorted(topology.observer_assignment)],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_topology(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())


def save_topology(path, topology: DcsTopology, p: int, as_json: bool = False) -> None:
    text = topology_to_json(topology, p) if as_json else format_topology(topology, p)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
