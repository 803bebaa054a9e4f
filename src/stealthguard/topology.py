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

Every graph derived from a topology comes from one integer core, built the
first time it is needed and cached on the frozen ``DcsTopology``: vertex
v < n is agent x(v+1), vertex n+k-1 is observer yk, and each vertex keeps
its successors in a tuple. ``topology_graph`` and ``build_separator_graph``
fill their Digraphs from it, and the flow networks of
:mod:`stealthguard.separators` are built from it without any Digraph.
Id strings are made only at that boundary, and each comes from one shared
source (the cached ``agent_id``, ``observer_id`` and ``attack_input_id``),
so graphs, paths and witnesses of any number of queries share their
strings.

This module, like the rest of the graph layer, needs only the standard
library. A topology and an attack set fix the zero pattern of the state,
output and attack matrices: :func:`stealthguard.simulation.realize` places
their entries straight from ``agent_edges``, ``observer_assignment`` and
the attack set.

Reading a topology file goes the other way: ``parse_topology`` turns each
distinct id string into its index once per call, and nothing downstream
reads an index back out of a string.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import re
from dataclasses import dataclass
from functools import cache, cached_property

OBSERVER_SINK = "o"

_AGENT_ID = re.compile(r"x([1-9][0-9]*)")
_OBSERVER_ID = re.compile(r"y([1-9][0-9]*)")


@cache
def agent_id(i: int) -> str:
    return f"x{i}"


@cache
def observer_id(k: int) -> str:
    return f"y{k}"


@cache
def attack_input_id(t: int) -> str:
    return f"u{t}"


def _whole_number(value, name: str) -> int:
    """``value`` as an int; anything operator.index refuses (a float, a
    string) is a ValueError, while bool and numpy integers pass."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_horizon(horizon) -> int:
    """A positive whole step count; the CLI checks --horizon with it before
    numpy loads."""
    horizon = _whole_number(horizon, "horizon")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    return horizon


def _alarm_threshold(eta) -> float:
    """``eta`` as a float, or ValueError unless it is a real number, finite
    and nonnegative; a string, a list or a complex number is refused, not
    converted. The CLI checks --eta with it before numpy loads, and
    ``Realization`` checks every threshold it is given."""
    if not isinstance(eta, numbers.Real):
        raise ValueError(f"alarm threshold eta must be a real number, finite and "
                         f"nonnegative, got {eta!r}")
    eta = float(eta)
    if not 0 <= eta < math.inf:  # also false for NaN
        raise ValueError(f"alarm threshold eta must be finite and nonnegative, got {eta}")
    return eta


def parse_agent_id(node: str) -> int:
    """Agent index behind an ``x<i>`` id, or ValueError."""
    m = _AGENT_ID.fullmatch(node)
    if not m:
        raise ValueError(f"not an agent id: {node!r}")
    return int(m.group(1))


def parse_observer_id(node: str) -> int:
    m = _OBSERVER_ID.fullmatch(node)
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


def _digraph(names, succ) -> Digraph:
    """Digraph on ``names`` whose vertex v has successors ``succ[v]``."""
    g = Digraph()
    g._succ = {v: [names[w] for w in ws] for v, ws in zip(names, succ)}
    return g


class _GraphCore:
    """Integer adjacency of one topology (see the module docstring).

    ``succ[v]`` lists v's successors in ``topology_graph`` order: an
    agent's receivers ascending, its self-loop included, then the observer
    that reads it, if any. Observers have no successors. ``names[v]`` is
    v's id string.
    """

    __slots__ = ("n", "m", "names", "succ")

    def __init__(self, topology: DcsTopology):
        n, m = topology.n, topology.m
        succ = [[] for _ in range(n)]
        for a, b in sorted(topology.agent_edges):
            succ[a - 1].append(b - 1)
        for k, j in topology.observer_assignment.items():
            succ[j - 1].append(n + k - 1)  # at most one observer per agent
        self.n, self.m = n, m
        self.names = (tuple(agent_id(i) for i in range(1, n + 1))
                      + tuple(observer_id(k) for k in range(1, m + 1)))
        self.succ = tuple(map(tuple, succ)) + ((),) * m

    def separator_lists(self, collapse_observers: bool):
        """(names, succ) of :func:`build_separator_graph`; the sink is last."""
        n, m = self.n, self.m
        if not collapse_observers:
            return self.names + (OBSERVER_SINK,), self.succ[:n] + ((n + m,),) * m + ((),)
        # an observer, when an agent has one, is its last successor
        succ = [ws[:-1] + (n,) if ws[-1] >= n else ws for ws in self.succ[:n]]
        return self.names[:n] + (OBSERVER_SINK,), succ + [()]

    def attack_lists(self, scenario: AttackScenario):
        """(names, succ) of the communication graph plus one input vertex
        per attacked node: input t is vertex n+m+t-1, named ``u<t>``, and
        feeds the t-th of ``scenario.target_ids()``."""
        n = self.n
        targets = ([i - 1 for i in sorted(scenario.compromised_agents)]
                   + [n + k - 1 for k in sorted(scenario.compromised_observers)])
        names = self.names + tuple(attack_input_id(t) for t in range(1, len(targets) + 1))
        return names, self.succ + tuple((v,) for v in targets)


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
        index = operator.index
        object.__setattr__(self, "n", _whole_number(self.n, "agent count n"))
        object.__setattr__(self, "m", _whole_number(self.m, "observer count m"))
        try:
            object.__setattr__(self, "agent_edges",
                               frozenset((index(a), index(b)) for a, b in self.agent_edges))
            object.__setattr__(self, "observer_assignment",
                               {index(k): index(v)
                                for k, v in dict(self.observer_assignment).items()})
        except TypeError:
            raise ValueError("every edge endpoint and observer index must be an integer") from None
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

    @cached_property
    def _core(self) -> _GraphCore:
        return _GraphCore(self)


@dataclass(frozen=True)
class AttackScenario:
    """A concrete attack set: which agents and observers carry hostile inputs.

    ``p_bound`` is the adversary's budget; the set sizes must not exceed it.
    Attack inputs are numbered with compromised agents first (ascending),
    then compromised observers (ascending). Indices and the budget must
    be integers.
    """

    compromised_agents: frozenset
    compromised_observers: frozenset
    p_bound: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "compromised_agents",
                               frozenset(map(operator.index, self.compromised_agents)))
            object.__setattr__(self, "compromised_observers",
                               frozenset(map(operator.index, self.compromised_observers)))
        except TypeError:
            raise ValueError("every attacked agent and observer index must be an integer") from None
        object.__setattr__(self, "p_bound", _whole_number(self.p_bound, "attack budget p"))
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
    core = topology._core
    return _digraph(core.names, core.succ)


def build_separator_graph(topology: DcsTopology, collapse_observers: bool = False) -> Digraph:
    """Reduction graph with a single sink ``o`` behind the sensors.

    With ``collapse_observers`` false the graph keeps observer nodes and
    wires each of them into ``o``, so separators may contain observers.
    With it true the observers vanish and each observed agent is wired
    straight into ``o``; separators are then sets of agents only.
    """
    return _digraph(*topology._core.separator_lists(collapse_observers))


# ---- file format ----
# Line-oriented text: a header "n m p", then "edge x<i> x<j>" and
# "sensor y<k> x<j>" records, '#' starts a comment. A JSON object with keys
# n, m, p, edges and sensors, each edge and sensor a two-id array, is
# accepted interchangeably. Both readers give a header (n, m, p) and
# (line, kind, id, id) records, and parse_topology checks the records.

def parse_topology(text: str):
    """Parse topology text (or JSON); returns (DcsTopology, p)."""
    reader = _json_records if text.lstrip()[:1] == "{" else _text_records
    (n, m, p), records = reader(text)
    agents = _IdTable(parse_agent_id)
    observers = _IdTable(parse_observer_id)
    edges, sensors = {}, {}  # edges: dict keys, a set that keeps the record order
    for line, kind, u, v in records:
        try:
            pair = (observers if kind == "sensor" else agents)[u], agents[v]
        except ValueError as exc:
            raise TopologyFormatError(str(exc), line) from None
        if kind == "edge":
            if pair in edges:
                raise TopologyFormatError(
                    f"repeated edge x{pair[0]} x{pair[1]} (multi-edges are not allowed)", line)
            edges[pair] = None
        else:
            k, j = pair
            if k in sensors:
                raise TopologyFormatError(f"observer y{k} assigned twice", line)
            sensors[k] = j
    if p < 0:
        raise TopologyFormatError("attack budget p must be nonnegative")
    try:
        top = DcsTopology(n=n, m=m, agent_edges=edges, observer_assignment=sensors)
    except ValueError as exc:
        raise TopologyFormatError(str(exc)) from None
    return top, p


class _IdTable(dict):
    """Index behind each id string, parsed the first time it is looked up."""

    __slots__ = ("_parse",)

    def __init__(self, parse):
        super().__init__()
        self._parse = parse

    def __missing__(self, node):
        index = self[node] = self._parse(node)
        return index


def _text_records(text: str):
    """The header line's (n, m, p) and the records of the lines after it."""
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        fields = raw.split("#", 1)[0].split()
        if fields:
            if len(fields) != 3:
                raise TopologyFormatError("header must be 'n m p'", lineno)
            try:
                return tuple(int(f) for f in fields), _text_body(lines)
            except ValueError:
                raise TopologyFormatError("header must be three integers", lineno) from None
    raise TopologyFormatError("empty topology file")


_RECORD_SHAPES = {"edge": "edge record needs two agent ids",
                  "sensor": "sensor record needs observer and agent ids"}


def _text_body(lines):
    """Records of the lines after the header, checked for shape as they go."""
    for lineno, raw in lines:
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        kind = fields[0]
        if len(fields) != 3 or kind not in _RECORD_SHAPES:
            raise TopologyFormatError(_RECORD_SHAPES.get(kind, f"unknown record {kind!r}"), lineno)
        yield lineno, kind, fields[1], fields[2]


def _json_records(text: str):
    """The document's (n, m, p) and its edges, then its sensors, as records
    without a line number."""
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
    records = []
    for key, kind in (("edges", "edge"), ("sensors", "sensor")):
        entries = doc[key]
        if type(entries) is not list:
            raise TopologyFormatError(f"JSON topology key {key!r} must be an array")
        for entry in entries:
            if (type(entry) is not list or len(entry) != 2
                    or type(entry[0]) is not str or type(entry[1]) is not str):
                raise TopologyFormatError(
                    f"JSON topology {key} entry must be an array of two id strings, "
                    f"got {entry!r}")
            records.append((None, kind, *entry))
    return (doc["n"], doc["m"], doc["p"]), records


def format_topology(topology: DcsTopology, p: int) -> str:
    """Canonical text form; parse(format(t)) reproduces t exactly."""
    lines = [f"{topology.n} {topology.m} {p}"]
    for (a, b) in sorted(topology.agent_edges):
        lines.append(f"edge x{a} x{b}")
    for k in sorted(topology.observer_assignment):
        lines.append(f"sensor y{k} x{topology.observer_assignment[k]}")
    return "\n".join(lines) + "\n"


def topology_to_json(topology: DcsTopology, p: int) -> str:
    """JSON form, byte for byte ``json.dumps(doc, indent=2, sort_keys=True)``
    of the document with keys edges, m, n, p and sensors.

    Written out directly: with ``indent`` set, json.dumps runs its
    pure-Python encoder, which takes most of the time on large topologies.
    """
    def pairs(items):
        if not items:
            return "[]"
        body = ",\n".join(f'    [\n      "{a}",\n      "{b}"\n    ]' for a, b in items)
        return f"[\n{body}\n  ]"

    edges = [(agent_id(a), agent_id(b)) for (a, b) in sorted(topology.agent_edges)]
    sensors = [(observer_id(k), agent_id(topology.observer_assignment[k]))
               for k in sorted(topology.observer_assignment)]
    return (f'{{\n  "edges": {pairs(edges)},\n  "m": {json.dumps(topology.m)},\n'
            f'  "n": {json.dumps(topology.n)},\n  "p": {json.dumps(p)},\n'
            f'  "sensors": {pairs(sensors)}\n}}\n')


def load_topology(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())


def save_topology(path, topology: DcsTopology, p: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_topology(topology, p))
