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

A ``DcsTopology`` stores its links once, as per-agent receiver tuples:
entry v holds the 0-based receivers of agent x(v+1), ascending, its
self-loop included. The public ``agent_edges`` frozenset is a view built
from them on its first read, and nothing in the package reads it.

The graph layer has one graph type, the immutable ``Digraph``: a tuple of
id strings ``names`` and, per vertex, a tuple ``succ[v]`` of its
successors as vertex numbers. A topology's communication digraph is built
from the receiver tuples the first time it is needed and cached on the
immutable ``DcsTopology``: vertex v < n is agent x(v+1) and vertex n+k-1
is observer yk. An agent that no observer reads shares its receiver
tuple with the graph.
``topology_graph`` returns that graph itself, ``build_separator_graph``
derives the sink graph from it, and the flow networks of
:mod:`stealthguard.separators` are built from ``succ``. Ids are read from
``names`` only when a result is made; a graph maps ids back to vertex
numbers only when it is first asked by name. Each id comes from one shared
source (the cached ``agent_id``, ``observer_id`` and ``attack_input_id``),
so graphs, paths and witnesses of any number of queries share their
strings.

This module, like the rest of the graph layer, needs only the standard
library. A topology and an attack set fix the zero pattern of the state,
output and attack matrices: :func:`stealthguard.simulation.realize` places
their entries straight from the receiver tuples, ``observer_assignment``
and the attack set.

Reading a topology file goes the other way: ``parse_topology`` turns each
distinct id string into its index once per call, and nothing downstream
reads an index back out of a string.

The graph layer's records (``Digraph``, ``DcsTopology``,
``AttackScenario``, ``StructuredSystem`` here, and the result and spec
records of :mod:`stealthguard.separators` and :mod:`stealthguard.design`)
are plain immutable classes on ``_Record``, not dataclasses, so a
graph-only program never imports ``dataclasses`` and ``inspect``.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import re
from functools import cache, cached_property

OBSERVER_SINK = "o"

_set = object.__setattr__  # sets a record's field past its refusing __setattr__

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


class _Record:
    """Base of the graph layer's immutable records.

    A record names its fields, in order, in ``__match_args__``, and its
    ``__init__`` sets each one once with ``object.__setattr__``. Records of
    the same class are equal when their fields are; the hash is that of the
    field tuple, so a record that holds a dict is unhashable. ``repr`` reads
    ``Name(field=value, ...)``, and assigning or deleting an attribute
    raises AttributeError. Pickle and copy restore an instance's
    ``__dict__`` without calling ``__init__``.
    """

    __match_args__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # every record has two or more fields, so this returns a tuple
        cls._values = operator.attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Digraph(_Record):
    """Immutable digraph on vertices 0..len(names)-1 (see the module docstring).

    ``names[v]`` is vertex v's id string and ``succ[v]`` its successors as
    vertex numbers, in the order every traversal follows. The constructor
    keeps both as given. ``nodes`` and ``successors`` answer in id strings.
    """

    __match_args__ = ("names", "succ")

    def __init__(self, names, succ):
        _set(self, "names", names)
        _set(self, "succ", succ)

    @cached_property
    def _index(self) -> dict:
        """Vertex number of each id, built on the first lookup by name."""
        return {v: i for i, v in enumerate(self.names)}

    def nodes(self) -> list:
        return list(self.names)

    def successors(self, v) -> list:
        names = self.names
        return [names[w] for w in self.succ[self._index[v]]]


class DcsTopology(_Record):
    """Communication topology: n agents, m dedicated observers, agent edges.

    ``agent_edges`` is given as (sender, receiver) index pairs, 1-based, and
    must contain (i, i) for every agent. ``observer_assignment`` maps
    observer index k to the agent it reads; it must cover 1..m and be
    injective. Construction accepts any iterable of integer pairs, repeats
    collapsing, keeps the assignment as a dict of ints, and refuses anything
    else with a ValueError.

    The links are stored once, as ``_receivers``: per agent, 0-based, the
    tuple of its receivers ascending, its self-loop included. Equality
    (of n, m, these tuples and the assignment), ``link_count``, the
    writers, the cached graph and ``realize`` read them. ``agent_edges`` is
    a view, the frozenset of 1-based pairs, built on its first read.
    """

    __match_args__ = ("n", "m", "agent_edges", "observer_assignment")

    def __init__(self, n: int, m: int, agent_edges, observer_assignment: dict):
        n = _whole_number(n, "agent count n")
        m = _whole_number(m, "observer count m")
        index = operator.index
        try:
            pairs = frozenset((index(a), index(b)) for a, b in agent_edges)
            observer_assignment = {index(k): index(v)
                                   for k, v in dict(observer_assignment).items()}
        except TypeError:
            raise ValueError("every edge endpoint and observer index must be an integer") from None
        if n < 0 or m < 0 or m > n:
            raise ValueError(f"need 0 <= m <= n, got n={n} m={m}")
        for (a, b) in pairs:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
        for i in range(1, n + 1):
            if (i, i) not in pairs:
                raise ValueError(f"agent x{i} is missing its self-loop")
        if set(observer_assignment) != set(range(1, m + 1)):
            raise ValueError("observer assignment must cover exactly y1..ym")
        targets = list(observer_assignment.values())
        for j in targets:
            if not (1 <= j <= n):
                raise ValueError(f"observer target x{j} out of range")
        if len(set(targets)) != len(targets):
            raise ValueError("observers must be dedicated: one agent per sensor")
        # vertex[i] is agent xi's 0-based number: one int for every tuple that names it
        vertex = list(range(-1, n))
        receivers = [[] for _ in vertex]
        for a, b in pairs:
            receivers[a].append(vertex[b])
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "_receivers", tuple(map(tuple, map(sorted, receivers[1:]))))
        _set(self, "observer_assignment", observer_assignment)

    @cached_property
    def agent_edges(self) -> frozenset:
        """The (sender, receiver) pairs, 1-based, built on the first read."""
        return frozenset((a, b + 1) for a, bs in enumerate(self._receivers, 1) for b in bs)

    def __repr__(self):
        # the record's text, from a view made for this call and not cached
        edges = DcsTopology.agent_edges.func(self)
        return (f"{type(self).__qualname__}(n={self.n!r}, m={self.m!r}, agent_edges={edges!r}, "
                f"observer_assignment={self.observer_assignment!r})")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.n, self.m, self._receivers, self.observer_assignment)
                    == (other.n, other.m, other._receivers, other.observer_assignment))
        return NotImplemented

    __hash__ = None  # the observer assignment is a dict

    @property
    def link_count(self) -> int:
        """Number of agent-to-agent links, self-loops included."""
        return sum(map(len, self._receivers))

    @property
    def observed_agents(self) -> frozenset:
        return frozenset(self.observer_assignment.values())

    @property
    def unobserved_agents(self) -> frozenset:
        return frozenset(range(1, self.n + 1)) - self.observed_agents

    @cached_property
    def _core(self) -> Digraph:
        """The communication digraph. An agent's successors are its
        receivers, then the observer that reads it, if any; observers have
        none. An agent without an observer shares its receiver tuple."""
        n, m = self.n, self.m
        succ = list(self._receivers)
        for k, j in self.observer_assignment.items():
            succ[j - 1] += (n + k - 1,)  # at most one observer per agent
        names = (tuple(map(agent_id, range(1, n + 1)))
                 + tuple(map(observer_id, range(1, m + 1))))
        return Digraph(names, tuple(succ) + ((),) * m)


class AttackScenario(_Record):
    """A concrete attack set: which agents and observers carry hostile inputs.

    ``p_bound`` is the adversary's budget; the set sizes must not exceed it.
    Attack inputs are numbered with compromised agents first (ascending),
    then compromised observers (ascending). Indices and the budget must
    be integers; the index sets are kept as frozensets of ints.
    """

    __match_args__ = ("compromised_agents", "compromised_observers", "p_bound")

    def __init__(self, compromised_agents, compromised_observers, p_bound: int):
        try:
            agents = frozenset(map(operator.index, compromised_agents))
            observers = frozenset(map(operator.index, compromised_observers))
        except TypeError:
            raise ValueError("every attacked agent and observer index must be an integer") from None
        p_bound = _whole_number(p_bound, "attack budget p")
        if p_bound < 0:
            raise ValueError("p_bound must be nonnegative")
        size = len(agents) + len(observers)
        if size > p_bound:
            raise ValueError(f"attack set of size {size} exceeds budget p={p_bound}")
        _set(self, "compromised_agents", agents)
        _set(self, "compromised_observers", observers)
        _set(self, "p_bound", p_bound)

    @property
    def num_inputs(self) -> int:
        return len(self.compromised_agents) + len(self.compromised_observers)

    def _input_order(self):
        """(agents, observers): the attacked indices, each ascending; the
        attack inputs take this order, agents first."""
        return sorted(self.compromised_agents), sorted(self.compromised_observers)

    def _target_vertices(self, n: int) -> list:
        """Each input's target vertex, given n agents: xi is i-1, yk n+k-1."""
        agents, observers = self._input_order()
        return [i - 1 for i in agents] + [n + k - 1 for k in observers]

    def target_ids(self) -> list:
        """Attacked node ids in attack-input order."""
        agents, observers = self._input_order()
        return list(map(agent_id, agents)) + list(map(observer_id, observers))


class StructuredSystem(_Record):
    """A topology together with an attack scenario; fixes the zero pattern
    of the state, output and attack matrices. Every attacked index must
    lie in the topology."""

    __match_args__ = ("topology", "scenario")

    def __init__(self, topology: DcsTopology, scenario: AttackScenario):
        for i in scenario.compromised_agents:
            if not (1 <= i <= topology.n):
                raise ValueError(f"compromised agent x{i} out of range")
        for k in scenario.compromised_observers:
            if not (1 <= k <= topology.m):
                raise ValueError(f"compromised observer y{k} out of range")
        _set(self, "topology", topology)
        _set(self, "scenario", scenario)

    @property
    def num_attack_inputs(self) -> int:
        return self.scenario.num_inputs


# ---- graph construction ----

def topology_graph(topology: DcsTopology) -> Digraph:
    """The communication digraph over agents and observers, shared: every
    call returns the topology's one immutable graph."""
    return topology._core


def build_separator_graph(topology: DcsTopology, collapse_observers: bool = False) -> Digraph:
    """Reduction graph with a single sink ``o``, the last vertex, behind the
    sensors; a new graph on every call.

    With ``collapse_observers`` false the graph keeps observer nodes and
    wires each of them into ``o``, so separators may contain observers.
    With it true the observers vanish and each observed agent is wired
    straight into ``o``; separators are then sets of agents only.
    """
    graph, n, m = topology._core, topology.n, topology.m
    if not collapse_observers:
        return Digraph(graph.names + (OBSERVER_SINK,), graph.succ[:n] + ((n + m,),) * m + ((),))
    # an observer, when an agent has one, is its last successor
    succ = [ws[:-1] + (n,) if ws[-1] >= n else ws for ws in graph.succ[:n]]
    return Digraph(graph.names[:n] + (OBSERVER_SINK,), (*succ, ()))


# ---- file format ----
# Line-oriented text: a header "n m p", then "edge x<i> x<j>" and
# "sensor y<k> x<j>" records, '#' starts a comment. A JSON object with keys
# n, m, p, edges and sensors, each edge and sensor a two-id array, is
# accepted interchangeably. Both readers give a header (n, m, p) and
# (line, kind, id, id) records, and parse_topology checks the records.

def parse_topology(text: str):
    """Parse topology text (or JSON); returns (DcsTopology, p).

    A leading byte-order mark is dropped.
    """
    text = text.removeprefix("\ufeff")
    # a text header never starts with "[", so a JSON array gets the JSON reader's message
    reader = _json_records if text.lstrip()[:1] in ("{", "[") else _text_records
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
    """The header line's (n, m, p) and the records of the lines after it.

    Lines end at "\\n", "\\r\\n" or "\\r", the line ends ``open()`` translates.
    Form feed, U+2028 and the other separators ``str.splitlines`` breaks at
    stay inside their line, so a comment holding one still ends at the line's end.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = enumerate(text.split("\n"), start=1)
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
    if type(doc) is not dict:
        raise TopologyFormatError("JSON topology must be an object")
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


def _budget(p) -> int:
    """The attack budget as a plain int, or the ValueError the readers
    would give: a file must carry a whole number, at least 0."""
    p = _whole_number(p, "attack budget p")
    if p < 0:
        raise ValueError("attack budget p must be nonnegative")
    return p


def format_topology(topology: DcsTopology, p: int) -> str:
    """Canonical text form; parse(format(t)) reproduces t exactly.

    Both writers write p as a plain int and refuse, with a ValueError, a
    budget that ``parse_topology`` would refuse: one that is not a whole
    number, or is negative.
    """
    lines = [f"{topology.n} {topology.m} {_budget(p)}"]
    lines += [f"edge x{a} x{b + 1}" for a, bs in enumerate(topology._receivers, 1) for b in bs]
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

    p = _budget(p)
    edges = [(agent_id(a), agent_id(b + 1))
             for a, bs in enumerate(topology._receivers, 1) for b in bs]
    sensors = [(observer_id(k), agent_id(topology.observer_assignment[k]))
               for k in sorted(topology.observer_assignment)]
    return (f'{{\n  "edges": {pairs(edges)},\n  "m": {topology.m},\n'
            f'  "n": {topology.n},\n  "p": {p},\n  "sensors": {pairs(sensors)}\n}}\n')


def load_topology(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())


def save_topology(path, topology: DcsTopology, p: int) -> None:
    text = format_topology(topology, p)  # a refused budget leaves the file as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
