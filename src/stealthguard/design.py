"""Minimum-link topology synthesis and the sensor-count trade-off.

Closed forms for the cheapest robust network on n agents with m dedicated
sensors against attacks of size at most p:

* full attack surface (agents and sensors):  n*p + n - m   links for p >= 1
* agents-only attacks:                        (n - m)*p + n links

Both count self-loops, which every agent must keep, so for p = 0 the
minimum is plainly n in either class. Matching constructions are
deterministic: sensors sit on the first m agents, extra edges are chosen
round-robin.

Each construction proves itself robust as it is built (a certifying
algorithm in the sense of McConnell, Mehlhorn, Naher and Schweitzer). It
emits a fan for every agent it has to protect: p paths that share only
that agent and each end at the sensor sink or at an agent proved before.
By Menger's argument no set of fewer than p vertices can cut such an
agent off from the sensors: it misses one whole path, and an agent at
that path's end, proved before, cannot be cut off by so small a set
either. ``_check_fans``
checks the fans in time linear in their size, from the topology's
receiver tuples and observer assignment alone, so synthesis builds no
graph and runs no max flow; ``certify_robustness`` stays an independent
check of every design.
"""

from __future__ import annotations

import math
import numbers

from .separators import InfeasibilityError
from .topology import DcsTopology, _Record, _set, _whole_number


class SynthesisSpec(_Record):
    """Design request: n agents, m sensors, attack budget p, attack class.
    The sizes must be integers with 0 <= p <= n, 0 <= m <= n and n >= 1."""

    __match_args__ = ("n", "m", "p", "observers_attackable")

    def __init__(self, n: int, m: int, p: int, observers_attackable: bool = True):
        n, m, p = _whole_number(n, "n"), _whole_number(m, "m"), _whole_number(p, "p")
        if n < 1:
            raise ValueError(f"need at least one agent, got n={n}")
        if p < 0 or p > n:
            raise ValueError(f"attack budget must satisfy 0 <= p <= n, got p={p}")
        if not (0 <= m <= n):
            raise ValueError(f"need 0 <= m <= n, got m={m}")
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "p", p)
        _set(self, "observers_attackable", observers_attackable)


class SynthesisResult(_Record):
    """A synthesized topology, its link count and its certification
    verdict: whether the fans its construction emitted pass
    ``_check_fans``. The topology holds a dict, so the result is
    unhashable."""

    __match_args__ = ("topology", "link_count", "certified")

    def __init__(self, topology: DcsTopology, link_count: int, certified: bool):
        _set(self, "topology", topology)
        _set(self, "link_count", link_count)
        _set(self, "certified", certified)


def min_links_value(n: int, m: int, p: int, observers_attackable: bool = True) -> int:
    """Minimum achievable link count, self-loops included.

    Raises InfeasibilityError when m < p: with the full attack surface the
    sensors themselves can be overwhelmed, and in the agents-only class any
    unobserved agent (one exists whenever m < p <= n) is cut off from the
    sensors by the observed set, which is smaller than p.
    """
    n, m, p = _whole_number(n, "n"), _whole_number(m, "m"), _whole_number(p, "p")
    if n < 1 or not (0 <= m <= n) or not (0 <= p <= n):
        raise ValueError(f"invalid sizes n={n} m={m} p={p}")
    if m < p:
        raise InfeasibilityError(f"no robust design exists with m={m} < p={p}")
    if not observers_attackable:
        return (n - m) * p + n
    if p == 0:
        return n  # self-loops are mandatory, nothing else is needed
    return n * p + n - m


def _round_robin_observed(start: int, count: int, m: int) -> list:
    # observed agents are 1..m; pick `count` distinct ones cyclically from `start`
    return [(start + t) % m + 1 for t in range(count)]


def _check_fans(topology: DcsTopology, p: int, observers_attackable: bool, fans) -> bool:
    """True when ``fans`` prove every agent the class asks about robust
    against attacks of size p.

    Vertices are numbered as in the class's separator graph: agent xi is
    i-1, observer yk is n+k-1 (class xy only) and the sink comes last.
    ``fans`` lists (agent, paths) in proof order. A fan needs at least p
    paths; each is a vertex sequence that starts at the agent and steps
    along edges of that graph. No vertex but the sink appears twice in a
    fan, and each path ends at the sink or at an agent proved by an
    earlier fan. Every agent of the class (all of them in class xy, the
    unobserved ones in class x) must be proved. Reads only the topology's
    receiver tuples and ``observer_assignment``, in time linear in the size
    of the fans: a step between agents scans the sender's receiver tuple,
    which holds at most p + 1 agents in every construction here.
    """
    n, receivers = topology.n, topology._receivers
    sink = n + topology.m if observers_attackable else n
    # where an observed agent's sensor step leads: its observer, or the sink
    sensor_of = {j - 1: n + k - 1 if observers_attackable else sink
                 for k, j in topology.observer_assignment.items()}

    def is_edge(u, v):
        if 0 <= u < n:
            return v == sensor_of.get(u) if v >= n else v in receivers[u]
        return n <= u < sink and v == sink  # an observer's one edge, class xy only

    proved = set()
    for agent, paths in fans:
        if not 0 <= agent < n or len(paths) < p:
            return False
        seen = {agent}
        for path in paths:
            if not path or path[0] != agent or not all(map(is_edge, path, path[1:])):
                return False
            for v in path[1:]:
                if v in seen:
                    return False
                if v != sink:
                    seen.add(v)
            if path[-1] != sink and path[-1] not in proved:
                return False
        proved.add(agent)
    return proved.issuperset(range(n) if observers_attackable
                             else set(range(n)).difference(sensor_of))


def synthesize(spec: SynthesisSpec) -> SynthesisResult:
    """Build a certified minimum-link topology for a fixed sensor count.

    Sensors go on agents 1..m (observer k reads agent k). Observed agents
    keep their self-loop and, when the full surface is attackable, feed
    p-1 other observed agents; unobserved agents feed p observed agents
    plus themselves. Round-robin target choices keep the result
    deterministic.

    ``certified`` is the verdict of ``_check_fans`` on the construction's
    fans. An unobserved agent j takes j -> t -> sink for each of its p
    targets t, where the step from t to the sink goes through t's observer
    in class xy. In class xy an observed agent j also needs a fan: its own
    j -> y_j -> sink plus j -> t -> y_t -> sink for each of its p-1 peers.
    """
    n, m, p, xy = spec.n, spec.m, spec.p, spec.observers_attackable
    target = min_links_value(n, m, p, xy)
    sink = n + m if xy else n

    def to_sink(t):  # observed agent t reads into observer t, vertex n+t-1
        return (t - 1, n + t - 1, sink) if xy else (t - 1, sink)

    edges = {(i, i) for i in range(1, n + 1)}
    fans = []
    for j in range(1, n + 1):
        if j <= m:
            if not xy:
                continue  # class x asks nothing of an observed agent
            targets = _round_robin_observed(j, p - 1, m)
            paths = [to_sink(j)] if p else []
        else:
            targets = _round_robin_observed((j - m - 1) * p, p, m)
            paths = []
        edges.update((j, t) for t in targets)
        fans.append((j - 1, paths + [(j - 1,) + to_sink(t) for t in targets]))
    topology = DcsTopology(n=n, m=m, agent_edges=edges,
                           observer_assignment={k: k for k in range(1, m + 1)})
    assert topology.link_count == target
    return SynthesisResult(topology=topology, link_count=topology.link_count,
                           certified=_check_fans(topology, p, xy, fans))


def optimal_sensor_count(n: int, p: int, cost_link: float, cost_sensor: float,
                         observers_attackable: bool = True):
    """Best m in {p..n} for total cost  cost_link * links + cost_sensor * m.

    The link minimum is affine in m, so the optimum sits at an end of the
    range: every extra sensor saves one link on the full attack surface
    (and p links in the agents-only class). Exact ties go to the small end,
    m = p, as does p = 0, where the link count no longer depends on m.
    Returns (m, total_cost); a cost that is not a real number, or a total
    too large for a float, is a ValueError.
    """
    n, p = _whole_number(n, "n"), _whole_number(p, "p")
    if n < 1:
        raise ValueError(f"need at least one agent, got n={n}")
    if not (0 <= p <= n):
        raise ValueError(f"need 0 <= p <= n, got n={n} p={p}")
    if not all(isinstance(c, numbers.Real) for c in (cost_link, cost_sensor)):
        raise ValueError(f"unit costs must be real numbers, got {cost_link!r} and {cost_sensor!r}")
    if not all(c > 0 and math.isfinite(c) for c in (cost_link, cost_sensor)):
        raise ValueError("unit costs must be positive and finite")
    if p == 0:
        m_star = 0
    elif observers_attackable:
        m_star = p if cost_sensor >= cost_link else n
    else:
        m_star = p if cost_sensor >= cost_link * p else n
    links = min_links_value(n, m_star, p, observers_attackable)
    total = cost_link * links + cost_sensor * m_star
    if not math.isfinite(total):
        raise ValueError(f"total cost of {links} links at {cost_link:g} and {m_star} sensors "
                         f"at {cost_sensor:g} overflows a float")
    return m_star, total


def synthesize_platoon(n: int, m: int, p: int,
                       observers_attackable: bool = False) -> SynthesisResult:
    """Minimum-link chain topology: agent i may only hear from agents
    i-p..i, sensors sit on the last m agents.

    In the agents-only class agent i (i <= n-m) feeds x_{i+1}..x_{i+p} and
    itself while the observed tail keeps bare self-loops, which needs
    i + p <= n throughout and hence m >= p. With the full surface
    attackable the observed tail additionally feeds p-1 observed peers
    (wrapping inside the tail), matching the unconstrained link minimum.

    ``certified`` is the verdict of ``_check_fans`` on the construction's
    fans. In class xy each tail agent comes first, with the fan
    ``synthesize`` gives an observed agent. Then each lead agent i, in
    descending order, takes i -> i+k for k = 1..p: agent i+k is either a
    lead agent proved already or an observed one, and an observed one
    continues to the sink, through its observer in class xy.
    """
    n, m, p = _whole_number(n, "n"), _whole_number(m, "m"), _whole_number(p, "p")
    if n < 1 or not (0 <= m <= n) or p < 0:
        raise ValueError(f"invalid sizes n={n} m={m} p={p}")
    if n - m < 1:
        raise ValueError("a platoon needs at least one unobserved lead agent")
    if m < p:
        raise InfeasibilityError(
            f"chain design infeasible: forward edges x_i -> x_(i+k), k <= p "
            f"run past the platoon for m={m} < p={p}")
    xy, lead = observers_attackable, n - m
    sink = n + m if xy else n

    def to_sink(t):  # observed agent t reads into observer t-lead, vertex t+m-1
        return (t - 1, t + m - 1, sink) if xy else (t - 1, sink)

    edges = set()
    fans = []
    for i in range(lead + 1, n + 1):
        edges.add((i, i))
        if xy:
            pos = i - lead  # 1-based position inside the observed tail
            peers = [lead + (pos + t - 1) % m + 1 for t in range(1, p)]
            edges.update((i, t) for t in peers)
            fans.append((i - 1, ([to_sink(i)] if p else [])
                         + [(i - 1,) + to_sink(t) for t in peers]))
    for i in range(lead, 0, -1):
        edges.update((i, i + k) for k in range(p + 1))
        fans.append((i - 1, [(i - 1,) + (to_sink(i + k) if i + k > lead else (i + k - 1,))
                             for k in range(1, p + 1)]))
    assignment = {k: lead + k for k in range(1, m + 1)}
    topology = DcsTopology(n=n, m=m, agent_edges=edges, observer_assignment=assignment)
    assert topology.link_count == min_links_value(n, m, p, xy)
    return SynthesisResult(topology=topology, link_count=topology.link_count,
                           certified=_check_fans(topology, p, xy, fans))
