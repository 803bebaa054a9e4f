"""Minimum-link topology synthesis and the sensor-count trade-off.

Closed forms for the cheapest robust network on n agents with m dedicated
sensors against attacks of size at most p:

* full attack surface (agents and sensors):  n*p + n - m   links for p >= 1
* agents-only attacks:                        (n - m)*p + n links

Both count self-loops, which every agent must keep, so for p = 0 the
minimum is plainly n in either class. Matching constructions are
deterministic: sensors sit on the first m agents, extra edges are chosen
round-robin, and the result is re-certified before it is returned.
"""

from __future__ import annotations

import math

from .separators import InfeasibilityError, certify_robustness
from .topology import DcsTopology, _Record, _set, _whole_number


class SynthesisSpec(_Record):
    """Design request: n agents, m sensors, attack budget p, attack class.
    The sizes must be integers with 0 <= p <= n, 0 <= m <= n and n >= 1."""

    __match_args__ = ("n", "m", "p", "observers_attackable")

    def __init__(self, n: int, m: int, p: int, observers_attackable: bool = True):
        n, m, p = _whole_number(n, "n"), _whole_number(m, "m"), _whole_number(p, "p")
        if n < 1:
            raise ValueError("need at least one agent")
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
    verdict. The topology holds a dict, so the result is unhashable."""

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


def synthesize(spec: SynthesisSpec) -> SynthesisResult:
    """Build a certified minimum-link topology for a fixed sensor count.

    Sensors go on agents 1..m (observer k reads agent k). Observed agents
    keep their self-loop and, when the full surface is attackable, feed
    p-1 other observed agents; unobserved agents feed p observed agents
    plus themselves. Round-robin target choices keep the result
    deterministic.
    """
    n, m, p = spec.n, spec.m, spec.p
    target = min_links_value(n, m, p, spec.observers_attackable)
    edges = {(i, i) for i in range(1, n + 1)}
    if spec.observers_attackable and p >= 1:
        for j in range(1, m + 1):
            for t in _round_robin_observed(j, p - 1, m):
                edges.add((j, t))
    if p >= 1:
        for j in range(m + 1, n + 1):
            start = ((j - m - 1) * p) % m  # m >= p >= 1 here
            for t in _round_robin_observed(start, p, m):
                edges.add((j, t))
    topology = DcsTopology(n=n, m=m, agent_edges=edges,
                           observer_assignment={k: k for k in range(1, m + 1)})
    assert topology.link_count == target
    report = certify_robustness(topology, p, spec.observers_attackable)
    return SynthesisResult(topology=topology, link_count=topology.link_count,
                           certified=report.robust)


def optimal_sensor_count(n: int, p: int, cost_link: float, cost_sensor: float,
                         observers_attackable: bool = True):
    """Best m in {p..n} for total cost  cost_link * links + cost_sensor * m.

    The link minimum is affine in m, so the optimum sits at an end of the
    range: every extra sensor saves one link on the full attack surface
    (and p links in the agents-only class). Exact ties go to the small end,
    m = p, as does p = 0, where the link count no longer depends on m.
    Returns (m, total_cost).
    """
    n, p = _whole_number(n, "n"), _whole_number(p, "p")
    if not (0 <= p <= n):
        raise ValueError(f"need 0 <= p <= n, got n={n} p={p}")
    if not all(c > 0 and math.isfinite(c) for c in (cost_link, cost_sensor)):
        raise ValueError("unit costs must be positive and finite")
    if p == 0:
        m_star = 0
    elif observers_attackable:
        m_star = p if cost_sensor >= cost_link else n
    else:
        m_star = p if cost_sensor >= cost_link * p else n
    links = min_links_value(n, m_star, p, observers_attackable)
    return m_star, cost_link * links + cost_sensor * m_star


def synthesize_platoon(n: int, m: int, p: int,
                       observers_attackable: bool = False) -> SynthesisResult:
    """Minimum-link chain topology: agent i may only hear from agents
    i-p..i, sensors sit on the last m agents.

    In the agents-only class agent i (i <= n-m) feeds x_{i+1}..x_{i+p} and
    itself while the observed tail keeps bare self-loops, which needs
    i + p <= n throughout and hence m >= p. With the full surface
    attackable the observed tail additionally feeds p-1 observed peers
    (wrapping inside the tail), matching the unconstrained link minimum.
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
    edges = set()
    for i in range(1, n - m + 1):
        for k in range(0 if not observers_attackable else 1, p + 1):
            edges.add((i, i + k))
        edges.add((i, i))
    for i in range(n - m + 1, n + 1):
        edges.add((i, i))
        if observers_attackable and p >= 1:
            pos = i - (n - m)  # 1-based position inside the observed tail
            for t in range(1, p):
                edges.add((i, n - m + (pos + t - 1) % m + 1))
    assignment = {k: n - m + k for k in range(1, m + 1)}
    topology = DcsTopology(n=n, m=m, agent_edges=edges, observer_assignment=assignment)
    assert topology.link_count == min_links_value(n, m, p, observers_attackable)
    report = certify_robustness(topology, p, observers_attackable)
    return SynthesisResult(topology=topology, link_count=topology.link_count,
                           certified=report.robust)

