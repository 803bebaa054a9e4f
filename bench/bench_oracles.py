"""Independent answers the benchmark checks the program against.

Graphs are built here from the benchmark's own designs with networkx,
never from the program's graph types, so a fault in the program's graph
layer cannot hide on both sides of a comparison. Witnesses are replayed
with a plain numpy loop written here.

networkx is imported inside the functions that use it, so it loads with
the first check. The checks run after the benchmark reads its peak
memory, which thus holds only the program's own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

SINK = "o"


def closed_form_links(n: int, m: int, p: int, xy: bool) -> int:
    """Minimum robust link count, self-loops included (p >= 1)."""
    return n * p + n - m if xy else (n - m) * p + n


def topology_digraph(design) -> nx.DiGraph:
    """Agents and observers; self-loops dropped (they lie on no path)."""
    import networkx as nx
    g = nx.DiGraph()
    g.add_nodes_from(f"x{i}" for i in range(1, design.n + 1))
    g.add_nodes_from(f"y{k}" for k in range(1, design.m + 1))
    g.add_edges_from((f"x{a}", f"x{b}") for a, b in design.edges if a != b)
    g.add_edges_from((f"x{j}", f"y{k}") for k, j in design.sensors.items())
    return g


def separator_digraph(design, xy: bool) -> nx.DiGraph:
    """Agents wired to one sink ``o``: through the observers for class xy,
    straight from each observed agent for class x."""
    import networkx as nx
    if xy:
        g = topology_digraph(design)
        g.add_edges_from((f"y{k}", SINK) for k in design.sensors)
        return g
    g = nx.DiGraph()
    g.add_nodes_from(f"x{i}" for i in range(1, design.n + 1))
    g.add_edges_from((f"x{a}", f"x{b}") for a, b in design.edges if a != b)
    g.add_edges_from((f"x{j}", SINK) for j in design.sensors.values())
    return g


def disjoint_paths(g: nx.DiGraph, s: str, t: str):
    """Internally vertex-disjoint s-t paths, or None for adjacent ends."""
    from networkx.algorithms.connectivity import local_node_connectivity
    if g.has_edge(s, t):
        return None
    return local_node_connectivity(g, s, t)


def sink_paths(design, xy: bool, agents, cutoff: int) -> dict:
    """Disjoint paths from each agent id to the sink, counted up to
    `cutoff`; one auxiliary network serves every agent."""
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity,
        local_node_connectivity,
    )
    from networkx.algorithms.flow import build_residual_network
    g = separator_digraph(design, xy)
    aux = build_auxiliary_node_connectivity(g)
    residual = build_residual_network(aux, "capacity")
    return {a: local_node_connectivity(g, a, SINK, auxiliary=aux, residual=residual,
                                       cutoff=cutoff)
            for a in agents}


def linking_size(design, agents, observers) -> int:
    """Fully vertex-disjoint paths from attack inputs to the sensors.

    Every node, input and sensor included, is split into an entry and an
    exit copy joined by a unit arc, so no two paths share any node.
    """
    import networkx as nx
    g = nx.DiGraph()
    base = topology_digraph(design)
    for v in base.nodes:
        g.add_edge(("in", v), ("out", v), capacity=1)
    for u, v in base.edges:
        g.add_edge(("out", u), ("in", v), capacity=1)
    targets = [f"x{i}" for i in sorted(agents)] + [f"y{k}" for k in sorted(observers)]
    for t, target in enumerate(targets, start=1):
        u = f"u{t}"
        g.add_edge("S", ("in", u), capacity=1)
        g.add_edge(("in", u), ("out", u), capacity=1)
        g.add_edge(("out", u), ("in", target), capacity=1)
    for k in design.sensors:
        g.add_edge(("out", f"y{k}"), "T", capacity=1)
    if not targets:
        return 0
    return int(nx.maximum_flow_value(g, "S", "T"))


def attack_edges(design, agents, observers) -> set:
    """Edge set of the attack-augmented graph, as the benchmark sees it."""
    edges = {(f"x{a}", f"x{b}") for a, b in design.edges if a != b}
    edges |= {(f"x{j}", f"y{k}") for k, j in design.sensors.items()}
    targets = [f"x{i}" for i in sorted(agents)] + [f"y{k}" for k in sorted(observers)]
    edges |= {(f"u{t}", target) for t, target in enumerate(targets, start=1)}
    return edges


def path_problems(paths, edges, starts, ends, share_ends: bool) -> list:
    """Problems with a family of paths: each must follow `edges` from a
    node in `starts` to one in `ends`, and no node may be used twice
    (apart from the two shared endpoints when `share_ends`)."""
    problems = []
    seen = set()
    for path in paths:
        if len(path) < 2 or path[0] not in starts or path[-1] not in ends:
            problems.append(f"path {path} has wrong endpoints")
            continue
        for u, v in zip(path, path[1:]):
            if (u, v) not in edges:
                problems.append(f"path {path} uses missing edge {u}->{v}")
        inner = path[1:-1] if share_ends else path
        for v in inner:
            if v in seen:
                problems.append(f"node {v} is shared by two paths")
            seen.add(v)
    return problems


def separates(g: nx.DiGraph, s: str, t: str, cut) -> bool:
    import networkx as nx
    h = g.subgraph(v for v in g.nodes if v not in cut)
    return not nx.has_path(h, s, t)


def output_deviation(A, B, C, D, inputs, steps: int):
    """Noise-free deviation run x+ = A x - B u, dy = C x - D u, with the
    inputs zero past their own length; returns (max |dy|, max |dx|)."""
    n = A.shape[0]
    x = np.zeros(n)
    zero = np.zeros(B.shape[1])
    peak_y = peak_x = 0.0
    for k in range(steps):
        u = inputs[k] if k < len(inputs) else zero
        peak_x = max(peak_x, float(np.max(np.abs(x), initial=0.0)))
        peak_y = max(peak_y, float(np.max(np.abs(C @ x - D @ u), initial=0.0)))
        x = A @ x - B @ u
    return peak_y, peak_x
