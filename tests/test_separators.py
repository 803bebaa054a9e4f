import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stealthguard import (
    AttackScenario,
    DcsTopology,
    InfeasibilityError,
    StructuredSystem,
    SynthesisSpec,
    build_separator_graph,
    certify_robustness,
    format_topology,
    is_structurally_left_invertible,
    max_disjoint_paths,
    max_linking,
    parse_topology,
    synthesize,
    synthesize_platoon,
    topology_graph,
)
from stealthguard.separators import _linking_flow, _VertexFlowNet
from stealthguard.topology import OBSERVER_SINK, Digraph

from oracles import (
    CopyQueueFlowNet,
    brute_max_linking,
    brute_min_separator,
    brute_robust,
    closest_min_separator,
    digraph,
    enumerate_attacks,
    random_digraph,
    random_topology,
    reference_attack_graph,
    separates,
)


def chain(*names):
    return digraph(names, zip(names, names[1:]))


def scenario(agents=(), observers=(), p=None):
    if p is None:
        p = len(agents) + len(observers)
    return AttackScenario(compromised_agents=set(agents),
                          compromised_observers=set(observers), p_bound=p)


def test_chain_has_single_path_and_middle_witness():
    res = max_disjoint_paths(chain("a", "b", "c"), "a", "c")
    assert res.size == 1
    assert res.witness == frozenset({"b"})
    assert res.disjoint_paths == (("a", "b", "c"),)


def test_adjacent_endpoints_have_no_separator():
    g = chain("a", "b")
    res = max_disjoint_paths(g, "a", "b")
    assert res.size is None and res.witness is None
    assert res.size is None
    assert res.disjoint_paths == ()


def test_endpoint_errors():
    g = chain("a", "b")
    with pytest.raises(KeyError):
        max_disjoint_paths(g, "a", "zzz")
    with pytest.raises(ValueError):
        max_disjoint_paths(g, "a", "a")


def test_disconnected_pair_has_empty_separator():
    res = max_disjoint_paths(digraph(["a", "b"], []), "a", "b")
    assert res.size == 0
    assert res.witness == frozenset()
    assert res.disjoint_paths == ()


def test_two_disjoint_routes():
    g = digraph(["s", "p", "q", "t"], [("s", "p"), ("s", "q"), ("p", "t"), ("q", "t")])
    res = max_disjoint_paths(g, "s", "t")
    assert res.size == 2
    assert res.witness == frozenset({"p", "q"})
    assert sorted(res.disjoint_paths) == [("s", "p", "t"), ("s", "q", "t")]


def test_repeated_edge_at_the_source_gives_one_path():
    # a Digraph keeps its successor lists as given, repeats included
    g = digraph(["s", "p", "t"], [("s", "p"), ("s", "p"), ("p", "t")])
    res = max_disjoint_paths(g, "s", "t")
    assert res.size == 1
    assert res.disjoint_paths == (("s", "p", "t"),)


def test_matches_brute_force_on_random_digraphs():
    rng = np.random.default_rng(17)
    for _ in range(120):
        g = random_digraph(rng, max_nodes=6)
        nodes = g.nodes()
        source, sink = nodes[0], nodes[-1]
        res = max_disjoint_paths(g, source, sink)
        expect = brute_min_separator(g, source, sink)
        if expect is None:
            assert res.size is None
        else:
            assert res.size == expect


def test_separator_result_consistency():
    rng = np.random.default_rng(29)
    for _ in range(80):
        g = random_digraph(rng, max_nodes=7)
        nodes = g.nodes()
        source, sink = nodes[0], nodes[-1]
        res = max_disjoint_paths(g, source, sink)
        if res.size is None:
            assert sink in g.successors(source)
            continue
        assert len(res.witness) == res.size == len(res.disjoint_paths)
        assert source not in res.witness and sink not in res.witness
        # removing the witness really disconnects the pair
        assert separates(g, source, sink, set(res.witness))
        seen_internal = set()
        for path in res.disjoint_paths:
            assert path[0] == source and path[-1] == sink
            for a, b in zip(path, path[1:]):
                assert b in g.successors(a)
            interior = set(path[1:-1])
            assert not (interior & seen_internal)
            seen_internal |= interior
            # a minimum separator meets every path
            assert res.witness & set(path)


def test_monotone_under_edge_addition():
    rng = np.random.default_rng(43)
    for _ in range(40):
        g = random_digraph(rng, max_nodes=6, edge_prob=0.25)
        nodes = g.nodes()
        source, sink = nodes[0], nodes[-1]
        before = max_disjoint_paths(g, source, sink)
        edges = [(a, b) for a in nodes for b in g.successors(a)]
        candidates = [(a, b) for a in nodes for b in nodes
                      if a != b and (a, b) not in edges and (a, b) != (source, sink)]
        if not candidates or before.size is None:
            continue
        extra = candidates[int(rng.integers(len(candidates)))]
        after = max_disjoint_paths(digraph(nodes, edges + [extra]), source, sink)
        assert after.size is None or after.size >= before.size


def test_linking_single_observed_agent():
    t = DcsTopology(n=2, m=1, agent_edges={(1, 1), (2, 2)}, observer_assignment={1: 1})
    res = max_linking(StructuredSystem(topology=t, scenario=scenario(agents=[1])))
    assert res.size == 1
    assert res.paths == (("u1", "x1", "y1"),)


def test_linking_empty_attack():
    t = DcsTopology(n=1, m=1, agent_edges={(1, 1)}, observer_assignment={1: 1})
    res = max_linking(StructuredSystem(topology=t, scenario=scenario()))
    assert res.size == 0 and res.paths == ()


def test_linking_never_exceeds_sensor_count():
    rng = np.random.default_rng(5)
    for _ in range(60):
        t = random_topology(rng, n_max=5)
        total = t.n + t.m
        want = int(rng.integers(1, total + 1))
        agents = {int(v) + 1 for v in rng.permutation(t.n)[: min(want, t.n)]}
        observers = {int(v) + 1 for v in rng.permutation(t.m)[: want - len(agents)]}
        scen = scenario(agents=agents, observers=observers)
        res = max_linking(StructuredSystem(topology=t, scenario=scen))
        assert res.size <= min(t.m, scen.num_inputs)
        if scen.num_inputs > t.m:
            assert res.size < scen.num_inputs


def test_linking_matches_brute_force():
    rng = np.random.default_rng(59)
    for _ in range(60):
        t = random_topology(rng, n_max=5)
        if t.n + t.m == 0:
            continue
        want = int(rng.integers(1, t.n + t.m + 1))
        agents = {int(v) + 1 for v in rng.permutation(t.n)[: min(want, t.n)]}
        observers = {int(v) + 1 for v in rng.permutation(t.m)[: want - len(agents)]}
        sys = StructuredSystem(topology=t, scenario=scenario(agents=agents, observers=observers))
        res = max_linking(sys)
        assert res.size == brute_max_linking(sys)
        # returned paths are themselves a valid disjoint family of paths of
        # the attack graph built edge by edge
        graph = reference_attack_graph(sys)
        used = set()
        for path in res.paths:
            verts = set(path)
            assert not (verts & used)
            used |= verts
            assert path[0].startswith("u") and path[-1].startswith("y")
            assert all(b in graph.successors(a) for a, b in zip(path, path[1:]))
        assert len(res.paths) == res.size


def test_results_share_their_id_strings():
    # every id comes from one shared source, so results kept from many
    # queries (even on separately parsed copies of a topology) share their
    # strings and only the tuples are new
    t = synthesize(SynthesisSpec(n=30, m=4, p=3)).topology
    parsed, _p = parse_topology(format_topology(t, 3))
    first = max_linking(StructuredSystem(t, scenario(agents=[2, 17], observers=[1])))
    again = max_linking(StructuredSystem(parsed, scenario(agents=[2, 17], observers=[1])))
    assert first.size == 3 and first.paths == again.paths
    for a, b in zip(first.paths, again.paths):
        assert all(u is v for u, v in zip(a, b))
    r1 = max_disjoint_paths(topology_graph(t), "x20", "x3")
    r2 = max_disjoint_paths(topology_graph(parsed), "x20", "x3")
    assert r1 == r2
    assert all(u is v for a, b in zip(r1.disjoint_paths, r2.disjoint_paths)
               for u, v in zip(a, b))
    c1, c2 = (certify_robustness(top, 3) for top in (t, parsed))
    assert all(u is v for u, v in zip(c1.per_agent_min_separator, c2.per_agent_min_separator))


def test_left_invertibility_cases():
    t = DcsTopology(n=2, m=1, agent_edges={(1, 1), (2, 2)}, observer_assignment={1: 2})
    empty = StructuredSystem(topology=t, scenario=scenario())
    assert is_structurally_left_invertible(empty)
    # x1 only talks to itself and nothing reaches the sensor on x2
    lone = StructuredSystem(topology=t, scenario=scenario(agents=[1]))
    assert not is_structurally_left_invertible(lone)
    observed = StructuredSystem(topology=t, scenario=scenario(agents=[2]))
    assert is_structurally_left_invertible(observed)
    # more attack inputs than sensors is always reconstruction-proof
    both = StructuredSystem(topology=t, scenario=scenario(agents=[1, 2]))
    assert not is_structurally_left_invertible(both)


def test_dense_design_withstands_every_bounded_attack():
    t = synthesize(SynthesisSpec(n=4, m=2, p=2)).topology
    for scen in enumerate_attacks(t, 2, observers_attackable=True):
        sys = StructuredSystem(topology=t, scenario=scen)
        assert is_structurally_left_invertible(sys)


def test_certify_rejects_negative_budget():
    t = DcsTopology(n=1, m=1, agent_edges={(1, 1)}, observer_assignment={1: 1})
    with pytest.raises(ValueError):
        certify_robustness(t, -1)


def test_certify_p_zero_is_always_robust():
    rng = np.random.default_rng(2)
    for _ in range(10):
        t = random_topology(rng, n_max=5)
        for flag in (True, False):
            assert certify_robustness(t, 0, observers_attackable=flag).robust


def test_certify_infeasible_when_sensors_below_budget():
    t = DcsTopology(n=3, m=1, agent_edges={(1, 1), (2, 2), (3, 3)},
                    observer_assignment={1: 1})
    with pytest.raises(InfeasibilityError):
        certify_robustness(t, 2, observers_attackable=True)
    # agents-only analysis still runs and correctly reports non-robustness
    report = certify_robustness(t, 2, observers_attackable=False)
    assert not report.robust


def test_low_degree_agent_breaks_robustness():
    # x1 feeds only x2 and x3; both have plenty of onward routes, so the
    # canonical deficient witness is exactly x1's out-neighborhood.
    n, m, p = 5, 3, 3
    edges = {(i, i) for i in range(1, n + 1)}
    edges |= {(1, 2), (1, 3)}
    for a in (2, 3):
        for b in (2, 3, 4, 5):
            if a != b:
                edges.add((a, b))
    edges |= {(4, 5), (5, 4)}
    t = DcsTopology(n=n, m=m, agent_edges=edges,
                    observer_assignment={1: 3, 2: 4, 3: 5})
    report = certify_robustness(t, p, observers_attackable=True)
    assert not report.robust
    assert report.counterexample.agent == "x1"
    assert report.counterexample.separator == frozenset({"x2", "x3"})
    attack = report.counterexample.attack
    assert attack.compromised_agents == frozenset({1, 2, 3})
    assert not is_structurally_left_invertible(StructuredSystem(topology=t, scenario=attack))


def test_certify_matches_exhaustive_oracle():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(60):
        t = random_topology(rng, n_max=4, edge_prob=0.45)
        for p in (1, 2):
            if p > t.n:
                continue
            expect_x = brute_robust(t, p, observers_attackable=False)
            got_x = certify_robustness(t, p, observers_attackable=False)
            assert got_x.robust == expect_x
            if t.m >= p:
                expect_xy = brute_robust(t, p, observers_attackable=True)
                got_xy = certify_robustness(t, p, observers_attackable=True)
                assert got_xy.robust == expect_xy
            checked += 1
    assert checked >= 60


def test_certify_witness_is_sound():
    rng = np.random.default_rng(137)
    found = 0
    for _ in range(80):
        t = random_topology(rng, n_max=5, edge_prob=0.3)
        for flag in (True, False):
            p = min(2, t.n, t.m if flag else t.n)
            if p == 0:
                continue
            report = certify_robustness(t, p, observers_attackable=flag)
            if report.robust:
                continue
            found += 1
            ce = report.counterexample
            attack = ce.attack
            assert attack.num_inputs <= p
            if not flag:
                assert not attack.compromised_observers
            assert not is_structurally_left_invertible(
                StructuredSystem(topology=t, scenario=attack))
            # the separator really cuts the deficient agent off from the sink
            g = build_separator_graph(t, collapse_observers=not flag)
            assert separates(g, ce.agent, OBSERVER_SINK, set(ce.separator))
    assert found >= 20


def test_witness_is_the_minimum_separator_closest_to_the_source():
    rng = np.random.default_rng(311)
    checked = 0
    while checked < 300:
        g = random_digraph(rng)
        source, sink = g.nodes()[0], g.nodes()[-1]
        if sink in g.successors(source):
            continue
        assert max_disjoint_paths(g, source, sink).witness == \
            closest_min_separator(g, source, sink), checked
        checked += 1


def test_counterexample_separator_is_the_closest_minimum_separator():
    rng = np.random.default_rng(313)
    found = {True: 0, False: 0}
    for _ in range(200):
        t = random_topology(rng, n_max=6, edge_prob=0.35)
        p = int(rng.integers(1, 4))
        for flag in (True, False):
            if flag and t.m < p:
                continue
            ce = certify_robustness(t, p, observers_attackable=flag).counterexample
            if ce is None:
                continue
            g = build_separator_graph(t, collapse_observers=not flag)
            assert ce.separator == closest_min_separator(g, ce.agent, OBSERVER_SINK)
            found[flag] += 1
    assert min(found.values()) >= 40, found


def test_source_side_cut_needs_a_flow_that_ran_to_exhaustion():
    # two disjoint paths, 0-1-3 and 0-2-3
    net = _VertexFlowNet([[1, 2], [3], [3], []], 3)
    for cutoff in (0, 1):
        assert net.max_flow(0, cutoff=cutoff) == cutoff
        with pytest.raises(RuntimeError, match="cutoff"):
            net.source_side_cut()
    assert net.max_flow(0, cutoff=3) == 2
    assert net.source_side_cut() == [1, 2]


def test_second_path_cancels_flow_through_a_saturated_entry_copy():
    # the first shortest path 0-1-3-5 fills vertex 3; the second enters 3
    # from 2, cancels the unit on edge 1->3 and leaves 1 toward 4 instead
    net = _VertexFlowNet([[1, 2], [3, 4], [3], [5], [5], []], 5)
    assert net.max_flow(0, cutoff=1) == 1
    assert net.extract_paths() == [[0, 1, 3, 5]]
    assert net.max_flow(0) == 2
    assert net.extract_paths() == [[0, 1, 4, 5], [0, 2, 3, 5]]
    assert net.source_side_cut() == [1, 2]


def test_path_that_crosses_a_split_arc_backward_frees_the_vertex():
    # a later augmenting path reroutes around a vertex that carried a unit;
    # if that vertex stayed marked as carrying, the cut would read [1, 9, 31]
    succ = [(7,), (8, 11, 23, 28), (1, 28), (1, 7), (7, 14, 20, 31), (15,), (2, 8, 27, 29),
            (11,), (17, 25), (26,), (11,), (11, 13, 19, 23), (23, 25, 32), (12,),
            (1, 5, 27, 31), (17, 29, 32), (8, 9, 13), (0, 11, 12), (0, 7, 10, 31), (3, 9, 12),
            (12, 22, 26, 33), (2,), (12, 19, 23), (9,), (4, 7), (5, 14, 29), (17, 23, 28, 33),
            (16, 22), (12, 22, 29, 32), (10, 12, 21), (8, 27, 28, 31), (0, 17, 21, 24), (13,),
            ()]
    net = _VertexFlowNet(succ, 33)
    assert net.max_flow(25) == 2
    assert net.extract_paths() == [[25, 14, 31, 24, 4, 20, 33], [25, 29, 12, 23, 9, 26, 33]]
    assert net.source_side_cut() == [9, 14]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(15, 40), edge_prob=st.floats(0.03, 0.25),
       seed=st.integers(0, 2**32 - 1))
def test_flow_net_matches_networkx_on_successor_lists(n, edge_prob, seed):
    """One network, reused for every source not adjacent to the sink in a
    shuffled order, with random cutoffs: the value is the networkx local
    vertex connectivity capped at the cutoff, an uncut run's source side
    is a separator of that size, and the paths are disjoint edge walks."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity,
        local_node_connectivity,
    )
    from networkx.algorithms.flow import build_residual_network

    rng = np.random.default_rng(seed)
    # self-loops included, successors in random order
    succ = [tuple(int(w) for w in rng.permutation(n) if rng.random() < edge_prob)
            for _ in range(n)]
    sink = int(rng.integers(n))
    h = nx.DiGraph()
    h.add_nodes_from(range(n))
    h.add_edges_from((u, w) for u in range(n) for w in succ[u] if u != w)
    aux = build_auxiliary_node_connectivity(h)
    residual = build_residual_network(aux, "capacity")
    graph = Digraph(tuple(range(n)), tuple(succ))  # vertex numbers as names
    net = _VertexFlowNet(succ, sink)
    sources = [s for s in range(n) if s != sink and sink not in succ[s]]
    for s in rng.permutation(sources).tolist():
        cutoff = [None, 0, 1, 2, 3][int(rng.integers(5))]
        value = net.max_flow(s, cutoff=cutoff)
        expect = local_node_connectivity(h, s, sink, auxiliary=aux, residual=residual)
        assert value == (expect if cutoff is None else min(expect, cutoff))
        if cutoff is not None and value == cutoff:
            with pytest.raises(RuntimeError):
                net.source_side_cut()
        else:
            cut = net.source_side_cut()
            assert len(cut) == value and s not in cut and sink not in cut
            assert separates(graph, s, sink, set(cut))
        paths = net.extract_paths()
        assert len(paths) == value
        inner = [v for path in paths for v in path[1:-1]]
        assert len(inner) == len(set(inner)) and s not in inner and sink not in inner
        for path in paths:
            assert path[0] == s and path[-1] == sink
            assert all(b in succ[a] for a, b in zip(path, path[1:]))


def check_search_against_copy_queue(succ, sink, runs):
    """Drive the library's search and the reference search, which queues
    both copies of a vertex, one augmentation at a time on one network per
    side, for each (source, cutoff) of ``runs``: every augmentation leaves
    the same flow arrays, the final failed search the same source side, and
    the flows decompose into the same paths."""
    net, ref = _VertexFlowNet(succ, sink), CopyQueueFlowNet(succ, sink)
    for source, cutoff in runs:
        net.max_flow(source, cutoff=0)
        ref.max_flow(source, cutoff=0)
        flow = 0
        while cutoff is None or flow < cutoff:
            found = net._augment()
            assert found == ref._augment()
            if not found:
                assert net.source_side_cut() == ref.source_side_cut()
                break
            flow += 1
            assert net._pred == ref._pred and net._next == ref._next
        assert net.extract_paths() == ref.extract_paths()


def random_successors(rng, n):
    """Successor lists on n vertices with self-loops, repeated successors
    and a few sensor hubs that most vertices feed."""
    hubs = rng.choice(n, size=int(rng.integers(1, max(2, n // 4))), replace=False)
    succ = []
    for v in range(n):
        out = [int(w) for w in rng.integers(n, size=int(rng.integers(0, 5)))]  # repeats allowed
        out += [int(h) for h in hubs if rng.random() < 0.6]
        if rng.random() < 0.5:
            out.append(v)
        succ.append(tuple(int(w) for w in rng.permutation(out)))
    return succ


def test_search_matches_the_copy_queue_search():
    rng = np.random.default_rng(34)
    cutoffs = [None, 0, 1, 2, 3, 4, 5, 6]
    networks = []
    for _ in range(300):
        succ = random_successors(rng, int(rng.integers(2, 31)))
        networks.append((succ, int(rng.integers(len(succ)))))
    for _ in range(100):
        t = random_topology(rng, n_max=12, edge_prob=0.3)
        succ = build_separator_graph(t, collapse_observers=bool(rng.integers(2))).succ
        networks.append((succ, len(succ) - 1))
    for succ, sink in networks:
        sources = [s for s in rng.permutation(len(succ)).tolist()
                   if s != sink and sink not in succ[s]]
        check_search_against_copy_queue(
            succ, sink, [(s, cutoffs[int(rng.integers(len(cutoffs)))]) for s in sources])
    # linking networks: the super source, second to last, feeds the inputs
    for _ in range(100):
        t = random_topology(rng, n_max=12, edge_prob=0.3)
        n = t.n
        inputs = [(int(v),) for v in rng.choice(n + t.m, size=int(rng.integers(1, 5)))]
        net, _value = _linking_flow(t._core.succ[:n], t.m, inputs)
        check_search_against_copy_queue(net._succ, net._sink >> 1, [(len(net._succ) - 2, None)])


def test_certify_monotone_under_edge_addition():
    rng = np.random.default_rng(71)
    for _ in range(30):
        t = random_topology(rng, n_max=5, edge_prob=0.35)
        p = min(2, t.m)
        report = certify_robustness(t, p, observers_attackable=True)
        if not report.robust:
            continue
        candidates = [(a, b) for a in range(1, t.n + 1) for b in range(1, t.n + 1)
                      if a != b and (a, b) not in t.agent_edges]
        if not candidates:
            continue
        extra = candidates[int(rng.integers(len(candidates)))]
        bigger = DcsTopology(n=t.n, m=t.m, agent_edges=set(t.agent_edges) | {extra},
                             observer_assignment=dict(t.observer_assignment))
        assert certify_robustness(bigger, p, observers_attackable=True).robust


def test_platoon_separators_follow_the_chain():
    n, m, p = 6, 2, 2
    t = synthesize_platoon(n, m, p, observers_attackable=False).topology
    g = build_separator_graph(t, collapse_observers=True)
    for i in range(1, n - m + 1):
        res = max_disjoint_paths(g, f"x{i}", OBSERVER_SINK)
        assert res.size == p
        assert res.witness == frozenset({f"x{i + 1}", f"x{i + 2}"})


def test_report_dict_has_stable_keys():
    t = DcsTopology(n=2, m=1, agent_edges={(1, 1), (2, 2)}, observer_assignment={1: 2})
    doc = certify_robustness(t, 1, observers_attackable=True).to_dict()
    assert set(doc) == {"robust", "attack_class", "p", "per_agent_min_separator",
                        "counterexample"}
    assert doc["attack_class"] == "xy"
    assert doc["robust"] is False
    assert doc["counterexample"]["agent"] == "x1"
    assert doc["counterexample"]["separator"] == []
    assert doc["counterexample"]["attack_agents"] == ["x1"]


def nx_closest_separator(nx, graph, source, sink):
    """Closest minimum separator by networkx: the vertices whose entry copy,
    but not exit copy, is reached from the source in the residual network
    of a maximum flow. Edges have no capacity, so no edge is cut."""
    split = nx.DiGraph()
    for v in graph.nodes():
        split.add_edge((v, 0), (v, 1), capacity=1)
        split.add_edges_from(((v, 1), (w, 0)) for w in graph.successors(v) if w != v)
    residual = nx.algorithms.flow.edmonds_karp(split, (source, 1), (sink, 0))
    side = {(source, 1)}
    frontier = [(source, 1)]
    while frontier:
        for w, arc in residual[frontier.pop()].items():
            if arc["flow"] < arc["capacity"] and w not in side:
                side.add(w)
                frontier.append(w)
    return frozenset(v for v in graph.nodes() if (v, 0) in side and (v, 1) not in side)


def check_certify_against_networkx(t, p, observers_attackable):
    """Per-agent counts are min(networkx connectivity, p), and the
    counterexample's separator is the closest minimum separator."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity,
        local_node_connectivity,
    )
    from networkx.algorithms.flow import build_residual_network

    report = certify_robustness(t, p, observers_attackable=observers_attackable)
    g = build_separator_graph(t, collapse_observers=not observers_attackable)
    h = nx.DiGraph()
    h.add_nodes_from(g.nodes())
    h.add_edges_from((a, b) for a in g.nodes() for b in g.successors(a) if a != b)
    aux = build_auxiliary_node_connectivity(h)
    residual = build_residual_network(aux, "capacity")
    for agent, size in report.per_agent_min_separator.items():
        flow = local_node_connectivity(h, agent, OBSERVER_SINK,
                                       auxiliary=aux, residual=residual)
        assert size == min(flow, p), agent
    ce = report.counterexample
    if ce is not None:
        assert ce.separator == max_disjoint_paths(g, ce.agent, OBSERVER_SINK).witness
        assert ce.separator == nx_closest_separator(nx, g, ce.agent, OBSERVER_SINK)
    return report


@settings(max_examples=40, deadline=None)
@given(n=st.integers(10, 60), sensor_share=st.floats(0.0, 1.0),
       edge_prob=st.floats(0.02, 0.2), p=st.integers(0, 5),
       observers_attackable=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_certify_matches_networkx_connectivity(n, sensor_share, edge_prob, p,
                                               observers_attackable, seed):
    m = round(sensor_share * n)
    t = random_topology(np.random.default_rng(seed), n=n, m=m, edge_prob=edge_prob)
    if observers_attackable:
        p = min(p, m)
    check_certify_against_networkx(t, p, observers_attackable)


def hub_topology(rng, n, m, p, observers_attackable, extra_prob, cut):
    """Sensor hubs: agents 1..m are observed, every other agent feeds p of
    them (and a few random peers), and in class xy each observed agent
    also feeds its p-1 next observed peers. With ``cut`` one random link
    between two agents is removed."""
    edges = {(i, i) for i in range(1, n + 1)}
    for u in range(m + 1, n + 1):
        edges.update((u, int(j) + 1) for j in rng.choice(m, size=p, replace=False))
        edges.update((u, w) for w in range(m + 1, n + 1) if w != u and rng.random() < extra_prob)
    if observers_attackable:
        edges.update((j, (j + k - 1) % m + 1) for j in range(1, m + 1) for k in range(1, p))
    if cut:
        links = sorted((a, b) for a, b in edges if a != b)
        edges.remove(links[int(rng.integers(len(links)))])
    return DcsTopology(n=n, m=m, agent_edges=edges,
                       observer_assignment={k: k for k in range(1, m + 1)})


@settings(max_examples=30, deadline=None)
@given(n=st.integers(20, 60), p=st.integers(1, 5), hub_share=st.floats(0.05, 0.25),
       extra_prob=st.floats(0.0, 0.05), observers_attackable=st.booleans(),
       cut=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_certify_matches_networkx_connectivity_on_sensor_hubs(n, p, hub_share, extra_prob,
                                                              observers_attackable, cut, seed):
    m = max(p, round(hub_share * n))
    t = hub_topology(np.random.default_rng(seed), n, m, p, observers_attackable,
                     extra_prob, cut)
    report = check_certify_against_networkx(t, p, observers_attackable)
    if not cut:
        assert report.robust
