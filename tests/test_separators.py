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
from stealthguard.separators import _VertexFlowNet
from stealthguard.topology import OBSERVER_SINK

from oracles import (
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


@settings(max_examples=40, deadline=None)
@given(n=st.integers(10, 60), sensor_share=st.floats(0.0, 1.0),
       edge_prob=st.floats(0.02, 0.2), p=st.integers(0, 5),
       observers_attackable=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_certify_matches_networkx_connectivity(n, sensor_share, edge_prob, p,
                                               observers_attackable, seed):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity,
        local_node_connectivity,
    )
    from networkx.algorithms.flow import build_residual_network

    m = round(sensor_share * n)
    t = random_topology(np.random.default_rng(seed), n=n, m=m, edge_prob=edge_prob)
    if observers_attackable:
        p = min(p, m)
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
