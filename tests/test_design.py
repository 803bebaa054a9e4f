import numpy as np
import pytest

from stealthguard import (
    DcsTopology,
    InfeasibilityError,
    SynthesisSpec,
    certify_robustness,
    min_links_value,
    optimal_sensor_count,
    synthesize,
    synthesize_platoon,
    topology_graph,
)

from oracles import random_topology


def test_min_links_reference_values():
    assert min_links_value(4, 2, 2, observers_attackable=True) == 10
    assert min_links_value(4, 2, 2, observers_attackable=False) == 8
    assert min_links_value(3, 3, 2, observers_attackable=True) == 6
    assert min_links_value(6, 2, 2, observers_attackable=True) == 16
    assert min_links_value(6, 2, 2, observers_attackable=False) == 14


def test_min_links_trivial_budget_needs_only_self_loops():
    for n in (1, 3, 7):
        for m in range(n + 1):
            assert min_links_value(n, m, 0, observers_attackable=True) == n
            assert min_links_value(n, m, 0, observers_attackable=False) == n


def test_min_links_infeasible_when_sensors_below_budget():
    for flag in (True, False):
        with pytest.raises(InfeasibilityError):
            min_links_value(5, 1, 2, observers_attackable=flag)


def test_synthesis_spec_validation():
    with pytest.raises(ValueError):
        SynthesisSpec(n=0, m=0, p=0)
    with pytest.raises(ValueError):
        SynthesisSpec(n=3, m=4, p=1)
    with pytest.raises(ValueError):
        SynthesisSpec(n=3, m=2, p=4)


def test_synthesize_reference_cases():
    res = synthesize(SynthesisSpec(n=4, m=2, p=2))
    assert res.link_count == 10 and res.certified

    res = synthesize(SynthesisSpec(n=3, m=3, p=2))
    assert res.link_count == 6 and res.certified
    assert res.topology.observed_agents == frozenset({1, 2, 3})

    res = synthesize(SynthesisSpec(n=1, m=1, p=0))
    assert res.link_count == 1 and res.certified
    assert res.topology.agent_edges == frozenset({(1, 1)})


def test_synthesize_matches_formula_and_certifies():
    for n in range(1, 7):
        for m in range(n + 1):
            for p in range(min(m, n) + 1):
                for flag in (True, False):
                    res = synthesize(SynthesisSpec(n=n, m=m, p=p, observers_attackable=flag))
                    assert res.link_count == min_links_value(n, m, p, flag)
                    assert res.topology.m == m
                    assert res.certified
                    assert res.topology.link_count == res.link_count
                    report = certify_robustness(res.topology, p, observers_attackable=flag)
                    assert report.robust


def test_synthesize_infeasible_cases():
    with pytest.raises(InfeasibilityError):
        synthesize(SynthesisSpec(n=4, m=1, p=2))
    with pytest.raises(InfeasibilityError):
        synthesize(SynthesisSpec(n=4, m=1, p=2, observers_attackable=False))


def test_sensor_count_reference_cases():
    m, cost = optimal_sensor_count(5, 2, 1.0, 2.0)
    assert m == 2 and cost == 17.0
    m, cost = optimal_sensor_count(5, 2, 2.0, 1.0)
    assert m == 5 and cost == 25.0


def test_sensor_count_matches_brute_scan():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(0, n + 1))
        k1 = float(rng.uniform(0.1, 4.0))
        k2 = float(rng.uniform(0.1, 4.0))
        for flag in (True, False):
            m_star, cost = optimal_sensor_count(n, p, k1, k2, observers_attackable=flag)
            best = min(k1 * min_links_value(n, m, p, flag) + k2 * m
                       for m in range(p, n + 1))
            assert cost == pytest.approx(best)
            assert cost == pytest.approx(k1 * min_links_value(n, m_star, p, flag) + k2 * m_star)


def test_sensor_count_rejects_costs_that_are_not_positive():
    nan, inf = float("nan"), float("inf")
    for k1, k2 in ((0.0, 1.0), (1.0, -2.0), (1.0, nan), (nan, 1.0), (inf, 1.0), (1.0, inf)):
        with pytest.raises(ValueError, match="positive"):
            optimal_sensor_count(5, 2, k1, k2)


def test_sensor_count_tie_breaks_toward_fewer_sensors():
    # mixed class: equal unit costs make every m equally good; pick m = p
    m, _ = optimal_sensor_count(6, 2, 1.0, 1.0)
    assert m == 2
    # agents-only class: the threshold sits at sensor cost = p * link cost
    m, _ = optimal_sensor_count(6, 2, 1.0, 2.0, observers_attackable=False)
    assert m == 2
    m, _ = optimal_sensor_count(6, 2, 1.0, 1.9, observers_attackable=False)
    assert m == 6
    # no attacks to defend against: sensors are pure cost
    m, cost = optimal_sensor_count(6, 0, 1.0, 0.5)
    assert m == 0 and cost == 6.0


def test_platoon_reference_cases():
    res = synthesize_platoon(6, 2, 2, observers_attackable=False)
    assert res.link_count == 14 and res.certified
    res = synthesize_platoon(6, 2, 2, observers_attackable=True)
    assert res.link_count == 16 and res.certified


def test_platoon_edges_point_forward():
    res = synthesize_platoon(7, 3, 2, observers_attackable=False)
    t = res.topology
    assert t.observed_agents == frozenset({5, 6, 7})
    for (a, b) in t.agent_edges:
        assert b - a in (0, 1, 2)
        if a > t.n - t.m:
            assert a == b  # tail agents only keep their own state
    assert res.certified


def test_platoon_certifies_across_sizes():
    for n, m, p in [(3, 1, 1), (4, 2, 1), (5, 2, 2), (8, 3, 2), (8, 3, 3), (9, 4, 2)]:
        for flag in (False, True):
            res = synthesize_platoon(n, m, p, observers_attackable=flag)
            target = min_links_value(n, m, p, observers_attackable=flag)
            assert res.link_count == target
            assert res.certified
            assert certify_robustness(res.topology, p, observers_attackable=flag).robust


def test_platoon_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        synthesize_platoon(4, 4, 2)  # no lead agent left
    with pytest.raises(InfeasibilityError):
        synthesize_platoon(6, 1, 2)


def test_certified_implies_degree_bound():
    rng = np.random.default_rng(83)
    hits = 0
    for _ in range(60):
        t = random_topology(rng, n_max=5, edge_prob=0.5)
        for flag in (True, False):
            p = min(2, t.m if flag else t.n)
            report = certify_robustness(t, p, observers_attackable=flag)
            if report.robust:
                hits += 1
                # p+1 out-edges (self-loop and sensor counted) for every agent
                # in class xy, for every unobserved agent in class x; fewer
                # leave the out-neighborhood as a separator smaller than p
                g = topology_graph(t)
                agents = range(1, t.n + 1) if flag else t.unobserved_agents
                assert all(len(g.successors(f"x{i}")) >= p + 1 for i in agents)
    assert hits >= 10
