import gc
import tracemalloc

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

from stealthguard import design, separators

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


# every design entry point that takes n, m and p; each checks them with _sizes
SIZED_BUILDERS = {"spec": SynthesisSpec, "link minimum": min_links_value,
                  "platoon": synthesize_platoon}


@pytest.mark.parametrize("builder", sorted(SIZED_BUILDERS))
@pytest.mark.parametrize("n, m, p, message", [
    (0, 0, 0, "need at least one agent, got n=0"),
    (-2, 0, 0, "need at least one agent, got n=-2"),
    (3, 1, -1, "attack budget must satisfy 0 <= p <= n, got p=-1"),
    (3, 3, 4, "attack budget must satisfy 0 <= p <= n, got p=4"),
    (3, 4, 1, "need 0 <= m <= n, got m=4"),
    (3, -1, 0, "need 0 <= m <= n, got m=-1"),
])
def test_design_sizes_are_refused_with_one_message(builder, n, m, p, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SIZED_BUILDERS[builder](n, m, p)


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


def test_sensor_count_refuses_an_empty_network():
    # the refusal names n, not the m=0 that the caller never gave
    for n in (0, -2):
        with pytest.raises(ValueError, match=f"^need at least one agent, got n={n}$"):
            optimal_sensor_count(n, 0, 1.0, 1.0)
    with pytest.raises(ValueError, match="^need at least one agent, got n=0$"):
        SynthesisSpec(n=0, m=0, p=0)


def test_sensor_count_refuses_a_budget_outside_zero_to_n():
    for p in (-1, 6):
        with pytest.raises(ValueError, match=f"^attack budget must satisfy 0 <= p <= n, got p={p}$"):
            optimal_sensor_count(5, p, 1.0, 1.0)


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


def test_sensor_count_rejects_costs_that_are_not_numbers():
    for k1, k2 in (("1", 1), (1, "1"), (None, 1.0), (1.0, 2j)):
        with pytest.raises(ValueError, match="real numbers"):
            optimal_sensor_count(10, 2, k1, k2)


def test_sensor_count_refuses_a_total_that_overflows():
    with pytest.raises(ValueError, match="overflows"):
        optimal_sensor_count(1000, 2, 1e308, 1e308)
    assert optimal_sensor_count(1000, 2, 1e300, 1e300) == (2, 1e300 * 2998 + 1e300 * 2)
    # link counts too large to convert to a float, in either class, and a
    # budget too large for one in the agents-only class
    huge = 10 ** 400
    for p, flag in ((1, True), (1, False), (huge, True), (huge, False)):
        with pytest.raises(ValueError, match="overflows a float$"):
            optimal_sensor_count(huge, p, 1.0, 2.0, observers_attackable=flag)


@pytest.mark.parametrize("n, p, flag, message", [
    (10 ** 400, 1, True, "total cost of a 401-digit number of links at 1 and 1 sensors at 2"),
    # 10**6000 links: more digits than Python converts an int to
    (10 ** 3000, 10 ** 3000, True, "total cost of a 6001-digit number of links at 1 "
                                   "and a 3001-digit number of sensors at 2"),
    (10 ** 3000, 10 ** 3000, False, "total cost of a 3001-digit number of links at 1 "
                                    "and a 3001-digit number of sensors at 2"),
])
def test_sensor_count_overflow_names_a_huge_count_by_its_digits(n, p, flag, message):
    with pytest.raises(ValueError) as exc:
        optimal_sensor_count(n, p, 1.0, 2.0, observers_attackable=flag)
    assert str(exc.value) == message + " overflows a float"


def test_count_text_gives_the_exact_number_of_digits():
    assert design._count_text(2998) == "2998"
    assert design._count_text(2 ** 1023) == str(2 ** 1023)  # still a float
    # 10**d - 1 has d digits, 10**d and 10**d + 1 have d + 1
    for d in (310, 400, 4300, 6000):
        for k, digits in ((10 ** d - 1, d), (10 ** d, d + 1), (10 ** d + 1, d + 1)):
            assert design._count_text(k) == f"a {digits}-digit number of"


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


def build_with_fans(monkeypatch, build, *args):
    """(result, check arguments): the fans a constructor hands its checker."""
    seen = []
    check = design._check_fans

    def spy(*check_args):
        seen.append(check_args)
        return check(*check_args)

    monkeypatch.setattr(design, "_check_fans", spy)
    res = build(*args)
    monkeypatch.setattr(design, "_check_fans", check)
    [check_args] = seen
    return res, check_args


CONSTRUCTIONS = [(synthesize, lambda n, m, p, flag: (SynthesisSpec(n, m, p, flag),)),
                 (synthesize_platoon, lambda n, m, p, flag: (n, m, p, flag))]


@pytest.mark.parametrize("build, args", CONSTRUCTIONS)
def test_fan_checker_accepts_every_construction(monkeypatch, build, args):
    for n, m, p in [(1, 0, 0), (3, 1, 0), (4, 2, 2), (9, 3, 3), (40, 6, 5), (200, 10, 10)]:
        if build is synthesize_platoon and m == n:
            continue
        for flag in (True, False):
            res, (top, budget, xy, fans) = build_with_fans(monkeypatch, build,
                                                           *args(n, m, p, flag))
            assert res.certified and top is res.topology and (budget, xy) == (p, flag)
            agents = range(n) if flag else [i - 1 for i in sorted(top.unobserved_agents)]
            assert sorted(agent for agent, _ in fans) == list(agents)
            assert all(len(paths) == p for _, paths in fans)


def test_fan_checker_rejects_broken_platoon_certificates(monkeypatch):
    # class-x platoon on 8 agents, sensors on x7 and x8, vertex v is agent
    # x(v+1) and the sink is 8. Fans come lead agent x6 first, x1 last, and
    # x1's fan is [(0, 1), (0, 2)]: two hops to agents proved before it.
    res, (top, p, xy, fans) = build_with_fans(monkeypatch, synthesize_platoon, 8, 2, 2)
    assert res.certified and fans[-1] == (0, [(0, 1), (0, 2)])
    assert fans[0] == (5, [(5, 6, 8), (5, 7, 8)])

    def verdict(edit):
        broken = [(agent, list(paths)) for agent, paths in fans]
        edit(broken)
        return design._check_fans(top, p, xy, broken)

    def put(i, fan):
        return lambda f: f.__setitem__(i, fan)

    assert verdict(lambda f: None)
    # x1 -> x2 -> x3 is made of edges and ends at a proved agent, but shares x2
    assert not verdict(put(-1, (0, [(0, 1), (0, 1, 2)])))
    # x1 -> x4 is not an edge: x1 feeds only x2 and x3
    assert not verdict(put(-1, (0, [(0, 1), (0, 3)])))
    # x5's fan ends at x6, which is proved only after it once the two swap
    assert not verdict(lambda f: f.__setitem__(slice(0, 2), [f[1], f[0]]))
    # one path for a budget of two
    assert not verdict(put(-1, (0, [(0, 1)])))
    # no fan for x1, an unobserved agent
    assert not verdict(lambda f: f.pop())
    # a path that leaves from another agent, is empty or goes nowhere
    assert not verdict(put(-1, (0, [(1, 2), (0, 1)])))
    assert not verdict(put(-1, (0, [(), (0, 1)])))
    assert not verdict(put(-1, (0, [(0,), (0, 1)])))
    # x6 stops at the observed x7, which no fan proves, jumps to the sink
    # without a sensor, or runs on past the sink
    assert not verdict(put(0, (5, [(5, 6), (5, 7, 8)])))
    assert not verdict(put(0, (5, [(5, 8), (5, 7, 8)])))
    assert not verdict(put(0, (5, [(5, 6, 8, 8), (5, 7, 8)])))


def test_fan_checker_asks_class_xy_to_prove_observed_agents(monkeypatch):
    res, (top, p, xy, fans) = build_with_fans(monkeypatch, synthesize, SynthesisSpec(6, 3, 2))
    assert res.certified and fans[0] == (0, [(0, 6, 9), (0, 1, 7, 9)])
    assert not design._check_fans(top, p, xy, fans[1:])
    # an agent steps only to its own observer, and an observer only to the sink
    assert not design._check_fans(top, p, xy, [(0, [(0, 7, 9), (0, 6, 9)])] + fans[1:])
    assert not design._check_fans(top, p, xy, [(0, [(0, 6, 1, 7, 9), (0, 2, 8, 9)])] + fans[1:])
    # only agents are proved: a fan for observer y1 does not let x1 stop there
    assert not design._check_fans(top, p, xy, [(6, [(6, 9), (6, 9)]),
                                               (0, [(0, 6), (0, 1, 7, 9)])] + fans[1:])
    # the same design in class x asks nothing of x1..x3, and its sink is
    # vertex 6, one step past each observed agent
    unobserved = [(j, [path[:2] + (6,) for path in paths]) for j, paths in fans[3:]]
    assert design._check_fans(top, p, False, unobserved)
    assert not design._check_fans(top, p, False, unobserved[1:])


def test_synthesis_builds_no_graph_and_runs_no_flow(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("synthesis ran a max flow")

    monkeypatch.setattr(separators, "_VertexFlowNet", refuse)
    for flag in (True, False):
        for res in (synthesize(SynthesisSpec(30, 4, 3, flag)),
                    synthesize_platoon(30, 4, 3, flag)):
            assert res.certified
            assert "_core" not in res.topology.__dict__
            assert "agent_edges" not in res.topology.__dict__


def test_a_synthesized_design_keeps_its_links_compactly():
    # each link is one slot in its sender's receiver tuple: about 21 bytes
    # a link here, where a frozenset of pairs took about 110
    synthesize(SynthesisSpec(50, 5, 5))
    gc.collect()
    tracemalloc.start()
    try:
        res = synthesize(SynthesisSpec(2000, 5, 5))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert res.link_count == 11995
    assert kept / res.link_count < 40


def test_flow_certifies_every_small_construction():
    # the max flow checks each construction independently of its fans: every
    # design of acceptance criterion 3 and every feasible platoon up to n=12
    checked = 0
    for n in range(1, 13):
        for m in range(n + 1):
            for p in range(m + 1):
                for flag in (True, False):
                    built = [synthesize(SynthesisSpec(n, m, p, flag))] if n <= 8 else []
                    if m < n:
                        built.append(synthesize_platoon(n, m, p, flag))
                    for res in built:
                        report = certify_robustness(res.topology, p, observers_attackable=flag)
                        assert report.robust and res.certified
                        checked += 1
    assert checked == 328 + 728  # designs, then platoons
