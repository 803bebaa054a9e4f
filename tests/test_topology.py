import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stealthguard import (
    AttackScenario,
    DcsTopology,
    StructuredSystem,
    SynthesisSpec,
    TopologyFormatError,
    build_separator_graph,
    certify_robustness,
    format_topology,
    load_topology,
    min_links_value,
    optimal_sensor_count,
    parse_topology,
    realize,
    save_topology,
    synthesize,
    synthesize_platoon,
    topology_graph,
    topology_to_json,
)
from stealthguard.topology import OBSERVER_SINK, Digraph, agent_id, observer_id, \
    parse_agent_id, parse_observer_id

from oracles import random_topology, reachable, reference_separator_graph, \
    reference_topology_graph


def ring(n, m=1, p=1):
    edges = {(i, i) for i in range(1, n + 1)}
    edges |= {(i, i % n + 1) for i in range(1, n + 1)}
    return DcsTopology(n=n, m=m, agent_edges=edges,
                       observer_assignment={k: n - m + k for k in range(1, m + 1)})


def test_digraph_basics():
    g = Digraph(("a", "b", "c"), ((1,), (2, 0), ()))
    assert g.nodes() == ["a", "b", "c"]
    assert g.successors("a") == ["b"] and g.successors("b") == ["c", "a"]
    assert g.successors("c") == []
    with pytest.raises(KeyError):
        g.successors("zzz")
    assert g == Digraph(("a", "b", "c"), ((1,), (2, 0), ()))
    assert g != Digraph(("a", "b", "c"), ((1,), (0, 2), ()))
    assert hash(g) == hash(Digraph(("a", "b", "c"), ((1,), (2, 0), ())))
    assert repr(g) == "Digraph(names=('a', 'b', 'c'), succ=((1,), (2, 0), ()))"
    with pytest.raises(AttributeError):
        g.succ = ()


def test_topology_validation_rejects_bad_data():
    with pytest.raises(ValueError):
        DcsTopology(n=2, m=0, agent_edges={(1, 1)}, observer_assignment={})  # x2 self-loop missing
    with pytest.raises(ValueError):
        DcsTopology(n=2, m=3, agent_edges={(1, 1), (2, 2)}, observer_assignment={1: 1, 2: 2, 3: 1})
    with pytest.raises(ValueError):
        DcsTopology(n=2, m=0, agent_edges={(1, 1), (2, 2), (1, 3)}, observer_assignment={})
    with pytest.raises(ValueError):
        DcsTopology(n=2, m=1, agent_edges={(1, 1), (2, 2)}, observer_assignment={2: 1})
    with pytest.raises(ValueError):
        DcsTopology(n=3, m=2, agent_edges={(1, 1), (2, 2), (3, 3)},
                    observer_assignment={1: 1, 2: 1})  # both sensors on x1


def test_topology_accessors():
    t = ring(4, m=2)
    assert t.link_count == 8
    assert t.observed_agents == frozenset({3, 4})
    assert t.unobserved_agents == frozenset({1, 2})


def test_out_neighbors_isolated_self_loop():
    # an isolated agent hears only itself
    t = DcsTopology(n=2, m=1, agent_edges={(1, 1), (2, 2)}, observer_assignment={1: 2})
    assert topology_graph(t).successors("x1") == ["x1"]


def test_out_neighbors_observed_agent_in_dense_design():
    # observed agent in the dense minimal design: itself, one observed peer, its sensor
    t = synthesize(SynthesisSpec(n=4, m=2, p=2)).topology
    succ = set(topology_graph(t).successors("x1"))
    assert len(succ) == 3
    assert "x1" in succ and "y1" in succ
    assert succ - {"x1", "y1"} <= {"x2"}


def test_out_neighbors_matches_edge_scan():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = random_topology(rng, n_max=8)
        g = topology_graph(t)
        for i in range(1, t.n + 1):
            expect = {f"x{b}" for (a, b) in t.agent_edges if a == i}
            expect |= {f"y{k}" for k, j in t.observer_assignment.items() if j == i}
            assert set(g.successors(f"x{i}")) == expect
    with pytest.raises(KeyError):
        g.successors("x999")


def adjacency(g):
    return [(v, g.successors(v)) for v in g.nodes()]


def test_builders_match_edge_by_edge_reference():
    rng = np.random.default_rng(12)
    tops = [random_topology(rng, n_max=12) for _ in range(40)]
    tops += [DcsTopology(n=0, m=0, agent_edges=(), observer_assignment={}),
             ring(1, m=0), ring(1, m=1), ring(4, m=4)]
    for t in tops:
        assert adjacency(topology_graph(t)) == adjacency(reference_topology_graph(t))
        for collapse in (False, True):
            assert (adjacency(build_separator_graph(t, collapse_observers=collapse))
                    == adjacency(reference_separator_graph(t, collapse)))


def test_topology_graph_is_shared_and_immutable():
    t = ring(3, m=1)
    g = topology_graph(t)
    assert topology_graph(t) is g
    with pytest.raises(AttributeError):
        g.succ = ()
    assert type(g.names) is tuple and all(type(ws) is tuple for ws in g.succ)
    for collapse in (False, True):
        sep = build_separator_graph(t, collapse_observers=collapse)
        assert type(sep.names) is tuple and all(type(ws) is tuple for ws in sep.succ)
    assert adjacency(topology_graph(t)) == adjacency(reference_topology_graph(t))


def test_certification_leaves_no_state_on_the_topology():
    # certify-scale keeps every synthesized topology, so certification
    # caches nothing on it beyond the communication digraph, and builds no
    # map from ids to vertex numbers
    t = synthesize(SynthesisSpec(n=12, m=3, p=2)).topology
    t = DcsTopology(t.n, t.m, t.agent_edges, t.observer_assignment)
    for flag in (True, False):
        certify_robustness(t, 2, observers_attackable=flag)
    assert set(vars(t)) == {"n", "m", "agent_edges", "observer_assignment", "_core"}
    assert set(vars(t._core)) == {"names", "succ"}


def test_separator_graph_unreachable_sink_without_sensors():
    t = DcsTopology(n=3, m=0,
                    agent_edges={(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)},
                    observer_assignment={})
    g = build_separator_graph(t)
    for i in range(1, 4):
        assert OBSERVER_SINK not in reachable(g, f"x{i}")


def test_separator_graph_platoon_tail_feeds_sink():
    t = synthesize_platoon(6, 2, 2, observers_attackable=False).topology
    g = build_separator_graph(t, collapse_observers=True)
    assert OBSERVER_SINK in g.successors("x5")
    assert OBSERVER_SINK in g.successors("x6")
    assert OBSERVER_SINK not in g.successors("x4")
    full = build_separator_graph(t, collapse_observers=False)
    assert "y1" in full.successors("x5") and full.successors("y1") == [OBSERVER_SINK]


def test_separator_graph_reachability_matches_topology():
    # o is reachable from an agent exactly when some observer is reachable
    rng = np.random.default_rng(11)
    for _ in range(30):
        t = random_topology(rng, n_max=6)
        plain = topology_graph(t)
        for collapse in (False, True):
            g = build_separator_graph(t, collapse_observers=collapse)
            for i in range(1, t.n + 1):
                via_plain = any(f"y{k}" in reachable(plain, f"x{i}")
                                for k in range(1, t.m + 1))
                assert (OBSERVER_SINK in reachable(g, f"x{i}")) == via_plain


def test_patterns_shapes_and_round_trip():
    t = ring(4, m=2)
    empty = AttackScenario(compromised_agents=set(), compromised_observers=set(), p_bound=0)
    real = realize(StructuredSystem(topology=t, scenario=empty))
    assert real.A.shape == (4, 4) and real.C.shape == (2, 4)
    assert np.count_nonzero(real.A) == t.link_count
    assert np.count_nonzero(real.C) == t.m
    # receiver indexes the row: edge (1, 2) lands in row 2, column 1
    assert real.A[1, 0] != 0 and real.A[0, 1] == 0


def test_attack_patterns_add_input_columns():
    t = ring(3, m=1)
    scen = AttackScenario(compromised_agents={2}, compromised_observers={1}, p_bound=2)
    real = realize(StructuredSystem(topology=t, scenario=scen))
    assert real.B.shape == (3, 2) and real.D.shape == (1, 2)
    assert real.B[1, 0] == 1 and real.B.sum() == 1  # u1 drives x2
    assert real.D[0, 1] == 1 and real.D.sum() == 1  # u2 corrupts y1


def test_scenario_validation():
    with pytest.raises(ValueError):
        AttackScenario(compromised_agents={1, 2}, compromised_observers={1}, p_bound=2)
    scen = AttackScenario(compromised_agents={3, 1}, compromised_observers={2}, p_bound=3)
    assert scen.num_inputs == 3
    assert scen.target_ids() == ["x1", "x3", "y2"]
    t = ring(2, m=1)
    with pytest.raises(ValueError):
        StructuredSystem(topology=t, scenario=AttackScenario(
            compromised_agents={5}, compromised_observers=set(), p_bound=1))
    with pytest.raises(ValueError):
        StructuredSystem(topology=t, scenario=AttackScenario(
            compromised_agents=set(), compromised_observers={2}, p_bound=1))


def test_parse_format_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(25):
        t = random_topology(rng, n_max=7)
        p = int(rng.integers(0, 4))
        text = format_topology(t, p)
        t2, p2 = parse_topology(text)
        assert t2 == t and p2 == p
        assert format_topology(t2, p2) == text
        t3, p3 = parse_topology(topology_to_json(t, p))
        assert t3 == t and p3 == p


def test_parse_accepts_comments_and_blank_lines():
    text = """# platoon of three
3 1 1

edge x1 x1   # lead keeps its own state
edge x2 x2
edge x3 x3
edge x1 x2
edge x2 x3
sensor y1 x3
"""
    t, p = parse_topology(text)
    assert (t.n, t.m, p) == (3, 1, 1)
    assert (1, 2) in t.agent_edges
    assert t.observer_assignment == {1: 3}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TopologyFormatError) as err:
        parse_topology("2 0 0\nedge x1 x1\nedge x1 x1\nedge x2 x2\n")
    assert "line 3" in str(err.value)
    assert "multi-edge" in str(err.value) or "repeated" in str(err.value)

    with pytest.raises(TopologyFormatError) as err:
        parse_topology("2 0\n")
    assert "line 1" in str(err.value)

    with pytest.raises(TopologyFormatError) as err:
        parse_topology("2 0 0\nedge x1 q7\nedge x2 x2\n")
    assert "line 2" in str(err.value)

    with pytest.raises(TopologyFormatError) as err:
        parse_topology("2 1 0\nedge x1 x1\nedge x2 x2\nsensor y1 x1\nsensor y1 x2\n")
    assert "line 5" in str(err.value)

    with pytest.raises(TopologyFormatError) as err:
        parse_topology("1 0 0\nwire x1 x1\n")
    assert "line 2" in str(err.value)

    with pytest.raises(TopologyFormatError):
        parse_topology("")
    with pytest.raises(TopologyFormatError):
        parse_topology("{not json")
    with pytest.raises(TopologyFormatError):
        parse_topology(json.dumps({"n": 1, "m": 0, "p": 0}))


PAIR_JSON = {"n": 2, "m": 1, "p": 1, "edges": [["x1", "x1"], ["x2", "x2"], ["x1", "x2"]],
             "sensors": [["y1", "x2"]]}


@pytest.mark.parametrize("header", [
    {"n": None}, {"m": None}, {"p": None},
    {"n": 2.7, "p": 1.9}, {"n": 2.0}, {"p": 1.0},
    {"n": "2"}, {"p": "1"}, {"m": True}, {"p": False},
])
def test_parse_json_header_must_be_integers(header):
    with pytest.raises(TopologyFormatError, match="must be an integer"):
        parse_topology(json.dumps(dict(PAIR_JSON, **header)))


def test_parse_json_rejects_observer_assigned_twice():
    doc = dict(PAIR_JSON, sensors=[["y1", "x1"], ["y1", "x2"]])
    with pytest.raises(TopologyFormatError, match="observer y1 assigned twice"):
        parse_topology(json.dumps(doc))


@pytest.mark.parametrize("field, value", [
    ("edges", [["x1\n", "x1"], ["x2", "x2"], ["x1", "x2"]]),
    ("edges", [["x1", "x1"], ["x2", "x2"], ["x1", "x2\n"]]),
    ("sensors", [["y1\n", "x2"]]),
    ("sensors", [["y1", "x2\n"]]),
])
def test_parse_json_rejects_ids_with_a_trailing_newline(field, value):
    with pytest.raises(TopologyFormatError, match="not an (agent|observer) id"):
        parse_topology(json.dumps(dict(PAIR_JSON, **{field: value})))


@pytest.mark.parametrize("field, value", [
    ("edges", [["x1", "x1"], ["x2", "x2"], {"x1": 0, "x2": 0}]),
    ("sensors", [{"y1": 0, "x2": 0}]),
    ("edges", [["x1", "x1"], ["x2", "x2"], ["x1", "x2", "x2"]]),
    ("edges", [["x1", "x1"], ["x2", "x2"], ["x1", 2]]),
    ("sensors", [[1, "x2"]]),
    ("edges", "x1 x1"),
    ("edges", {"x1": "x1", "x2": "x2"}),
])
def test_parse_json_entries_must_be_two_id_arrays(field, value):
    with pytest.raises(TopologyFormatError, match="must be an array"):
        parse_topology(json.dumps(dict(PAIR_JSON, **{field: value})))


def test_parse_json_repeated_edge_names_the_edge():
    doc = dict(PAIR_JSON, edges=PAIR_JSON["edges"] + [["x1", "x2"]])
    with pytest.raises(TopologyFormatError, match="repeated edge x1 x2"):
        parse_topology(json.dumps(doc))


def test_id_parsers_match_the_whole_string():
    assert parse_agent_id("x12") == 12 and parse_observer_id("y3") == 3
    for bad in ("x1\n", "x1 ", " x1", "x01", "x0", "x", "y1", "x1\nx2"):
        with pytest.raises(ValueError):
            parse_agent_id(bad)
    for bad in ("y1\n", "y0", "x1", "y"):
        with pytest.raises(ValueError):
            parse_observer_id(bad)


def test_parse_json_rejects_deep_nesting():
    with pytest.raises(TopologyFormatError, match="bad JSON"):
        parse_topology('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}")


_TOKENS = st.sampled_from(["edge", "sensor", "x1", "x2", "x3", "y1", "y2", "y0", "x0",
                           "0", "1", "2", "3", "-1", "2.5", "#", "{", "}", "wire", ""])
_TEXT = st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=8).map("\n".join)
_JSON_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-3, 5),
                         st.floats(allow_nan=True), st.text(max_size=3),
                         st.sampled_from(["x1", "x2", "y1", "x0"]))
_JSON_VALUE = st.recursive(_JSON_SCALAR, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(st.text(max_size=2), inner, max_size=3),
                           max_leaves=12)
_JSON_DOC = st.dictionaries(st.sampled_from(["n", "m", "p", "edges", "sensors"]),
                            _JSON_VALUE).map(json.dumps)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_TEXT, _JSON_DOC, st.text(max_size=40)))
def test_parse_topology_fuzz_returns_topology_or_format_error(text):
    try:
        top, p = parse_topology(text)
    except TopologyFormatError:
        return
    assert isinstance(top, DcsTopology) and type(p) is int


def test_parsed_topology_equals_the_publicly_constructed_one():
    rng = np.random.default_rng(28)
    tops = [random_topology(rng, n_max=9) for _ in range(30)]
    tops.append(synthesize(SynthesisSpec(400, 5, 5)).topology)
    for t in tops:
        public = DcsTopology(t.n, t.m, sorted(t.agent_edges), list(t.observer_assignment.items()))
        for text in (format_topology(t, 2), topology_to_json(t, 2)):
            parsed, _ = parse_topology(text)
            assert parsed == public
            assert type(parsed.agent_edges) is frozenset
            assert type(parsed.observer_assignment) is dict
            assert all(type(i) is int for edge in parsed.agent_edges for i in edge)
            assert all(type(i) is int for item in parsed.observer_assignment.items()
                       for i in item)


@pytest.mark.parametrize("n, m, edges, sensors", [
    (1, 2, [(1, 1)], {1: 1, 2: 1}),
    (2, 0, [(1, 1), (2, 2), (2, 3)], {}),
    (2, 0, [(1, 1), (1, 2)], {}),
    (2, 1, [(1, 1), (2, 2)], {2: 1}),
    (3, 2, [(1, 1), (2, 2), (3, 3)], {1: 2, 2: 2}),
])
def test_parser_runs_the_constructors_checks_with_its_messages(n, m, edges, sensors):
    with pytest.raises(ValueError) as public:
        DcsTopology(n, m, edges, sensors)
    text = "\n".join([f"{n} {m} 0"] + [f"edge x{a} x{b}" for a, b in edges]
                     + [f"sensor y{k} x{j}" for k, j in sensors.items()])
    with pytest.raises(TopologyFormatError) as parsed:
        parse_topology(text)
    assert str(parsed.value) == str(public.value)


def test_parse_rejects_missing_self_loop():
    with pytest.raises(TopologyFormatError):
        parse_topology("2 0 0\nedge x1 x1\nedge x1 x2\n")


def reference_json(t, p):
    doc = {"n": t.n, "m": t.m, "p": p,
           "edges": [[agent_id(a), agent_id(b)] for (a, b) in sorted(t.agent_edges)],
           "sensors": [[observer_id(k), agent_id(t.observer_assignment[k])]
                       for k in sorted(t.observer_assignment)]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_topology_to_json_matches_the_indenting_encoder():
    tops = []
    for n in (0, 1, 2, 5, 50, 400):
        for m in (0, 1, 3):
            if m <= n:
                tops.append(ring(n, m=m) if n else
                            DcsTopology(n=0, m=0, agent_edges=(), observer_assignment={}))
    rng = np.random.default_rng(5)
    tops += [random_topology(rng, n_max=15) for _ in range(30)]
    for t in tops:
        for p in (0, 1, 3):
            assert topology_to_json(t, p) == reference_json(t, p)


def test_save_load_round_trip(tmp_path):
    t = ring(5, m=2)
    path = tmp_path / "ring.txt"
    save_topology(path, t, 1)
    t2, p2 = load_topology(path)
    assert t2 == t and p2 == 1


@pytest.mark.parametrize("writer", [format_topology, topology_to_json])
def test_a_byte_order_mark_is_ignored_on_load(tmp_path, writer):
    t = ring(5, m=2)
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(writer(t, 2), encoding="utf-8")
    marked.write_text(writer(t, 2), encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert load_topology(marked) == load_topology(plain) == (t, 2)


PAIR_EDGES = {(1, 1), (2, 2), (1, 2)}

# Each case builds with one count or index replaced by v; the bad value
# used to be truncated, parsed, accepted as it was, or refused with a
# TypeError or a misleading message.
INTEGER_ARGUMENTS = {
    "edge endpoint": (lambda v: DcsTopology(n=2, m=0, agent_edges={(v, 1), (1, 1), (2, 2)},
                                            observer_assignment={}), 1.9, 2),
    "observer target": (lambda v: DcsTopology(n=2, m=1, agent_edges=PAIR_EDGES,
                                              observer_assignment={1: v}), "2", 2),
    "agent count": (lambda v: DcsTopology(n=v, m=0, agent_edges={(1, 1), (2, 2)},
                                          observer_assignment={}), 2.5, 2),
    "attacked agent": (lambda v: AttackScenario({v}, set(), 1), 1.5, 1),
    "attack budget": (lambda v: AttackScenario({1}, set(), v), 1.0, 1),
    "certify budget": (lambda v: certify_robustness(
        DcsTopology(n=2, m=1, agent_edges=PAIR_EDGES, observer_assignment={1: 2}), v), 1.5, 1),
    "link minimum budget": (lambda v: min_links_value(4, 2, v), 1.5, 1),
    "sensor count budget": (lambda v: optimal_sensor_count(4, v, 1, 1), 1.5, 1),
    "synthesis spec size": (lambda v: SynthesisSpec(n=v, m=1, p=1), 3.5, 3),
    "platoon size": (lambda v: synthesize_platoon(v, 2, 1), 4.0, 4),
}


@pytest.mark.parametrize("case", sorted(INTEGER_ARGUMENTS))
def test_graph_layer_counts_and_indices_must_be_integers(case):
    build, bad, whole = INTEGER_ARGUMENTS[case]
    with pytest.raises(ValueError, match="must be an integer"):
        build(bad)
    build(np.int64(whole))
