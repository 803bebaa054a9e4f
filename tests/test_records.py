"""The contract of the graph layer's ten immutable records: construction,
equality, hashing, repr, immutability, pickle and deepcopy."""

import copy
import pickle

import pytest

from stealthguard import (
    AttackScenario,
    Counterexample,
    DcsTopology,
    LinkingResult,
    RobustnessReport,
    SeparatorResult,
    StructuredSystem,
    SynthesisResult,
    SynthesisSpec,
    certify_robustness,
    max_linking,
)
from stealthguard.topology import Digraph

TOP = DcsTopology(3, 1, {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)}, {1: 3})
SCEN = AttackScenario({1}, {1}, 2)
CE = Counterexample("x1", frozenset({"y1"}), SCEN)

# (class, positional fields, field names, another value for one field: the
# first, or for a topology its edges)
RECORDS = [
    (DcsTopology, (3, 1, TOP.agent_edges, {1: 3}),
     ("n", "m", "agent_edges", "observer_assignment"), frozenset({(1, 1), (2, 2), (3, 3)})),
    (AttackScenario, (frozenset({1}), frozenset({1}), 2),
     ("compromised_agents", "compromised_observers", "p_bound"), frozenset({2})),
    (StructuredSystem, (TOP, SCEN), ("topology", "scenario"),
     DcsTopology(3, 1, {(1, 1), (2, 2), (3, 3)}, {1: 3})),
    (SeparatorResult, (2, frozenset({"x2", "x3"}), (("x1", "x2", "o"), ("x1", "x3", "o"))),
     ("size", "witness", "disjoint_paths"), 3),
    (LinkingResult, (1, (("u1", "x1", "y1"),)), ("size", "paths"), 2),
    (Counterexample, ("x1", frozenset({"y1"}), SCEN), ("agent", "separator", "attack"), "x2"),
    (RobustnessReport, (False, True, 2, {"x1": 1, "x2": 2, "x3": 2}, CE),
     ("robust", "observers_attackable", "p", "per_agent_min_separator", "counterexample"),
     True),
    (SynthesisSpec, (8, 3, 2, False), ("n", "m", "p", "observers_attackable"), 9),
    (SynthesisResult, (TOP, 5, True), ("topology", "link_count", "certified"),
     DcsTopology(3, 1, {(1, 1), (2, 2), (3, 3)}, {1: 3})),
    (Digraph, (("x1", "x2", "o"), ((0, 1), (1, 2), ())), ("names", "succ"), ("x1", "x2", "y1")),
]
HOLDS_A_DICT = {DcsTopology, StructuredSystem, RobustnessReport, SynthesisResult}
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, values, names, other", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, values, names, other):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_position, name) for name in names) == values
    assert cls.__match_args__ == names


def test_synthesis_spec_defaults_to_the_full_attack_surface():
    assert SynthesisSpec(8, 3, 2).observers_attackable is True
    assert SynthesisSpec(8, 3, 2) == SynthesisSpec(n=8, m=3, p=2, observers_attackable=True)


@pytest.mark.parametrize("cls, values, names, other", RECORDS, ids=IDS)
def test_equality_is_same_class_and_equal_fields(cls, values, names, other):
    record = cls(*values)
    assert record == cls(*values)
    assert not record != cls(*values)
    at = 2 if cls is DcsTopology else 0
    assert record != cls(*values[:at], other, *values[at + 1:])
    assert record != values
    assert record != object()


@pytest.mark.parametrize("cls, values, names, other", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_fields(cls, values, names, other):
    record = cls(*values)
    if cls in HOLDS_A_DICT:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values)) == hash(values)
        assert {record, cls(*values)} == {record}


@pytest.mark.parametrize("cls, values, names, other", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, values, names, other):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, other)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("cls, values, names, other", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, values, names, other):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_repr_of_a_small_result():
    assert repr(LinkingResult(size=1, paths=())) == "LinkingResult(size=1, paths=())"


@pytest.mark.parametrize("cls, values, names, other", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, values, names, other):
    record = cls(*values)
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(record), copy.copy(record)]
    for twin in copies:
        assert type(twin) is cls
        assert twin == record
        with pytest.raises(AttributeError):
            setattr(twin, names[0], other)


def test_records_from_the_algorithms_round_trip():
    report = certify_robustness(TOP, 1)
    linking = max_linking(StructuredSystem(TOP, SCEN))
    for record in (report, linking):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record


def test_the_graph_core_is_cached_on_first_use_and_survives_copies():
    top = DcsTopology(3, 1, {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)}, {1: 3})
    core = top._core
    assert top._core is core
    for twin in (pickle.loads(pickle.dumps(top)), copy.deepcopy(top)):
        assert twin == top
        assert twin._core == core
    assert top == TOP
