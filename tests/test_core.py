import itertools
import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubsub_refine import broadcast_model as bn
from pubsub_refine import core
from pubsub_refine import flood_model as fn
from pubsub_refine.core import (
    Message,
    PeerMap,
    difference,
    indented_json,
    insert_unique,
    is_ascending,
    map_delete,
    map_get,
    map_keys,
    map_set,
    ordered_set,
    union_sets,
)
from pubsub_refine.exhaustive import run_exhaustive
from pubsub_refine.faults import FAULTS, run_fault
from pubsub_refine.generate import GeneratorConfig
from pubsub_refine.runner import fuzz_run, scenario_run

M1 = Message("a", "t1", 5)
M2 = Message("a", "t1", 7)
M3 = Message("b", "t1", 5)


def test_compare_peers_numeric():
    assert 1 < 2
    assert not 2 < 1


def test_compare_reflexive():
    assert M1 == M1
    assert not M1 < M1


def test_compare_messages_fieldwise():
    # oracle: field-wise lexicographic comparison evaluated by hand
    assert M1 < M2  # origins 5 < 7
    assert M1 < M3  # payloads 'a' < 'b'
    assert M2 < M3 and not M3 < M2


def test_compare_strict_weak_order_exhaustive():
    pool = [Message("a", "t", 0), Message("b", "t", 0), Message("b", "u", 0), Message("b", "u", 3)]
    pool += [Message("a", "t", 0), Message("c", "a", 9)]  # includes a duplicate value
    for a, b, c in itertools.product(pool, repeat=3):
        # trichotomy: exactly one of a < b, a == b, b < a
        assert [a < b, a == b, b < a].count(True) == 1
        # transitivity
        if (a < b or a == b) and (b < c or b == c):
            assert a < c or a == c


def test_insert_unique_empty():
    assert insert_unique(M1, ()) == (M1,)


def test_insert_unique_idempotent():
    assert insert_unique(M1, (M1,)) == (M1,)


def test_insert_unique_middle():
    a, b, c = sorted([M1, M2, M3])
    # oracle: sort-and-dedup of the multiset {a, b, c}
    assert insert_unique(b, (a, c)) == tuple(sorted({a, b, c}))


ordered_ints = st.lists(st.integers(-20, 20), max_size=12).map(ordered_set)


@given(st.integers(-20, 20), ordered_ints)
def test_insert_unique_properties(a, x):
    out = insert_unique(a, x)
    assert is_ascending(out)
    assert len(out) in (len(x), len(x) + 1)
    assert a in out
    assert set(x) <= set(out)


def test_union_identity_and_idempotence():
    assert union_sets((), (M1,)) == (M1,)
    assert union_sets((M1,), (M1,)) == (M1,)


def test_union_interleaves():
    a, b, c = sorted([M1, M2, M3])
    # oracle: sort-and-dedup of concatenation
    assert union_sets((a, c), (b,)) == tuple(sorted({a, b, c}))


@given(ordered_ints, ordered_ints, ordered_ints)
def test_union_algebra(x, y, z):
    assert union_sets(x, y) == union_sets(y, x)
    assert union_sets(x, x) == x
    assert union_sets(union_sets(x, y), z) == union_sets(x, union_sets(y, z))
    assert is_ascending(union_sets(x, y))


def test_difference_identity_and_self():
    assert difference((M1, M2, M3), ()) == (M1, M2, M3)
    assert difference((M1, M2), (M1, M2)) == ()


def test_difference_filters():
    # oracle: filter by membership
    assert difference(("a", "b", "c"), ("b",)) == ("a", "c")


@given(st.lists(st.integers(-10, 10), max_size=10), st.lists(st.integers(-10, 10), max_size=10))
def test_difference_partitions(x, y):
    kept = difference(x, y)
    dropped = tuple(e for e in x if e in set(y))
    assert sorted(kept + dropped) == sorted(x)


def test_map_ops():
    m = ()
    m = map_set(m, 2, "b")
    m = map_set(m, 1, "a")
    m = map_set(m, 3, "c")
    assert map_keys(m) == (1, 2, 3)
    assert map_get(m, 2) == "b"
    assert map_get(m, 9) is None
    m = map_set(m, 2, "B")  # replace in place
    assert m == ((1, "a"), (2, "B"), (3, "c"))
    assert map_delete(m, 2) == ((1, "a"), (3, "c"))
    assert map_delete(m, 9) == m  # deleting absent keys is a no-op


def test_message_json_round_trip():
    obj = M1.to_obj()
    assert obj == {"pld": "a", "tp": "t1", "or": 5}
    assert Message.from_obj(obj) == M1


def _state():
    return fn.FloodState((
        (1, fn.FloodPeer(pubs=("t1",), nsubs=(("t1", (2,)),), pending=(M1,))),
        (2, fn.FloodPeer(subs=("t1",), seen=(M2, M3))),
    ))


def test_state_hash_is_the_hash_of_its_entries():
    s = _state()
    assert hash(s) == hash(s.entries)
    assert hash(s) == hash(s.entries)  # the kept hash, read a second time


def test_equal_states_built_apart_are_equal_and_hash_equal():
    a, b = _state(), _state()
    assert a is not b
    hash(a)  # a keeps its hash, b does not yet
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_states_of_different_models_stay_unequal():
    assert fn.FloodState() != bn.BroadcastState()
    assert bn.BroadcastState() != fn.FloodState()


def test_peer_map_hash_is_hand_written():
    # the dataclass decorator compiles the methods it generates from a string
    assert PeerMap.__dict__["__hash__"].__code__.co_filename == core.__file__
    assert fn.FloodState.__hash__ is PeerMap.__hash__
    assert bn.BroadcastState.__hash__ is PeerMap.__hash__


def test_kept_facts_are_invisible():
    s, fresh = _state(), _state()
    before = (repr(s), s.to_obj())
    hash(s), fn.is_good_state(s), s.memo("probe", lambda x: 42)
    assert (repr(s), s.to_obj()) == before
    assert s == fresh and fresh == s
    assert s.memo("probe", lambda x: 0) == 42  # decided once


# indented_json must give exactly the bytes of the standard encoder.

json_strings = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", '"', "\\", "\x00", "\x1f", "\x7f", "\n\t", "\u00e9", "\u2028", "\U0001f600", "\ud800"]
)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, 1, -1, 2**64, -(10**40)])
    | st.floats()
    | st.sampled_from([-0.0, 0.0, 1e-7, 1e22, 1e16, 5e-324, 1.7976931348623157e308])
    | json_strings
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(json_strings, inner, max_size=5),
    max_leaves=40,
)


def standard(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(json_documents)
def test_indented_json_is_the_standard_encoding(obj):
    assert indented_json(obj) == standard(obj)


@pytest.mark.parametrize("obj", [{10: 0, 2: [1]}, {0.5: 0, -1e22: 1}, {True: 0, False: 1}, {None: {}}])
def test_indented_json_converts_non_string_keys_as_the_standard_encoder(obj):
    assert indented_json(obj) == standard(obj)


@pytest.mark.parametrize("obj", [object(), {"a": {1, 2}}, [b"bytes"], {(1, 2): 0}, {"a": 1, 2: 0}])
def test_indented_json_refuses_what_json_cannot_encode(obj):
    with pytest.raises(TypeError):
        standard(obj)
    with pytest.raises(TypeError):
        indented_json(obj)


def test_indented_json_reproduces_real_reports():
    with resources.as_file(resources.files("pubsub_refine") / "scenarios" / "figure1.json") as figure1:
        reports = [
            fuzz_run(GeneratorConfig(max_peers=8, max_topics=4, max_messages=6, steps=20, seed=101), traces=500),
            scenario_run(figure1),
            run_exhaustive(1, 1, 1),
            *(run_fault(fault) for fault in FAULTS),
        ]
    assert len(reports) == 10
    for report in reports:
        obj = report.to_obj()
        assert indented_json(obj) == standard(obj)
