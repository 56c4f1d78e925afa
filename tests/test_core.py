import itertools

from hypothesis import given
from hypothesis import strategies as st

from pubsub_refine import broadcast_model as bn
from pubsub_refine import core
from pubsub_refine import flood_model as fn
from pubsub_refine.core import (
    Message,
    PeerMap,
    difference,
    insert_unique,
    is_ascending,
    map_delete,
    map_get,
    map_keys,
    map_set,
    ordered_set,
    union_sets,
)

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


def test_message_repr_hash_and_order_are_those_of_its_fields():
    # guard and replay errors quote the repr
    assert repr(M1) == "Message(payload='a', topic='t1', origin=5)"
    assert hash(M1) == hash(("a", "t1", 5))
    assert sorted([M3, M2, M1]) == [M1, M2, M3]
    assert Message.from_obj(M1.to_obj()) == M1 and M1.to_obj() == {"pld": "a", "tp": "t1", "or": 5}


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



@given(st.lists(st.integers(-5, 5), max_size=8))
def test_ordered_set_returns_an_ordered_set_as_it_is(items):
    normalized = ordered_set(items)
    assert normalized == tuple(sorted(set(items)))
    assert ordered_set(normalized) is normalized
    assert ordered_set(tuple(items)) == normalized


def test_a_refusal_is_formatted_only_when_read():
    class Loud(Message):
        def __repr__(self):
            raise AssertionError("formatted")

    m = Loud("loud", "t1", 1)
    produced = fn.produce(m, fn.FloodState(((1, fn.FloodPeer(pubs=("t1",))),)))
    assert core.enabled(fn.produce, m, produced) is None  # refused as already pending, its text never built


def test_every_refusal_reads_as_it_always_has():
    m = Message("x", "t1", 1)
    s = fn.FloodState(((1, fn.FloodPeer(pubs=("t1",), nsubs=(("t1", (2,)),))), (2, fn.FloodPeer(subs=("t1",)))))
    produced = fn.produce(m, s)
    w = bn.BroadcastState(((1, bn.BroadcastPeer(pubs=("t1",), seen=(m,))),))
    refusals = [
        (lambda: fn.produce(m, produced), "produce: message Message(payload='x', topic='t1', origin=1) "
                                          "already pending or seen"),
        (lambda: fn.produce(Message("x", "t1", 7), s), "produce: origin 7 not in state"),
        (lambda: fn.produce(Message("x", "t'2", 1), s), "produce: origin 1 does not publish topic \"t'2\""),
        (lambda: fn.forward(2, m, produced), "forward: peer 2 is not the designated forwarder 1"),
        (lambda: fn.forward(9, m, produced), "forward: peer 9 not in state"),
        (lambda: fn.find_forwarder(s, m), "find-forwarder: message Message(payload='x', topic='t1', origin=1) "
                                          "not pending anywhere"),
        (lambda: fn.join(1, (), (), (), s), "join: peer 1 already in state"),
        (lambda: fn.join(3, (), (), (3,), s), "join: peer 3 listed among its own neighbors"),
        (lambda: fn.leave(1, produced), "leave: peer 1 still has pending messages"),
        (lambda: fn.subscribe(9, ("t1",), s), "subscribe: peer 9 not in state"),
        (lambda: bn.broadcast(m, w),
         "broadcast: message Message(payload='x', topic='t1', origin=1) was already seen"),
        (lambda: bn.broadcast_partial(Message("y", "t1", 1), (2, 1), w),
         "broadcast-partial: receivers (2, 1) not strictly ascending"),
        (lambda: bn.broadcast_partial(Message("y", "t1", 1), (1, 4), w),
         "broadcast-partial: receivers [4] not in state"),
    ]
    for refuse, text in refusals:
        try:
            refuse()
        except core.ContractError as e:
            assert str(e) == text
        else:
            raise AssertionError(f"not refused: {text}")
    assert str(core.ContractError("planted {}")) == "planted {}"  # a text without arguments is not formatted
