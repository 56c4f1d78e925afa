import itertools

import pytest

from pubsub_refine.broadcast_model import (
    _STEP_TESTS,
    BroadcastPeer,
    BroadcastState,
    broadcast,
    broadcast_partial,
    is_new_message,
    is_step,
    join,
    leave,
    message_receivers,
    message_witness,
    step_kind,
    subscribe,
    unsubscribe,
)
from pubsub_refine.core import ContractError, Message, join_witness, topics_witness


def state(**peers):
    return BroadcastState(tuple(sorted((int(p), pst) for p, pst in peers.items())))


def peer(pubs=(), subs=(), seen=()):
    return BroadcastPeer(tuple(pubs), tuple(subs), tuple(seen))


M = Message("x", "t1", 1)


def scan_seen(m, s):
    # oracle: scan all seen sets
    return all(m not in pst.seen for _, pst in s.entries)


def test_new_message_empty_state():
    assert is_new_message(M, BroadcastState())


def test_new_message_scan_oracle():
    s1 = state(**{"2": peer(seen=[M])})
    s2 = state(**{"1": peer(), "2": peer()})
    for m, s in [(M, s1), (M, s2)]:
        assert is_new_message(m, s) == scan_seen(m, s)
    assert not is_new_message(M, s1)
    assert is_new_message(M, s2)


def test_broadcast_refuses_missing_origin():
    with pytest.raises(ContractError, match="not in state"):
        broadcast(M, state(**{"2": peer(subs=["t1"])}))


def test_broadcast_guard_conjuncts():
    s = state(**{"1": peer(pubs=["t1"])})
    assert broadcast(M, s).get(1).seen == (M,)
    stale = state(**{"1": peer(pubs=["t1"], seen=[M])})
    with pytest.raises(ContractError, match="already seen"):
        broadcast(M, stale)
    wrong_topic = state(**{"1": peer(pubs=["t2"])})
    with pytest.raises(ContractError, match="does not publish"):
        broadcast(M, wrong_topic)


def test_broadcast_delivers_to_subscribers_and_origin():
    s = state(**{"1": peer(pubs=["t1"]), "2": peer(subs=["t1"])})
    u = broadcast(M, s)
    assert u.get(1).seen == (M,)
    assert u.get(2).seen == (M,)


def test_broadcast_skips_other_topics():
    s = state(**{"1": peer(pubs=["t1"]), "2": peer(subs=["t2"])})
    u = broadcast(M, s)
    assert u.get(1).seen == (M,)
    assert u.get(2) == s.get(2)


def test_broadcast_preserves_keys_and_topics():
    s = state(**{"1": peer(pubs=["t1"], subs=["t2"]), "2": peer(subs=["t1"])})
    u = broadcast(M, s)
    assert u.keys() == s.keys()
    for p in s.keys():
        assert u.get(p).pubs == s.get(p).pubs
        assert u.get(p).subs == s.get(p).subs


def test_broadcast_contract_errors():
    with pytest.raises(ContractError, match="already seen"):
        broadcast(M, state(**{"1": peer(pubs=["t1"], seen=[M])}))
    with pytest.raises(ContractError, match="origin"):
        broadcast(M, BroadcastState())
    with pytest.raises(ContractError, match="publish"):
        broadcast(M, state(**{"1": peer()}))


def test_broadcast_result_not_new():
    s = state(**{"1": peer(pubs=["t1"])})
    assert not is_new_message(M, broadcast(M, s))


def test_broadcast_partial_no_receivers():
    s = state(**{"1": peer(), "2": peer()})
    assert broadcast_partial(M, (), s) == s


def test_broadcast_partial_selected_only():
    s = state(**{"1": peer(), "2": peer(), "3": peer()})
    u = broadcast_partial(M, (2,), s)
    assert u.get(2).seen == (M,)
    assert u.get(1).seen == () and u.get(3).seen == ()


def test_broadcast_partial_of_all_subscribers_equals_broadcast():
    # oracle: compute both sides on small states covering sub/non-sub/origin mixes
    combos = itertools.product([(), ("t1",)], repeat=3)
    for subs1, subs2, subs3 in combos:
        s = state(
            **{
                "1": peer(pubs=["t1"], subs=subs1),
                "2": peer(subs=subs2),
                "3": peer(subs=subs3),
            }
        )
        receivers = tuple(
            p for p, pst in s.entries if "t1" in pst.subs or p == M.origin
        )
        assert broadcast_partial(M, receivers, s) == broadcast(M, s)


def test_broadcast_partial_rejects_bad_receivers():
    s = state(**{"1": peer(), "2": peer()})
    with pytest.raises(ContractError, match="ascending"):
        broadcast_partial(M, (2, 1), s)
    with pytest.raises(ContractError, match="not in state"):
        broadcast_partial(M, (5,), s)
    with pytest.raises(ContractError, match="already seen"):
        broadcast_partial(M, (), state(**{"1": peer(seen=[M])}))


def test_receivers_filter_oracle():
    assert message_receivers(M, BroadcastState()) == ()
    s = state(**{"1": peer(seen=[M]), "2": peer(), "3": peer(seen=[M])})
    # oracle: filter keys by seen membership
    assert message_receivers(M, s) == tuple(p for p, pst in s.entries if M in pst.seen)
    assert message_receivers(M, s) == (1, 3)


def test_receivers_round_trip_partial():
    s = state(**{"1": peer(), "2": peer(), "3": peer(), "4": peer()})
    for receivers in [(), (1,), (2, 4), (1, 2, 3, 4)]:
        u = broadcast_partial(M, receivers, s)
        assert message_receivers(M, u) == receivers


def test_subscribe_empty_is_identity():
    s = state(**{"1": peer(subs=["t1"])})
    assert subscribe(1, (), s) == s


def test_subscribe_union_oracle():
    s = state(**{"1": peer(subs=["t1"])})
    u = subscribe(1, ("t2",), s)
    assert u.get(1).subs == tuple(sorted({"t1", "t2"}))


def test_unsubscribe_difference_oracle():
    s = state(**{"1": peer(subs=["t1", "t2"])})
    u = unsubscribe(1, ("t1",), s)
    assert u.get(1).subs == ("t2",)


def test_subscribe_requires_peer():
    with pytest.raises(ContractError):
        subscribe(1, ("t1",), BroadcastState())
    with pytest.raises(ContractError):
        unsubscribe(1, ("t1",), BroadcastState())


def test_join_singleton():
    u = join(1, ("t1",), (), BroadcastState())
    assert u == state(**{"1": peer(pubs=["t1"])})


def test_join_inserts_sorted():
    s = state(**{"1": peer(), "3": peer()})
    u = join(2, (), (), s)
    assert u.keys() == (1, 2, 3)


def test_join_then_leave_round_trip():
    s = state(**{"1": peer(subs=["t1"]), "4": peer()})
    assert leave(2, join(2, ("t1",), ("t2",), s)) == s


def test_join_leave_contracts():
    s = state(**{"1": peer()})
    with pytest.raises(ContractError, match="already"):
        join(1, (), (), s)
    with pytest.raises(ContractError, match="not in state"):
        leave(2, s)


def test_leave_removes_only_target():
    a, b, c = peer(subs=["t1"]), peer(subs=["t2"]), peer(subs=["t3"])
    s = BroadcastState(((1, a), (2, b), (3, c)))
    assert leave(2, s) == BroadcastState(((1, a), (3, c)))
    assert leave(1, state(**{"1": peer()})) == BroadcastState()


def test_message_witness_identical_states():
    s = state(**{"1": peer(seen=[M])})
    assert message_witness(s, s) is None


def test_message_witness_round_trip():
    for subs2 in [(), ("t1",)]:
        s = state(**{"1": peer(pubs=["t1"], subs=["t1"]), "2": peer(subs=subs2)})
        assert message_witness(s, broadcast(M, s)) == M


def test_message_witness_subs_only_difference():
    s = state(**{"1": peer(subs=["t1"])})
    u = state(**{"1": peer(subs=["t1", "t2"])})
    assert message_witness(s, u) is None


def test_topics_witness_round_trip_and_reversed():
    s = state(**{"1": peer(subs=["t1"]), "2": peer()})
    u = subscribe(1, ("t2",), s)
    assert topics_witness(s, u) == (1, ("t2",))
    v = unsubscribe(1, ("t1",), s)
    assert topics_witness(v, s) == (1, ("t1",))
    assert topics_witness(s, s) is None


def test_join_witness_cases():
    qst = peer(subs=["t1"])
    assert join_witness(BroadcastState(), BroadcastState(((2, qst),))) == (2, qst)
    s = state(**{"1": peer(), "3": peer()})
    u = join(2, ("t1",), ("t2",), s)
    assert join_witness(s, u) == (2, BroadcastPeer(("t1",), ("t2",), ()))
    # reversed arguments recover the leaver
    v = leave(3, s)
    assert join_witness(v, s) == (3, peer())
    # same key, different peer state: no join happened
    assert join_witness(state(**{"1": peer()}), state(**{"1": peer(subs=["t1"])})) is None


def test_step_skip():
    s = state(**{"1": peer()})
    assert is_step(s, s)
    assert step_kind(s, s) == "skip"
    assert [kind for kind, test in _STEP_TESTS.items() if test(s, s)] == ["skip"]


def test_step_broadcast_pair():
    s = state(**{"1": peer(pubs=["t1"]), "2": peer(subs=["t1"])})
    u = broadcast(M, s)
    assert is_step(s, u)
    assert _STEP_TESTS["broadcast"](s, u)


def test_step_constructed_round_trips():
    s = state(**{"1": peer(pubs=["t1"], subs=["t1"]), "2": peer(subs=["t2"])})
    cases = [
        ("broadcast", broadcast(M, s)),
        ("broadcast-partial", broadcast_partial(M, (2,), s)),
        ("subscribe", subscribe(2, ("t3",), s)),
        ("unsubscribe", unsubscribe(1, ("t1",), s)),
        ("join", join(3, ("t1",), ("t1",), s)),
        ("leave", leave(2, s)),
    ]
    for kind, u in cases:
        assert is_step(s, u), kind
        assert _STEP_TESTS[kind](s, u)


def test_transitions_preserve_well_formedness():
    from pubsub_refine.core import is_ascending

    def well_formed(st):
        keys = st.keys()
        assert is_ascending(keys)
        for _, pst in st.entries:
            assert is_ascending(pst.pubs) and is_ascending(pst.subs)
            assert is_ascending(pst.seen)

    s = state(**{"1": peer(pubs=["t1"], subs=["t1"]), "3": peer(subs=["t1", "t2"])})
    m2 = Message("z", "t1", 1)
    succs = [
        broadcast(M, s),
        broadcast_partial(M, (1, 3), s),
        subscribe(3, ("t0", "t9"), s),
        unsubscribe(3, ("t1",), s),
        join(2, ("t2", "t1"), ("t1",), s),
        leave(1, s),
    ]
    succs.append(broadcast(m2, broadcast(M, s)))  # second message interleaves into seen
    for u in succs:
        well_formed(u)


def test_step_rejects_two_peer_corruption():
    m2 = Message("y", "t1", 2)
    pairs = [
        (state(**{"1": peer(), "2": peer()}), state(**{"1": peer(seen=[M]), "2": peer(seen=[m2])})),
        # partial deliveries that also change the key set: a peer dropped,
        # a peer added behind the receiver, a peer added in front of s
        (state(**{"1": peer(), "2": peer()}), state(**{"1": peer(seen=[M])})),
        (state(**{"1": peer()}), state(**{"1": peer(seen=[M]), "2": peer(seen=[M])})),
        (state(**{"2": peer()}), state(**{"1": peer(seen=[M]), "2": peer()})),
    ]
    for s, u in pairs:
        assert not is_step(s, u), (s, u)
        assert step_kind(s, u) is None
