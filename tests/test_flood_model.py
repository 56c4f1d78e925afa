from dataclasses import replace

import pytest

from pubsub_refine import flood_model as fn
from pubsub_refine.core import ContractError, Message, enabled, insert_unique, join_witness, ordered_set, topics_witness
from pubsub_refine.flood_model import (
    FloodPeer,
    FloodState,
    find_forwarder,
    forward,
    is_good_state,
    is_new_message,
    is_step,
    join,
    leave,
    pending_messages,
    produce,
    self_tracking_violations,
    step_kinds,
    subscribe,
    tracked_peers,
    unordered_seen_violations,
    unsubscribe,
)

M = Message("x", "t1", 1)
M2 = Message("y", "t2", 2)


def state(**peers):
    return FloodState(tuple(sorted((int(p), pst) for p, pst in peers.items())))


def peer(pubs=(), subs=(), nsubs=(), pending=(), seen=()):
    nsubs = tuple(sorted((tp, tuple(ps)) for tp, ps in dict(nsubs).items()))
    return FloodPeer(tuple(pubs), tuple(subs), nsubs, tuple(pending), tuple(seen))


def test_pending_messages_empty():
    assert pending_messages(FloodState()) == ()
    assert pending_messages(state(**{"1": peer(), "2": peer()})) == ()


def test_pending_messages_union_oracle():
    s = state(**{"1": peer(pending=[M]), "2": peer(pending=[M2, M])})
    # oracle: sort-and-dedup of concatenation
    assert pending_messages(s) == tuple(sorted({M, M2}))


def test_new_message_scans_pending_and_seen():
    assert is_new_message(M, FloodState())
    assert not is_new_message(M, state(**{"3": peer(pending=[M])}))
    assert not is_new_message(M, state(**{"3": peer(seen=[M])}))


def test_produce_adds_to_origin_pending():
    s = state(**{"1": peer(pubs=["t1"])})
    u = produce(M, s)
    assert u.get(1).pending == (M,)
    assert u.get(1).seen == ()


def test_produce_pending_union_property():
    s = state(**{"1": peer(pubs=["t1"]), "2": peer(pending=[M2])})
    u = produce(M, s)
    assert pending_messages(u) == insert_unique(M, pending_messages(s))


def test_produce_contract_errors():
    with pytest.raises(ContractError, match="origin"):
        produce(M, state(**{"2": peer()}))
    with pytest.raises(ContractError, match="publish"):
        produce(M, state(**{"1": peer()}))
    with pytest.raises(ContractError, match="already"):
        produce(M, state(**{"1": peer(pubs=["t1"], pending=[M])}))


def test_forward_without_targets():
    s = state(**{"1": peer(pending=[M])})
    u = forward(1, M, s)
    assert u.get(1).pending == ()
    assert u.get(1).seen == (M,)


def test_forward_figure_first_hop():
    # node 1 holds pending m and tracks node 3 under m's topic
    s = state(
        **{
            "1": peer(pubs=["t1"], nsubs={"t1": (3,)}, pending=[M]),
            "3": peer(subs=["t1"]),
        }
    )
    u = forward(1, M, s)
    assert u.get(1).seen == (M,)
    assert u.get(1).pending == ()
    assert u.get(3).pending == (M,)


def test_forward_skips_neighbor_that_saw_it():
    s = state(
        **{
            "1": peer(nsubs={"t1": (2,)}, pending=[M]),
            "2": peer(seen=[M]),
        }
    )
    u = forward(1, M, s)
    assert u.get(2) == s.get(2)


def test_forward_skips_absent_neighbor():
    # stale nsubs reference to a peer that already left
    s = state(**{"3": peer(nsubs={"t1": (1, 2)}, pending=[M]), "2": peer(subs=["t1"])})
    u = forward(3, M, s)
    assert u.keys() == (2, 3)
    assert u.get(2).pending == (M,)


def test_forward_keeps_topic_fields():
    s = state(**{"1": peer(pubs=["t1"], subs=["t2"], nsubs={"t1": (2,)}, pending=[M]), "2": peer()})
    u = forward(1, M, s)
    for p in (1, 2):
        assert u.get(p).pubs == s.get(p).pubs
        assert u.get(p).subs == s.get(p).subs
        assert u.get(p).nsubs == s.get(p).nsubs


def test_forward_pending_monotonicity():
    # the pooled pending set either keeps m (someone still holds it) or
    # drops exactly m; other messages never change status
    import random

    from pubsub_refine.generate import GeneratorConfig, gen_good_state

    cfg = GeneratorConfig(max_peers=5, max_topics=3, max_messages=4, seed=14)
    rng = random.Random(cfg.seed)
    checked = 0
    for _ in range(400):
        s = gen_good_state(cfg, rng)
        for p, pst in s.entries:
            for m in pst.pending:
                u = enabled(forward, p, m, s)
                if u is None:  # p holds m but is not its designated forwarder
                    continue
                before = set(pending_messages(s))
                after = set(pending_messages(u))
                assert after in (before, before - {m})
                checked += 1
    assert checked > 200


def test_forward_contract_errors():
    with pytest.raises(ContractError, match="not in state"):
        forward(9, M, FloodState())
    with pytest.raises(ContractError, match="not pending"):
        forward(1, M, state(**{"1": peer()}))


def test_find_forwarder_cases():
    assert find_forwarder(state(**{"4": peer(pending=[M])}), M) == 4
    s = state(**{"2": peer(pending=[M]), "5": peer(pending=[M])})
    # oracle: linear scan in key order
    assert find_forwarder(s, M) == 2
    s2 = state(**{"1": peer(), "4": peer(), "7": peer(pending=[M])})
    assert find_forwarder(s2, M) == 7
    with pytest.raises(ContractError):
        find_forwarder(state(**{"1": peer()}), M)


def test_find_forwarder_output_contract():
    s = state(**{"2": peer(pending=[M]), "5": peer(pending=[M])})
    p = find_forwarder(s, M)
    assert p in s
    assert M in s.get(p).pending
    assert not is_new_message(M, s)


def test_subscribe_empty_is_identity():
    s = state(**{"1": peer(subs=["t1"]), "2": peer(nsubs={"t1": (1,)})})
    assert subscribe(1, (), s) == s
    assert subscribe(1, ("t1",), s) == s  # already subscribed: nothing to tell anyone


def test_subscribe_updates_trackers():
    s = state(**{"1": peer(subs=["t1"]), "2": peer(nsubs={"t1": (1,)}), "3": peer()})
    u = subscribe(1, ("t2",), s)
    assert u.get(1).subs == ("t1", "t2")
    # peer 2 tracks 1, so it learns about the new topic; peer 3 does not track 1
    assert u.get(2).nsubs == (("t1", (1,)), ("t2", (1,)))
    assert u.get(3).nsubs == ()


def test_unsubscribe_updates_trackers_and_drops_empty():
    s = state(**{"2": peer(subs=["t1"]), "3": peer(nsubs={"t1": (2,)})})
    u = unsubscribe(2, ("t1",), s)
    assert u.get(2).subs == ()
    assert u.get(3).nsubs == ()


def test_unsubscribe_ignores_topics_not_subscribed():
    s = state(**{"2": peer(subs=["t1"]), "3": peer(nsubs={"t1": (2,), "t9": (2,)})})
    u = unsubscribe(2, ("t9",), s)  # not subscribed to t9: no-op
    assert u == s


def test_subscribe_contract():
    with pytest.raises(ContractError):
        subscribe(9, ("t1",), FloodState())
    with pytest.raises(ContractError):
        unsubscribe(9, ("t1",), FloodState())


def test_join_empty_network():
    u = join(1, ("t1",), (), (), FloodState())
    assert u == state(**{"1": peer(pubs=["t1"])})


def test_join_two_sided_tracking():
    s = state(**{"1": peer(subs=["t1"])})
    u = join(2, (), ("t1",), (1,), s)
    # both update phases evaluated by hand
    assert u.get(1).nsubs == (("t1", (1, 2)),) or u.get(1).nsubs == (("t1", (2,)),)
    assert 2 in dict(u.get(1).nsubs)["t1"]
    assert u.get(2).nsubs == (("t1", (1,)),)
    assert u.get(2).pending == () and u.get(2).seen == ()


def test_join_skips_absent_and_subscriptionless_neighbors():
    s = state(**{"1": peer(subs=["t1"]), "2": peer()})
    u = join(5, (), ("t1",), (1, 2, 9), s)
    # only peer 1 is visible: present and subscribed to something
    assert u.get(5).nsubs == (("t1", (1,)),)
    assert u.get(1).nsubs == (("t1", (5,)),)
    assert u.get(2).nsubs == ()


def test_join_preserves_goodness():
    s = state(**{"1": peer(subs=["t1"], nsubs={"t1": (2,)}), "2": peer(subs=["t1"])})
    assert is_good_state(s)
    u = join(3, ("t1",), ("t1",), (1, 2), s)
    assert is_good_state(u)


def test_join_contract_errors():
    with pytest.raises(ContractError, match="already"):
        join(1, (), (), (), state(**{"1": peer()}))
    with pytest.raises(ContractError, match="own neighbors"):
        join(1, (), (), (1,), FloodState())


def test_leave_and_stale_nsubs():
    s = state(**{"1": peer(), "2": peer(nsubs={"t1": (1,)})})
    u = leave(1, s)
    assert u.keys() == (2,)
    assert u.get(2).nsubs == (("t1", (1,)),)  # stale reference is allowed
    with pytest.raises(ContractError):
        leave(9, s)


def test_topics_witness_round_trip():
    s = state(**{"1": peer(subs=["t1"]), "2": peer(nsubs={"t1": (1,)})})
    u = subscribe(1, ("t2",), s)
    assert topics_witness(s, u) == (1, ("t2",))
    assert topics_witness(s, s) is None


def test_topics_witness_sees_past_tracker_updates():
    # the tracker (peer 1) precedes the subscriber (peer 2) in key order;
    # its nsubs change must not hide the real witness
    s = state(**{"1": peer(nsubs={"t1": (2,)}), "2": peer(subs=["t1"])})
    u = subscribe(2, ("t2",), s)
    assert topics_witness(s, u) == (2, ("t2",))
    v = unsubscribe(2, ("t1",), s)
    assert topics_witness(v, s) == (2, ("t1",))


def test_join_witness_round_trips():
    s = state(**{"1": peer(subs=["t1"]), "3": peer()})
    u = join(2, ("t1",), ("t1",), (1,), s)
    assert join_witness(s, u) == (2, u.get(2))
    v = leave(3, s)
    assert join_witness(v, s) == (3, peer())
    assert join_witness(s, s) is None


def test_tracked_peers_unions_values():
    nsubs = (("t1", (3, 5)), ("t2", (1, 3)))
    assert tracked_peers(nsubs) == (1, 3, 5)


def test_good_state_checks():
    assert is_good_state(FloodState())
    bad1 = state(**{"3": peer(nsubs={"t1": (3,)})})
    assert not is_good_state(bad1)
    assert self_tracking_violations(bad1) == (3,)
    a, b = sorted([M, M2])
    bad2 = state(**{"2": peer(seen=[b, a])})
    assert not is_good_state(bad2)
    assert unordered_seen_violations(bad2) == (2,)
    dup = state(**{"2": peer(seen=[a, a])})
    assert not is_good_state(dup)


def test_step_skip_and_forward():
    s = state(**{"1": peer(nsubs={"t1": (2,)}, pending=[M]), "2": peer(subs=["t1"])})
    assert is_step(s, s)
    u = forward(find_forwarder(s, M), M, s)
    assert is_step(s, u)
    assert "forward" in step_kinds(s, u)


def test_step_constructed_round_trips():
    s = state(
        **{
            "1": peer(pubs=["t1"], subs=["t1"], nsubs={"t1": (3,)}),
            "2": peer(subs=["t1"], nsubs={"t1": (1, 3)}, pending=[M2]),
            "3": peer(subs=["t1"]),
        }
    )
    cases = [
        ("produce", produce(M, s)),
        ("forward", forward(2, M2, s)),
        ("subscribe", subscribe(3, ("t2",), s)),
        ("unsubscribe", unsubscribe(1, ("t1",), s)),
        ("join", join(4, ("t1",), ("t1",), (1, 2, 3), s)),
        ("leave", leave(3, s)),
    ]
    for kind, u in cases:
        assert is_step(s, u), kind
        assert kind in step_kinds(s, u)


def test_step_rejects_leave_with_pending():
    s = state(**{"1": peer(pending=[M]), "2": peer()})
    u = s.without_peer(1)  # leave refuses it, and so must the relation
    assert not is_step(s, u)


def test_leave_refuses_peer_with_pending():
    s = state(**{"1": peer(pending=[M]), "2": peer()})
    with pytest.raises(ContractError, match="pending"):
        leave(1, s)
    assert leave(2, s) == state(**{"1": peer(pending=[M])})


def test_step_subscribe_with_mixed_topics_round_trips():
    s = state(**{"1": peer(nsubs={"t1": (2,)}), "2": peer(subs=["t1"])})
    # subscribing to one fresh and one held topic equals subscribing to the fresh one
    u = subscribe(2, ("t1", "t2"), s)
    assert u == subscribe(2, ("t2",), s)
    assert is_step(s, u)
    v = unsubscribe(2, ("t1", "t9"), s)
    assert v == unsubscribe(2, ("t1",), s)
    assert is_step(s, v)


def test_ordered_set_normalizes_join_args():
    s = state(**{"1": peer(subs=["t1"])})
    assert join(2, ("t2", "t1", "t2"), (), (), s).get(2).pubs == ordered_set(("t1", "t2"))


# Witness edge cases: each accepted pair is accepted by is_step and
# classified by step_kinds as exactly the kind that produced it.


def assert_only_kind(kind, s, u):
    assert is_step(s, u)
    assert step_kinds(s, u) == (kind,)


def test_forward_witness_forwarder_above_receiver():
    s = state(**{"1": peer(subs=["t1"]), "3": peer(nsubs={"t1": (1,)}, pending=[M])})
    u = forward(3, M, s)
    assert u.get(1).pending == (M,)  # the first changed entry gained, not lost
    assert_only_kind("forward", s, u)


def test_forward_witness_message_behind_pending_head():
    s = state(**{"1": peer(nsubs={"t1": (2,)}, pending=[M2, M]), "2": peer(subs=["t1"])})
    u = forward(1, M, s)
    assert u.get(1).pending == (M2,)
    assert_only_kind("forward", s, u)


def test_forward_witness_message_pending_at_two_peers():
    s = state(
        **{
            "1": peer(nsubs={"t1": (3,)}, pending=[M]),
            "2": peer(nsubs={"t1": (3,)}, pending=[M]),
            "3": peer(subs=["t1"]),
        }
    )
    assert find_forwarder(s, M) == 1
    assert_only_kind("forward", s, forward(1, M, s))
    # only the designated (lowest-key) forwarder may forward it: the guard
    # refuses peer 2, and the relation rejects the state its forward would give
    with pytest.raises(ContractError, match="designated forwarder"):
        forward(2, M, s)
    by_two = state(
        **{
            "1": peer(nsubs={"t1": (3,)}, pending=[M]),
            "2": peer(nsubs={"t1": (3,)}, seen=[M]),
            "3": peer(subs=["t1"], pending=[M]),
        }
    )
    assert not is_step(s, by_two)
    assert step_kinds(s, by_two) == ()


def test_produce_witness_origin_not_first_peer():
    m = Message("z", "t1", 2)
    s = state(**{"1": peer(subs=["t1"], pending=[M2]), "2": peer(pubs=["t1"])})
    assert_only_kind("produce", s, produce(m, s))


def test_forward_witness_rejects_two_peers_losing_messages():
    s = state(**{"1": peer(pending=[M]), "2": peer(pending=[M2])})
    u = forward(2, M2, forward(1, M, s))
    assert not is_step(s, u)
    assert step_kinds(s, u) == ()


def _cleared_seen(s, u, p, m):
    return u.with_peer(p, replace(u.get(p), seen=()))


def _flooded_to_nobody(s, u, p, m):
    return s.with_peer(p, u.get(p))


def _not_marked_seen(s, u, p, m):
    return u.with_peer(p, replace(u.get(p), seen=s.get(p).seen))


def _requeued_at_a_peer_that_saw_it(s, u, p, m):
    return FloodState(tuple((q, replace(qst, pending=(m,) + qst.pending) if m in qst.seen and q != p else qst)
                            for q, qst in u.entries))


@pytest.mark.parametrize("mutant", [_cleared_seen, _flooded_to_nobody, _not_marked_seen,
                                    _requeued_at_a_peer_that_saw_it])
def test_the_entry_wise_gate_admits_a_mutant_forward_for_its_replay(mutant, monkeypatch):
    # a buggy forward is replayed as it is and still classified a forward, so
    # the obligations, not the gate, are what must catch it
    a = Message("a", "t1", 1)
    real = fn.forward

    def mutated(p, m, s):
        return mutant(s, real(p, m, s), p, m)  # real's guard still names the forwarder

    monkeypatch.setattr(fn, "forward", mutated)
    s = state(**{
        "1": peer(pubs=["t1"], nsubs={"t1": [2, 3]}, pending=[M], seen=[a]),
        "2": peer(subs=["t1"], seen=[M]),
        "3": peer(subs=["t1"]),
    })
    u = fn.forward(1, M, s)
    assert u != real(1, M, s)
    assert fn.step_kinds(s, u) == ("forward",)
