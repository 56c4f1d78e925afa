import hashlib
import random
import re
from dataclasses import replace

import pytest

from pubsub_refine import flood_model as fn
from pubsub_refine.core import Message, canonical_json, subsets
from pubsub_refine.exhaustive import enumerate_flood_states, flood_successors, universe_pools
from pubsub_refine.flood_model import FloodPeer, FloodState
from pubsub_refine.generate import GeneratorConfig, gen_good_state
from pubsub_refine.scenario import emit_scenario, parse_scenario
from pubsub_refine.trace import TraceError, TraceEvent, apply_event, make_event, run_trace, state_digest

M = Message("x", "t1", 1)

S = FloodState(
    (
        (1, FloodPeer(pubs=("t1",), subs=("t1",), nsubs=(("t1", (2,)),))),
        (2, FloodPeer(subs=("t1",))),
    )
)


def test_empty_trace():
    assert run_trace(S, []) == [S]


def test_skip_event():
    ev = TraceEvent(0, "skip")
    assert apply_event(S, ev) == S


def test_produce_then_forward():
    produce = make_event(0, "produce", message=M)
    s1 = apply_event(S, produce)
    forward = make_event(1, "forward", peer=1, message=M)
    s2 = apply_event(s1, forward)
    assert s2.get(2).pending == (M,)
    assert run_trace(S, [produce, forward]) == [S, s1, s2]


def test_digests_verified():
    s1 = apply_event(S, TraceEvent(0, "produce", message=M))
    produce = TraceEvent(0, "produce", message=M, pre_digest=state_digest(S), post_digest=state_digest(s1))
    assert run_trace(S, [produce]) == [S, s1]
    for tag in ("pre", "post"):
        with pytest.raises(TraceError, match=f"{tag}-state digest mismatch"):
            run_trace(S, [replace(produce, **{f"{tag}_digest": "0" * 64})])


def whole_state_digest(s):
    return hashlib.sha256(canonical_json(s.to_obj()).encode("utf-8")).hexdigest()


def test_the_digest_is_the_sha256_of_the_whole_state_json():
    rng, cfg = random.Random(7), GeneratorConfig(max_peers=8)
    generated = [gen_good_state(cfg, rng) for _ in range(1000)]
    # ids reach 16, so string order ("10" < "2") and numeric order differ
    assert any(2 <= min(s.keys()) <= 9 and max(s.keys()) >= 10 for s in generated if s.entries)
    two_and_ten = FloodState(((2, FloodPeer(subs=("t1",))), (10, FloodPeer(pubs=("t1",), nsubs=(("t1", (2,)),)))))
    accents = FloodState(((1, FloodPeer(pubs=("\u00e9",), subs=("\u00e9",), pending=(Message("\u00a0\u2028", "\u00e9", 1),))),))
    digested = FloodState(((1, FloodPeer(subs=("t1",))), (3, FloodPeer())))
    state_digest(digested)
    extended = digested.with_peer(12, FloodPeer(seen=(M,)))
    for s in [*generated, two_and_ten, accents, FloodState(()), digested, extended]:
        assert state_digest(s) == whole_state_digest(s), s


def test_a_step_reencodes_only_the_peers_it_replaced(monkeypatch):
    m = Message("only-here", "t-spy", 1)
    s = FloodState(
        (
            (1, FloodPeer(pubs=("t-spy",), subs=("t-spy",), nsubs=(("t-spy", (2,)),))),
            (2, FloodPeer(subs=("t-spy",))),
            (3, FloodPeer(subs=("t-other",))),
        )
    )
    encoded = []
    to_obj = FloodPeer.to_obj
    monkeypatch.setattr(FloodPeer, "to_obj", lambda pst: encoded.append(pst) or to_obj(pst))
    state_digest(s)
    assert len(encoded) == 3
    produced = fn.produce(m, s)
    encoded.clear()
    state_digest(produced)
    assert encoded == [produced.get(1)]
    forwarded = fn.forward(1, m, produced)
    encoded.clear()
    state_digest(forwarded)
    assert encoded == [forwarded.get(1), forwarded.get(2)]
    assert forwarded.get(3) is s.get(3)


def test_a_digested_peer_equals_an_undigested_one():
    digested, fresh = (FloodPeer(pubs=("t1",), pending=(M,)) for _ in range(2))
    state_digest(FloodState(((1, digested),)))
    assert digested == fresh and hash(digested) == hash(fresh) and repr(digested) == repr(fresh)
    assert digested.to_obj() == fresh.to_obj()
    assert FloodState(((1, digested),)) == FloodState(((1, fresh),))


def test_disabled_event_names_step_and_reason():
    produced = apply_event(S, TraceEvent(0, "produce", message=M))
    cases = [
        (S, TraceEvent(3, "leave", peer=9), "leave: peer 9 not in state"),
        (S, TraceEvent(3, "produce", message=Message("x", "t9", 1)), "does not publish topic 't9'"),
        (S, TraceEvent(3, "produce", message=Message("x", "t1", 7)), "origin 7 not in state"),
        (produced, TraceEvent(3, "produce", message=M), "already pending or seen"),
        (S, TraceEvent(3, "forward", message=M), "not pending anywhere"),
        (S, TraceEvent(3, "forward", peer=1, message=M), "not pending anywhere"),
        (S, TraceEvent(3, "subscribe", peer=9, topics=("t1",)), "subscribe: peer 9 not in state"),
        (S, TraceEvent(3, "unsubscribe", peer=9, topics=("t1",)), "unsubscribe: peer 9 not in state"),
    ]
    for s, ev, reason in cases:
        with pytest.raises(TraceError, match=rf"^step 3 \({ev.kind}\): .*{re.escape(reason)}"):
            apply_event(s, ev)


def test_forward_requires_designated_forwarder():
    both = FloodState(
        (
            (1, FloodPeer(pending=(M,))),
            (2, FloodPeer(pending=(M,))),
        )
    )
    with pytest.raises(TraceError, match="designated forwarder"):
        apply_event(both, TraceEvent(0, "forward", peer=2, message=M))
    # without an explicit peer the designated forwarder is used
    out = apply_event(both, TraceEvent(0, "forward", message=M))
    assert out.get(1).seen == (M,)


def test_leave_with_pending_disabled():
    s = FloodState(((1, FloodPeer(pending=(M,))),))
    with pytest.raises(TraceError, match="pending"):
        apply_event(s, TraceEvent(0, "leave", peer=1))


def test_join_disabled_cases():
    with pytest.raises(TraceError, match="already"):
        apply_event(S, TraceEvent(0, "join", peer=1))
    with pytest.raises(TraceError, match="own neighbors"):
        apply_event(S, TraceEvent(0, "join", peer=5, nbrs=(5,)))


def test_unknown_kind():
    with pytest.raises(TraceError, match="unknown"):
        apply_event(S, TraceEvent(0, "explode"))


def test_event_serialization_round_trip_fields():
    ev = make_event(0, "subscribe", peer=2, topics=("t2",))
    obj = ev.to_obj()
    assert obj["kind"] == "subscribe" and obj["peer"] == 2 and obj["topics"] == ["t2"]
    assert "message" not in obj


def test_events_survive_a_scenario_round_trip():
    # every field at its default and off it: peer 0, index 0, a join with
    # pubs, subs and nbrs, and both digests
    digest = state_digest(S)
    events = list(_events(*universe_pools(2, 2, 1))) + [
        TraceEvent(0, "join", peer=3, pubs=("t1",), subs=("t1", "t2"), nbrs=(1, 2)),
        TraceEvent(0, "produce", message=M, pre_digest=digest, post_digest=digest),
        TraceEvent(4, "leave", peer=0, pre_digest=digest, post_digest="f" * 64),
    ]
    assert any(ev.peer == 0 for ev in events)
    assert parse_scenario(emit_scenario(S, events)) == (S, events)


def _enabled(s, ev):
    """The README's rule for when an event is enabled at s, written out independently."""
    present = dict(s.entries)
    match ev.kind:
        case "skip":
            return True
        case "produce":
            m = ev.message
            held = any(m in pst.pending or m in pst.seen for pst in present.values())
            return not held and m.origin in present and m.topic in present[m.origin].pubs
        case "forward":
            holders = [p for p, pst in s.entries if ev.message in pst.pending]
            return bool(holders) and ev.peer in (None, holders[0])
        case "subscribe" | "unsubscribe":
            return ev.peer in present
        case "join":
            return ev.peer not in present and ev.peer not in ev.nbrs
        case "leave":
            return ev.peer in present and not present[ev.peer].pending


def _events(peer_pool, topic_pool, msg_pool):
    yield TraceEvent(0, "skip")
    for m in msg_pool:
        yield TraceEvent(0, "produce", message=m)
        yield TraceEvent(0, "forward", message=m)
        for p in peer_pool:
            yield TraceEvent(0, "forward", peer=p, message=m)
    topic_sets = list(subsets(topic_pool))
    for p in peer_pool:
        for topics in topic_sets:
            yield TraceEvent(0, "subscribe", peer=p, topics=topics)
            yield TraceEvent(0, "unsubscribe", peer=p, topics=topics)
        for pubs in topic_sets:
            for subs in topic_sets:
                for nbrs in subsets(peer_pool):  # the joinee itself included
                    yield TraceEvent(0, "join", peer=p, pubs=pubs, subs=subs, nbrs=nbrs)
        yield TraceEvent(0, "leave", peer=p)


@pytest.mark.parametrize("bounds", [(1, 1, 2), (2, 1, 1)])
def test_replay_accepts_exactly_the_enabled_events(bounds):
    pools = universe_pools(*bounds)
    events = list(_events(*pools))
    accepted, refused = set(), set()
    for s in enumerate_flood_states(*bounds):
        successors = set(flood_successors(s, *pools))
        for ev in events:
            try:
                u = apply_event(s, ev)
            except TraceError:
                assert not _enabled(s, ev), ev
                refused.add(ev.kind)
            else:
                assert _enabled(s, ev), ev
                assert (ev.kind, u) in successors, ev
                accepted.add(ev.kind)
    # neither outcome is vacuous for any kind
    assert accepted == set(fn.STEP_KINDS) and refused == set(fn.STEP_KINDS) - {"skip"}
