from dataclasses import replace

import pytest

from pubsub_refine.core import Message
from pubsub_refine.flood_model import FloodPeer, FloodState
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


def test_disabled_event_names_step_and_reason():
    ev = TraceEvent(3, "leave", peer=9)
    with pytest.raises(TraceError, match=r"step 3 \(leave\).*not in state"):
        apply_event(S, ev)


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
