"""Step-level checks of the bundled three-node scenario.

One peer produces and floods a message while the network churns around
it: the producer leaves after the first hop, both remaining peers drop
their subscriptions, and the last forward happens with nobody left to
deliver to. The abstract side must absorb the first two steps as skips
and close with a partial broadcast to the only peer that processed the
message.
"""

import json
from importlib import resources

from pubsub_refine import broadcast_model as bn
from pubsub_refine import flood_model as fn
from pubsub_refine import trace
from pubsub_refine.checking import check_trace_refinement
from pubsub_refine.core import Message
from pubsub_refine.refinement import refinement_map
from pubsub_refine.scenario import load_scenario
from pubsub_refine.trace import run_trace

M = Message("hello", "news", 1)


def load():
    path = resources.files("pubsub_refine") / "scenarios" / "figure1.json"
    with resources.as_file(path) as p:
        return load_scenario(p)


def test_initial_state_shape():
    s0, events = load()
    assert s0.keys() == (1, 2, 3)
    assert [ev.kind for ev in events] == [
        "produce", "forward", "leave", "unsubscribe", "unsubscribe", "forward",
    ]
    assert fn.is_good_state(s0)
    # node 3 is connected to nodes 1 and 2; node 1 only to node 3
    assert dict(s0.get(3).nsubs)["news"] == (1, 2)
    assert dict(s0.get(1).nsubs)["news"] == (3,)


def test_state_sequence_semantics():
    s0, events = load()
    states = run_trace(s0, events)
    assert len(states) == 7

    s1 = states[1]  # node 1 produced m
    assert s1.get(1).pending == (M,)
    assert refinement_map(s1) == refinement_map(s0)

    s2 = states[2]  # node 1 forwarded m to node 3
    assert s2.get(1).seen == (M,)
    assert s2.get(1).pending == ()
    assert s2.get(3).pending == (M,)
    assert refinement_map(s2) == refinement_map(s0)

    s3 = states[3]  # node 1 left; its seen copy of m left with it
    assert s3.keys() == (2, 3)

    s4 = states[4]  # node 2 unsubscribed; node 3 stops tracking it
    assert s4.get(2).subs == ()
    assert dict(s4.get(3).nsubs)["news"] == (1,)

    s5 = states[5]  # node 3 unsubscribed; node 2's nsubs entry emptied away
    assert s5.get(3).subs == ()
    assert s5.get(2).nsubs == ()

    s6 = states[6]  # node 3 forwarded m into the void (node 1 is gone)
    assert s6.get(3).seen == (M,)
    assert fn.pending_messages(s6) == ()
    assert s6.get(2).seen == ()


def test_match_sequence_and_final_receivers():
    s0, events = load()
    states = run_trace(s0, events)
    report = check_trace_refinement(states, kinds=[ev.kind for ev in events])
    assert report.ok
    assert [json.loads(text)["bn_match"] for text in report.steps] == [
        "skip", "skip", "leave", "unsubscribe", "unsubscribe", "broadcast-partial",
    ]
    final = refinement_map(states[-1])
    receivers = bn.message_receivers(M, final)
    assert receivers == (3,)
    # the closing partial broadcast delivers exactly to those receivers
    w = refinement_map(states[-2])
    assert bn.broadcast_partial(M, receivers, w) == final


def test_replay_serializes_each_state_at_most_once(monkeypatch):
    s0, events = load()
    assert all(ev.pre_digest and ev.post_digest for ev in events)
    calls = {"_digest": [], "_peer_json": []}
    for name, made in calls.items():
        monkeypatch.setattr(trace, name, lambda x, _f=getattr(trace, name), _made=made: _made.append(x) or _f(x))
    trace.message_json.cache_clear()
    states = run_trace(s0, events)
    peers = [pst for s in states for _, pst in s.entries]
    messages = {m for pst in peers for m in pst.pending + pst.seen}
    # each state hashed once, each peer object encoded once, each message encoded once
    assert len(calls["_digest"]) <= len({id(x) for x in states})
    assert len(calls["_peer_json"]) == len({id(pst) for pst in calls["_peer_json"]}) <= len({id(p) for p in peers})
    assert trace.message_json.cache_info().misses <= len(messages)
