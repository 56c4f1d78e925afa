import hashlib

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pubsub_refine import broadcast_model as bn
from pubsub_refine import flood_model as fn
from pubsub_refine.core import Message, canonical_json, difference
from pubsub_refine.refinement import (
    check_wfs1,
    check_wfs2,
    check_wfs3,
    combined_step_kind,
    label,
    refinement_map,
    WfsVerdict,
    related,
    wf_related,
)
from pubsub_refine.trace import state_digest

M = Message("x", "t1", 1)
M2 = Message("y", "t1", 2)


def fstate(**peers):
    return fn.FloodState(tuple(sorted((int(p), pst) for p, pst in peers.items())))


def fpeer(pubs=(), subs=(), nsubs=(), pending=(), seen=()):
    ns = tuple(sorted((tp, tuple(ps)) for tp, ps in dict(nsubs).items()))
    return fn.FloodPeer(tuple(pubs), tuple(subs), ns, tuple(pending), tuple(seen))


def test_map_empty():
    assert refinement_map(fn.FloodState()) == bn.BroadcastState()


def test_map_erases_nsubs_and_pending():
    s = fstate(**{"1": fpeer(pubs=["t1"], subs=["t2"], nsubs={"t1": (2,)}, pending=[M], seen=[M2])})
    u = refinement_map(s)
    pst = u.get(1)
    assert pst.pubs == ("t1",) and pst.subs == ("t2",)
    assert pst.seen == (M2,)  # M is pending, hence hidden; M2 passes through


def test_map_hides_pending_everywhere():
    # a message pending at one peer disappears from every seen set
    s = fstate(**{"1": fpeer(pending=[M]), "2": fpeer(seen=[M, M2])})
    u = refinement_map(s)
    assert u.get(2).seen == (M2,)


def test_map_per_peer_difference_oracle():
    s = fstate(**{"1": fpeer(seen=[M, M2]), "2": fpeer(pending=[M2])})
    hidden = fn.pending_messages(s)
    for p, pst in s.entries:
        assert refinement_map(s).get(p).seen == difference(pst.seen, hidden)


def test_map_preserves_keys():
    s = fstate(**{"1": fpeer(), "5": fpeer()})
    assert refinement_map(s).keys() == s.keys()


def test_label():
    b = bn.BroadcastState(((1, bn.BroadcastPeer()),))
    assert label(b) == b
    s = fstate(**{"1": fpeer(pending=[M])})
    assert label(s) == refinement_map(s)
    # idempotent through the broadcast branch
    assert label(label(s)) == label(s)


def test_related_cases():
    s = fstate(**{"1": fpeer(subs=["t1"])})
    assert related(s, s)
    assert related(s, refinement_map(s))
    assert wf_related(s, refinement_map(s))
    bad = fstate(**{"1": fpeer(nsubs={"t1": (1,)})})
    assert not related(bad, refinement_map(bad))
    assert not wf_related(s, s)  # second argument must be a broadcast state


def test_combined_step_tags():
    s = fstate(**{"1": fpeer()})
    b = refinement_map(s)
    assert combined_step_kind(s, s) is not None
    assert combined_step_kind(b, b) is not None
    assert combined_step_kind(s, b) is None
    assert combined_step_kind(b, s) is None


def test_combined_step_good_forward():
    s = fstate(**{"1": fpeer(nsubs={"t1": (2,)}, pending=[M]), "2": fpeer(subs=["t1"])})
    u = fn.forward(1, M, s)
    assert combined_step_kind(s, u) is not None


def test_combined_step_rejects_bad_states():
    bad = fstate(**{"1": fpeer(nsubs={"t1": (1,)})})
    assert combined_step_kind(bad, bad) is None


def wfs3_witness(s, u, w):
    """The WFS3 witness of the step s -> u from w, which must step to it."""
    kind = combined_step_kind(s, u)
    assert kind is not None
    verdict = check_wfs3(s, w, u, (kind,))
    assert verdict.passed
    return verdict.witness


def test_matching_step_skip():
    s = fstate(**{"1": fpeer()})
    w = refinement_map(s)
    assert wfs3_witness(s, s, w) == w
    # equality-related w on the flood side: the match is the step itself
    assert wfs3_witness(s, s, s) == s


def test_matching_step_forward_still_pending():
    # two holders: one forward leaves the message pending elsewhere
    s = fstate(**{"1": fpeer(pending=[M]), "2": fpeer(pending=[M])})
    u = fn.forward(1, M, s)
    assert fn.pending_messages(u) == fn.pending_messages(s)
    w = refinement_map(s)
    verdict = check_wfs3(s, w, u, fn.step_kinds(s, u))
    assert verdict.witness == refinement_map(u) == w  # matched by a broadcast-side skip
    assert verdict.match == "skip"


def test_matching_step_forward_full_flood():
    s = fstate(**{"1": fpeer(nsubs={"t1": (2,)}, pending=[M]), "2": fpeer(seen=[M])})
    u = fn.forward(1, M, s)
    assert fn.pending_messages(u) == ()
    w = refinement_map(s)
    verdict = check_wfs3(s, w, u, fn.step_kinds(s, u))
    v = verdict.witness
    assert v == bn.broadcast_partial(M, (1, 2), w)
    assert bn.is_step(w, v)
    assert bn._STEP_TESTS["broadcast-partial"](w, v)
    assert verdict.match == "broadcast-partial"


def test_matching_step_broadcast_side():
    s = bn.BroadcastState(((1, bn.BroadcastPeer(pubs=("t1",))),))
    u = bn.broadcast(M, s)
    assert wfs3_witness(s, u, s) == u


def test_matching_step_empty_states():
    fe, be = fn.FloodState(), bn.BroadcastState()
    assert wfs3_witness(fe, fe, be) == be
    assert wfs3_witness(fe, fe, fe) == fe
    assert wfs3_witness(be, be, be) == be
    u = fn.join(1, ("t1",), (), (), fe)
    assert wfs3_witness(fe, u, be) == refinement_map(u)
    assert wfs3_witness(fe, u, fe) == u


def test_wfs1():
    s = fstate(**{"1": fpeer(subs=["t1"], pending=[M])})
    verdict = check_wfs1(s)
    assert verdict.passed and verdict.applicable
    bad = fstate(**{"1": fpeer(nsubs={"t1": (1,)})})
    verdict = check_wfs1(bad)
    assert not verdict.passed and not verdict.applicable


def test_wfs2():
    s = fstate(**{"1": fpeer(pending=[M])})
    verdict = check_wfs2(s, refinement_map(s))
    assert verdict.passed
    verdict = check_wfs2(s, fstate(**{"2": fpeer()}))
    assert not verdict.applicable


def test_wfs3_pass_and_witness():
    s = fstate(**{"1": fpeer(nsubs={"t1": (2,)}, pending=[M]), "2": fpeer(subs=["t1"])})
    u = fn.forward(1, M, s)
    verdict = check_wfs3(s, refinement_map(s), u, fn.step_kinds(s, u))
    assert verdict.passed
    assert verdict.witness == refinement_map(u)


def test_wfs3_not_applicable():
    s = fstate(**{"1": fpeer()})
    u = fstate(**{"2": fpeer()})  # not a step
    verdict = check_wfs3(s, refinement_map(s), u, fn.step_kinds(s, u))
    assert not verdict.applicable


def test_wfs3_detects_corrupt_witness():
    # a witness that loses one receiver is not related to u, so WFS3, whose
    # one witness is label(u), never admits it
    s = fstate(**{"1": fpeer(nsubs={"t1": (2,)}, pending=[M]), "2": fpeer(seen=[M])})
    u = fn.forward(1, M, s)
    w = refinement_map(s)
    verdict = check_wfs3(s, w, u, fn.step_kinds(s, u))
    corrupt = verdict.witness.with_peer(2, w.get(2))  # drop one receiver
    assert not related(u, corrupt)
    assert verdict.passed and verdict.match == "broadcast-partial"


def test_forward_preserving_pending_preserves_map():
    # hypothesis: the forward does not change the pooled pending set
    cases = []
    s1 = fstate(**{"1": fpeer(pending=[M]), "2": fpeer(pending=[M])})
    cases.append((1, M, s1))
    s2 = fstate(**{"1": fpeer(nsubs={"t1": (2,)}, pending=[M]), "2": fpeer(subs=["t1"])})
    cases.append((1, M, s2))  # the neighbor picks it up, so it stays pending
    for p, m, s in cases:
        u = fn.forward(p, m, s)
        assert fn.pending_messages(u) == fn.pending_messages(s)
        assert refinement_map(u) == refinement_map(s)


def test_produce_is_invisible_through_the_map():
    s = fstate(**{"1": fpeer(pubs=["t1"])})
    assert refinement_map(fn.produce(M, s)) == refinement_map(s)


def test_subscribe_commutes_with_the_map():
    s = fstate(**{"1": fpeer(nsubs={"t1": (2,)}), "2": fpeer(subs=["t1"])})
    for topics in [(), ("t2",), ("t1", "t3")]:
        assert refinement_map(fn.subscribe(2, topics, s)) == bn.subscribe(
            2, topics, refinement_map(s)
        )


def test_verdict_serialization():
    s = fstate(**{"1": fpeer()})
    assert check_wfs1(s).to_obj() == {"obligation": "WFS1", "status": "pass"}
    obj = check_wfs2(s, fstate(**{"2": fpeer()})).to_obj()
    assert obj["status"] == "not-applicable"


def test_verdict_repr_and_equality_name_every_field():
    v = WfsVerdict("WFS1", True)
    assert repr(v) == ("WfsVerdict(obligation='WFS1', passed=True, applicable=True, "
                       "witness=None, diagnostics='', match=None)")
    assert v == WfsVerdict("WFS1", True, applicable=True) and hash(v) == hash(WfsVerdict("WFS1", True))
    assert v != WfsVerdict("WFS1", True, match="skip")


# States that share one peer object: under two keys, and beside peers whose
# pending sets give two different hidden sets. Whatever a state's digest, image
# or goodness keeps on a peer must serve every state that holds it.
messages = st.builds(Message, st.sampled_from("abc"), st.sampled_from(("t1", "t2")), st.integers(1, 3))
message_lists = st.lists(messages, unique=True, max_size=4)
peers = st.builds(
    fpeer,
    pubs=st.sampled_from([(), ("t1",), ("t1", "t2")]),
    subs=st.sampled_from([(), ("t2",)]),
    nsubs=st.dictionaries(st.sampled_from(("t1", "t2")), st.lists(st.integers(1, 4), unique=True).map(sorted)),
    pending=message_lists,
    seen=st.lists(messages, max_size=4),  # any order: a seen set out of order is a bad state
)


def sha256_of_the_whole_state(s):
    return hashlib.sha256(canonical_json(s.to_obj()).encode("utf-8")).hexdigest()


def image_by_definition(s):
    hidden = {m for _, pst in s.entries for m in pst.pending}
    return bn.BroadcastState(tuple(
        (p, bn.BroadcastPeer(pst.pubs, pst.subs, tuple(m for m in pst.seen if m not in hidden)))
        for p, pst in s.entries))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(shared=peers, keys=st.lists(st.integers(1, 4), min_size=3, max_size=3, unique=True),
       other=peers, hidden=message_lists)
def test_facts_kept_on_a_shared_peer_serve_every_state_that_holds_it(shared, keys, other, hidden):
    a, b, c = keys
    widened = fn.FloodPeer(other.pubs, other.subs, other.nsubs, tuple(m for m in hidden if m not in other.seen),
                           other.seen)
    assume(set(widened.pending) - set(other.pending) - set(shared.pending))
    states = [fstate(**{str(a): shared}), fstate(**{str(b): shared}), fstate(**{str(a): shared, str(b): shared}),
              fstate(**{str(a): shared, str(c): other}), fstate(**{str(a): shared, str(c): widened})]
    for s in states:
        assert state_digest(s) == sha256_of_the_whole_state(s)
        assert refinement_map(s) == image_by_definition(s)
        assert fn.is_good_state(s) == (not fn.self_tracking_violations(s) and not fn.unordered_seen_violations(s))
