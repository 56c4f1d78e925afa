import pytest

from pubsub_refine import broadcast_model as bn
from pubsub_refine import flood_model as fn
from pubsub_refine.core import ContractError, Message, difference
from pubsub_refine.refinement import (
    check_match,
    check_wfs1,
    check_wfs2,
    check_wfs3,
    combined_step,
    combined_step_kinds,
    label,
    matching_step,
    refinement_map,
    related,
    wf_related,
)

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
    assert combined_step(s, s)
    assert combined_step(b, b)
    assert not combined_step(s, b)
    assert not combined_step(b, s)


def test_combined_step_good_forward():
    s = fstate(**{"1": fpeer(nsubs={"t1": (2,)}, pending=[M]), "2": fpeer(subs=["t1"])})
    u = fn.forward(1, M, s)
    assert combined_step(s, u)


def test_combined_step_rejects_bad_states():
    bad = fstate(**{"1": fpeer(nsubs={"t1": (1,)})})
    assert not combined_step(bad, bad)


def test_matching_step_skip():
    s = fstate(**{"1": fpeer()})
    w = refinement_map(s)
    assert matching_step(s, s, w) == w
    # equality-related w on the flood side: the match is the step itself
    assert matching_step(s, s, s) == s


def test_matching_step_forward_still_pending():
    # two holders: one forward leaves the message pending elsewhere
    s = fstate(**{"1": fpeer(pending=[M]), "2": fpeer(pending=[M])})
    u = fn.forward(1, M, s)
    assert fn.pending_messages(u) == fn.pending_messages(s)
    w = refinement_map(s)
    v = matching_step(s, u, w)
    assert v == refinement_map(u) == w  # matched by a broadcast-side skip


def test_matching_step_forward_full_flood():
    s = fstate(**{"1": fpeer(nsubs={"t1": (2,)}, pending=[M]), "2": fpeer(seen=[M])})
    u = fn.forward(1, M, s)
    assert fn.pending_messages(u) == ()
    w = refinement_map(s)
    v = matching_step(s, u, w)
    assert v == bn.broadcast_partial(M, (1, 2), w)
    assert bn.is_step(w, v)
    assert "broadcast-partial" in bn.step_kinds(w, v)


def test_matching_step_broadcast_side():
    s = bn.BroadcastState(((1, bn.BroadcastPeer(pubs=("t1",))),))
    u = bn.broadcast(M, s)
    assert matching_step(s, u, s) == u


def test_matching_step_empty_states():
    fe, be = fn.FloodState(), bn.BroadcastState()
    assert matching_step(fe, fe, be) == be
    assert matching_step(fe, fe, fe) == fe
    assert matching_step(be, be, be) == be
    u = fn.join(1, ("t1",), (), (), fe)
    assert matching_step(fe, u, be) == refinement_map(u)
    assert matching_step(fe, u, fe) == u


def test_matching_step_contract():
    s = fstate(**{"1": fpeer()})
    other = fstate(**{"2": fpeer()})
    with pytest.raises(ContractError, match="not related"):
        matching_step(s, s, other)
    with pytest.raises(ContractError, match="does not step"):
        matching_step(s, other, refinement_map(s))


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
    verdict = check_wfs3(s, refinement_map(s), u, combined_step_kinds(s, u))
    assert verdict.passed
    assert verdict.witness == refinement_map(u)


def test_wfs3_not_applicable():
    s = fstate(**{"1": fpeer()})
    u = fstate(**{"2": fpeer()})  # not a step
    verdict = check_wfs3(s, refinement_map(s), u, combined_step_kinds(s, u))
    assert not verdict.applicable


def test_wfs3_detects_corrupt_witness():
    # a wrong match must fail the constructive validation
    s = fstate(**{"1": fpeer(nsubs={"t1": (2,)}, pending=[M]), "2": fpeer(seen=[M])})
    u = fn.forward(1, M, s)
    w = refinement_map(s)
    v = matching_step(s, u, w)
    corrupt = v.with_peer(2, w.get(2))  # drop one receiver
    assert not (combined_step(w, corrupt) and related(u, corrupt))
    assert not check_match(s, u, w, corrupt).passed
    assert check_match(s, u, w, v).match == "broadcast-partial"


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
