import time

import pytest

from pubsub_refine import flood_model as fn
from pubsub_refine.exhaustive import (
    KEPT_DISCREPANCIES,
    enumerate_broadcast_states,
    enumerate_flood_states,
    estimate_flood_states,
    flood_successors,
    run_exhaustive,
    universe_pools,
)


def test_trivial_bounds():
    report = run_exhaustive(0, 0, 0)
    assert report.ok
    assert report.flood_states == 1  # just the empty network
    assert report.broadcast_states == 1


def test_estimate_matches_enumeration():
    for bounds in [(1, 1, 0), (1, 1, 1), (2, 1, 0)]:
        states = list(enumerate_flood_states(*bounds))
        assert len(states) == estimate_flood_states(*bounds)
        assert len(states) == len(set(states))  # no duplicates


def test_estimate_stops_past_the_cap():
    exact = estimate_flood_states(2, 1, 1)
    assert estimate_flood_states(2, 1, 1, cap=exact) == exact
    assert estimate_flood_states(2, 1, 1, cap=exact - 1) > exact - 1
    assert estimate_flood_states(0, 5, 5) == 1  # only the empty network
    assert estimate_flood_states(10**9, 10**9, 10**9, cap=2000) > 2000


def test_huge_bounds_are_refused_at_once():
    start = time.monotonic()
    with pytest.raises(ValueError, match="above the cap"):
        run_exhaustive(1, 1, 13)
    assert time.monotonic() - start < 1.0


def test_universe_includes_non_good_states():
    states = list(enumerate_flood_states(2, 1, 0))
    assert any(not fn.is_good_state(s) for s in states)  # self-tracking nsubs
    assert all(fn.is_good_state(s) or fn.self_tracking_violations(s) for s in states)


def test_one_peer_one_topic_relations_agree():
    report = run_exhaustive(1, 1, 0)
    assert report.ok, report.discrepancies[:3]


def test_one_peer_with_message():
    report = run_exhaustive(1, 1, 1)
    assert report.ok, report.discrepancies[:3]


def test_successors_stay_in_universe():
    peer_pool, topic_pool, msg_pool = universe_pools(2, 1, 1)
    universe = set(enumerate_flood_states(2, 1, 1))
    import itertools

    sample = itertools.islice(sorted(universe, key=lambda s: repr(s)), 0, 40)
    for s in sample:
        for kind, u in flood_successors(s, peer_pool, topic_pool, msg_pool):
            assert u in universe, (kind, s, u)


def test_forward_successors_pass_wfs3():
    # every forward successor at bound (2,1,1) satisfies the third obligation
    from pubsub_refine.refinement import check_wfs3, refinement_map

    peer_pool, topic_pool, msg_pool = universe_pools(2, 1, 1)
    checked = 0
    for s in enumerate_flood_states(2, 1, 1):
        if not fn.is_good_state(s):
            continue
        for kind, u in flood_successors(s, peer_pool, topic_pool, msg_pool):
            if kind != "forward" or not fn.is_good_state(u):
                continue
            verdict = check_wfs3(s, refinement_map(s), u, fn.step_kinds(s, u))
            assert verdict.applicable and verdict.passed, verdict.diagnostics
            checked += 1
    assert checked > 50


def test_only_the_first_discrepancies_are_kept(monkeypatch):
    # a flood relation that accepts every pair disagrees with the successor
    # sets on 25,340 of the 25,921 pairs; only the first dumps are held
    monkeypatch.setattr(fn, "is_step", lambda s, u: True)
    report = run_exhaustive(1, 1, 2)
    assert not report.ok
    assert len(report.discrepancies) == len(report.to_obj()["discrepancies"]) == KEPT_DISCREPANCIES
    first = report.discrepancies[0]
    assert first["check"] == "flood-relation-agreement"
    assert first["relation"] is True and first["enumerated"] is False


def test_cap_refusal_names_estimate():
    with pytest.raises(ValueError, match="above the cap"):
        run_exhaustive(3, 2, 2, cap=100)


def _pair_message_pool(*states):
    msgs = set()
    for st in states:
        for _, pst in st.entries:
            msgs.update(getattr(pst, "pending", ()))
            msgs.update(pst.seen)
    return tuple(sorted(msgs))


def test_sampled_agreement_at_three_peer_bounds():
    # the (<=3 peers, <=2 topics, <=2 messages) universe is far too large to
    # sweep pairwise, so agreement there is checked on generated states:
    # every enumerated successor must be accepted, and cross pairs must be
    # decided identically by the relation and the successor set
    import random

    from pubsub_refine import broadcast_model as bn
    from pubsub_refine.exhaustive import broadcast_successors
    from pubsub_refine.generate import GeneratorConfig, gen_good_state
    from pubsub_refine.refinement import refinement_map

    cfg = GeneratorConfig(max_peers=3, max_topics=2, max_messages=2, seed=33)
    rng = random.Random(cfg.seed)
    peer_pool = tuple(range(2 * cfg.max_peers + 1))
    topic_pool = cfg.topic_pool()
    bases = [gen_good_state(cfg, rng) for _ in range(60)]
    flood_agree = bn_agree = 0
    for s in bases:
        pool = _pair_message_pool(s)
        succ = {u for _, u in flood_successors(s, peer_pool, topic_pool, pool)}
        for u in succ:
            assert fn.is_step(s, u), (s, u)
            flood_agree += 1
        for other in rng.sample(bases, 12):
            pool = _pair_message_pool(s, other)
            succ = {u for _, u in flood_successors(s, peer_pool, topic_pool, pool)}
            assert fn.is_step(s, other) == (other in succ), (s, other)
            flood_agree += 1
        ms = refinement_map(s)
        pool = _pair_message_pool(s)
        bsucc = {u for _, u in broadcast_successors(ms, peer_pool, topic_pool, pool)}
        for u in bsucc:
            assert bn.is_step(ms, u), (ms, u)
            bn_agree += 1
        for other in rng.sample(bases, 8):
            mo = refinement_map(other)
            pool = _pair_message_pool(s, other)
            bsucc = {u for _, u in broadcast_successors(ms, peer_pool, topic_pool, pool)}
            assert bn.is_step(ms, mo) == (mo in bsucc), (ms, mo)
            bn_agree += 1
    assert flood_agree > 1500 and bn_agree > 1000


def test_broadcast_universe_sizes():
    assert len(list(enumerate_broadcast_states(1, 1, 1))) == 1 + 8
    assert len(list(enumerate_broadcast_states(2, 1, 1))) == 1 + 8 + 8 + 64
