import itertools
import json
import os
import select
import time
from importlib import resources

import pytest

from pubsub_refine import broadcast_model as bn
from pubsub_refine import exhaustive
from pubsub_refine import flood_model as fn
from pubsub_refine.cli import main
from pubsub_refine.core import CHUNKS, ContractError, Message, enabled, in_workers, subsets
from pubsub_refine.exhaustive import (
    KEPT_DISCREPANCIES,
    BoundsError,
    broadcast_successors,
    enumerate_broadcast_states,
    enumerate_flood_states,
    estimate_flood_states,
    flood_successors,
    run_exhaustive,
    universe_pools,
)
from pubsub_refine.generate import GeneratorConfig
from pubsub_refine.refinement import check_wfs1
from pubsub_refine.runner import fuzz_run, scenario_run
from pubsub_refine.trace import TraceError, TraceEvent, apply_event


def test_trivial_bounds():
    # without a peer the universe is the empty network alone, which checks nothing
    with pytest.raises(BoundsError, match="at least one peer"):
        run_exhaustive(0, 0, 0)
    assert len(list(enumerate_flood_states(0, 0, 0))) == estimate_flood_states(0, 0, 0) == 1
    assert len(list(enumerate_broadcast_states(0, 0, 0))) == 1


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
    # the counts the benchmark expects of this bound: a change to the
    # universe or to the obligation loop moves one of them
    assert (report.flood_states, report.flood_pairs_checked) == (33, 1089)
    assert (report.broadcast_states, report.broadcast_pairs_checked) == (9, 81)
    assert report.obligations_checked == 309
    assert report.to_obj()["discrepancy_counts"] == {}


def test_wfs1_and_wfs2_are_decided_once_per_good_state(monkeypatch):
    # one CPU: the obligations run with their rows, and a forked worker's calls are never counted here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = []

    def counted(s):
        calls.append(s)
        return check_wfs1(s)

    monkeypatch.setattr(exhaustive, "check_wfs1", counted)
    report = run_exhaustive(1, 1, 2)
    good = [s for s in enumerate_flood_states(1, 1, 2) if fn.is_good_state(s)]
    assert len(calls) == len(good) == 81
    # every good successor still counts its three obligations
    assert report.obligations_checked == 1599
    assert report.ok


def test_successors_stay_in_universe():
    peer_pool, topic_pool, msg_pool = universe_pools(2, 1, 1)
    universe = set(enumerate_flood_states(2, 1, 1))
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
    assert report.to_obj()["discrepancy_counts"] == {"flood-relation-agreement": 25340}


def counting_forks(monkeypatch) -> list:
    """The pids os.fork returns to this process from now on."""
    real_fork, forks = os.fork, []

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def test_rows_are_cut_into_contiguous_chunks_whatever_the_cpu_count(monkeypatch):
    # every row lies in exactly one chunk, the results come back in chunk
    # order, and the bounds depend on the rows alone; never more workers than chunks
    forks = counting_forks(monkeypatch)
    for rows in (1, 2, 7, CHUNKS, 100):
        chunks = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            forks.clear()
            chunks.append(in_workers(rows, lambda lo, hi: list(range(lo, hi))))
            assert len(forks) == min(rows, cpus) - 1
        assert chunks[0] == chunks[1] == chunks[2]
        assert len(chunks[0]) == min(rows, CHUNKS) and all(chunks[0])
        assert [row for chunk in chunks[0] for row in chunk] == list(range(rows))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [2, 3])
def test_chunks_that_finish_out_of_order_come_back_in_chunk_order(cpus, monkeypatch):
    # whichever process takes the first chunk is held in it until the last
    # chunk has finished, so the others take every later chunk meanwhile
    forks = counting_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    held, release = os.pipe()

    def work(lo, hi):
        if lo == 0:
            select.select([held], [], [], 10)  # bounded: a chunk 9 that never runs fails the test, not the run
        finished = time.monotonic()  # one clock for every process of the machine
        if lo == 9:
            os.write(release, b"x")
        return [lo, hi, finished]

    try:
        results = in_workers(10, work)
    finally:
        os.close(held)
        os.close(release)
    assert [[lo, hi] for lo, hi, _ in results] == [[k, k + 1] for k in range(10)]
    assert results[-1][2] < results[0][2]
    assert len(forks) == cpus - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_crash_stops_every_process_after_the_chunk_it_holds(cpus, tmp_path, monkeypatch):
    # chunk 0 raises once the other process holds chunk 1, which is still running
    # then; the crash empties the queue, so no process starts a third chunk
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    calls = tmp_path / "calls"  # appended to by every process
    started, start = os.pipe()

    def work(lo, hi):
        with open(calls, "a", encoding="utf-8") as f:
            f.write(f"{lo} ")
        if lo == 1:
            os.write(start, b"x")
            time.sleep(0.2)
        if lo == 0:
            if cpus > 1:
                select.select([started], [], [], 10)  # bounded: a chunk 1 that never starts fails the test, not the run
            raise ValueError("planted")
        return [lo, hi]

    try:
        with pytest.raises(RuntimeError, match=r"^rows 0\.\.0 failed: ValueError: planted$"):
            in_workers(CHUNKS, work)
    finally:
        os.close(started)
        os.close(start)
    assert sorted(map(int, calls.read_text().split())) == list(range(cpus))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_dies_without_sending_is_an_internal_error(monkeypatch):
    # the caller holds its first chunk until the worker has exited, so the worker takes a chunk and dies on it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    caller = os.getpid()

    def work(lo, hi):
        if os.getpid() != caller:
            os._exit(7)
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)  # left for in_workers to reap
        return [lo, hi]

    with pytest.raises(RuntimeError, match=r"^worker 1 failed: status 7, 0 bytes sent$"):
        in_workers(4, work)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("model, is_step, bounds, counts", [
    (None, None, (1, 1, 2), {}),
    (fn, lambda s, u: True, (1, 1, 2), {"flood-relation-agreement": 25340}),
    (bn, lambda s, u: False, (1, 1, 1), {"broadcast-relation-agreement": 33}),
], ids=["passing", "flood-accepts-every-pair", "broadcast-rejects-every-pair"])
def test_splitting_the_rows_over_workers_leaves_the_report_as_it_is(monkeypatch, model, is_step, bounds, counts):
    # one CPU decides every row in this process; with two or three, the
    # forked workers' counts and dumps are merged back in row order
    if model is not None:
        monkeypatch.setattr(model, "is_step", is_step)
    real_fork, forks = os.fork, []

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    texts = set()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        forks.clear()
        report = run_exhaustive(*bounds).to_obj()
        assert len(forks) == 2 * (cpus - 1)  # the flood and the broadcast check each start cpus - 1 workers
        assert report["discrepancy_counts"] == counts
        assert len(report["discrepancies"]) == min(sum(counts.values()), KEPT_DISCREPANCIES)
        del report["elapsed_seconds"]
        texts.add(json.dumps(report))
    assert len(texts) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("model, check, states, successors", [
    (fn, "flood-relation-agreement", enumerate_flood_states, flood_successors),
    (bn, "broadcast-relation-agreement", enumerate_broadcast_states, broadcast_successors),
], ids=["flood", "broadcast"])
def test_enumerated_but_rejected_pairs_are_discrepancies(monkeypatch, model, check, states, successors):
    # a relation that rejects every pair disagrees on exactly the enumerated successors
    monkeypatch.setattr(model, "is_step", lambda s, u: False)
    report = run_exhaustive(1, 1, 1)
    assert not report.ok
    first = report.discrepancies[0]
    assert first["check"] == check
    assert first["relation"] is False and first["enumerated"] is True
    pools = universe_pools(1, 1, 1)
    want = sum(len({u for _, u in successors(s, *pools)}) for s in states(1, 1, 1))
    assert report.discrepancy_counts == {check: want}


def test_successor_outside_the_universe_is_a_discrepancy(monkeypatch, capsys):
    # a successor function that joins a peer from outside the peer pool
    real = exhaustive.flood_successors

    def with_stranger(s, *pools):
        return real(s, *pools) + [("join", fn.join(5, (), (), (), s))]

    monkeypatch.setattr(exhaustive, "flood_successors", with_stranger)
    assert main(["enumerate", "--peers", "1", "--topics", "1", "--messages", "0"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["discrepancy_counts"] == {"successor-outside-universe": out["flood_states"]}
    first = out["discrepancies"][0]
    assert first["check"] == "successor-outside-universe" and first["kind"] == "join"
    assert "5" in first["u"]["peers"]


@pytest.mark.parametrize("model, states, successors, bounds", [
    (fn, enumerate_flood_states, flood_successors, (1, 1, 2)),
    (fn, enumerate_flood_states, flood_successors, (2, 1, 0)),
    (bn, enumerate_broadcast_states, broadcast_successors, (2, 1, 2)),
], ids=["flood-1-1-2", "flood-2-1-0", "broadcast-2-1-2"])
def test_step_cases_agree_with_the_successor_kinds(model, states, successors, bounds):
    # each case accepts a pair u != s exactly when its transition yields u
    # from s (u == s is only ever a skip: a no-op subscribe or an empty
    # partial broadcast also yields s); the flood gate may only drop kinds
    # whose test would reject the pair, and the spec classifier names the
    # first accepting case. The flood cases exclude one another, so at most
    # one accepts; only the spec needs a first-case rule, because every
    # broadcast is also a partial broadcast to the subscribers and the origin.
    # So the flood is_step, which rejects most pairs by their frames before
    # any case runs, and step_kinds, which fuzz and replay call, decide one
    # relation: on all 25,921 pairs at flood-1-1-2
    universe = list(states(*bounds))
    pools = universe_pools(*bounds)
    for s in universe:
        generated = {}
        for kind, u in successors(s, *pools):
            generated.setdefault(u, set()).add(kind)
        for u in universe:
            accepted = [k for k, test in model._STEP_TESTS.items() if test(s, u)]
            assert set(accepted) == ({"skip"} if u == s else generated.get(u, set())), (s, u)
            if model is fn:
                assert len(accepted) <= 1, (s, u, accepted)
                assert set(fn.step_kinds(s, u)) == set(accepted), (s, u)
            else:
                assert bn.step_kind(s, u) == (accepted or [None])[0], (s, u)
            assert model.is_step(s, u) == bool(accepted), (s, u)


# frames(s) is (entries, A, B, C, pending total, seen total, pending sum, seen sum)
FRAME_KEEPERS = {"skip": (1, 2, 3), "produce": (1, 3), "forward": (1,), "subscribe": (2,), "unsubscribe": (2,)}


@pytest.mark.parametrize("bounds", [(1, 1, 2), (1, 1, 3), (1, 2, 2), (2, 1, 1)], ids=lambda b: "-".join(map(str, b)))
def test_every_equal_length_step_keeps_its_frame(bounds):
    # the gate of is_step rests on this: skip keeps frames A, B and C,
    # produce A and C, subscribe and unsubscribe B, and a forward A and
    # either C (its message was already seen) or the seen identity; join and
    # leave change the length; checked on the frames, not through is_step
    pools = universe_pools(*bounds)
    seen, forwards = set(), {"C": 0, "identity": 0}
    for s in enumerate_flood_states(*bounds):
        f = fn.frames(s)
        for kind, u in flood_successors(s, *pools):
            g = fn.frames(u)
            if len(u.entries) != len(s.entries):
                assert kind in ("join", "leave") and g[0] != f[0], (kind, s, u)
                continue
            assert g[0] == f[0], (kind, s, u)
            for frame in FRAME_KEEPERS[kind]:
                assert g[frame] == f[frame], (kind, frame, s, u)
            if kind == "forward":
                branch = "C" if g[3] == f[3] else "identity"
                # the seen total grows by 1, the pending sum by the pending growth times the seen sum's growth
                assert branch == "C" or g[5] - f[5] == 1 and g[6] - f[6] == (g[4] - f[4]) * (g[7] - f[7]), (s, u)
                forwards[branch] += 1
            seen.add(kind)
    assert seen == set(FRAME_KEEPERS)
    assert min(forwards.values()) > 0, forwards


def test_a_forward_of_a_message_already_seen_keeps_frame_c():
    # peer 0 holds m both pending and seen and tracks peer 1 under m's
    # topic: its forward changes no seen set, so only frame C lets it through
    m = Message("m0", "t0", 0)
    s = fn.FloodState(((0, fn.FloodPeer(("t0",), (), (("t0", (1,)),), (m,), (m,))), (1, fn.FloodPeer(subs=("t0",)))))
    u = fn.forward(0, m, s)
    assert u.get(1).pending == (m,) and u.get(0).seen == (m,)
    f, g = fn.frames(s), fn.frames(u)
    assert g[3] == f[3] and g[2] != f[2] and g[5] == f[5]
    assert fn.step_kinds(s, u) == ("forward",)
    assert fn.is_step(s, u)


def test_the_gate_sends_only_possible_steps_to_the_cases(monkeypatch):
    # the distinct pairs that reach _possible_kinds at (1,1,3), in is_step or
    # in step_kinds on a successor: 29,057 of equal length that keep frame B,
    # frame C or frame A with the seen identity, and the 2,048 of unequal
    # length. One CPU, so every row runs in this process and each of its
    # calls is counted
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    real, pairs = fn._possible_kinds, set()

    def counted(s, u):
        pairs.add((s, u))
        return real(s, u)

    monkeypatch.setattr(fn, "_possible_kinds", counted)
    assert run_exhaustive(1, 1, 3).ok
    assert len(pairs) == 31_105


def test_fuzz_and_replay_compute_no_frame(monkeypatch):
    # only is_step, the all-pairs relation, pays for frames; one CPU, so
    # every trace runs here and a call in any of them would be counted
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = []

    def counted(s):
        calls.append(s)
        return (0,) * 8

    monkeypatch.setattr(fn, "frames", counted)
    report = fuzz_run(GeneratorConfig(seed=7, steps=20), traces=50)
    assert report.totals["steps"] == 1000
    assert scenario_run(resources.files("pubsub_refine") / "scenarios" / "figure1.json").ok
    assert calls == []
    fn.is_step(fn.FloodState(((0, fn.FloodPeer()),)), fn.FloodState(((0, fn.FloodPeer(pubs=("t0",))),)))
    assert len(calls) == 2  # the relation's own calls are counted


@pytest.mark.parametrize("bounds", [(1, 1, 2), (2, 1, 0)])
def test_wfs3_matches_the_image_step_on_whole_universes(bounds):
    # WFS3 admits one witness, the image of u: it passes exactly when the
    # image of s steps to it, and its match is that step's first case
    from pubsub_refine.refinement import check_wfs3, refinement_map

    pools = universe_pools(*bounds)
    checked = passed = 0
    for s in enumerate_flood_states(*bounds):
        if not fn.is_good_state(s):
            continue
        w = refinement_map(s)
        for u in {u for _, u in flood_successors(s, *pools)}:
            if not fn.is_good_state(u):
                continue
            verdict = check_wfs3(s, w, u, fn.step_kinds(s, u))
            v = refinement_map(u)
            assert verdict.passed == bn.is_step(w, v), (s, u)
            assert verdict.witness == v
            assert verdict.match == next((k for k, test in bn._STEP_TESTS.items() if test(w, v)), None)
            checked += 1
            passed += verdict.passed
    assert checked > 100 and passed == checked


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


# The guard alone decides: each step case and each successor function asks
# the transition, so a transition's ContractError is the one statement of
# when it is enabled.

_M0 = universe_pools(1, 1, 1)[2][0]  # message m0 on topic t0 from peer 0


def _refuse(*args):
    raise ContractError("refused")


@pytest.mark.parametrize("model, attr, kind, s, step, bounds, event", [
    (fn, "produce", "produce", fn.FloodState(((0, fn.FloodPeer(pubs=("t0",))),)),
     lambda s: fn.produce(_M0, s), (1, 1, 1), TraceEvent(0, "produce", message=_M0)),
    (fn, "forward", "forward", fn.FloodState(((0, fn.FloodPeer(pending=(_M0,))),)),
     lambda s: fn.forward(0, _M0, s), (1, 1, 1), TraceEvent(0, "forward", peer=0, message=_M0)),
    (fn, "subscribe", "subscribe", fn.FloodState(((0, fn.FloodPeer()),)),
     lambda s: fn.subscribe(0, ("t0",), s), (1, 1, 0), TraceEvent(0, "subscribe", peer=0, topics=("t0",))),
    (fn, "unsubscribe", "unsubscribe", fn.FloodState(((0, fn.FloodPeer(subs=("t0",))),)),
     lambda s: fn.unsubscribe(0, ("t0",), s), (1, 1, 0), TraceEvent(0, "unsubscribe", peer=0, topics=("t0",))),
    (fn, "_join", "join", fn.FloodState(((0, fn.FloodPeer(subs=("t0",))),)),
     lambda s: fn.join(1, (), ("t0",), (0,), s), (2, 1, 0), TraceEvent(0, "join", peer=1, subs=("t0",), nbrs=(0,))),
    (fn, "leave", "leave", fn.FloodState(((0, fn.FloodPeer()),)),
     lambda s: fn.leave(0, s), (1, 1, 0), TraceEvent(0, "leave", peer=0)),
    (bn, "broadcast", "broadcast", bn.BroadcastState(((0, bn.BroadcastPeer(pubs=("t0",))),)),
     lambda s: bn.broadcast(_M0, s), (1, 1, 1), None),
    (bn, "broadcast_partial", "broadcast-partial", bn.BroadcastState(((0, bn.BroadcastPeer()),)),
     lambda s: bn.broadcast_partial(_M0, (0,), s), (1, 1, 1), None),
    (bn, "subscribe", "subscribe", bn.BroadcastState(((0, bn.BroadcastPeer()),)),
     lambda s: bn.subscribe(0, ("t0",), s), (1, 1, 0), None),
    (bn, "unsubscribe", "unsubscribe", bn.BroadcastState(((0, bn.BroadcastPeer(subs=("t0",))),)),
     lambda s: bn.unsubscribe(0, ("t0",), s), (1, 1, 0), None),
    (bn, "join", "join", bn.BroadcastState(),
     lambda s: bn.join(0, ("t0",), (), s), (1, 1, 0), None),
    (bn, "leave", "leave", bn.BroadcastState(((0, bn.BroadcastPeer()),)),
     lambda s: bn.leave(0, s), (1, 1, 0), None),
], ids=["flood-produce", "flood-forward", "flood-subscribe", "flood-unsubscribe", "flood-join", "flood-leave",
        "broadcast", "broadcast-partial", "broadcast-subscribe", "broadcast-unsubscribe", "broadcast-join",
        "broadcast-leave"])
def test_a_refusing_transition_disables_its_case_and_its_successors(
        monkeypatch, model, attr, kind, s, step, bounds, event):
    # one rebinding at the module reaches every path: the relation's case,
    # the enumerator and, for a flood kind, replay
    successors = flood_successors if model is fn else broadcast_successors
    pools = universe_pools(*bounds)
    u = step(s)
    assert u != s
    assert model._STEP_TESTS[kind](s, u)
    assert (kind, u) in successors(s, *pools)
    if event is not None:
        assert apply_event(s, event) == u
    monkeypatch.setattr(model, attr, _refuse)
    assert not model._STEP_TESTS[kind](s, u)
    assert kind not in {k for k, _ in successors(s, *pools)}
    if event is not None:
        with pytest.raises(TraceError, match=rf"^step 0 \({kind}\): refused$"):
            apply_event(s, event)


def test_a_leave_that_allows_pending_is_a_step_and_a_successor(monkeypatch):
    s = fn.FloodState(((0, fn.FloodPeer(pending=(_M0,))),))
    u = fn.FloodState()
    assert not fn.is_step(s, u)
    monkeypatch.setattr(fn, "leave", lambda p, s: s.without_peer(p))
    assert fn._STEP_TESTS["leave"](s, u) and fn.is_step(s, u)
    assert ("leave", u) in flood_successors(s, *universe_pools(1, 1, 1))


def _offers(model, s, peer_pool, topic_pool, msg_pool):
    """(kind, transition, arguments) for every argument of wider pools than the enumerators offer.

    Every transition is offered each pool peer plus one absent id, every
    message, every topic subset and every neighbour or receiver subset of
    those peers; a joining peer stays in the pool, so its successor stays
    in the universe.
    """
    peers = (*peer_pool, len(peer_pool))
    topic_sets = list(subsets(topic_pool))
    peer_sets = list(subsets(peers))
    yield "skip", lambda s: s, (s,)
    for m in msg_pool:
        if model is fn:
            yield "produce", fn.produce, (m, s)
            for p in peers:
                yield "forward", fn.forward, (p, m, s)
        else:
            yield "broadcast", bn.broadcast, (m, s)
            for receivers in peer_sets:
                yield "broadcast-partial", bn.broadcast_partial, (m, receivers, s)
    for p in peers:
        for topics in topic_sets:
            yield "subscribe", model.subscribe, (p, topics, s)
            yield "unsubscribe", model.unsubscribe, (p, topics, s)
        yield "leave", model.leave, (p, s)
    for p, pubs, subs in itertools.product(peer_pool, topic_sets, topic_sets):
        if model is fn:
            for nbrs in peer_sets:
                yield "join", fn.join, (p, pubs, subs, nbrs, s)
        else:
            yield "join", bn.join, (p, pubs, subs, s)


@pytest.mark.parametrize("bounds", [(1, 1, 2), (2, 1, 1)], ids=["1-1-2", "2-1-1"])
@pytest.mark.parametrize("model, states, successors", [
    (fn, enumerate_flood_states, flood_successors),
    (bn, enumerate_broadcast_states, broadcast_successors),
], ids=["flood", "broadcast"])
def test_guards_enumerators_and_relations_agree(model, states, successors, bounds):
    # the guards say which steps exist: every state a guard accepts is a step
    # of the relation (of its own kind, or a skip when it equals s), and the
    # enumerator yields exactly what the guards accept from the wider pools
    pools = universe_pools(*bounds)
    for s in states(*bounds):
        accepted = set()
        for kind, transition, args in _offers(model, s, *pools):
            u = enabled(transition, *args)
            if u is not None:
                assert model._STEP_TESTS["skip" if u == s else kind](s, u), (kind, args)
                accepted.add((kind, u))
        assert accepted == set(successors(s, *pools)), s
