import io
import json
import os
import random
from collections import Counter
from dataclasses import replace

import pytest

from pubsub_refine import broadcast_model as bn
from pubsub_refine import flood_model as fn
from pubsub_refine import runner, trace
from pubsub_refine.checking import CheckReport, NothingChecked, check_step, check_trace_refinement, emit_report
from pubsub_refine.core import Message
from pubsub_refine.generate import GeneratorConfig
from pubsub_refine.refinement import refinement_map
from pubsub_refine.runner import fuzz_run
from pubsub_refine.trace import TraceEvent

M = Message("x", "t1", 1)


def flood(entries):
    return fn.FloodState(tuple(entries))


def parsed_steps(report) -> list[dict]:
    return [json.loads(text) for text in report.steps]


def emitted(report) -> dict:
    out = io.StringIO()
    emit_report(report, out)
    return json.loads(out.getvalue())


def test_all_skip_trace():
    # no step moves the flood state, so the run checked nothing: it neither passes nor fails
    s = flood([(1, fn.FloodPeer(subs=("t1",)))])
    report = check_trace_refinement([s, s, s], kinds=["skip", "skip"])
    with pytest.raises(NothingChecked, match="none of its 2 steps moved the flood state"):
        report.ok
    assert [step["bn_match"] for step in parsed_steps(report)] == ["skip", "skip"]
    assert report.totals["checks"] == 6
    assert report.totals["failed"] == 0


def test_step_records_match_kinds():
    s = flood(
        [
            (1, fn.FloodPeer(pubs=("t1",), nsubs=(("t1", (2,)),), pending=(M,))),
            (2, fn.FloodPeer(subs=("t1",))),
        ]
    )
    u = fn.forward(1, M, s)
    rec = check_step(0, s, u, "forward")
    assert rec.sound
    assert rec.flood_matches == ("forward",)
    assert rec.bn_match == "skip"  # the message is still pending at peer 2
    assert all(v.passed for v in rec.verdicts)


def test_full_flood_matches_partial_broadcast():
    s = flood(
        [
            (1, fn.FloodPeer(nsubs=(("t1", (2,)),), pending=(M,))),
            (2, fn.FloodPeer(seen=(M,))),
        ]
    )
    u = fn.forward(1, M, s)
    rec = check_step(0, s, u, "forward")
    assert rec.bn_match == "broadcast-partial"


def test_a_forward_that_forgets_a_committed_message_fails_wfs3(monkeypatch):
    # a buggy forward also drops the committed message a from the
    # forwarder's seen set; the flood relation replays the same bug, so the
    # step is a forward, and WFS3's one witness, the image of u, is not a
    # spec step from the image of s
    a = Message("a", "t0", 1)
    x = Message("x", "t0", 1)
    real = fn.forward

    def forgetful_forward(p, m, s):
        u = real(p, m, s)
        return u.with_peer(p, replace(u.get(p), seen=tuple(y for y in u.get(p).seen if y != a)))

    monkeypatch.setattr(fn, "forward", forgetful_forward)
    s = flood([(1, fn.FloodPeer(pubs=("t0",), pending=(x,), seen=(a,))), (2, fn.FloodPeer(seen=(a,)))])
    u = fn.forward(1, x, s)
    report = CheckReport()
    report.add(check_step(0, s, u, "forward"), s, u)
    (step,) = parsed_steps(report)
    assert step["sound"] and step["flood_matches"] == ["forward"]
    assert [c["obligation"] for c in step["checks"] if c["status"] == "fail"] == ["WFS3"]
    assert not report.ok
    assert report.counterexample["reasons"][0].startswith("WFS3: w does not step to v")
    assert report.counterexample["v"] == refinement_map(u).to_obj()


def assert_unsound_counterexample(report, reason):
    step = parsed_steps(report)[0]
    assert not step["sound"] and any(reason in issue for issue in step["soundness_issues"])
    assert not report.ok
    assert report.counterexample["step"] == 0
    assert report.counterexample["reasons"] == step["soundness_issues"]
    assert report.totals["failed"] == 0 and report.totals["unsound_steps"] == 1
    assert report.totals["errors"] == 0 and emitted(report)["errors"] == []


def test_non_good_state_is_a_counterexample_not_an_error():
    bad = flood([(1, fn.FloodPeer(nsubs=(("t1", (1,)),)))])
    report = check_trace_refinement([bad, bad], kinds=["skip"])
    assert_unsound_counterexample(report, "pre-state violates good-state invariants at peers (1,)")


A, B = sorted([M, Message("y", "t1", 1)])


@pytest.mark.parametrize("entries, peers", [
    ([(1, fn.FloodPeer(nsubs=(("t1", (1,)),), seen=(B, A)))], "(1,)"),
    ([(1, fn.FloodPeer(seen=(B, A))), (2, fn.FloodPeer(nsubs=(("t1", (2,)),)))], "(1, 2)"),
], ids=["one-peer-breaks-both", "key-order-across-invariants"])
def test_offending_peers_are_listed_once_in_key_order(entries, peers):
    # a peer that breaks both invariants is named once, and invariant-2
    # peers are not listed after invariant-1 peers of higher keys
    bad = flood(entries)
    rec = check_step(0, bad, bad, "skip")
    assert rec.soundness_issues == (
        f"pre-state violates good-state invariants at peers {peers}",
        f"post-state violates good-state invariants at peers {peers}",
    )


def test_unrelated_pair_is_a_counterexample():
    s = flood([(1, fn.FloodPeer())])
    u = flood([(2, fn.FloodPeer(seen=(M,)))])
    report = check_trace_refinement([s, u], kinds=["skip"])
    assert_unsound_counterexample(report, "no flood transition relates the states")
    assert report.counterexample["s"] == s.to_obj() and report.counterexample["u"] == u.to_obj()


def test_only_the_first_offending_step_is_dumped():
    good = flood([(1, fn.FloodPeer())])
    bad = flood([(1, fn.FloodPeer(nsubs=(("t1", (1,)),)))])
    report = check_trace_refinement([good, bad, bad, good], kinds=["skip"] * 3)
    assert [step["sound"] for step in parsed_steps(report)] == [False, False, False]
    assert report.counterexample["step"] == 0 and report.counterexample["u"] == bad.to_obj()


def test_trace_needs_one_kind_per_step():
    s = flood([(1, fn.FloodPeer())])
    with pytest.raises(ValueError):
        check_trace_refinement([s, s, s], kinds=["skip"])


def test_fuzz_report_shape_and_determinism():
    cfg = GeneratorConfig(max_peers=4, max_topics=2, max_messages=3, steps=5, seed=12)
    a = fuzz_run(cfg, traces=3)
    b = fuzz_run(cfg, traces=3)
    assert a.ok and b.ok
    oa, ob = emitted(a), emitted(b)
    oa.pop("elapsed_seconds"), ob.pop("elapsed_seconds")
    assert oa == ob
    assert oa["config"]["seed"] == 12
    assert oa["totals"]["steps"] == 15


@pytest.mark.parametrize(
    "receiver, match",
    [
        (fn.FloodPeer(subs=("t1",)), "skip"),
        (fn.FloodPeer(seen=(M,)), "broadcast-partial"),  # the forward floods the last copy
    ],
)
def test_check_step_classifies_a_forward_once(monkeypatch, receiver, match):
    s = flood([(1, fn.FloodPeer(pubs=("t1",), nsubs=(("t1", (2,)),), pending=(M,))), (2, receiver)])
    u = fn.forward(1, M, s)
    calls = Counter()
    counted = ((fn, "step_kinds"), (bn, "step_kind"), (fn, "is_step"), (bn, "is_step"), (fn, "forward"))
    for module, name in counted:
        def counting(*args, _f=getattr(module, name), _key=f"{module.__name__}.{name}"):
            calls[_key] += 1
            return _f(*args)

        monkeypatch.setattr(module, name, counting)
    # the spec cases after the match must not run
    later = list(bn._STEP_TESTS)[list(bn._STEP_TESTS).index(match) + 1:]
    for kind in later:
        def never(s, u, _key=f"after the match: {kind}"):
            calls[_key] += 1
            return False

        monkeypatch.setitem(bn._STEP_TESTS, kind, never)
    rec = check_step(0, s, u, "forward")
    assert rec.bn_match == match and all(v.passed for v in rec.verdicts)
    assert calls["pubsub_refine.flood_model.step_kinds"] == 1
    assert calls["pubsub_refine.broadcast_model.step_kind"] == 1
    assert later and not [key for key in calls if key.startswith("after the match")]
    assert calls["pubsub_refine.flood_model.is_step"] == 0
    assert calls["pubsub_refine.broadcast_model.is_step"] == 0
    assert calls["pubsub_refine.flood_model.forward"] <= 1


def test_check_step_decides_each_state_good_once(monkeypatch):
    s = flood([(1, fn.FloodPeer(pubs=("t1",), nsubs=(("t1", (2,)),), pending=(M,))), (2, fn.FloodPeer(seen=(M,)))])
    # fresh state and peer objects, with nothing decided on them yet (forward's cache may hold older ones)
    u = flood((p, replace(pst)) for p, pst in fn.forward(1, M, s).entries)
    decided = Counter()

    def counting(p, pst, _f=fn._holds_at):
        decided[p, id(pst)] += 1
        return _f(p, pst)

    monkeypatch.setattr(fn, "_holds_at", counting)
    rec = check_step(0, s, u, "forward")
    assert rec.sound and all(v.passed for v in rec.verdicts)
    # each (peer object, key) of both states decided once: u shares no peer object with s here
    assert set(decided) == {(p, id(pst)) for x in (s, u) for p, pst in x.entries}
    assert max(decided.values()) == 1


def test_fuzz_applies_each_event_once_and_digests_nothing(monkeypatch):
    # one CPU: a forked worker's calls are never counted in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = Counter()

    def counting(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(trace, "_digest", counting("serialized", trace._digest))
    apply = counting("applied", trace.apply_event)
    monkeypatch.setattr(trace, "apply_event", apply)
    monkeypatch.setattr(runner, "apply_event", apply)
    report = fuzz_run(GeneratorConfig(seed=101, steps=20), traces=20)
    assert report.ok and report.totals["steps"] == 400
    assert calls == {"applied": 400}


def test_fuzz_numbers_every_step_once_after_a_non_good_start_state(monkeypatch):
    # one CPU: the first start state this process generates is broken, and each forked worker would break its own
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    gen_good_state = runner.gen_good_state
    starts = []

    def self_tracking_first(cfg, rng):
        s = gen_good_state(cfg, rng)
        starts.append(s)
        return flood([(1, fn.FloodPeer(nsubs=(("t1", (1,)),)))]) if len(starts) == 1 else s

    monkeypatch.setattr(runner, "gen_good_state", self_tracking_first)
    report = fuzz_run(GeneratorConfig(seed=1, steps=5), traces=3)
    steps = parsed_steps(report)
    assert steps[0]["kind"] == "init" and not report.ok
    assert [step["index"] for step in steps] == [0, *range(5, 15)]  # trace t numbers its steps from t * 5


@pytest.mark.parametrize("cfg, traces", [
    (GeneratorConfig(seed=1, steps=5), 0),
    (GeneratorConfig(seed=1, steps=0), 3),
    (GeneratorConfig(max_peers=0, steps=5), 3),
], ids=["no-trace", "no-step", "no-peer"])
def test_a_fuzz_run_that_checks_nothing_is_refused_before_it_forks(cfg, traces, monkeypatch):
    # without a peer every state is the empty network and every step a skip
    def no_fork():
        raise AssertionError("forked a worker for a run that checks nothing")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(ValueError, match="at least one trace, one step and one peer"):
        fuzz_run(cfg, traces=traces)


@pytest.mark.parametrize("seed, forgetful", [(2, False), (2, True), (40, True)],
                         ids=["passing", "first-offence-in-the-callers-slice", "first-offence-in-a-workers-slice"])
def test_splitting_the_traces_over_workers_leaves_the_report_as_it_is(monkeypatch, seed, forgetful):
    # one CPU checks every trace in this process; with two or three, the
    # forked workers' steps, totals and counterexamples are merged back in
    # trace order, and the first offending step is the counterexample
    if forgetful:  # the forward of the WFS3 test above, forgetting every message the forwarder has seen
        real = fn.forward

        def forgetful_forward(p, m, s):
            u = real(p, m, s)
            return u.with_peer(p, replace(u.get(p), seen=()))

        monkeypatch.setattr(fn, "forward", forgetful_forward)
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
        report = fuzz_run(GeneratorConfig(max_peers=4, max_topics=2, max_messages=3, steps=8, seed=seed), traces=6)
        assert len(forks) == cpus - 1
        assert report.totals["steps"] == 48 and report.ok != forgetful
        offending = [step["index"] for step in parsed_steps(report)
                     if not step["sound"] or any(c["status"] == "fail" for c in step["checks"])]
        if forgetful:
            # offences fall in two or more of the three CPUs' slices of 16 steps
            assert len({i // 16 for i in offending}) >= 2
            assert report.counterexample["step"] == offending[0]
        out = io.StringIO()
        emit_report(report, out)
        texts.add(out.getvalue())
    assert len(texts) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_every_slice_numbers_its_steps_after_non_good_start_states(cpus, monkeypatch):
    # traces 0 and 2 of 4 start in a non-good state, which takes the first
    # index of its trace's block of 5; trace t numbers its steps from t * 5
    cfg = GeneratorConfig(seed=1, steps=5)
    gen_good_state = runner.gen_good_state
    broken = {gen_good_state(cfg, random.Random(f"1:{t}")) for t in (0, 2)}
    self_tracking = flood([(1, fn.FloodPeer(nsubs=(("t1", (1,)),)))])

    def breaking(cfg, rng):
        s = gen_good_state(cfg, rng)
        return self_tracking if s in broken else s

    monkeypatch.setattr(runner, "gen_good_state", breaking)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    steps = parsed_steps(fuzz_run(cfg, traces=4))
    assert [step["index"] for step in steps] == [0, *range(5, 10), 10, *range(15, 20)]
    assert [step["index"] for step in steps if step["kind"] == "init"] == [0, 10]


def test_fuzz_refuses_a_disabled_generated_event(monkeypatch):
    # a generated event that its guard refuses is a fault of the generator: it fails its chunk like any crash
    monkeypatch.setattr(runner, "gen_enabled_transition", lambda s, cfg, rng, index: TraceEvent(index, "leave", peer=99))
    with pytest.raises(RuntimeError) as failed:
        fuzz_run(GeneratorConfig(seed=1, steps=1))
    assert str(failed.value) == "rows 0..0 failed: TraceError: step 0 (leave): leave: peer 99 not in state"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_disabled_event_in_any_trace_is_refused_as_it_is(cpus, monkeypatch):
    # the lowest failing chunk is raised with one text, whichever process met the refusal
    real = runner.gen_enabled_transition

    def disabled_from_step_9(s, cfg, rng, index):
        return TraceEvent(index, "leave", peer=99) if index >= 9 else real(s, cfg, rng, index=index)

    monkeypatch.setattr(runner, "gen_enabled_transition", disabled_from_step_9)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with pytest.raises(RuntimeError) as failed:
        fuzz_run(GeneratorConfig(seed=5, steps=3), traces=5)
    assert str(failed.value) == "rows 3..3 failed: TraceError: step 9 (leave): leave: peer 99 not in state"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
