from collections import Counter

import pytest

from pubsub_refine import broadcast_model as bn
from pubsub_refine import flood_model as fn
from pubsub_refine import runner, trace
from pubsub_refine.checking import check_step, check_trace_refinement
from pubsub_refine.core import Message
from pubsub_refine.generate import GeneratorConfig
from pubsub_refine.runner import fuzz_run
from pubsub_refine.trace import TraceError, TraceEvent

M = Message("x", "t1", 1)


def flood(entries):
    return fn.FloodState(tuple(entries))


def test_all_skip_trace():
    s = flood([(1, fn.FloodPeer(subs=("t1",)))])
    report = check_trace_refinement([s, s, s], kinds=["skip", "skip"])
    assert report.ok
    assert [rec.bn_match for rec in report.steps] == ["skip", "skip"]
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


def assert_unsound_counterexample(report, reason):
    rec = report.steps[0]
    assert not rec.sound and any(reason in issue for issue in rec.soundness_issues)
    assert not report.ok
    assert report.counterexample["step"] == 0
    assert report.counterexample["reasons"] == list(rec.soundness_issues)
    assert report.totals["failed"] == 0 and report.totals["unsound_steps"] == 1
    assert report.totals["errors"] == 0 and report.to_obj()["errors"] == []


def test_non_good_state_is_a_counterexample_not_an_error():
    bad = flood([(1, fn.FloodPeer(nsubs=(("t1", (1,)),)))])
    report = check_trace_refinement([bad, bad], kinds=["skip"])
    assert_unsound_counterexample(report, "pre-state violates good-state invariants at peers (1,)")


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
    assert [rec.sound for rec in report.steps] == [False, False, False]
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
    oa, ob = a.to_obj(), b.to_obj()
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
    counted = ((fn, "step_kinds"), (bn, "step_kinds"), (fn, "is_step"), (bn, "is_step"), (fn, "forward"))
    for module, name in counted:
        def counting(*args, _f=getattr(module, name), _key=f"{module.__name__}.{name}"):
            calls[_key] += 1
            return _f(*args)

        monkeypatch.setattr(module, name, counting)
    rec = check_step(0, s, u, "forward")
    assert rec.bn_match == match and all(v.passed for v in rec.verdicts)
    assert calls["pubsub_refine.flood_model.step_kinds"] == 1
    assert calls["pubsub_refine.broadcast_model.step_kinds"] == 1
    assert calls["pubsub_refine.flood_model.is_step"] == 0
    assert calls["pubsub_refine.broadcast_model.is_step"] == 0
    assert calls["pubsub_refine.flood_model.forward"] <= 1


def test_check_step_decides_each_state_good_once(monkeypatch):
    s = flood([(1, fn.FloodPeer(pubs=("t1",), nsubs=(("t1", (2,)),), pending=(M,))), (2, fn.FloodPeer(seen=(M,)))])
    u = flood(fn.forward(1, M, s).entries)  # a fresh object, with nothing decided on it yet
    decided = Counter()

    def counting(x, _f=fn.self_tracking_violations):
        decided[x] += 1
        return _f(x)

    monkeypatch.setattr(fn, "self_tracking_violations", counting)
    rec = check_step(0, s, u, "forward")
    assert rec.sound and all(v.passed for v in rec.verdicts)
    assert set(decided) <= {s, u}
    assert max(decided.values()) == 1


def test_fuzz_applies_each_event_once_and_digests_nothing(monkeypatch):
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


def test_fuzz_refuses_a_disabled_generated_event(monkeypatch):
    monkeypatch.setattr(runner, "gen_enabled_transition", lambda s, cfg, rng, index: TraceEvent(index, "leave", peer=99))
    with pytest.raises(TraceError, match=r"step 0 \(leave\).*not in state"):
        fuzz_run(GeneratorConfig(seed=1, steps=1))
