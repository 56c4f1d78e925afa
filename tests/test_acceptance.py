"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""

import json
import random
import time
from importlib import resources
from pathlib import Path

from pubsub_refine import broadcast_model as bn
from pubsub_refine import flood_model as fn
from pubsub_refine.checking import check_trace_refinement
from pubsub_refine.cli import main
from pubsub_refine.core import Message, enabled, ordered_set
from pubsub_refine.exhaustive import run_exhaustive
from pubsub_refine.faults import FAULTS, run_fault
from pubsub_refine.generate import GeneratorConfig, gen_good_state
from pubsub_refine.refinement import refinement_map
from pubsub_refine.runner import fuzz_run
from pubsub_refine.scenario import load_scenario
from pubsub_refine.trace import run_trace, state_digest


def _verdict(n: int, name: str, ok: bool):
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_acceptance_1_wfs_fuzz_suite():
    # 10,000 generated (good state, enabled step) instances at the stated
    # bounds; zero failures, under five minutes
    cfg = GeneratorConfig(max_peers=8, max_topics=4, max_messages=6, steps=20, seed=20240817)
    start = time.monotonic()
    report = fuzz_run(cfg, traces=500)
    elapsed = time.monotonic() - start
    totals = report.totals
    ok = (
        totals["steps"] == 10_000
        and totals["failed"] == 0
        and totals["unsound_steps"] == 0
        and totals["errors"] == 0
        and totals["not_applicable"] == 0
        and totals["checks"] == 30_000
        and report.counterexample is None
        and elapsed < 300.0
    )
    _verdict(1, f"WFS fuzz suite, {totals['checks']} checks in {elapsed:.1f}s", ok)


def test_acceptance_2_exhaustive_oracle():
    # bounds (<=2 peers, <=1 topic, <=1 message): relation agreement,
    # obligations on every successor pair, good-state preservation
    report = run_exhaustive(2, 1, 1, cap=5000)
    ok = (
        report.ok
        and (report.flood_states, report.flood_pairs_checked) == (4225, 17_850_625)
        and (report.broadcast_states, report.broadcast_pairs_checked) == (81, 6561)
        and report.successors_checked == 45_969
        and report.obligations_checked == 35_847
    )
    _verdict(
        2,
        f"exhaustive oracle, {report.flood_pairs_checked + report.broadcast_pairs_checked} pairs, "
        f"{report.obligations_checked} obligations, {len(report.discrepancies)} discrepancies",
        ok,
    )


def test_acceptance_3_golden_trace():
    scenario = resources.files("pubsub_refine") / "scenarios" / "figure1.json"
    with resources.as_file(scenario) as path:
        s0, events = load_scenario(path)
    golden_path = Path(__file__).parent / "golden" / "figure1_expected.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    states = run_trace(s0, events)
    report = check_trace_refinement(states, kinds=[ev.kind for ev in events])
    m = Message.from_obj(golden["message"])
    final = refinement_map(states[-1])
    steps = [json.loads(text) for text in report.steps]
    matches = [{"kind": step["kind"], "bn_match": step["bn_match"]} for step in steps]
    ok = (
        report.ok
        and [st.to_obj() for st in states] == golden["states"]
        and [refinement_map(st).to_obj() for st in states] == golden["mapped_states"]
        and [state_digest(st) for st in states] == golden["digests"]
        and matches == golden["matches"]
        and [step["bn_match"] for step in steps]
        == ["skip", "skip", "leave", "unsubscribe", "unsubscribe", "broadcast-partial"]
        and list(bn.message_receivers(m, final)) == golden["final_receivers"]
        and bn.broadcast_partial(m, bn.message_receivers(m, final), refinement_map(states[-2])) == final
    )
    _verdict(3, "golden trace reproduced exactly", ok)


def test_acceptance_4_forward_preserves_map_under_stable_pending():
    # 5,000 enabled forwards (peer, message, state) that leave the pooled
    # pending set unchanged must leave the mapped state unchanged
    cfg = GeneratorConfig(max_peers=6, max_topics=3, max_messages=4, seed=404)
    rng = random.Random(cfg.seed)
    checked = 0
    attempts = 0
    while checked < 5_000:
        attempts += 1
        assert attempts < 200_000, "instance generation stalled"
        s = gen_good_state(cfg, rng)
        for p, pst in s.entries:
            for m in pst.pending:
                u = enabled(fn.forward, p, m, s)
                if u is None or fn.pending_messages(u) != fn.pending_messages(s):
                    continue  # p is not m's designated forwarder, or the pooled pending set changed
                assert refinement_map(u) == refinement_map(s), (p, m, s)
                checked += 1
    _verdict(4, f"map stability over {checked} pending-preserving forwards", checked >= 5_000)


def _static_config(rng: random.Random):
    """A churn-free network whose topic-t subscribers form a tree under t-edges."""
    n = rng.randint(1, 6)
    peers = ordered_set(rng.sample(range(12), n))
    origin = rng.choice(peers)
    others = [p for p in peers if p != origin]
    rng.shuffle(others)
    subscribers = sorted(others[: rng.randint(0, len(others))])
    if rng.random() < 0.4:
        subscribers = sorted(set(subscribers) | {origin})
    nodes = [origin] + [p for p in subscribers if p != origin]
    edges = {p: set() for p in peers}
    for i, node in enumerate(nodes[1:], start=1):
        edges[nodes[rng.randint(0, i - 1)]].add(node)
    for _ in range(rng.randint(0, 3)):  # redundant links keep the set equality honest
        q = rng.choice(nodes)
        r = rng.choice(nodes)
        if r != q and r in subscribers:
            edges[q].add(r)
    entries = []
    for p in peers:
        pubs = ("t",) if p == origin else ()
        subs = ("t",) if p in subscribers else ()
        nsubs = ((("t"), tuple(sorted(edges[p]))),) if edges[p] else ()
        entries.append((p, fn.FloodPeer(pubs, subs, nsubs, (), ())))
    return fn.FloodState(tuple(entries)), origin, tuple(subscribers)


def test_acceptance_5_static_configuration_equivalence():
    # in a static, topic-connected configuration exhaustive forwarding is
    # indistinguishable from one atomic broadcast
    rng = random.Random(505)
    for i in range(1_000):
        s0, origin, subscribers = _static_config(rng)
        assert fn.is_good_state(s0)
        m = Message(f"b{i}", "t", origin)
        s = fn.produce(m, s0)
        hops = 0
        while m in fn.pending_messages(s):
            s = fn.forward(fn.find_forwarder(s, m), m, s)
            hops += 1
            assert hops <= len(s.entries) + 1, "flooding failed to terminate"
        recipients = set(bn.message_receivers(m, refinement_map(s)))
        assert recipients == set(subscribers) | {origin}, (s0, origin, subscribers)
        assert refinement_map(s) == bn.broadcast(m, refinement_map(s0))
    _verdict(5, "1000 static floods equal their atomic broadcast", True)


def test_acceptance_6_fault_injection_completeness(tmp_path):
    injected = [f for f in FAULTS if f != "none"]
    assert len(injected) == 6
    caught = 0
    for fault in injected:
        out = tmp_path / f"{fault}.json"
        code = main(["mutate", "--fault", fault, "--report", str(out)])
        report = json.loads(out.read_text())
        if code == 1 and report["counterexample"] is not None:
            caught += 1
    control = run_fault("none")
    control_code = main(["mutate", "--fault", "none", "--report", str(tmp_path / "none.json")])
    ok = caught == 6 and control.ok and control_code == 0
    _verdict(6, f"{caught}/6 faults caught, control clean", ok)


def test_acceptance_7_report_determinism(tmp_path):
    args = [
        "fuzz", "--traces", "40", "--steps", "12", "--max-peers", "6",
        "--max-topics", "3", "--max-messages", "4", "--seed", "7070",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--report", str(a)]) == 0
    assert main(args + ["--report", str(b)]) == 0
    oa, ob = json.loads(a.read_text()), json.loads(b.read_text())
    oa.pop("elapsed_seconds"), ob.pop("elapsed_seconds")
    ok = json.dumps(oa, sort_keys=True) == json.dumps(ob, sort_keys=True)
    _verdict(7, "identical seeds give byte-identical reports", ok)
