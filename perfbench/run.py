#!/usr/bin/env python3
"""Benchmark of the pubsub-refine checker, driven through its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere: it finds the package under ``src/`` next to this
directory and runs that code, never an installed copy. Each spawn is one
``python -m pubsub_refine.cli`` child, and only one runs at a time (a
closed loop with a single client). The checker is single-threaded.

A run first passes the correctness gates: every built-in fault of
``mutate`` must exit 1 and the ``none`` control must exit 0, and a replay
must refuse its scenario once a digest is corrupted. It then spawns the
workload again and again until ``--seconds`` have passed, and before each
spawn times the set-up twice (a fresh interpreter importing
``pubsub_refine.cli``). Every spawn's output is checked, and all its
reports must hash the same once ``elapsed_seconds`` is removed.

With ``--trace 0`` the run prints the end-to-end metrics, each the median
over the spawns. With ``--trace 1`` it alternates plain spawns with spawns
of ``traced_cli.py`` and prints the per-layer metrics from the traced ones,
plus the tracing overhead (traced minus plain wall time).

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it gives the input and report hashes and the raw samples.
The exit code is 0 only when every gate passed. See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACED_CLI = HERE / "traced_cli.py"

STEP_KINDS = ("skip", "produce", "forward", "subscribe", "unsubscribe", "join", "leave")
FAULTS = (
    "drop-receiver",
    "skip-good-check",
    "forward-to-self",
    "leave-with-pending",
    "duplicate-seen",
    "unsorted-seen",
)
SETUP_PER_SPAWN = 2  # set-up samples taken before each plain spawn
SPAWN_TIMEOUT_S = 170.0  # a hung child is killed and counts as failed
REPORT = "report.json"
SCENARIO = "scenario.json"

# Counts of `enumerate` as measured when the benchmark was written; a
# change to the relations or the universe that moves any of them is a
# correctness failure.
ENUMERATE_COUNTS = {
    (1, 1, 1): {"flood_states": 33, "flood_pairs_checked": 1089, "broadcast_states": 9,
                "broadcast_pairs_checked": 81, "obligations_checked": 309},
    (1, 1, 3): {"flood_states": 1025, "flood_pairs_checked": 1050625, "broadcast_states": 33,
                "broadcast_pairs_checked": 1089, "obligations_checked": 11319},
    (2, 1, 1): {"flood_states": 4225, "flood_pairs_checked": 17850625, "broadcast_states": 81,
                "broadcast_pairs_checked": 6561, "obligations_checked": 35847},
}


@dataclass
class Verdict:
    """What one spawn's report says: work done and what went wrong.

    ``checks`` are checked steps for ``fuzz`` and ``run`` and WFS
    obligations for ``enumerate``; ``pairs`` are state pairs decided, which
    for ``fuzz`` and ``run`` are the checked steps again (one pre/post pair
    each).
    """

    checks: int
    pairs: int
    failed: int
    problems: list[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    argv: list[str]  # arguments after `python -m pubsub_refine.cli`
    judge: Callable[[dict], Verdict]
    pairs: int  # operations the judge expects; all fail when a spawn is wrong
    report_file: str | None = REPORT  # None: the report is standard output
    inputs: dict[str, bytes] = field(default_factory=dict)


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    verdict: Verdict
    report_sha256: str
    report_bytes: int
    trace: dict | None = None


# ---------------------------------------------------------------- workloads


def judge_check_report(steps: int) -> Callable[[dict], Verdict]:
    """Judge a `fuzz` or `run` report that must pass all `steps` steps."""
    want = {"steps": steps, "checks": 3 * steps, "passed": 3 * steps, "failed": 0,
            "unsound_steps": 0, "not_applicable": 0, "errors": 0}

    def judge(report: dict) -> Verdict:
        totals = report["totals"]
        problems = [f"totals.{k} is {totals.get(k)}, expected {v}"
                    for k, v in want.items() if totals.get(k) != v]
        if report.get("counterexample") is not None:
            problems.append("report carries a counterexample")
        failed = totals["failed"] + totals["unsound_steps"] + totals["errors"]
        return Verdict(totals["steps"], totals["steps"], failed, problems)

    return judge


def fuzz_workload(seed: int, traces: int = 500, steps: int = 20) -> Workload:
    argv = ["fuzz", "--traces", str(traces), "--steps", str(steps), "--max-peers", "8",
            "--max-topics", "4", "--max-messages", "6", "--seed", str(seed),
            "--report", REPORT]
    n = traces * steps
    return Workload("fuzz-churn", argv, judge_check_report(n), pairs=n)


def _msg_obj(m) -> dict:
    return {"pld": m[0], "tp": m[1], "or": m[2]}


def _state_obj(peers: dict) -> dict:
    return {"peers": {str(p): {
        "pubs": st["pubs"], "subs": st["subs"], "nsubs": st["nsubs"],
        "pending": [_msg_obj(m) for m in st["pending"]],
        "seen": [_msg_obj(m) for m in st["seen"]],
    } for p, st in sorted(peers.items())}}


def _digest(peers: dict) -> str:
    text = json.dumps(_state_obj(peers), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def deep_pending_scenario(seed: int, events: int) -> dict:
    """A static flood scenario whose pending sets keep growing.

    The flood semantics (produce and forward only) are written out here
    rather than taken from the package, so the input and its digests do
    not depend on the code under test, and a replay that accepts every
    digest confirms that both agree. Messages are tuples (payload, topic,
    origin), whose order is the package's message order.

    There are 10 peers, 2 topics and 24 payloads. Every peer publishes and
    subscribes to every topic, and peer p's neighbours are p +- 1 and p +- 3
    (mod 10). Events come in blocks of four produces, six forwards and one
    skip, shuffled by the seed. A message needs one forward per peer, so
    pending sets grow all along. The seed picks the order, the messages and
    their origins, but not the shape: the cost of a replay varies little
    from seed to seed.
    """
    rng = random.Random(seed)
    tps = ["t0", "t1"]
    ids = list(range(10))
    state = {}
    for p in ids:
        nbrs = sorted((p + d) % 10 for d in (1, -1, 3, -3))
        state[p] = {"pubs": list(tps), "subs": list(tps), "nsubs": {t: nbrs for t in tps},
                    "pending": [], "seen": []}
    doc = {"state": _state_obj(state), "events": []}
    fresh = [(f"m{k:02d}", t, p) for k in range(24) for t in tps for p in ids]
    block: list[str] = []
    pre = _digest(state)
    for i in range(events):
        if not block:
            block = ["produce"] * 4 + ["forward"] * 6 + ["skip"]
            rng.shuffle(block)
        kind = block.pop()
        pending = sorted({m for st in state.values() for m in st["pending"]})
        ev: dict = {"index": i, "kind": "skip"}
        if kind == "produce" and fresh:
            m = fresh.pop(rng.randrange(len(fresh)))
            state[m[2]]["pending"].insert(0, m)
            ev.update(kind="produce", message=_msg_obj(m))
        elif kind == "forward" and pending:
            m = rng.choice(pending)
            p = next(q for q in ids if m in state[q]["pending"])
            st = state[p]
            st["pending"].remove(m)
            st["seen"] = sorted(st["seen"] + [m])
            for q in st["nsubs"][m[1]]:
                if m not in state[q]["pending"] and m not in state[q]["seen"]:
                    state[q]["pending"].insert(0, m)
            ev.update(kind="forward", peer=p, message=_msg_obj(m))
        post = _digest(state)
        ev.update(pre_digest=pre, post_digest=post)
        doc["events"].append(ev)
        pre = post
    return doc


def replay_workload(seed: int, events: int = 300) -> Workload:
    doc = deep_pending_scenario(seed, events=events)
    data = (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")
    return Workload("replay-deep-pending", ["run", SCENARIO, "--report", REPORT],
                    judge_check_report(events), pairs=events,
                    inputs={SCENARIO: data})


def enumerate_workload(peers: int, topics: int, messages: int) -> Workload:
    want = ENUMERATE_COUNTS[(peers, topics, messages)]

    def judge(report: dict) -> Verdict:
        problems = [f"{k} is {report.get(k)}, expected {v}"
                    for k, v in want.items() if report.get(k) != v]
        found = report["discrepancies"]  # the CLI keeps the first 20
        if found:
            problems.append(f"{len(found)} or more discrepancies, first: {found[0].get('check')}")
        pairs = report["flood_pairs_checked"] + report["broadcast_pairs_checked"]
        return Verdict(report["obligations_checked"], pairs, len(found), problems)

    argv = ["enumerate", "--peers", str(peers), "--topics", str(topics),
            "--messages", str(messages), "--cap", "5000"]
    return Workload(f"enumerate-{peers}{topics}{messages}", argv, judge,
                    pairs=want["flood_pairs_checked"] + want["broadcast_pairs_checked"],
                    report_file=None)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "fuzz-churn": fuzz_workload,
    "replay-deep-pending": replay_workload,
    "enumerate-113": lambda seed: enumerate_workload(1, 1, 3),
    # acceptance 2 itself: about 77 s a spawn, too long for the timed runs
    "enumerate-211": lambda seed: enumerate_workload(2, 1, 1),
}


# ---------------------------------------------------------------- spawning


def child_env() -> dict[str, str]:
    """The caller's environment without anything that steers Python or the CLI."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "PUBSUB_REFINE_SEED"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], work: Path) -> tuple[float, int, float]:
    """Run argv in work; return wall seconds, exit code and this child's peak RSS in MB.

    os.wait4 reports the child's own peak; RUSAGE_CHILDREN would give the
    largest of all children so far and hide a regression.
    """
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "pubsub_refine.cli", *args]


def report_hash(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "elapsed_seconds"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_once(w: Workload, work: Path, traced: bool) -> Sample:
    argv = cli_argv(w.argv)
    if traced:
        argv = [sys.executable, str(TRACED_CLI), "spans.json", *w.argv]
    for name in (REPORT, "spans.json"):
        (work / name).unlink(missing_ok=True)
    wall, code, rss = spawn(argv, work)
    failed_all = Verdict(0, w.pairs, w.pairs)
    if code != 0:
        err = (work / "stderr").read_text(errors="replace").strip().splitlines()
        failed_all.problems.append(f"exit code {code}, expected 0: "
                                   f"{err[-1] if err else 'no output'}")
        return Sample(wall, rss, failed_all, "", 0)
    raw = (work / (w.report_file or "stdout")).read_bytes()
    try:
        report = json.loads(raw)
        verdict = w.judge(report)
    except (ValueError, KeyError, TypeError) as e:
        failed_all.problems.append(f"unreadable report: {e!r}")
        return Sample(wall, rss, failed_all, "", len(raw))
    if verdict.problems:  # a wrong verdict fails all of the spawn's work
        verdict.failed = w.pairs
    trace = json.loads((work / "spans.json").read_text()) if traced else None
    return Sample(wall, rss, verdict, report_hash(report), len(raw), trace)


def gate_runs(w: Workload) -> list[tuple[str, list[str], int, str]]:
    """(label, CLI args, expected exit, text stderr must contain) of every gate."""
    gates = [(f"mutate {f}", ["mutate", "--fault", f], 1, "FAIL") for f in FAULTS]
    gates.append(("mutate none", ["mutate", "--fault", "none"], 0, "PASS"))
    if SCENARIO in w.inputs:
        gates.append(("tampered digest", ["run", "tampered.json"], 2, "digest mismatch"))
    return gates


def run_gates(w: Workload, work: Path) -> list[str]:
    """Run the gates; return one problem line per gate that did not hold."""
    if SCENARIO in w.inputs:
        doc = json.loads(w.inputs[SCENARIO])
        doc["events"][0]["post_digest"] = "0" * 64
        (work / "tampered.json").write_text(json.dumps(doc))
    problems = []
    for label, args, want, text in gate_runs(w):
        _, code, _ = spawn(cli_argv(args), work)
        err = (work / "stderr").read_text(errors="replace")
        if code != want or text not in err:
            problems.append(f"gate {label}: exit {code}, expected {want} with {text!r}")
    return problems


def setup_time(work: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI."""
    return spawn([sys.executable, "-c", "import pubsub_refine.cli"], work)[0]


# ---------------------------------------------------------------- metrics


def end_to_end_metrics(samples: list[Sample], setup: list[float]) -> dict:
    med = statistics.median
    return {
        "wall_s": (med(s.wall_s for s in samples), "s"),
        "checks_per_s": (med(s.verdict.checks / s.wall_s for s in samples), "1/s"),
        "pairs_per_s": (med(s.verdict.pairs / s.wall_s for s in samples), "1/s"),
        "setup_s": (med(setup), "s"),
        "peak_rss_mb": (med(s.rss_mb for s in samples), "MB"),
    }


SELF_SPANS = (
    "cli.main",
    "trace.state_digest",
    "generate.gen_enabled_transition",
    "generate.gen_good_state",
    "checking.emit_report",
    "refinement.check_wfs1",
    "refinement.check_wfs2",
    "refinement.check_wfs3",
    "refinement.refinement_map",
    "flood_model.step_kinds",
    "flood_model.is_step",
    "broadcast_model.is_step",
    "exhaustive.enumerate_flood_states",
    "exhaustive.flood_successors",
    "exhaustive.broadcast_successors",
    "scenario.load_scenario",
)
COUNTED_SPANS = ("trace.state_digest", "flood_model.is_step", "broadcast_model.is_step")


def layer_metrics(sample: Sample) -> dict:
    """Per-layer metrics of one traced spawn.

    Times are shares of the time spent in cli.main, in percent, so that a
    layer a workload never enters reads 0 % rather than a time.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for name, _parent, n, tot, own in sample.trace["spans"]:
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + tot
        self_s[name] = self_s.get(name, 0.0) + own
    pct = 100.0 / total["cli.main"]
    m = {}
    for name in COUNTED_SPANS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SELF_SPANS:
        m[f"{name}.self_pct"] = (self_s.get(name, 0.0) * pct, "%")
    for kind in STEP_KINDS:
        span = f"checking.check_step.{kind}"
        m[f"checking.check_step.calls.{kind}"] = (calls.get(span, 0), "count")
        m[f"checking.check_step.time_pct.{kind}"] = (total.get(span, 0.0) * pct, "%")
    m["checking.report_bytes"] = (sample.report_bytes, "bytes")
    for name, info in sample.trace["caches"].items():
        lookups = info["hits"] + info["misses"]
        m[f"cache.{name}.hit_ratio"] = (info["hits"] / lookups if lookups else 0.0, "ratio")
        m[f"cache.{name}.misses"] = (info["misses"], "count")
    m["flood_model.pending_depth.max"] = (sample.trace["pending_depth_max"], "count")
    return m


def traced_metrics(plain: list[Sample], traced: list[Sample]) -> dict:
    per_spawn = [layer_metrics(s) for s in traced]
    metrics = {name: (statistics.median(m[name][0] for m in per_spawn), unit)
               for name, (_, unit) in per_spawn[0].items()}
    overhead = (statistics.median(s.wall_s for s in traced)
                - statistics.median(s.wall_s for s in plain))
    metrics["tracing.overhead_s"] = (overhead, "s")
    return metrics


# ---------------------------------------------------------------- measuring


def measure(w: Workload, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """Gate, time and check one workload; return the result line and the details."""
    for name, data in w.inputs.items():
        (work / name).write_bytes(data)
    problems = run_gates(w, work)
    failed = len(problems)
    gates = len(gate_runs(w))
    setup_time(work)  # warm the file cache and the bytecode cache
    setup: list[float] = []
    plain: list[Sample] = []
    traced: list[Sample] = []
    start = time.monotonic()
    while not plain or time.monotonic() - start < seconds:
        if not trace:
            # interleaved, so set-up is sampled under the same load as the spawns
            setup += [setup_time(work) for _ in range(SETUP_PER_SPAWN)]
        plain.append(run_once(w, work, traced=False))
        if trace:
            traced.append(run_once(w, work, traced=True))
    samples = plain + traced
    for s in samples:
        problems += s.verdict.problems
    hashes = sorted({s.report_sha256 for s in samples})
    if len(hashes) > 1:
        problems.append(f"reports of one seed differ: {hashes}")
    attempted = gates + len(samples) * w.pairs
    failed += sum(s.verdict.failed for s in samples)
    correct = not problems and failed == 0
    metrics = {}
    if correct:
        metrics = traced_metrics(plain, traced) if trace else end_to_end_metrics(plain, setup)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": w.name,
        "argv": w.argv,
        "input_sha256": {k: hashlib.sha256(v).hexdigest() for k, v in w.inputs.items()},
        "report_sha256": hashes[0] if len(hashes) == 1 else hashes,
        "failed_ratio": failed / attempted,
        "problems": problems[:20],
        "spawns": {"plain": len(plain), "traced": len(traced), "gates": gates},
        "wall_s": [s.wall_s for s in plain],
        "traced_wall_s": [s.wall_s for s in traced],
        "setup_s": setup,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that the child is stopped and the work
    # directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "pubsub_refine" / "cli.py").is_file():
        print(f"error: no pubsub_refine package under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload](args.seed)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result, details = measure(w, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details.update(seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
