"""The benchmark looks package functions up by name and copies some of its facts.

perfbench/traced_cli.py wraps functions at the module attributes their
callers use and reads each lru_cache's statistics. A refactor that renames
or moves one of them would break ``perfbench/run.py --trace 1`` without
failing any other test, so these tests load the script and resolve every
name it uses. perfbench/run.py keeps its own copies of the flood step
kinds, the built-in faults and the enumerate counts it gates on; these
tests hold them to the package's, and run a passing report through its
report judge. Its replay scenario carries digests from its own encoder,
which replay must accept, and names the peer of every forward, which
forward's guard must accept.
"""

import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from pubsub_refine import faults
from pubsub_refine import flood_model as fn
from pubsub_refine.checking import check_trace_refinement, emit_report
from pubsub_refine.exhaustive import run_exhaustive
from pubsub_refine.scenario import parse_scenario
from pubsub_refine.trace import run_trace, state_digest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED_CLI = PERFBENCH / "traced_cli.py"
RUN = PERFBENCH / "run.py"


@pytest.fixture(scope="module")
def traced_cli():
    spec = importlib.util.spec_from_file_location("perfbench_traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves(traced_cli):
    for module, attr, span, _ in traced_cli.SITES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_every_traced_cache_reports_its_statistics(traced_cli):
    assert len(traced_cli.CACHES) == 7
    for name, cached in traced_cli.CACHES.items():
        info = cached.cache_info()
        assert info.maxsize, name


@pytest.fixture(scope="module")
def bench_run():
    name = "perfbench_run"
    spec = importlib.util.spec_from_file_location(name, RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_benchmark_step_kinds_are_the_flood_kinds(bench_run):
    assert bench_run.STEP_KINDS == fn.STEP_KINDS


def test_benchmark_faults_are_the_built_in_faults(bench_run):
    assert (*bench_run.FAULTS, "none") == faults.FAULTS


def test_benchmark_enumerate_counts_match_the_oracle(bench_run):
    # the two benchmark bounds cheap enough for every test run; the benchmark
    # does not gate successors_checked, so its exact values are pinned here
    for bounds, successors in [((1, 1, 1), 201), ((1, 1, 3), 7541)]:
        want = bench_run.ENUMERATE_COUNTS[bounds]
        got = run_exhaustive(*bounds, cap=5000).to_obj()
        assert {key: got[key] for key in want} == want, bounds
        assert got["successors_checked"] == successors, bounds
        assert got["discrepancy_counts"] == {}, bounds


def test_a_passing_report_passes_the_benchmark_judge(bench_run):
    # the judge gates on the report's totals, so a format change must keep them
    s = fn.FloodState(((1, fn.FloodPeer()),))
    out = io.StringIO()
    emit_report(check_trace_refinement([s, s], kinds=["skip"]), out)
    report = json.loads(out.getvalue())
    verdict = bench_run.judge_check_report(1)(report)
    assert verdict.problems == [] and verdict.failed == 0
    assert (verdict.checks, verdict.pairs) == (1, 1)


@pytest.mark.parametrize("seed", [1, 2])
def test_replay_accepts_the_digests_of_the_benchmark_encoder(bench_run, seed):
    # the benchmark writes its flood semantics and its digests without the package
    doc = bench_run.deep_pending_scenario(seed, events=60)
    s0, events = parse_scenario(json.dumps(doc))
    states = run_trace(s0, events)
    assert [state_digest(s) for s in states] == [events[0].pre_digest] + [ev.post_digest for ev in events]


def test_replay_accepts_every_forward_of_the_benchmark_input(bench_run):
    # the replay-deep-pending workload replays 300 events, and each forward
    # names its peer; one the guard refused would fail the workload's gate
    doc = bench_run.deep_pending_scenario(1, events=300)
    s0, events = parse_scenario(json.dumps(doc))
    forwards = [ev for ev in events if ev.kind == "forward"]
    assert len(forwards) > 100 and all(ev.peer is not None for ev in forwards)
    assert len(run_trace(s0, events)) == 301
