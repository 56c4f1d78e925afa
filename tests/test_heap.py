"""What the checker leaves on the heap.

cli.main runs the checker with the cycle collector off. That is sound only
while nothing the checker builds is cyclic, so that reference counting
frees all of it: each path below runs with the collector off and must leave
no cyclic garbage behind. The models' lru_caches are bounded by
core.CACHE_SIZE, and the bound must keep the hit each cache exists for, the
replay of the transition just applied.
"""

import gc
import json
import os
import types
from collections import Counter
from importlib import resources

import pytest

from pubsub_refine import broadcast_model as bn
from pubsub_refine import flood_model as fn
from pubsub_refine import trace
from pubsub_refine.checking import StepRecord
from pubsub_refine.core import CACHE_SIZE
from pubsub_refine.exhaustive import run_exhaustive
from pubsub_refine.faults import FAULTS, run_fault
from pubsub_refine.generate import GeneratorConfig
from pubsub_refine.refinement import WfsVerdict, refinement_map
from pubsub_refine.runner import fuzz_run, scenario_run

CACHES = (fn.pending_messages, fn.produce, fn.forward, fn._subscribe, fn._unsubscribe, fn._join,
          refinement_map, trace.message_json, trace._topic_fields_json)
FIGURE1 = resources.files("pubsub_refine") / "scenarios" / "figure1.json"


def _fuzz(traces, **cfg):
    return fuzz_run(GeneratorConfig(max_peers=8, max_topics=4, max_messages=6, steps=20, **cfg), traces=traces)


PATHS = {
    "fuzz": lambda: _fuzz(50, seed=101),
    "fuzz-static": lambda: _fuzz(50, seed=7, static=True),
    "figure1": lambda: scenario_run(FIGURE1),
    "enumerate-112": lambda: run_exhaustive(1, 1, 2),
    **{f"mutate-{fault}": (lambda fault=fault: run_fault(fault)) for fault in FAULTS},
}


@pytest.mark.parametrize("path", PATHS)
def test_nothing_the_checker_builds_is_cyclic(path):
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        PATHS[path]()  # the report is dropped at once
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


def _held(root) -> Counter:
    """The number of objects of each type that root reaches through gc.get_referents.

    The walk enters no class, module or function: those reach every module's
    globals, and through them the caches.
    """
    held, seen, todo = Counter(), set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        held[type(obj)] += 1
        todo.extend(gc.get_referents(obj))
    return held


def test_a_fuzz_report_holds_its_steps_as_text_and_no_state():
    # each checked step is kept as the JSON it writes; a kept record would
    # hold its verdicts, and WFS3's verdict a whole spec state as witness
    report = _fuzz(50, seed=101)
    held = _held(report)
    assert report.ok and held[str] >= report.totals["steps"] == 1000
    assert {t: held[t] for t in (fn.FloodState, bn.BroadcastState, StepRecord, WfsVerdict) if held[t]} == {}


def test_every_cache_is_bounded_and_keeps_the_replay_hit(monkeypatch):
    # one CPU: a forked worker's cache hits never reach this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    for cache in CACHES:
        cache.cache_clear()
    kinds = Counter(json.loads(text)["kind"] for text in _fuzz(50, seed=101).steps)
    assert kinds["produce"] and kinds["forward"]
    scenario_run(FIGURE1)  # a replay digests, and fills the digest tables
    assert trace.message_json.cache_info().currsize and trace._topic_fields_json.cache_info().currsize
    # the event applies the transition once and the step check replays it
    assert fn.produce.cache_info().hits >= kinds["produce"]
    assert fn.forward.cache_info().hits >= kinds["forward"]
    for cache in CACHES:
        info = cache.cache_info()
        assert info.maxsize == CACHE_SIZE and info.currsize <= CACHE_SIZE
