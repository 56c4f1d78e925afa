"""Top-level pipelines: seeded fuzzing and scenario replay."""

from __future__ import annotations

import random

from . import flood_model as fn
from .checking import CheckReport, check_step, check_trace_refinement
from .core import in_workers
from .generate import GeneratorConfig, gen_enabled_transition, gen_good_state
from .scenario import ScenarioError, load_scenario
from .trace import apply_event, run_trace


def fuzz_run(cfg: GeneratorConfig, traces: int = 1) -> CheckReport:
    """Generate traces and check every step.

    Trace t draws from its own stream, seeded with "seed:t", so the traces
    are independent jobs: in_workers checks one contiguous slice of them
    per usable CPU, and the slices merge in trace order (steps appended,
    totals added, the first counterexample kept) into the report one
    process would write. A slice numbers its first step by regenerating
    only the start state of each earlier trace: a non-good one takes one
    index, a good one cfg.steps. A run without a trace, a step or a peer
    checks nothing, so it is refused before any work.

    Generator output is checked, not trusted: a non-good start state s is
    checked as the step s -> s, so it is unsound, a counterexample like a
    step the transition relation rejects or a failed obligation. Each
    generated event is applied once, here, and apply_event raises
    TraceError when the transition's guard refuses it.
    """
    if min(traces, cfg.steps, cfg.max_peers) < 1:
        raise ValueError("a fuzz run needs at least one trace, one step and one peer")

    def start(t):
        rng = random.Random(f"{cfg.seed}:{t}")
        return rng, gen_good_state(cfg, rng)

    def check(lo, hi):  # [step texts, totals, counterexample] of traces lo..hi-1
        part = CheckReport()
        index = sum(cfg.steps if fn.is_good_state(start(t)[1]) else 1 for t in range(lo))
        for t in range(lo, hi):
            rng, s = start(t)
            if not fn.is_good_state(s):
                part.add(check_step(index, s, s, "init"), s, s)
                index += 1
                continue
            for _ in range(cfg.steps):
                ev = gen_enabled_transition(s, cfg, rng, index=index)
                u = apply_event(s, ev)
                part.add(check_step(index, s, u, ev.kind), s, u)
                s = u
                index += 1
        return [part.steps, part.totals, part.counterexample]

    report = CheckReport(config=dict(cfg.to_obj(), traces=traces))
    for steps, totals, counterexample in in_workers(traces, check):
        report.steps += steps
        for name, n in totals.items():
            report.totals[name] += n
        if report.counterexample is None:
            report.counterexample = counterexample
    return report


def scenario_run(path) -> CheckReport:
    """Replay a scenario file and check the refinement obligations over it.

    A scenario without an event other than skip is refused: its steps leave
    every state as it was, so it would pass vacuously.
    """
    state, events = load_scenario(path)
    if all(ev.kind == "skip" for ev in events):
        raise ScenarioError("a scenario without a non-skip event checks nothing and never passes", "events")
    states = run_trace(state, events)
    return check_trace_refinement(
        states,
        config={"scenario": str(path), "events": len(events)},
        kinds=[ev.kind for ev in events],
    )
