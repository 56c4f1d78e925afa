"""Top-level pipelines: seeded fuzzing and scenario replay."""

from __future__ import annotations

import random

from . import flood_model as fn
from .checking import CheckReport, check_step, check_trace_refinement
from .generate import GeneratorConfig, gen_enabled_transition, gen_good_state
from .scenario import ScenarioError, load_scenario
from .trace import apply_event, run_trace


def fuzz_run(cfg: GeneratorConfig, traces: int = 1) -> CheckReport:
    """Generate traces and check every step.

    Generator output is checked, not trusted: a non-good start state s is
    checked as the step s -> s, so it is unsound, a counterexample like a
    step the transition relation rejects or a failed obligation. Each
    generated event is applied once, here, and apply_event raises
    TraceError when the transition's guard refuses it.
    """
    rng = random.Random(cfg.seed)
    report = CheckReport(config=dict(cfg.to_obj(), traces=traces))
    index = 0
    for _ in range(traces):
        s = gen_good_state(cfg, rng)
        if not fn.is_good_state(s):
            report.add(check_step(index, s, s, "init"), s, s)
            continue
        for _ in range(cfg.steps):
            ev = gen_enabled_transition(s, cfg, rng, index=index)
            u = apply_event(s, ev)
            report.add(check_step(index, s, u, ev.kind), s, u)
            s = u
            index += 1
    return report


def scenario_run(path) -> CheckReport:
    """Replay a scenario file and check the refinement obligations over it.

    A scenario without events is refused: it would pass vacuously.
    """
    state, events = load_scenario(path)
    if not events:
        raise ScenarioError("a scenario without events checks nothing and never passes", "events")
    states = run_trace(state, events)
    return check_trace_refinement(
        states,
        config={"scenario": str(path), "events": len(events)},
        kinds=[ev.kind for ev in events],
    )
