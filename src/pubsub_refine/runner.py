"""Top-level pipelines: seeded fuzzing and scenario replay."""

from __future__ import annotations

import random

from . import flood_model as fn
from .checking import CheckReport, NothingChecked, check_step, check_trace_refinement
from .core import in_workers
from .generate import GeneratorConfig, gen_enabled_transition, gen_good_state
from .scenario import load_scenario
from .trace import apply_event, run_trace


def fuzz_run(cfg: GeneratorConfig, traces: int = 1) -> CheckReport:
    """Generate traces and check every step.

    Trace t draws from its own stream, seeded with "seed:t", and numbers
    its steps from t * cfg.steps, so the traces are independent jobs that
    need no earlier trace: in_workers hands them out in chunks to the usable
    CPUs, and the chunks merge in trace order (steps appended, totals added,
    the first counterexample kept) into the report one process would write.
    A non-good start state takes the first index of its trace's block and
    leaves the rest unused. A run without a trace, a step or a peer checks
    nothing, so it is refused before any work, not by its report's ok.

    Generator output is checked, not trusted: a non-good start state s is
    checked as the step s -> s, so it is unsound, a counterexample like a
    step the transition relation rejects or a failed obligation. Each
    generated event is applied once, here; one that its transition's guard
    refuses is a fault of the generator, and fails its chunk like any crash.
    """
    if min(traces, cfg.steps, cfg.max_peers) < 1:
        raise NothingChecked("a fuzz run needs at least one trace, one step and one peer")

    def check(lo, hi):  # [step texts, totals, moved, counterexample] of traces lo..hi-1
        part = CheckReport()
        for t in range(lo, hi):
            rng = random.Random(f"{cfg.seed}:{t}")
            s = gen_good_state(cfg, rng)
            if not fn.is_good_state(s):
                part.add(check_step(t * cfg.steps, s, s, "init"), s, s)
                continue
            for index in range(t * cfg.steps, (t + 1) * cfg.steps):
                ev = gen_enabled_transition(s, cfg, rng, index=index)
                u = apply_event(s, ev)
                part.add(check_step(index, s, u, ev.kind), s, u)
                s = u
        return [part.steps, part.totals, part.moved, part.counterexample]

    report = CheckReport(config=dict(cfg.to_obj(), traces=traces))
    for steps, totals, moved, counterexample in in_workers(traces, check):
        report.steps += steps
        for name, n in totals.items():
            report.totals[name] += n
        report.moved += moved
        if report.counterexample is None:
            report.counterexample = counterexample
    return report


def scenario_run(path) -> CheckReport:
    """Replay a scenario file and check the refinement obligations over it.

    A scenario none of whose steps moves the state checks nothing, so its
    report's ok refuses it.
    """
    state, events = load_scenario(path)
    states = run_trace(state, events)
    return check_trace_refinement(
        states,
        config={"scenario": str(path), "events": len(events)},
        kinds=[ev.kind for ev in events],
    )
