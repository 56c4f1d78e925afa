"""Run the pubsub-refine CLI with aggregate per-layer spans.

    python3 traced_cli.py SPANS.json CLI-ARGS...

The script wraps chosen functions of the package from outside, calls
``pubsub_refine.cli.main`` with CLI-ARGS, writes what it recorded to
SPANS.json and exits with the CLI's exit code. Nothing under ``src/`` knows
that it is traced.

A wrapper is installed at the name the caller looks up at call time: a
function imported with ``from .x import f`` is called through the
importing module's global, so ``runner.check_step`` and
``checking.check_step`` are two sites of one span. Calls made through
``flood_model._STEP_TESTS`` (the seven step tests) bind the functions when
the module is imported and cannot be wrapped from here.

Spans are not kept one per call: the tens of millions of relation tests in
an exhaustive run would not fit. Each (span, parent span) pair keeps a call
count, its total time and its self time (total minus the time of its
child spans).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from pubsub_refine import (
    broadcast_model,
    checking,
    cli,
    exhaustive,
    flood_model,
    generate,
    refinement,
    runner,
    trace,
)


def _check_step_kind(index, s, u, kind="?"):
    return kind


# (module, attribute the caller looks up, span name, key of the call or None)
SITES = (
    (cli, "fuzz_run", "runner.fuzz_run", None),
    (cli, "scenario_run", "runner.scenario_run", None),
    (cli, "run_exhaustive", "exhaustive.run_exhaustive", None),
    (cli, "emit_report", "checking.emit_report", None),
    (runner, "gen_good_state", "generate.gen_good_state", None),
    (runner, "gen_enabled_transition", "generate.gen_enabled_transition", None),
    (runner, "apply_event", "trace.apply_event", None),
    (runner, "check_step", "checking.check_step", _check_step_kind),
    (runner, "load_scenario", "scenario.load_scenario", None),
    (runner, "run_trace", "trace.run_trace", None),
    (runner, "check_trace_refinement", "checking.check_trace_refinement", None),
    (generate, "make_event", "trace.make_event", None),
    (trace, "state_digest", "trace.state_digest", None),
    (trace, "apply_event", "trace.apply_event", None),
    (checking, "check_step", "checking.check_step", _check_step_kind),
    (checking, "check_wfs1", "refinement.check_wfs1", None),
    (checking, "check_wfs2", "refinement.check_wfs2", None),
    (checking, "check_wfs3", "refinement.check_wfs3", None),
    (checking, "refinement_map", "refinement.refinement_map", None),
    (refinement, "refinement_map", "refinement.refinement_map", None),
    (flood_model, "step_kinds", "flood_model.step_kinds", None),
    (flood_model, "is_step", "flood_model.is_step", None),
    (broadcast_model, "is_step", "broadcast_model.is_step", None),
    (exhaustive, "enumerate_flood_states", "exhaustive.enumerate_flood_states", None),
    (exhaustive, "enumerate_broadcast_states", "exhaustive.enumerate_broadcast_states", None),
    (exhaustive, "flood_successors", "exhaustive.flood_successors", None),
    (exhaustive, "broadcast_successors", "exhaustive.broadcast_successors", None),
    (exhaustive, "check_wfs1", "refinement.check_wfs1", None),
    (exhaustive, "check_wfs2", "refinement.check_wfs2", None),
    (exhaustive, "check_wfs3", "refinement.check_wfs3", None),
    (exhaustive, "refinement_map", "refinement.refinement_map", None),
)

# The seven lru_caches, read before any wrapper replaces them.
CACHES = {
    "pending_messages": flood_model.pending_messages,
    "produce": flood_model.produce,
    "forward": flood_model.forward,
    "_subscribe": flood_model._subscribe,
    "_unsubscribe": flood_model._unsubscribe,
    "_join": flood_model._join,
    "refinement_map": refinement.refinement_map,
}

# Span arguments that are the flood state a step starts from.
STATE_ARG = {"checking.check_step": 1, "exhaustive.flood_successors": 0}


class Tracer:
    def __init__(self):
        self.stack = [["", 0.0, 0.0]]  # span name, start, time of child spans
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.pending_depth_max = 0

    def _row(self, name: str) -> list:
        key = (name, self.stack[-1][0])
        row = self.spans.get(key)
        if row is None:
            row = self.spans[key] = [0, 0.0, 0.0]
        return row

    def enter(self, name: str, count: bool = True):
        if count:
            self._row(name)[0] += 1
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, child = self.stack.pop()
        elapsed = time.perf_counter() - start
        self.stack[-1][2] += elapsed
        row = self._row(name)
        row[1] += elapsed
        row[2] += elapsed - child

    def note_state(self, s):
        depth = max((len(pst.pending) for _, pst in s.entries), default=0)
        self.pending_depth_max = max(self.pending_depth_max, depth)

    def wrap(self, fn, name: str, key=None):
        state_arg = STATE_ARG.get(name)
        if inspect.isgeneratorfunction(fn):
            # time each resumption; the consumer's work between items is
            # not part of the span
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                self._row(name)[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    self.enter(name, count=False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if key is None else f"{name}.{key(*args, **kwargs)}"
            if state_arg is not None:
                self.note_state(args[state_arg])
            self.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def install(self):
        for module, attr, name, key in SITES:
            setattr(module, attr, self.wrap(getattr(module, attr), name, key))

    def to_obj(self) -> dict:
        return {
            "spans": [[name, parent, *row] for (name, parent), row in sorted(self.spans.items())],
            "caches": {
                name: fn.cache_info()._asdict() for name, fn in CACHES.items()
            },
            "pending_depth_max": self.pending_depth_max,
        }


def main(argv) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    main_fn = tracer.wrap(cli.main, "cli.main")
    try:
        code = main_fn(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as f:
            json.dump(tracer.to_obj(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
