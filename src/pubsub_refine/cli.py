"""Command line interface.

Exit codes: 0 when every obligation passes, 1 when a counterexample was
found (a failed obligation or an unsound step, generated or replayed), 2
for usage or input errors (an unwritable --report path, refused before
any checking, and a run that checked nothing, which writes no report), 3
for an internal error of the checker itself, so that 1 always means a
counterexample.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from .checking import NothingChecked, emit_report
from .exhaustive import BoundsError, run_exhaustive
from .faults import FAULTS, run_fault
from .generate import GeneratorConfig, default_weights
from .runner import fuzz_run, scenario_run
from .scenario import ScenarioError
from .trace import TraceError

USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _parse_weights(raw: str) -> dict[str, float]:
    weights = default_weights()
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"weight {item!r} is not of the form kind=value")
        kind, value = item.split("=", 1)
        weights[kind.strip()] = float(value)
    return weights


def _unwritable(path: str) -> str | None:
    """Why a report cannot be written to path, or None; creates nothing."""
    if not path:
        return "the path is empty"
    if os.path.isdir(path):
        return "is a directory"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"no directory {parent}"
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        return "permission denied"
    return None


def _write_report(report, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as f:
            emit_report(report, f)
    else:
        emit_report(report, sys.stdout)


def _summarize(report) -> str:
    t = report.totals
    verdict = "PASS" if report.ok else "FAIL"
    return (
        f"{verdict}: {t['steps']} steps, {t['checks']} checks, "
        f"{t['failed']} failed, {t['unsound_steps']} unsound"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pubsub-refine",
        description="Check that flooding pubsub traces refine their atomic-broadcast specification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="generate random traces and check every step")
    fuzz.add_argument("--steps", type=int, default=10)
    fuzz.add_argument("--traces", type=int, default=10)
    fuzz.add_argument("--max-peers", type=int, default=8)
    fuzz.add_argument("--max-topics", type=int, default=4)
    fuzz.add_argument("--max-messages", type=int, default=6)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--static", action="store_true",
                      help="disable churn and subscription transitions")
    fuzz.add_argument("--weights", type=str, default="",
                      help="comma-separated kind=weight overrides")
    fuzz.add_argument("--report", type=str, default=None, help="write the JSON report here")

    run = sub.add_parser("run", help="replay a scenario file and check it")
    run.add_argument("scenario")
    run.add_argument("--report", type=str, default=None)

    enum = sub.add_parser("enumerate", help="exhaustive small-scope cross-check")
    enum.add_argument("--peers", type=int, required=True)
    enum.add_argument("--topics", type=int, required=True)
    enum.add_argument("--messages", type=int, required=True)
    enum.add_argument("--cap", type=int, default=2000,
                      help="refuse if the flood state space exceeds this many states")

    mutate = sub.add_parser("mutate", help="inject a built-in fault; expects detection")
    mutate.add_argument("--fault", required=True, choices=FAULTS)
    mutate.add_argument("--report", type=str, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Nothing the checker builds is cyclic, so reference counting frees all
    # of it; the cycle collector would only rescan the states the caches and
    # the report keep alive. Its state is restored for in-process callers.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    except (BoundsError, NothingChecked) as e:  # refusals: bounds it cannot check, a run that checked nothing
        return _usage_error(e)
    except Exception as e:  # the CLI boundary: exit 1 must only ever mean a counterexample
        message = " ".join(str(e).splitlines())
        print(f"internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return INTERNAL_ERROR
    finally:
        if collecting:
            gc.enable()


def _usage_error(e) -> int:
    print(f"error: {e}", file=sys.stderr)
    return USAGE_ERROR


def _run(args) -> int:
    path = getattr(args, "report", None)
    problem = path is not None and _unwritable(path)
    if problem:
        return _usage_error(f"cannot write report {path!r}: {problem}")

    start = time.monotonic()
    if args.command == "enumerate":
        report = run_exhaustive(args.peers, args.topics, args.messages, cap=args.cap)
    elif args.command == "fuzz":
        try:
            cfg = GeneratorConfig(max_peers=args.max_peers, max_topics=args.max_topics,
                                  max_messages=args.max_messages, steps=args.steps, seed=args.seed,
                                  weights=_parse_weights(args.weights), static=args.static)
        except ValueError as e:
            return _usage_error(e)
        report = fuzz_run(cfg, traces=args.traces)
    elif args.command == "run":
        try:
            report = scenario_run(args.scenario)
        except (ScenarioError, TraceError, OSError) as e:
            return _usage_error(e)
    else:
        report = run_fault(args.fault)
    report.elapsed_seconds = time.monotonic() - start
    ok = report.ok  # read first: a run that checked nothing raises here and writes no report
    _write_report(report, path)
    if args.command != "enumerate":
        print(_summarize(report), file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
