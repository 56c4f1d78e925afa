"""Built-in fault injections.

Each fault plants one specific bug into an otherwise healthy workload and
must be caught by at least one checker with a counterexample dump; the
"none" control runs the same machinery uncorrupted and must pass. The
faults double as a self-test that the checkers are not vacuous.
"""

from __future__ import annotations

import time
from dataclasses import replace

from . import flood_model as fn
from .checking import CheckReport, StepRecord, check_step
from .core import Message
from .generate import GeneratorConfig
from .refinement import check_match, matching_step, refinement_map
from .runner import fuzz_run

_M = Message("fault-probe", "t0", 1)
_A, _B = sorted([_M, Message("fault-probe-2", "t0", 1)])


def _flood_pair():
    """A forward step that empties the message's last pending copy."""
    s = fn.FloodState(
        (
            (1, fn.FloodPeer(pubs=("t0",), nsubs=(("t0", (2,)),), pending=(_M,))),
            (2, fn.FloodPeer(subs=("t0",), seen=(_M,))),
        )
    )
    return s, fn.forward(1, _M, s)


def _forward_to_self():
    # a buggy forward hands the message back to the sender's pending set
    s, u = _flood_pair()
    return s, u.with_peer(1, replace(u.get(1), pending=(_M,))), "forward"


def _leave_with_pending():
    # peer 1 departs while still holding a pending message
    s = fn.FloodState(
        (
            (1, fn.FloodPeer(pubs=("t0",), pending=(_M,))),
            (2, fn.FloodPeer(subs=("t0",))),
        )
    )
    return s, fn.leave(1, s), "leave"


def _lone_skip(**fields):
    s = fn.FloodState(((1, fn.FloodPeer(**fields)),))
    return s, s, "skip"


# (s, u, kind) of each fault that plants one bad step into a checked trace
_PLANTED = {
    # the generator's good-state filter is bypassed: peer 1 tracks itself
    "skip-good-check": lambda: _lone_skip(subs=("t0",), nsubs=(("t0", (1,)),)),
    "forward-to-self": _forward_to_self,
    "leave-with-pending": _leave_with_pending,
    "duplicate-seen": lambda: _lone_skip(seen=(_A, _A)),
    "unsorted-seen": lambda: _lone_skip(seen=(_B, _A)),
}

FAULTS = ("drop-receiver", *_PLANTED, "none")


def _report_for(fault: str) -> CheckReport:
    report = CheckReport(config={"fault": fault})

    if fault == "none":
        clean = fuzz_run(GeneratorConfig(max_peers=4, max_topics=2, max_messages=3, steps=8, seed=7), traces=4)
        clean.config = {"fault": fault, **clean.config}
        return clean

    if fault == "drop-receiver":
        # a wrong witness that loses one receiver of the partial broadcast;
        # WFS3 admits only label(u), the one broadcast state related to u,
        # so its validation of this witness must object
        s, u = _flood_pair()
        w = refinement_map(s)
        corrupt = matching_step(s, u, w).with_peer(2, w.get(2))
        verdict = check_match(s, u, w, corrupt)
        report.add(StepRecord(0, "forward", fn.step_kinds(s, u), verdict.match, (verdict,)), s, u)
        return report

    if fault not in _PLANTED:
        raise ValueError(f"unknown fault {fault!r}; choose one of {', '.join(FAULTS)}")
    s, u, kind = _PLANTED[fault]()
    report.add(check_step(0, s, u, kind), s, u)
    return report


def run_fault(fault: str) -> CheckReport:
    start = time.monotonic()
    report = _report_for(fault)
    report.elapsed_seconds = time.monotonic() - start
    return report
