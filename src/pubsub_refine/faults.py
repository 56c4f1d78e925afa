"""Built-in fault injections.

Each fault plants one specific bug into an otherwise healthy workload and
must be caught by at least one checker with a counterexample dump; the
"none" control runs the same machinery uncorrupted and must pass. The
faults double as a self-test that the checkers are not vacuous.
"""

from __future__ import annotations

import time

from . import flood_model as fn
from .checking import CheckReport, StepRecord, check_step
from .core import Message
from .generate import GeneratorConfig
from .refinement import check_match, matching_step, refinement_map
from .runner import fuzz_run

FAULTS = (
    "drop-receiver",
    "skip-good-check",
    "forward-to-self",
    "leave-with-pending",
    "duplicate-seen",
    "unsorted-seen",
    "none",
)

_M = Message("fault-probe", "t0", 1)


def _flood_pair():
    """A forward step that empties the message's last pending copy."""
    s = fn.FloodState(
        (
            (1, fn.FloodPeer(pubs=("t0",), nsubs=(("t0", (2,)),), pending=(_M,))),
            (2, fn.FloodPeer(subs=("t0",), seen=(_M,))),
        )
    )
    return s, fn.forward(1, _M, s)


def _report_for(fault: str) -> CheckReport:
    report = CheckReport(config={"fault": fault})

    if fault == "none":
        clean = fuzz_run(GeneratorConfig(max_peers=4, max_topics=2, max_messages=3, steps=8, seed=7), traces=4)
        clean.config = {"fault": fault, **clean.config}
        return clean

    if fault == "drop-receiver":
        # a buggy matching-step constructor that loses one receiver of the
        # partial broadcast; WFS3's validation of its witness must object
        s, u = _flood_pair()
        w = refinement_map(s)
        corrupt = matching_step(s, u, w).with_peer(2, w.get(2))
        verdict = check_match(s, u, w, corrupt)
        report.add(StepRecord(0, "forward", fn.step_kinds(s, u), verdict.match, (verdict,), True), s, u)
        return report

    if fault == "skip-good-check":
        # the generator's good-state filter is bypassed: peer 1 tracks itself
        s = fn.FloodState(
            ((1, fn.FloodPeer(subs=("t0",), nsubs=(("t0", (1,)),))),)
        )
        report.add(check_step(0, s, s, "skip"), s, s)
        return report

    if fault == "forward-to-self":
        # a buggy forward hands the message back to the sender's pending set
        s, good_u = _flood_pair()
        pst = good_u.get(1)
        bad_u = good_u.with_peer(
            1, fn.FloodPeer(pst.pubs, pst.subs, pst.nsubs, (_M,), pst.seen)
        )
        report.add(check_step(0, s, bad_u, "forward"), s, bad_u)
        return report

    if fault == "leave-with-pending":
        # peer 1 departs while still holding a pending message
        s = fn.FloodState(
            (
                (1, fn.FloodPeer(pubs=("t0",), pending=(_M,))),
                (2, fn.FloodPeer(subs=("t0",))),
            )
        )
        u = fn.leave(1, s)
        report.add(check_step(0, s, u, "leave"), s, u)
        return report

    if fault in ("duplicate-seen", "unsorted-seen"):
        m2 = Message("fault-probe-2", "t0", 1)
        a, b = sorted([_M, m2])
        seen = (a, a) if fault == "duplicate-seen" else (b, a)
        s = fn.FloodState(((1, fn.FloodPeer(seen=seen)),))
        report.add(check_step(0, s, s, "skip"), s, s)
        return report

    raise ValueError(f"unknown fault {fault!r}; choose one of {', '.join(FAULTS)}")


def run_fault(fault: str) -> CheckReport:
    start = time.monotonic()
    report = _report_for(fault)
    report.elapsed_seconds = time.monotonic() - start
    return report
