"""Per-step refinement checking over flood traces and report aggregation.

For every consecutive pair (s, u) of a trace the checker runs the three
obligations with w fixed to the image of s, records which specification
step matched the constructed witness, and additionally verifies the trace
soundness conditions (good states, consecutive states related by the step
relation). Every checked step enters a report through CheckReport.add,
which makes the first unsound or failed step the counterexample, with the
full state dumps. An unsound step is a counterexample whether the trace was
generated or replayed: replay input cannot make a step unsound (scenario
states must be good and events enabled), so one comes from the model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import pairwise

from . import flood_model as fn
from .core import indented_json
from .refinement import WfsVerdict, check_wfs1, check_wfs2, check_wfs3, refinement_map


@dataclass
class StepRecord:
    index: int
    kind: str  # flood step kind as labelled by the producing event, if known
    flood_matches: tuple[str, ...]
    bn_match: str | None
    verdicts: tuple[WfsVerdict, ...]
    soundness_issues: tuple[str, ...] = ()

    @property
    def sound(self) -> bool:
        return not self.soundness_issues

    @property
    def failures(self) -> tuple[WfsVerdict, ...]:
        return tuple(v for v in self.verdicts if v.applicable and not v.passed)

    def to_obj(self) -> dict:
        obj = {
            "index": self.index,
            "kind": self.kind,
            "flood_matches": list(self.flood_matches),
            "bn_match": self.bn_match,
            "checks": [v.to_obj() for v in self.verdicts],
            "sound": self.sound,
        }
        if self.soundness_issues:
            obj["soundness_issues"] = list(self.soundness_issues)
        return obj


@dataclass
class CheckReport:
    """The checked steps of a run and the dump of its first offending step.

    The report format keeps an "errors" list and its total; both are always
    empty, because an unsound step is a counterexample like a failed one.
    """

    config: dict = field(default_factory=dict)
    steps: list[StepRecord] = field(default_factory=list)
    counterexample: dict | None = None
    elapsed_seconds: float = 0.0

    @property
    def totals(self) -> dict:
        checks = sum(len(r.verdicts) for r in self.steps)
        failed = sum(len(r.failures) for r in self.steps)
        unsound = sum(1 for r in self.steps if not r.sound)
        skipped = sum(1 for r in self.steps for v in r.verdicts if not v.applicable)
        return {
            "steps": len(self.steps),
            "checks": checks,
            "passed": checks - failed - skipped,
            "failed": failed,
            "unsound_steps": unsound,
            "not_applicable": skipped,
            "errors": 0,
        }

    def add(self, rec: StepRecord, s: fn.FloodState, u: fn.FloodState):
        """Append a checked step; dump the first unsound or failed one as the counterexample."""
        self.steps.append(rec)
        if self.counterexample is not None or (rec.sound and not rec.failures):
            return
        reasons = list(rec.soundness_issues)
        reasons += [f"{v.obligation}: {v.diagnostics}" for v in rec.failures]
        dump = {"s": s.to_obj(), "u": u.to_obj(), "w": refinement_map(s).to_obj(),
                "step": rec.index, "reasons": reasons}
        for v in rec.verdicts:
            if v.witness is not None:
                dump["v"] = v.witness.to_obj()
        self.counterexample = dump

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def to_obj(self) -> dict:
        return {
            "config": self.config,
            "totals": self.totals,
            "steps": [r.to_obj() for r in self.steps],
            "errors": [],
            "counterexample": self.counterexample,
            "elapsed_seconds": self.elapsed_seconds,
        }


def check_step(index: int, s: fn.FloodState, u: fn.FloodState, kind: str) -> StepRecord:
    """Check one trace step: soundness, the three obligations, and the match.

    The good-state checks, the flood classification and the image of s are
    decided once and shared; the match is read off the WFS3 verdict.
    """
    issues = []
    good_s, good_u = fn.is_good_state(s), fn.is_good_state(u)
    for tag, x, good in (("pre", s, good_s), ("post", u, good_u)):
        if not good:
            issues.append(f"{tag}-state violates good-state invariants at peers "
                          f"{fn.self_tracking_violations(x) + fn.unordered_seen_violations(x)}")
    flood_matches = fn.step_kinds(s, u)
    if not flood_matches:
        issues.append("no flood transition relates the states")

    w = refinement_map(s)
    # combined_step_kinds(s, u), read off the one flood classification
    v3 = check_wfs3(s, w, u, flood_matches if good_s and good_u else ())
    return StepRecord(
        index=index,
        kind=kind,
        flood_matches=flood_matches,
        bn_match=v3.match,
        verdicts=(check_wfs1(s), check_wfs2(s, w), v3),
        soundness_issues=tuple(issues),
    )


def emit_report(report: CheckReport) -> str:
    return indented_json(report.to_obj()) + "\n"


def check_trace_refinement(states, kinds, config: dict | None = None) -> CheckReport:
    """Check every consecutive pair of states, labelled with one kind per step.

    Each step goes through CheckReport.add, so the first unsound or failed
    step becomes the counterexample.
    """
    start = time.monotonic()
    report = CheckReport(config=config or {})
    for i, ((s, u), kind) in enumerate(zip(pairwise(states), kinds, strict=True)):
        report.add(check_step(i, s, u, kind), s, u)
    report.elapsed_seconds = time.monotonic() - start
    return report
