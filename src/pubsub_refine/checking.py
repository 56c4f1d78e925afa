"""Per-step refinement checking over flood traces and report aggregation.

For every consecutive pair (s, u) of a trace the checker runs the three
obligations with w fixed to the image of s, records which specification
step matched the constructed witness, and additionally verifies the trace
soundness conditions (good states, consecutive states related by the step
relation). A failed obligation or soundness condition yields a
counterexample carrying the full state dumps; precondition violations of
the checker itself are recorded as errors instead of failures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
    sound: bool
    soundness_issues: tuple[str, ...] = ()

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
    config: dict = field(default_factory=dict)
    steps: list[StepRecord] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
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
            "errors": len(self.errors),
        }

    def add(self, rec: StepRecord, s: fn.FloodState, u: fn.FloodState):
        """Append a checked step; the first unsound or failed one is the counterexample."""
        self.steps.append(rec)
        if not rec.sound or rec.failures:
            record_counterexample(self, rec, s, u)

    @property
    def ok(self) -> bool:
        return (
            self.counterexample is None
            and not self.errors
            and all(r.sound and not r.failures for r in self.steps)
        )

    def to_obj(self) -> dict:
        return {
            "config": self.config,
            "totals": self.totals,
            "steps": [r.to_obj() for r in self.steps],
            "errors": list(self.errors),
            "counterexample": self.counterexample,
            "elapsed_seconds": self.elapsed_seconds,
        }


def check_step(index: int, s: fn.FloodState, u: fn.FloodState, kind: str = "?") -> StepRecord:
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
        sound=not issues,
        soundness_issues=tuple(issues),
    )


def record_counterexample(report: CheckReport, rec: StepRecord, s: fn.FloodState, u: fn.FloodState):
    """Attach the first offending step's full dump to the report."""
    if report.counterexample is not None:
        return
    reasons = list(rec.soundness_issues)
    reasons += [f"{v.obligation}: {v.diagnostics}" for v in rec.failures]
    dump = {"s": s.to_obj(), "u": u.to_obj(), "w": refinement_map(s).to_obj(),
            "step": rec.index, "reasons": reasons}
    for v in rec.verdicts:
        if v.witness is not None:
            dump["v"] = v.witness.to_obj()
    report.counterexample = dump


def emit_report(report: CheckReport) -> str:
    return indented_json(report.to_obj()) + "\n"


def check_trace_refinement(states, config: dict | None = None, kinds=None) -> CheckReport:
    """Run the per-step obligations over a full state sequence.

    states must be consecutive flood states; non-good states or unrelated
    pairs are reported as errors (the checker's own precondition), while
    failed obligations become failures with a counterexample.
    """
    start = time.monotonic()
    report = CheckReport(config=config or {})
    kinds = list(kinds) if kinds is not None else ["?"] * max(len(states) - 1, 0)
    for i in range(len(states) - 1):
        s, u = states[i], states[i + 1]
        rec = check_step(i, s, u, kinds[i] if i < len(kinds) else "?")
        report.steps.append(rec)
        if not rec.sound:
            report.errors.append(
                f"step {i}: precondition violated: {'; '.join(rec.soundness_issues)}"
            )
        if rec.failures:
            record_counterexample(report, rec, s, u)
    report.elapsed_seconds = time.monotonic() - start
    return report
