"""Per-step refinement checking over flood traces and report aggregation.

For every consecutive pair (s, u) of a trace the checker runs the three
obligations with w fixed to the image of s, records which specification
step takes w to the witness v = label(u) (the only broadcast state related
to u, so nothing is searched for or built), and additionally verifies the
trace soundness conditions (good states, consecutive states related by the
step relation). check_step is the one place a StepRecord is built: fuzzed
and replayed steps, a non-good fuzz start state (as the step s -> s) and
the planted faults all go through it. Every checked step enters a report
through CheckReport.add, which makes the first unsound or failed step the
counterexample, with the full state dumps, and then keeps the step only as
the canonical JSON text the report writes for it. An unsound step is a
counterexample whether the trace was generated or replayed: replay input
cannot make a step unsound (scenario states must be good and events
enabled), so one comes from the model. A run none of whose steps moved
the flood state checks nothing: its report's ok raises NothingChecked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise

from . import flood_model as fn
from .core import Refused, canonical_json, ordered_set
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


class NothingChecked(Refused):
    """A run that checked nothing, such as one whose steps never moved the flood state: it neither passes nor fails."""


@dataclass
class CheckReport:
    """The checked steps of a run, their totals and the dump of its first offending step.

    The report format keeps an "errors" list and its total; both are always
    empty, because an unsound step is a counterexample like a failed one.
    The totals are counted as each step is added, so reading them walks
    nothing. Each step is held as its canonical JSON text, encoded once as
    it is added, so a run keeps its report's bytes rather than a record
    and a WFS3 witness state per step. moved, which is not written, counts
    the steps whose flood match is not skip.
    """

    config: dict = field(default_factory=dict)
    steps: list[str] = field(default_factory=list, init=False)
    counterexample: dict | None = None
    elapsed_seconds: float = 0.0
    totals: dict = field(init=False, default_factory=lambda: dict.fromkeys(
        ("steps", "checks", "passed", "failed", "unsound_steps", "not_applicable", "errors"), 0))
    moved: int = field(default=0, init=False)

    def add(self, rec: StepRecord, s: fn.FloodState, u: fn.FloodState):
        """Append a checked step's JSON text and count it; dump the first unsound or failed one as the counterexample."""
        self.steps.append(canonical_json(rec.to_obj()))
        failed = len(rec.failures)
        skipped = sum(not v.applicable for v in rec.verdicts)
        t = self.totals
        t["steps"] += 1
        t["checks"] += len(rec.verdicts)
        t["passed"] += len(rec.verdicts) - failed - skipped
        t["failed"] += failed
        t["unsound_steps"] += not rec.sound
        t["not_applicable"] += skipped
        self.moved += rec.flood_matches != ("skip",)
        if self.counterexample is not None or (rec.sound and not failed):
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
        if self.counterexample is None and not self.moved:
            steps = self.totals["steps"]
            raise NothingChecked(f"the run checked nothing: none of its {steps} steps moved the flood state")
        return self.counterexample is None


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
                          f"{ordered_set(fn.self_tracking_violations(x) + fn.unordered_seen_violations(x))}")
    flood_matches = fn.step_kinds(s, u)
    if not flood_matches:
        issues.append("no flood transition relates the states")

    w = refinement_map(s)
    # the cases of the combined step s -> u, read off the one flood classification
    v3 = check_wfs3(s, w, u, flood_matches if good_s and good_u else ())
    return StepRecord(
        index=index,
        kind=kind,
        flood_matches=flood_matches,
        bn_match=v3.match,
        verdicts=(check_wfs1(s), check_wfs2(s, w), v3),
        soundness_issues=tuple(issues),
    )


def emit_report(report, out):
    """Write a report to the text stream out as canonical JSON on one line, with one final newline.

    Every command writes its report so. A CheckReport goes out in pieces
    that sort as its keys do: the keys before "steps", encoded together,
    then the step texts it holds, then the totals, so the whole report is
    never built as one object or one string. Any other report is encoded
    whole from its to_obj.
    """
    if not isinstance(report, CheckReport):
        out.write(canonical_json(report.to_obj()) + "\n")
        return
    head = canonical_json({"config": report.config, "counterexample": report.counterexample,
                           "elapsed_seconds": report.elapsed_seconds, "errors": []})
    out.write(head[:-1] + ',"steps":[')  # head without its closing brace
    for i, text in enumerate(report.steps):
        out.write("," + text if i else text)
    out.write('],"totals":' + canonical_json(report.totals) + "}\n")


def check_trace_refinement(states, kinds, config: dict | None = None) -> CheckReport:
    """Check every consecutive pair of states, labelled with one kind per step.

    Each step goes through CheckReport.add, so the first unsound or failed
    step becomes the counterexample.
    """
    report = CheckReport(config=config or {})
    for i, ((s, u), kind) in enumerate(zip(pairwise(states), kinds, strict=True)):
        report.add(check_step(i, s, u, kind), s, u)
    return report
