import json

import pytest

from pubsub_refine.faults import FAULTS, run_fault

INJECTED = tuple(f for f in FAULTS if f != "none")


def test_fault_list_is_complete():
    assert set(INJECTED) == {
        "drop-receiver",
        "skip-good-check",
        "forward-to-self",
        "leave-with-pending",
        "duplicate-seen",
        "unsorted-seen",
    }


@pytest.mark.parametrize("fault", INJECTED)
def test_injected_faults_are_caught(fault):
    report = run_fault(fault)
    assert not report.ok
    assert report.counterexample is not None
    assert report.counterexample["reasons"]
    # the dump carries the offending states
    assert "s" in report.counterexample and "u" in report.counterexample
    # the planted step went through check_step, which records every obligation
    (text,) = report.steps
    assert [c["obligation"] for c in json.loads(text)["checks"]] == ["WFS1", "WFS2", "WFS3"]


def test_control_run_is_clean():
    report = run_fault("none")
    assert report.ok
    assert report.counterexample is None


def test_unknown_fault_rejected():
    with pytest.raises(ValueError, match="unknown fault"):
        run_fault("gremlin")


def test_each_fault_names_a_distinct_reason():
    reasons = {}
    for fault in INJECTED:
        report = run_fault(fault)
        reasons[fault] = tuple(report.counterexample["reasons"])
    assert any("no flood transition relates the states" in r for r in reasons["drop-receiver"])
    assert any("good-state" in r for r in reasons["skip-good-check"])
    assert any("no flood transition" in r for r in reasons["forward-to-self"])
    assert any("no flood transition" in r for r in reasons["leave-with-pending"])
    assert any("good-state" in r for r in reasons["duplicate-seen"])
    assert any("good-state" in r for r in reasons["unsorted-seen"])
