import json
from importlib import resources

import pytest

from pubsub_refine import cli
from pubsub_refine import flood_model as fn
from pubsub_refine.cli import main

FIGURE1 = resources.files("pubsub_refine") / "scenarios" / "figure1.json"


def test_fuzz_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "fuzz", "--traces", "3", "--steps", "4", "--max-peers", "3",
        "--max-topics", "2", "--max-messages", "2", "--seed", "5",
        "--report", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["totals"]["failed"] == 0
    assert report["totals"]["steps"] == 12
    assert report["config"]["seed"] == 5
    assert "PASS" in capsys.readouterr().err


def test_fuzz_determinism_modulo_elapsed(tmp_path):
    args = ["fuzz", "--traces", "2", "--steps", "5", "--seed", "9"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--report", str(a)]) == 0
    assert main(args + ["--report", str(b)]) == 0
    oa, ob = json.loads(a.read_text()), json.loads(b.read_text())
    oa.pop("elapsed_seconds"), ob.pop("elapsed_seconds")
    assert oa == ob


def test_seed_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PUBSUB_REFINE_SEED", "77")
    out = tmp_path / "r.json"
    assert main(["fuzz", "--traces", "1", "--steps", "1", "--report", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 77


def test_fuzz_rejects_bad_weights():
    assert main(["fuzz", "--weights", "teleport=2"]) == 2
    assert main(["fuzz", "--weights", "skip=0,produce=0,forward=0,subscribe=0,"
                 "unsubscribe=0,join=0,leave=0"]) == 2


def test_fuzz_static_flag(tmp_path):
    out = tmp_path / "r.json"
    assert main(["fuzz", "--traces", "2", "--steps", "6", "--static",
                 "--seed", "3", "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    kinds = {step["kind"] for step in report["steps"]}
    assert kinds <= {"skip", "produce", "forward"}


def test_run_scenario(tmp_path):
    out = tmp_path / "r.json"
    with resources.as_file(FIGURE1) as path:
        assert main(["run", str(path), "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [s["bn_match"] for s in report["steps"]] == [
        "skip", "skip", "leave", "unsubscribe", "unsubscribe", "broadcast-partial",
    ]


def test_run_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"state": {"peers": {"3": {"nsubs": {"t1": [3]}}}}}')
    assert main(["run", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["run", str(missing)]) == 2
    disabled = tmp_path / "disabled.json"
    disabled.write_text(json.dumps({
        "state": {"peers": {}},
        "events": [{"kind": "leave", "peer": 4}],
    }))
    assert main(["run", str(disabled)]) == 2


def test_run_refuses_a_scenario_without_events(tmp_path, capsys):
    for document in ({"state": {"peers": {"1": {}}}, "events": []}, {"state": {"peers": {"1": {}}}}):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(document))
        assert_usage_error(["run", str(empty)], capsys)


def test_unsound_replayed_step_is_a_counterexample(tmp_path, monkeypatch, capsys):
    # a subscribe that makes the subscriber track itself leaves the good
    # states; replay input cannot do that, so the model is at fault
    def self_tracking_subscribe(p, topics, s):
        return s.with_peer(p, fn.FloodPeer(subs=tuple(topics), nsubs=tuple((tp, (p,)) for tp in topics)))

    monkeypatch.setattr(fn, "subscribe", self_tracking_subscribe)
    scenario = tmp_path / "subscribe.json"
    scenario.write_text(json.dumps({
        "state": {"peers": {"1": {}}},
        "events": [{"kind": "subscribe", "peer": 1, "topics": ["t0"]}],
    }))
    out = tmp_path / "r.json"
    assert main(["run", str(scenario), "--report", str(out)]) == 1
    assert capsys.readouterr().err.startswith("FAIL: 1 steps")
    report = json.loads(out.read_text())
    assert report["counterexample"]["reasons"] == [
        "post-state violates good-state invariants at peers (1,)"]
    assert report["totals"]["unsound_steps"] == 1 and report["errors"] == []


def test_enumerate_small(capsys):
    assert main(["enumerate", "--peers", "1", "--topics", "1", "--messages", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["discrepancies"] == []
    assert out["flood_states"] == 9


def test_enumerate_refuses_oversized(capsys):
    assert main(["enumerate", "--peers", "3", "--topics", "2", "--messages", "2",
                 "--cap", "50"]) == 2
    assert "above the cap" in capsys.readouterr().err


def test_mutate_faults_exit_codes(tmp_path):
    for fault in ("drop-receiver", "leave-with-pending", "unsorted-seen"):
        out = tmp_path / f"{fault}.json"
        assert main(["mutate", "--fault", fault, "--report", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["counterexample"] is not None
    assert main(["mutate", "--fault", "none"]) == 0


def test_mutate_unknown_fault_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mutate", "--fault", "gremlin"])
    assert exc.value.code == 2


def assert_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_seed_env_var_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("PUBSUB_REFINE_SEED", "abc")
    assert_usage_error(["fuzz", "--traces", "1", "--steps", "1"], capsys)


@pytest.mark.parametrize("weight", ["inf", "nan", "-5", "-inf"])
def test_fuzz_rejects_weights_that_are_not_finite_and_non_negative(weight, capsys):
    assert_usage_error(["fuzz", "--weights", f"forward={weight}"], capsys)


@pytest.mark.parametrize("bounds", [("-1", "1", "0"), ("1", "-1", "0"), ("1", "1", "-1")])
def test_enumerate_rejects_negative_bounds(bounds, capsys):
    peers, topics, messages = bounds
    assert_usage_error(["enumerate", "--peers", peers, "--topics", topics, "--messages", messages], capsys)


@pytest.mark.parametrize("flags", [["--traces", "0"], ["--traces", "-1"], ["--steps", "0"]])
def test_fuzz_that_checks_nothing_is_a_usage_error(flags, capsys):
    assert_usage_error(["fuzz", *flags], capsys)


def test_run_rejects_json_nested_beyond_the_decoder(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert_usage_error(["run", str(deep)], capsys)


def test_run_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin.json"
    bad.write_bytes(b'{"state": {"peers": {}}, "events": [\xff]}')
    assert_usage_error(["run", str(bad)], capsys)


@pytest.mark.parametrize("argv, checker", [
    (["fuzz", "--traces", "1", "--steps", "1"], "fuzz_run"),
    (["run", str(FIGURE1)], "scenario_run"),
    (["mutate", "--fault", "none"], "run_fault"),
])
def test_unwritable_report_is_refused_before_any_check(argv, checker, tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{checker} ran despite an unwritable report path")

    monkeypatch.setattr(cli, checker, must_not_run)
    assert_usage_error(argv + ["--report", str(tmp_path / "missing" / "x.json")], capsys)
    assert_usage_error(argv + ["--report", str(tmp_path)], capsys)
    assert list(tmp_path.iterdir()) == []


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "fuzz_run", crash)
    assert main(["fuzz", "--traces", "1", "--steps", "1"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom second line\n"


def test_a_real_counterexample_still_exits_1(capsys):
    assert main(["mutate", "--fault", "drop-receiver"]) == 1
    assert "internal error" not in capsys.readouterr().err
