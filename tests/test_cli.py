import gc
import json
import os
import subprocess
import sys
import time
from importlib import resources

import pytest

from pubsub_refine import cli, runner
from pubsub_refine import flood_model as fn
from pubsub_refine.cli import main
from pubsub_refine.core import ContractError, canonical_json
from pubsub_refine.exhaustive import enumerate_flood_states
from pubsub_refine.faults import FAULTS
from pubsub_refine.generate import GeneratorConfig

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


def test_seed_defaults_to_zero_whatever_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("PUBSUB_REFINE_SEED", "77")  # no longer read: only --seed sets the seed
    out = tmp_path / "r.json"
    assert main(["fuzz", "--traces", "1", "--steps", "1", "--report", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 0


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


def test_run_times_the_whole_command(tmp_path, monkeypatch):
    # the clock starts before the scenario is loaded and replayed
    real = runner.run_trace

    def slow_run_trace(*args, **kwargs):
        time.sleep(0.2)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "run_trace", slow_run_trace)
    out = tmp_path / "r.json"
    with resources.as_file(FIGURE1) as path:
        assert main(["run", str(path), "--report", str(out)]) == 0
    assert json.loads(out.read_text())["elapsed_seconds"] >= 0.2


def test_a_generated_start_state_that_is_not_good_is_a_counterexample(monkeypatch, capsys):
    # the generator's good-state guarantee is checked, not trusted
    bad = fn.FloodState(((1, fn.FloodPeer(subs=("t0",), nsubs=(("t0", (1,)),))),))
    monkeypatch.setattr(runner, "gen_good_state", lambda cfg, rng: bad)
    report = runner.fuzz_run(GeneratorConfig(steps=3, seed=1), traces=2)
    assert not report.ok
    assert report.counterexample["reasons"] == [
        "pre-state violates good-state invariants at peers (1,)",
        "post-state violates good-state invariants at peers (1,)",
    ]
    step = json.loads(report.steps[0])
    assert step["kind"] == "init" and not step["sound"]
    assert [c["obligation"] for c in step["checks"]] == ["WFS1", "WFS2", "WFS3"]
    assert all(c["status"] == "not-applicable" for c in step["checks"])
    assert main(["fuzz", "--traces", "1", "--steps", "1"]) == 1
    assert capsys.readouterr().err.startswith("FAIL: 1 steps")


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
    # a scenario of skips alone leaves every state as it was: it checks nothing either, and
    # so does one that subscribes a peer to a topic it holds and unsubscribes it from one it lacks
    for document in ({"state": {"peers": {"1": {}}}, "events": []}, {"state": {"peers": {"1": {}}}},
                     {"state": {"peers": {}}, "events": [{"index": 0, "kind": "skip"}]},
                     {"state": {"peers": {"1": {"subs": ["t0"]}}},
                      "events": [{"kind": "subscribe", "peer": 1, "topics": ["t0"]},
                                 {"kind": "unsubscribe", "peer": 1, "topics": ["t1"]}]}):
        empty, report = tmp_path / "empty.json", tmp_path / "report.json"
        empty.write_text(json.dumps(document))
        assert_usage_error(["run", str(empty), "--report", str(report)], capsys)
        assert not report.exists()


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
    captured = capsys.readouterr()
    assert captured.out.endswith("}\n") and captured.err == ""
    out = json.loads(captured.out)
    assert out["discrepancies"] == []
    assert out["discrepancy_counts"] == {}
    assert out["flood_states"] == 9


def test_enumerate_refuses_oversized(capsys):
    assert main(["enumerate", "--peers", "3", "--topics", "2", "--messages", "2",
                 "--cap", "50"]) == 2
    assert "above the cap" in capsys.readouterr().err


def test_mutate_faults_exit_codes(tmp_path):
    # the last three plant a step whose flood match is skip: their counterexample is never masked
    for fault in ("drop-receiver", "leave-with-pending", "skip-good-check", "duplicate-seen", "unsorted-seen"):
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


@pytest.mark.parametrize("weight", ["inf", "nan", "-5", "-inf"])
def test_fuzz_rejects_weights_that_are_not_finite_and_non_negative(weight, capsys):
    assert_usage_error(["fuzz", "--weights", f"forward={weight}"], capsys)


def test_fuzz_rejects_finite_weights_whose_total_overflows(capsys):
    # each weight is finite, but their sum is not; sampling would crash on it
    argv = ["fuzz", "--max-peers", "3", "--traces", "1", "--steps", "1"]
    assert_usage_error(argv + ["--weights", "join=1e308,produce=1e308"], capsys)
    # a churn weight that --static zeroes does not count towards the total; the one step is a produce
    assert main(argv + ["--seed", "1", "--static", "--weights", "join=1e308,produce=1e308"]) == 0


@pytest.mark.parametrize("bounds", [("-1", "1", "0"), ("1", "-1", "0"), ("1", "1", "-1")])
def test_enumerate_rejects_negative_bounds(bounds, capsys):
    peers, topics, messages = bounds
    assert_usage_error(["enumerate", "--peers", peers, "--topics", topics, "--messages", messages], capsys)


@pytest.mark.parametrize("flags", [["--traces", "0"], ["--traces", "-1"], ["--steps", "0"],
                                   ["--max-peers", "0", "--traces", "3"], ["--max-peers", "-1"],
                                   ["--weights", "produce=0,forward=0,subscribe=0,unsubscribe=0,join=0,leave=0"],
                                   ["--static", "--weights", "produce=0,forward=0"],
                                   ["--static", "--max-topics", "0"], ["--static", "--max-messages", "0"],
                                   ["--max-topics", "0", "--weights", "subscribe=0,unsubscribe=0,join=0,leave=0"],
                                   ["--traces", "1", "--steps", "1", "--seed", "5"]])
def test_fuzz_that_checks_nothing_is_a_usage_error(flags, tmp_path, capsys):
    # no trace, no step, no peer (every state the empty network, every step a skip),
    # weights that leave only skip, with or without churn, bounds that give
    # every weighted kind but skip no arguments (no topic or no message), or
    # one step that changes nothing; none of them writes a report
    report = tmp_path / "report.json"
    assert_usage_error(["fuzz", *flags, "--report", str(report)], capsys)
    assert not report.exists()


def test_enumerate_without_a_peer_is_a_usage_error(capsys):
    # the universe would be the empty network alone
    assert_usage_error(["enumerate", "--peers", "0", "--topics", "3", "--messages", "2"], capsys)


def test_run_rejects_json_nested_beyond_the_decoder(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert_usage_error(["run", str(deep)], capsys)


def test_run_refuses_a_digest_that_is_not_a_string(tmp_path, capsys):
    scenario = tmp_path / "digest.json"
    scenario.write_text(json.dumps({"state": {"peers": {"1": {}}}, "events": [{"kind": "skip", "pre_digest": None}]}))
    assert main(["run", str(scenario)]) == 2
    assert capsys.readouterr().err == "error: events[0].pre_digest: digest must be a string\n"


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
    monkeypatch.chdir(tmp_path)
    assert_usage_error(argv + ["--report", ""], capsys)  # an empty path is not stdout
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


@pytest.mark.parametrize("argv, code", [
    (["fuzz", "--traces", "2", "--steps", "3"], 0),
    (["mutate", "--fault", "drop-receiver"], 1),
    (["fuzz", "--traces", "0"], 2),
])
def test_the_run_goes_without_the_cycle_collector(argv, code, monkeypatch, capsys):
    # nothing the checker builds is cyclic (tests/test_heap.py), so the
    # collector is off while it runs and back on once main returns
    real, seen = cli._run, []

    def spy(args):
        seen.append(gc.isenabled())
        return real(args)

    monkeypatch.setattr(cli, "_run", spy)
    assert gc.isenabled()
    assert main(argv) == code
    assert seen == [False] and gc.isenabled()


def test_the_collector_is_back_on_after_an_internal_error(monkeypatch, capsys):
    seen = []

    def crash(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_run", crash)
    assert gc.isenabled()
    assert main(["fuzz", "--traces", "1", "--steps", "1"]) == 3
    assert seen == [False] and gc.isenabled()


ENUMERATE_111 = ["enumerate", "--peers", "1", "--topics", "1", "--messages", "1"]

REPORTED = {  # name -> (arguments, exit code) of each command that takes --report
    "fuzz": (["fuzz", "--traces", "3", "--steps", "4", "--max-peers", "3", "--seed", "5"], 0),
    "fuzz-static": (["fuzz", "--static", "--traces", "3", "--steps", "4", "--seed", "7"], 0),
    "run": (["run", str(FIGURE1)], 0),
    **{f"mutate-{fault}": (["mutate", "--fault", fault], int(fault != "none")) for fault in FAULTS},
}
WRITTEN = [  # each to stdout, and each that takes --report to a file as well
    *[pytest.param(argv, code, to_file, id=f"{name}-report" if to_file else name)
      for name, (argv, code) in REPORTED.items() for to_file in (False, True)],
    pytest.param(ENUMERATE_111, 0, False, id="enumerate"),
]


@pytest.mark.parametrize("argv, code, to_file", WRITTEN)
def test_every_report_is_written_as_canonical_json_on_one_line(argv, code, to_file, tmp_path, capsys):
    # the encoding of the digests: sorted keys, no whitespace, one final newline,
    # the same bytes whether the report goes to a file or to stdout
    path = tmp_path / "report.json"
    assert main(argv + ["--report", str(path)] if to_file else argv) == code
    text = path.read_bytes().decode("utf-8") if to_file else capsys.readouterr().out
    assert text == canonical_json(json.loads(text)) + "\n"


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failed(rows: str, error: str) -> str:
    return f"internal error: RuntimeError: rows {rows} failed: {error}: planted\n"


# The ids name where a split into one half per CPU once put the row: the
# chunks are now handed out at run time, and the text is one for every process.
@pytest.mark.parametrize("row, error, message", [
    (-1, RuntimeError, failed("31..32", "RuntimeError")),
    (0, RuntimeError, failed("0..0", "RuntimeError")),
    (-1, ValueError, failed("31..32", "ValueError")),
    (0, ValueError, failed("0..0", "ValueError")),
    (-1, ContractError, failed("31..32", "ContractError")),
    (0, ContractError, failed("0..0", "ContractError")),
], ids=["in-a-worker", "in-the-parent", "value-error-in-a-worker", "value-error-in-the-parent",
        "contract-error-in-a-worker", "contract-error-in-the-parent"])
def test_a_crash_in_the_all_pairs_rows_is_an_internal_error_and_leaves_no_process(row, error, message, monkeypatch,
                                                                                   capsys):
    # the 33 rows are cut into 32 chunks, the last holding rows 31 and 32; a
    # ValueError of the checker, a guard's ContractError included, is no usage error
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(ENUMERATE_111) == 0
    capsys.readouterr()
    assert_no_child_process()
    crash_at, real = list(enumerate_flood_states(1, 1, 1))[row], fn.is_step

    def crashing(s, u):
        if s == crash_at:
            raise error("planted")
        return real(s, u)

    monkeypatch.setattr(fn, "is_step", crashing)
    for cpus in (1, 2, 3):  # one text whichever process takes the row's chunk
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        assert main(ENUMERATE_111) == 3
        assert capsys.readouterr().err == message
        assert_no_child_process()


FUZZ_4X3 = ["fuzz", "--traces", "4", "--steps", "3", "--seed", "5"]


@pytest.mark.parametrize("index, error, message", [
    (9, RuntimeError, failed("3..3", "RuntimeError")),
    (0, RuntimeError, failed("0..0", "RuntimeError")),
    (9, ValueError, failed("3..3", "ValueError")),
    (0, ValueError, failed("0..0", "ValueError")),
    (9, ContractError, failed("3..3", "ContractError")),
    (0, ContractError, failed("0..0", "ContractError")),
], ids=["in-a-worker", "in-the-parent", "value-error-in-a-worker", "value-error-in-the-parent",
        "contract-error-in-a-worker", "contract-error-in-the-parent"])
def test_a_crash_in_the_fuzz_traces_is_an_internal_error_and_leaves_no_process(index, error, message, monkeypatch,
                                                                                capsys):
    # trace t numbers its steps from 3t and is a chunk of its own: step 9 is trace 3's first
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(FUZZ_4X3) == 0
    assert capsys.readouterr().err == "PASS: 12 steps, 36 checks, 0 failed, 0 unsound\n"
    assert_no_child_process()
    crash_at, real = index, runner.gen_enabled_transition

    def crashing(s, cfg, rng, index):
        if index == crash_at:
            raise error("planted")
        return real(s, cfg, rng, index=index)

    monkeypatch.setattr(runner, "gen_enabled_transition", crashing)
    for cpus in (1, 2, 3):  # one text whichever process takes the trace
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        assert main(FUZZ_4X3) == 3
        assert capsys.readouterr().err == message
        assert_no_child_process()


def test_the_cli_starts_without_loading_a_process_pool():
    # set-up time is a benchmark metric: the row split forks by hand instead
    code = "import sys, pubsub_refine.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(resources.files("pubsub_refine").parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
