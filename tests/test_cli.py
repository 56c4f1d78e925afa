import gc
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pubsub_refine
from pubsub_refine import cli, runner
from pubsub_refine import flood_model as fn
from pubsub_refine.checking import NothingChecked
from pubsub_refine.cli import main
from pubsub_refine.core import ContractError, Refused, canonical_json
from pubsub_refine.exhaustive import BoundsError, enumerate_flood_states
from pubsub_refine.faults import FAULTS
from pubsub_refine.generate import GeneratorConfig
from pubsub_refine.scenario import ScenarioError
from pubsub_refine.trace import TraceError

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


# The process entry: python -m pubsub_refine.cli and the pubsub-refine script both run cli.entry, which
# ends the process with os._exit once main has flushed its output; each spawn must keep its exit code.


def spawn(args, cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    env = {**os.environ, "PYTHONPATH": str(resources.files("pubsub_refine").parent)}
    return subprocess.run([sys.executable, "-m", "pubsub_refine.cli", *args], cwd=cwd, env=env, stdout=stdout,
                          stderr=stderr, text=True, timeout=120)


def without_elapsed(text: str) -> str:
    report = json.loads(text)
    report["elapsed_seconds"] = 0
    return canonical_json(report) + "\n"


def test_a_spawned_run_writes_the_bytes_main_writes(tmp_path):
    done = spawn(["run", str(FIGURE1), "--report", "spawned.json"], tmp_path)
    assert (done.returncode, done.stderr) == (0, "PASS: 6 steps, 18 checks, 0 failed, 0 unsound\n")
    assert main(["run", str(FIGURE1), "--report", str(tmp_path / "in-process.json")]) == 0
    spawned, in_process = ((tmp_path / name).read_text() for name in ("spawned.json", "in-process.json"))
    assert spawned.endswith("}\n") and without_elapsed(spawned) == without_elapsed(in_process)
    assert spawned == canonical_json(json.loads(spawned)) + "\n"


@pytest.mark.parametrize("args, code, err", [
    (["mutate", "--fault", "drop-receiver"], 1, "FAIL: "),
    (["run", "missing.json"], 2, "error: [Errno 2] No such file or directory: 'missing.json'\n"),
])
def test_a_spawned_command_keeps_its_exit_code(args, code, err, tmp_path):
    done = spawn(args, tmp_path)
    assert done.returncode == code and done.stderr.startswith(err)


def test_a_report_that_cannot_be_written_to_a_closed_pipe_is_an_internal_error(tmp_path):
    r, w = os.pipe()
    os.close(r)  # nobody reads: every write to w fails with EPIPE
    try:
        done = spawn(["enumerate", "--peers", "1", "--topics", "1", "--messages", "1"], tmp_path, stdout=w)
    finally:
        os.close(w)
    assert done.returncode == 3
    assert done.stderr == "internal error: BrokenPipeError: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("args, code", [
    (["run", str(FIGURE1), "--report", "r.json"], 0),
    (["mutate", "--fault", "drop-receiver"], 1),
    (["run", "missing.json"], 2),
])
def test_a_closed_standard_error_changes_no_exit_code(args, code, tmp_path):
    # standard error is advisory: a summary or error line nobody reads is dropped, and the exit code stays
    r, w = os.pipe()
    os.close(r)  # nobody reads: every write to w fails with EPIPE
    try:
        done = spawn(args, tmp_path, stdout=subprocess.DEVNULL, stderr=w)
    finally:
        os.close(w)
    assert done.returncode == code
    if code == 0:
        assert json.loads((tmp_path / "r.json").read_text())["totals"]["steps"] == 6


def test_a_spawn_without_a_standard_output_still_writes_its_report(tmp_path):
    # a process started with descriptor 1 closed has sys.stdout None; the flush must not fail on it
    env = {**os.environ, "PYTHONPATH": str(resources.files("pubsub_refine").parent)}
    done = subprocess.run([sys.executable, "-m", "pubsub_refine.cli", "run", str(FIGURE1), "--report", "r.json"],
                          cwd=tmp_path, env=env, stderr=subprocess.PIPE, text=True, timeout=120,
                          preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (0, "PASS: 6 steps, 18 checks, 0 failed, 0 unsound\n")
    assert json.loads((tmp_path / "r.json").read_text())["totals"]["steps"] == 6


def test_a_spawn_without_a_standard_error_writes_only_its_report(tmp_path):
    # with descriptor 2 closed sys.stderr is None, and print would send the summary to stdout, into the report
    env = {**os.environ, "PYTHONPATH": str(resources.files("pubsub_refine").parent)}
    done = subprocess.run([sys.executable, "-m", "pubsub_refine.cli", "run", str(FIGURE1)], cwd=tmp_path, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=120, preexec_fn=lambda: os.close(2))
    assert done.returncode == 0
    assert done.stdout == canonical_json(json.loads(done.stdout)) + "\n"


def test_the_console_script_runs_the_module_entry():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'pubsub-refine = "pubsub_refine.cli:entry"\n' in pyproject
    source = Path(cli.__file__).read_text()
    assert source.endswith('\nif __name__ == "__main__":\n    entry()\n')


# One exit decision: every exception class of the package is a refusal of its input (core.Refused, exit 2
# through main) or a transition applied outside its guard (ContractError, a fault of the checker, exit 3).


def package_exceptions() -> set[type]:
    found = set()
    for info in pkgutil.iter_modules(pubsub_refine.__path__):
        module = importlib.import_module(f"pubsub_refine.{info.name}")
        found |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, BaseException) and cls.__module__ == module.__name__}
    return found


def write(path: Path, document) -> str:
    path.write_text(json.dumps(document))
    return str(path)


REFUSALS = {  # each refusal type -> the arguments of a command that meets it
    Refused: lambda tmp: ["fuzz", "--weights", "produce"],
    ScenarioError: lambda tmp: ["run", write(tmp / "bad.json", {"state": {"peers": {"x": {}}}})],
    TraceError: lambda tmp: ["run", write(tmp / "disabled.json", {"state": {"peers": {}},
                                                                  "events": [{"kind": "leave", "peer": 4}]})],
    BoundsError: lambda tmp: ["enumerate", "--peers", "0", "--topics", "1", "--messages", "1"],
    NothingChecked: lambda tmp: ["fuzz", "--traces", "0"],
}


def test_every_exception_of_the_package_is_a_refusal_or_a_broken_contract():
    found = package_exceptions()
    assert {cls for cls in found if not issubclass(cls, Refused)} == {ContractError}
    assert {cls for cls in found if issubclass(cls, Refused)} == set(REFUSALS)


@pytest.mark.parametrize("refusal", REFUSALS, ids=lambda cls: cls.__name__)
def test_every_refusal_exits_2_through_main(refusal, tmp_path, monkeypatch, capsys):
    real, raised = cli._run, []

    def recording(args):
        try:
            return real(args)
        except Exception as e:
            raised.append(e)
            raise

    monkeypatch.setattr(cli, "_run", recording)
    assert_usage_error(REFUSALS[refusal](tmp_path), capsys)
    assert [type(e) for e in raised] == [refusal]


bounds = st.integers(-1, 3)
weight_items = st.one_of(
    st.tuples(st.sampled_from([*fn.STEP_KINDS, "teleport"]),
              st.sampled_from(["0", "1", "2.5", "-1", "nan", "inf", "1e308", "1e999", "x", ""])).map("=".join),
    st.sampled_from(["produce", "=", "forward=1=2", " "]),
)
fuzz_flags = st.fixed_dictionaries(
    {"--traces": bounds, "--steps": bounds, "--max-peers": bounds, "--max-topics": bounds,
     "--max-messages": bounds, "--seed": st.integers(0, 3)},
    optional={"--weights": st.lists(weight_items, max_size=3).map(",".join)},
)
# at most 33 flood states are ever enumerated (1 peer, 1 topic, 1 message); larger bounds meet the cap
enumerate_flags = st.fixed_dictionaries(
    {"--peers": st.integers(-1, 2), "--topics": st.integers(-1, 1), "--messages": st.integers(-1, 1),
     "--cap": st.sampled_from([-1, 0, 40])},
)
commands = st.one_of(
    st.tuples(st.just("fuzz"), fuzz_flags, st.booleans(), st.sampled_from([None, "missing", "directory", "empty"])),
    st.tuples(st.just("enumerate"), enumerate_flags, st.just(False), st.just(None)),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(command=commands)
def test_flags_give_a_pass_or_one_error_line(command, tmp_path_factory):
    name, flags, static, report = command
    base = tmp_path_factory.getbasetemp()
    argv = [name, *(str(part) for flag, value in flags.items() for part in (flag, value))]
    argv += ["--static"] * static
    if report is not None:
        argv += ["--report", {"missing": str(base / "missing" / "r.json"), "directory": str(base), "empty": ""}[report]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
        assert out.getvalue() == ""
    else:
        assert code == 0, (argv, err.getvalue())
