"""CLI surface: subcommands, exit codes, deterministic file output."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sortplant
from sortplant.cli import build_parser, main, parse_seed_spec
from sortplant.cli import UsageError
from sortplant.planners import MAX_GENERATIONS, MAX_POPULATION


def test_parse_seed_spec_forms():
    assert parse_seed_spec("5..8") == [5, 6, 7]
    assert parse_seed_spec("7") == [7]
    assert parse_seed_spec("1,4,9") == [1, 4, 9]
    with pytest.raises(UsageError):
        parse_seed_spec("8..5")
    with pytest.raises(UsageError):
        parse_seed_spec("abc")


def test_defaults_subcommand(capsys):
    assert main(["defaults"]) == 0
    out = capsys.readouterr().out
    assert "episode_len = 100" in out
    assert "contamination_coeff = 0.75" in out
    assert "population = 100" in out
    assert "min_improvement = 0.15" in out


def test_brute_subcommand(capsys):
    assert main(["brute", "--seed", "7", "--len", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"sequence", "reward", "evaluations"}
    assert len(payload["sequence"]) == 5 and set(payload["sequence"]) <= {"0", "1"}
    assert payload["evaluations"] == 32


def test_brute_over_cap_is_usage_error(capsys):
    assert main(["brute", "--seed", "7", "--len", "25"]) == 1


@pytest.mark.parametrize("length", ["101", "1000000"])
def test_ga_over_episode_len_fails_before_building(length, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the horizon is checked before any candidate is built")

    monkeypatch.setattr("sortplant.planners.TapeStack", unreachable)
    assert main(["ga", "--seed", "1", "--len", length, "--pop", "4", "--gens", "1"]) == 1
    assert f"{length} actions exceed episode_len 100" in capsys.readouterr().err


def test_brute_over_episode_len_fails_before_building(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the horizon is checked before the tape stack is built")

    monkeypatch.setattr("sortplant.planners.TapeStack", unreachable)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("episode_len: 5\n")
    assert main(["brute", "--seed", "1", "--len", "8", "--config", str(cfg)]) == 1
    assert "8 actions exceed episode_len 5" in capsys.readouterr().err


def test_brute_has_no_workers_option(capsys):
    # the tree search runs in one process
    assert main(["brute", "--seed", "1", "--len", "3", "--workers", "2"]) == 1
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_unknown_config_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("episod_len: 10\n")
    assert main(["brute", "--seed", "1", "--len", "3", "--config", str(cfg)]) == 1
    assert "episod_len" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [(b"episode_len: [1\n", "not a readable YAML file"), (b"episode_len: 10 # \xff\n", "not a readable YAML file")],
    ids=["malformed-yaml", "not-utf8"],
)
def test_unreadable_config_file_is_usage_error(content, message, tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(content)
    assert main(["brute", "--seed", "1", "--len", "3", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err


def test_simulate_rejects_huge_episode_len(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"episode_len: {10**30}\n")
    out = tmp_path / "t.jsonl"
    assert main(["simulate", "--config", str(cfg), "--seed", "1", "--policy", "rule", "--out", str(out)]) == 1
    assert "episode_len must lie in" in capsys.readouterr().err
    assert not out.exists()


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1
    assert main(["brute", "--seed", "1"]) == 1  # --len missing


def test_simulate_deterministic_files(tmp_path, capsys):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["simulate", "--seed", "3", "--policy", "rule", "--len", "12"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "header"
    assert header["config"]["episode_len"] == 100  # resolved config echoed
    assert len(lines) == 1 + 12
    stdout_payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert stdout_payload["cumulative_reward"] == header["cumulative_reward"]


def test_simulate_scripted_actions(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert main(["simulate", "--seed", "3", "--actions", "0110", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [json.loads(x)["action"] for x in lines[1:]] == [0, 1, 1, 0]
    assert main(["simulate", "--seed", "3", "--actions", "0120", "--out", str(out)]) == 1


def test_ga_subcommand_writes_record(tmp_path, capsys):
    out = tmp_path / "ga.json"
    code = main(
        ["ga", "--seed", "2", "--len", "8", "--pop", "8", "--gens", "2", "--ga-seed", "5", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["sequence"]) == 8
    assert len(payload["generations"]) == 3  # generation 0 + 2 bred
    stdout_payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert stdout_payload == payload


@pytest.mark.parametrize(
    "argv, command",
    [
        (["ga", "--seed", "2", "--len", "8", "--pop", "8", "--gens", "2"], "ga"),
        (["brute", "--seed", "2", "--len", "6"], "brute"),
    ],
    ids=["ga", "brute"],
)
def test_timing_goes_to_stderr_only(argv, command, tmp_path, capsys, monkeypatch):
    records, lines = [], []
    for step_s in (0.001, 7.0):
        clock = iter((0.0, step_s))  # read once before and once after the run
        monkeypatch.setattr("sortplant.cli.perf_counter", lambda: next(clock))
        out = tmp_path / f"{step_s}.json"
        assert main(argv + ["--out", str(out)]) == 0
        records.append(out.read_bytes())
        lines.append(capsys.readouterr().err.strip())
    assert records[0] == records[1]
    assert lines[0] != lines[1]
    evaluations = json.loads(records[0])["evaluations"]
    assert lines[1] == f"{command}: {evaluations} evaluations in 7.000 s ({evaluations / 7.0:.0f} episodes/s)"


def test_demo_gen_and_validate_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("episode_len: 15\n")
    out = tmp_path / "demos"
    code = main(
        [
            "demo-gen",
            "--config", str(cfg),
            "--seeds", "1000..1003",
            "--pop", "8",
            "--gens", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["accepted"] + payload["rejected"] == 3

    assert main(["validate", str(out)]) == 0

    # single-byte tamper must flip the exit code to 2
    victims = sorted(out.glob("traj_*.jsonl"))
    if victims:
        raw = bytearray(victims[0].read_bytes())
        raw[0] ^= 0x01
        victims[0].write_bytes(bytes(raw))
        assert main(["validate", str(out)]) == 2


def test_demo_gen_rejects_bench_seeds(capsys):
    assert main(["demo-gen", "--seeds", "0..3", "--pop", "8", "--gens", "1", "--out", "unused"]) == 1


def test_bench_subcommand(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(
        [
            "bench",
            "--strategies", "R,RB",
            "--seeds", "0..3",
            "--len", "10",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(payload) == {"R", "RB"}
    assert (out / "per_seed.csv").exists() and (out / "summary.csv").exists()


def test_bench_rule_baseline_without_belt_delay(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("belt_delay: 0\n")
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--strategies", "RB", "--seeds", "0..2", "--len", "10", "--out", str(out)]) == 0
    assert (out / "per_seed.csv").read_text().count("\nRB,") == 2


@pytest.mark.parametrize(
    "rows, message",
    [
        (b"DQN,0,nan\n", "non-finite reward"),
        (b"DQN,0,-inf\n", "non-finite reward"),
        (b"DQN,0,1.0\nDQN,0,2.0\n", "repeat strategy 'DQN' on seed 0"),
        (b",1,1.0\n", "without a strategy name"),
        (b"DQN,0,1.0 \xff\n", "not UTF-8"),
    ],
    ids=["nan-reward", "inf-reward", "repeated-cell", "empty-name", "not-utf8"],
)
def test_bad_external_scores_are_usage_errors(rows, message, tmp_path, capsys):
    scores = tmp_path / "ext.csv"
    scores.write_bytes(b"strategy,seed,reward\n" + rows)
    out = tmp_path / "out"
    argv = ["bench", "--strategies", "R", "--seeds", "0..2", "--len", "3", "--external", str(scores), "--out", str(out)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "strategies, seeds, message",
    [
        ("", "0..2", "need one or more distinct strategies"),
        ("R,R", "0..2", "got ['R', 'R']"),
        ("R,RB", "", "seed list must be nonempty"),
        ("GA", "", "seed list must be nonempty"),
    ],
    ids=["no-strategy", "repeated-strategy", "no-seed", "no-seed-ga"],
)
def test_bad_bench_strategy_or_seed_lists_are_usage_errors(strategies, seeds, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["bench", "--strategies", strategies, "--seeds", seeds, "--len", "5", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bench_rejects_campaign_seeds(tmp_path):
    assert main(["bench", "--strategies", "R", "--seeds", "1000..1002", "--len", "5", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "argv, message",
    [
        # brute takes no --workers at all
        (["brute", "--seed", "1", "--len", "3"], "error: unrecognized arguments: --workers"),
        (["demo-gen", "--seeds", "1000", "--pop", "4", "--gens", "1", "--out", "{tmp}"], "error: workers must be >= 1"),
        (["bench", "--strategies", "R", "--seeds", "0", "--len", "3", "--out", "{tmp}"], "error: workers must be >= 1"),
    ],
    ids=["brute", "demo-gen", "bench"],
)
def test_workers_below_one_is_usage_error(argv, message, workers, tmp_path, capsys):
    argv = [arg.format(tmp=tmp_path / "out") for arg in argv]
    assert main(argv + ["--workers", workers]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra",
    [["--policy", "rule", "--len", "-5"], ["--policy", "rule", "--len", "0"], ["--actions", ""]],
    ids=["len-negative", "len-zero", "actions-empty"],
)
def test_simulate_without_steps_is_usage_error(extra, tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert main(["simulate", "--seed", "3", *extra, "--out", str(out)]) == 1
    assert "error: --" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("margin", ["nan", "inf", "-inf"])
def test_demo_gen_rejects_non_finite_margin(margin, tmp_path, capsys):
    out = tmp_path / "demos"
    argv = ["demo-gen", "--seeds", "1000", "--pop", "4", "--gens", "1", f"--min-improvement={margin}", "--out", str(out)]
    assert main(argv) == 1
    assert "--min-improvement must be finite" in capsys.readouterr().err
    assert not out.exists()


# Each cap is lowered for the test, so a regressed check meets only a small
# range, never a huge one.
@pytest.mark.parametrize(
    "patch, argv, message",
    [
        (("demo", "BENCH_SEED_LIMIT", 5), ["bench", "--strategies", "R", "--seeds", "3..8", "--len", "3"], "outside [0, 5)"),
        (("demo", "BENCH_SEED_LIMIT", 5), ["bench", "--strategies", "R", "--seeds", "1,7", "--len", "3"], "outside [0, 5)"),
        (("demo", "BENCH_SEED_LIMIT", 5), ["bench", "--strategies", "R", "--seeds=-2..1", "--len", "3"], "outside [0, 5)"),
        (("demo", "MAX_CAMPAIGN_SEEDS", 3), ["demo-gen", "--seeds", "1000..1004", "--pop", "4", "--gens", "1"], "names 4 seeds; at most 3"),
        (("demo", "MAX_CAMPAIGN_SEEDS", 3), ["demo-gen", "--seeds", "1000,1001,1002,1003", "--pop", "4", "--gens", "1"], "at most 3"),
        (("planners", "MAX_POPULATION", 8), ["demo-gen", "--seeds", "1000", "--pop", "9", "--gens", "1"], "population must lie in [2, 8]"),
        (("planners", "MAX_POPULATION", 8), ["ga", "--seed", "1", "--len", "4", "--pop", "9", "--gens", "1"], "population must lie in"),
        (("planners", "MAX_GENERATIONS", 2), ["ga", "--seed", "1", "--len", "4", "--pop", "4", "--gens", "3"], "generations must lie in [0, 2]"),
    ],
    ids=[
        "bench-range-outside-pool",
        "bench-list-outside-pool",
        "bench-negative-range",
        "demo-gen-range-over-cap",
        "demo-gen-list-over-cap",
        "demo-gen-pop-over-cap",
        "ga-pop-over-cap",
        "ga-gens-over-cap",
    ],
)
def test_caps_are_usage_errors(patch, argv, message, tmp_path, capsys, monkeypatch):
    module, name, value = patch
    monkeypatch.setattr(f"sortplant.{module}.{name}", value)
    out = tmp_path / "out"
    if argv[0] != "ga":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_seed_spec_bounds_are_checked_before_building():
    assert parse_seed_spec("3..6", 3, range(3, 6)) == [3, 4, 5]
    assert parse_seed_spec("5,3", 2, range(3, 6)) == [5, 3]
    with pytest.raises(UsageError, match="names 4 seeds"):
        parse_seed_spec("3..7", 3)
    with pytest.raises(UsageError, match="outside"):
        parse_seed_spec("2..4", 3, range(3, 6))


# edge values for brute force's command lines: horizons at, around and far
# past BRUTE_FORCE_CAP (20), and seed specs inside, at the edge of and outside
# the bench pool [0, 1000), malformed ones included.  Ranges stay at a few
# seeds so a horizon of 20 stays quick
_BF_LENGTHS = st.sampled_from([-1, 0, 1, 14, 20, 21, 2**63]) | st.integers(-2, 12)
_BRUTE_SEEDS = st.sampled_from([0, 1, -1, 999, 1000, 2**63, -(2**63), 2**64 + 1, 10**30])
_BENCH_SEED_SPECS = st.sampled_from(["0", "999", "1000", "-1", "0..2", "997..1000", "999..1001", "2..1", "5..5", "0,0", "3,1", "", "x", "0..x"])


@settings(max_examples=30, deadline=None)
@given(
    command=st.sampled_from(["brute", "bench"]),
    length=_BF_LENGTHS,
    seed=_BRUTE_SEEDS,
    spec=_BENCH_SEED_SPECS,
    workers=st.integers(1, 2),
)
def test_brute_force_command_lines_end_in_an_exit_code(command, length, seed, spec, workers):
    with tempfile.TemporaryDirectory() as tmp:
        if command == "brute":
            argv = ["brute", "--seed", str(seed), "--len", str(length), "--out", str(Path(tmp) / "best.json")]
        else:
            argv = ["bench", "--strategies", "BF", "--seeds", spec, "--len", str(length), "--out", tmp, "--workers", str(workers)]
        assert main(argv) in (0, 1, 2, 3)


def test_a_ga_run_leaves_numpy_random_unloaded():
    # the GA takes its bulk draws from its own random.Random stream:
    # importing numpy.random would add about 1.8 MB of resident memory and
    # 11 ms to every run
    src = os.path.dirname(os.path.dirname(sortplant.__file__))
    probe = (
        "import sys; from sortplant.cli import main; "
        "code = main(['ga', '--seed', '1', '--len', '5', '--pop', '4', '--gens', '1']); "
        "print(code, 'numpy.random' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip().splitlines()[-1] == "0 False"


# sha256 of the bytes `ga --seed 3 --len 40 --out F` writes and of the
# manifest of `demo-gen --seeds 1000..1002`, both at default GaParams.  They
# were recorded with the scalar GA operators, which the array operators
# reproduce draw for draw
GA_RECORD_SHA256 = "4deddc6c12f9185e71014267a9692f067a8e34cb0ca173a1808998f87760c502"
CAMPAIGN_MANIFEST_SHA256 = "b1dbe2d7ba74979f72e7651ffbe5a6843d2ca411367e6de77a6bfeb378410067"


def test_ga_record_and_campaign_manifest_bytes_are_pinned(tmp_path, capsys):
    assert main(["ga", "--seed", "3", "--len", "40", "--out", str(tmp_path / "ga.json")]) == 0
    assert main(["demo-gen", "--seeds", "1000..1002", "--out", str(tmp_path / "demos")]) == 0
    assert hashlib.sha256((tmp_path / "ga.json").read_bytes()).hexdigest() == GA_RECORD_SHA256
    assert hashlib.sha256((tmp_path / "demos" / "manifest.json").read_bytes()).hexdigest() == CAMPAIGN_MANIFEST_SHA256


# edge values for the GA's options: sizes around the caps and at the
# smallest populations, non-finite and out-of-range rates, and horizons at
# and past episode_len (100).  Valid values stay small, so each run is quick
_GA_POPS = st.sampled_from([-1, 0, 1, 2, 3, MAX_POPULATION + 1])
_GA_GENS = st.sampled_from([-1, 0, 1, MAX_GENERATIONS + 1])
_GA_RATES = st.sampled_from(["nan", "inf", "-0.0", "0", "1", "1.5"])
_GA_LENGTHS = st.sampled_from([-1, 0, 1, 2, 100, 101, 2**63])


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["ga", "demo-gen"]), pop=_GA_POPS, gens=_GA_GENS, cx=_GA_RATES, mut=_GA_RATES, length=_GA_LENGTHS)
# runs that pass every check, at the smallest population and the edge rates
@example(command="ga", pop=3, gens=1, cx="-0.0", mut="1", length=100)
@example(command="demo-gen", pop=2, gens=1, cx="1", mut="-0.0", length=1)
def test_ga_command_lines_end_in_an_exit_code(command, pop, gens, cx, mut, length):
    ga_args = ["--pop", str(pop), "--gens", str(gens), "--cx", cx, "--mut", mut]
    with tempfile.TemporaryDirectory() as tmp:
        if command == "ga":
            argv = ["ga", "--seed", "3", "--len", str(length), *ga_args, "--out", str(Path(tmp) / "ga.json")]
        else:  # a campaign plans whole episodes, so it takes no --len
            argv = ["demo-gen", "--seeds", "1000", *ga_args, "--out", tmp]
        assert main(argv) in (0, 1, 2, 3)


# -- one parser per process -------------------------------------------------

_SRC = os.path.dirname(os.path.dirname(sortplant.__file__))


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_importing_the_cli_builds_no_parser():
    probe = "import sortplant.cli as cli; print(cli.build_parser.cache_info().currsize)"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": _SRC})
    assert run.stdout.strip() == "0"


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _reuse_sequence(name: str, tmp_path: Path) -> tuple[list[str], list[str], list[str]]:
    """(first argv, second argv without the first's options, a usage-error
    argv that sets the first's options before it fails).  Outputs go to
    relative paths, so a run writes into its working directory."""
    if name == "ga":
        first = ["ga", "--seed", "3", "--len", "8", "--pop", "4", "--gens", "1", "--out", "A"]
        return first, ["ga", "--seed", "3", "--len", "8", "--out", "B"], first + ["--len", "x"]
    bench = ["bench", "--strategies", "R,RB", "--seeds", "0..3", "--len", "10"]
    if name == "bench-external":
        scores = tmp_path / "ext.csv"
        scores.write_text("strategy,seed,reward\nDQN,0,1.5\nDQN,2,-0.25\n")
        option = ["--external", str(scores)]
    else:
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("belt_delay: 0\npenalty_factor: 1.0\n")
        option = ["--config", str(cfg)]
    first = bench + option + ["--out", "first"]
    return first, bench + ["--out", "second"], first + ["--len", "x"]


@pytest.mark.parametrize("name", ["ga", "bench-external", "bench-config"])
def test_a_reused_parser_carries_nothing_between_calls(name, tmp_path, capsys, monkeypatch):
    first, second, usage_error = _reuse_sequence(name, tmp_path)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    expected = []
    for argv in (first, second):
        run = subprocess.run(
            [sys.executable, "-m", "sortplant.cli", *argv], capture_output=True, text=True, cwd=fresh, env={**os.environ, "PYTHONPATH": _SRC}
        )
        expected.append((run.returncode, run.stdout))
    assert [code for code, _ in expected] == [0, 0]

    for between in ([], [usage_error]):
        here = tmp_path / f"in-process-{len(between)}"
        here.mkdir()
        monkeypatch.chdir(here)
        seen = []
        for argv in [first, *between, second]:
            code = main(argv)
            seen.append((code, capsys.readouterr().out))
        if between:
            assert seen.pop(1)[0] == 1
        assert seen == expected
        assert _tree(here) == _tree(fresh)


# -- an unusable --out ------------------------------------------------------

_OUT_ARGVS = {
    "demo-gen": ["demo-gen", "--seeds", "1000..1002", "--pop", "4", "--gens", "1"],
    "bench": ["bench", "--strategies", "R,RB,GA", "--seeds", "0..2", "--len", "3", "--pop", "4", "--gens", "1"],
}


@pytest.mark.parametrize("where", ["out-is-a-file", "parent-is-a-file"])
@pytest.mark.parametrize("command", sorted(_OUT_ARGVS))
def test_an_unusable_out_fails_before_any_scoring(command, where, tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("--out is checked before any scoring")

    for planner in ("demo.ga_optimize", "bench.ga_optimize", "bench.evaluate_population"):
        monkeypatch.setattr(f"sortplant.{planner}", unreachable)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker if where == "out-is-a-file" else blocker / "nested" / "out"
    assert main(_OUT_ARGVS[command] + ["--out", str(out)]) == 3
    assert "Not a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"


# -- the remaining command lines as properties -------------------------------

# edge values per option.  Work sizes stay small: GA populations of at most
# three columns and one generation, seed specs of at most three seeds, and a
# one-seed campaign of two candidates for validate to check
_EDGE_SEEDS = st.sampled_from([0, 1, -1, 999, 1000, 2**63, -(2**63), 2**64 + 1, 10**30])
_EDGE_LENGTHS = st.sampled_from([-1, 0, 1, 2, 100, 101, 2**63])
_EDGE_ACTIONS = st.sampled_from(["", "0", "1", "0110", "01" * 50, "0" * 101, "2", "0 1", "-1"])


@settings(max_examples=40, deadline=None)
@given(
    seed=_EDGE_SEEDS,
    policy=st.sampled_from([None, "random", "rule", "greedy", ""]),
    policy_seed=st.none() | _EDGE_SEEDS,
    actions=st.none() | _EDGE_ACTIONS,
    length=st.none() | _EDGE_LENGTHS,
)
# runs that pass every check: a policy over a whole episode and a scripted
# episode at the edge seeds
@example(seed=2**64 + 1, policy="random", policy_seed=-(2**63), actions=None, length=None)
@example(seed=-1, policy=None, policy_seed=None, actions="01" * 50, length=100)
def test_simulate_command_lines_end_in_an_exit_code(seed, policy, policy_seed, actions, length):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["simulate", "--seed", str(seed), "--out", str(Path(tmp) / "t.jsonl")]
        for option, value in (("--policy", policy), ("--policy-seed", policy_seed), ("--actions", actions), ("--len", length)):
            if value is not None:
                argv.append(f"{option}={value}")
        assert main(argv) in (0, 1, 2, 3)


_MANIFEST_KEYS = ["format_version", "config", "ga_params", "min_improvement", "seeds", "accepted_count", "rejected_count", "trajectories", "rejections"]
_RECORD_KEYS = ["seed", "file", "ga_reward", "baseline_reward", "actions", "sha256"]
_EDGE_JSON = st.sampled_from([None, -1, 0, 1, 2**63, 10**30, -0.0, 1e308, float("nan"), float("inf"), "", "x", [], [1], {}, True])


@settings(max_examples=40, deadline=None)
@given(
    dataset=st.sampled_from(["missing", "file", "empty", "campaign"]),
    tamper=st.none() | st.tuples(st.sampled_from(_MANIFEST_KEYS), _EDGE_JSON) | st.tuples(st.sampled_from(_RECORD_KEYS), _EDGE_JSON, st.just("record")),
)
@example(dataset="campaign", tamper=None)
def test_validate_command_lines_end_in_an_exit_code(dataset, tamper):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data"
        if dataset == "file":
            path.write_text("{}\n")
        elif dataset == "empty":
            path.mkdir()
        elif dataset == "campaign":
            argv = ["demo-gen", "--seeds", "1000", "--pop", "2", "--gens", "0", "--min-improvement", "-100", "--out", str(path)]
            assert main(argv) == 0
            if tamper is not None:
                manifest = json.loads((path / "manifest.json").read_text())
                target = manifest["trajectories"][0] if len(tamper) == 3 else manifest
                target[tamper[0]] = tamper[1]
                (path / "manifest.json").write_text(json.dumps(manifest))
        code = main(["validate", str(path)])
        assert code in (0, 1, 2, 3)
        assert code == 0 or not (dataset == "campaign" and tamper is None)


@settings(max_examples=40, deadline=None)
@given(
    strategies=st.sampled_from(["R", "RB", "GA", "R,RB", "R,RB,GA", "GA,R", "RB,RB", "R,X", ""]),
    spec=_BENCH_SEED_SPECS,
    length=_EDGE_LENGTHS,
    pop=st.sampled_from([-1, 0, 2, 3]),
    gens=st.sampled_from([-1, 0, 1]),
    external=st.sampled_from([None, "strategy,seed,reward\nDQN,0,1.5\n", "strategy,seed,reward\nR,0,1.5\n", "strategy,seed,reward\nDQN,0,nan\n", "seed\n"]),
    workers=st.integers(1, 2),
)
# runs that pass every check: every strategy at episode_len with an external
# row, and one GA cell at the smallest population and no generations
@example(strategies="R,RB,GA", spec="997..1000", length=100, pop=2, gens=1, external="strategy,seed,reward\nDQN,0,1.5\n", workers=1)
@example(strategies="GA", spec="0", length=1, pop=2, gens=0, external=None, workers=2)
def test_bench_command_lines_end_in_an_exit_code(strategies, spec, length, pop, gens, external, workers):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["bench", f"--strategies={strategies}", f"--seeds={spec}", "--len", str(length), "--pop", str(pop), "--gens", str(gens)]
        if external is not None:
            scores = Path(tmp) / "ext.csv"
            scores.write_text(external)
            argv += ["--external", str(scores)]
        argv += ["--out", str(Path(tmp) / "out"), "--workers", str(workers)]
        assert main(argv) in (0, 1, 2, 3)


@settings(max_examples=20, deadline=None)
@given(extra=st.lists(st.sampled_from(["--config", "x", "--seed", "1", "--", "defaults"]), max_size=2))
def test_defaults_command_lines_end_in_an_exit_code(extra):
    assert main(["defaults", *extra]) in (0, 1, 2, 3)
