"""CLI surface: subcommands, exit codes, deterministic file output."""

from __future__ import annotations

import json

import pytest

from sortplant.cli import main, parse_seed_spec
from sortplant.cli import UsageError


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
