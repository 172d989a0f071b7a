"""Demonstration pipeline: filter rule, campaign export, tamper detection."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortplant.cli import main
from sortplant.config import EnvConfig
from sortplant.env import ContractViolation, OBS_SIZE
from sortplant.demo import (
    DemoTrajectory,
    Rejection,
    generate_demo,
    passes_filter,
    run_campaign,
    validate_dataset,
)
from sortplant.planners import GaParams
from sortplant.trajio import read_transitions, sha256_file

# small plant + small GA budget keep unit tests quick; the acceptance suite
# runs the full-scale campaign
SMALL_CFG = EnvConfig(episode_len=20)
SMALL_GA = GaParams(population=12, generations=4, ga_seed=7)


def test_filter_rule_arithmetic():
    assert passes_filter(116.0, 100.0)
    assert not passes_filter(114.0, 100.0)
    assert passes_filter(115.0, 100.0)  # boundary accepts
    # sign-safe for negative baselines: threshold is -10 + 0.15*10 = -8.5
    assert passes_filter(-8.4, -10.0)
    assert not passes_filter(-8.6, -10.0)
    # degenerate baseline
    assert passes_filter(0.0, 0.0)
    assert passes_filter(0.5, 0.0)
    assert not passes_filter(-0.5, 0.0)


def test_generate_demo_replay_equality():
    outcome = generate_demo(SMALL_CFG, 1000, SMALL_GA, min_improvement=-10.0)
    assert isinstance(outcome, DemoTrajectory)  # filter disabled via huge negative margin
    assert len(outcome.transitions) == SMALL_CFG.episode_len
    assert outcome.cumulative_reward == pytest.approx(sum(tr.reward for tr in outcome.transitions), rel=1e-12)
    assert outcome.transitions[-1].truncated
    assert not any(tr.truncated for tr in outcome.transitions[:-1])
    assert len(outcome.actions) == SMALL_CFG.episode_len


def test_generate_demo_rejection_keeps_both_rewards():
    outcome = generate_demo(SMALL_CFG, 1001, SMALL_GA, min_improvement=10.0)  # unreachable margin
    assert isinstance(outcome, Rejection)
    assert outcome.env_seed == 1001
    assert isinstance(outcome.ga_reward, float) and isinstance(outcome.baseline_reward, float)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("demos")
    manifest = run_campaign(SMALL_CFG, range(1000, 1006), SMALL_GA, out_dir=out)
    return out, manifest


def test_campaign_counts_and_index(campaign):
    out, manifest = campaign
    assert len(manifest.accepted) + len(manifest.rejected) == 6
    on_disk = sorted(p.name for p in out.glob("traj_*.jsonl"))
    assert sorted(e["file"] for e in manifest.accepted) == on_disk
    for entry in manifest.accepted:
        assert sha256_file(out / entry["file"]) == entry["sha256"]
        transitions = read_transitions(out / entry["file"], OBS_SIZE)
        assert len(transitions) == SMALL_CFG.episode_len


def test_campaign_is_rerunnable_byte_identical(campaign, tmp_path):
    out, _ = campaign
    again = tmp_path / "again"
    run_campaign(SMALL_CFG, range(1000, 1006), SMALL_GA, out_dir=again)
    for path in sorted(out.iterdir()):
        assert (again / path.name).read_bytes() == path.read_bytes()


def test_campaign_is_independent_of_worker_count(campaign, tmp_path):
    out, _ = campaign  # written with workers=1
    pooled = tmp_path / "pooled"
    run_campaign(SMALL_CFG, range(1000, 1006), SMALL_GA, out_dir=pooled, workers=2)
    assert sorted(p.name for p in pooled.iterdir()) == sorted(p.name for p in out.iterdir())
    for path in sorted(out.iterdir()):
        assert (pooled / path.name).read_bytes() == path.read_bytes()


@settings(max_examples=5, deadline=None)
@given(
    seeds=st.lists(st.integers(1000, 10**6), min_size=1, max_size=3, unique=True),
    episode_len=st.integers(1, 12),
    ga_seed=st.integers(0, 2**31),
    margin=st.sampled_from([-10.0, 0.0, 0.15, 10.0]),
)
def test_campaign_output_does_not_depend_on_worker_count(seeds, episode_len, ga_seed, margin):
    cfg = EnvConfig(episode_len=episode_len)
    params = GaParams(population=4, generations=2, ga_seed=ga_seed)
    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for workers in (1, 2):
            out = Path(tmp) / str(workers)
            run_campaign(cfg, seeds, params, min_improvement=margin, out_dir=out, workers=workers)
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert trees[0] == trees[1]


def test_campaign_seed_cap(monkeypatch):
    monkeypatch.setattr("sortplant.demo.MAX_CAMPAIGN_SEEDS", 2)
    with pytest.raises(ContractViolation, match="1 to 2 seeds, got 3"):
        run_campaign(SMALL_CFG, [1000, 1001, 1002], SMALL_GA, out_dir="unused")


def test_campaign_rejects_benchmark_seeds():
    with pytest.raises(ContractViolation):
        run_campaign(SMALL_CFG, [999, 1000], SMALL_GA, out_dir="unused")


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), "0.15", True])
def test_campaign_rejects_non_finite_margin(margin, tmp_path):
    with pytest.raises(ContractViolation, match="min_improvement must be a finite number"):
        run_campaign(SMALL_CFG, [1000], SMALL_GA, min_improvement=margin, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_validate_passes_untouched(campaign):
    out, _ = campaign
    report = validate_dataset(out)
    assert report.ok, report.format()


def test_validate_detects_byte_tamper(campaign, tmp_path):
    out, manifest = campaign
    assert manifest.accepted, "campaign produced no accepted trajectories to tamper with"
    copy = tmp_path / "tampered"
    copy.mkdir()
    for path in out.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    victim = copy / manifest.accepted[0]["file"]
    raw = bytearray(victim.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    victim.write_bytes(bytes(raw))
    report = validate_dataset(copy)
    assert not report.ok
    assert any(v.rule == "digest" for v in report.violations)


def _rewrite_behind_fresh_digest(campaign, copy, index, edit):
    """Copy the campaign to ``copy``, apply ``edit`` to transition ``index``
    of the first accepted file and refresh that file's sha256, so the hash
    check passes and only the replay comparison can catch the tamper."""
    out, manifest = campaign
    copy.mkdir()
    for path in out.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    name = manifest.accepted[0]["file"]
    victim = copy / name
    lines = victim.read_text().splitlines()
    record = json.loads(lines[index])
    edit(record)
    lines[index] = json.dumps(record)
    victim.write_text("\n".join(lines) + "\n")

    manifest_doc = json.loads((copy / "manifest.json").read_text())
    for entry in manifest_doc["trajectories"]:
        if entry["file"] == name:
            entry["sha256"] = sha256_file(victim)
    (copy / "manifest.json").write_text(json.dumps(manifest_doc, indent=2) + "\n")


def test_validate_detects_reward_rewrite_behind_fresh_digest(campaign, tmp_path):
    copy = tmp_path / "rewritten"
    _rewrite_behind_fresh_digest(campaign, copy, 0, lambda record: record.update(reward=record["reward"] + 1e-6))
    report = validate_dataset(copy)
    assert not report.ok
    assert any(v.rule == "replay" for v in report.violations)


@pytest.mark.parametrize("key, index, value", [("obs", 0, 0.5), ("next_obs", 30, 0.25)], ids=["obs", "next_obs"])
def test_validate_detects_observation_rewrite_behind_fresh_digest(campaign, tmp_path, capsys, key, index, value):
    # the rewards and the cumulative reward still match; only the
    # observations a replay buffer would consume are wrong
    def edit(record):
        record[key][index] += value

    copy = tmp_path / "rewritten"
    _rewrite_behind_fresh_digest(campaign, copy, 3, edit)
    report = validate_dataset(copy)
    assert [(v.rule, v.detail) for v in report.violations] == [("replay", f"transition 3 {key} mismatch")]
    assert main(["validate", str(copy)]) == 2
    assert "[replay] transition 3" in capsys.readouterr().out


def test_validate_detects_missing_file(campaign, tmp_path):
    out, manifest = campaign
    copy = tmp_path / "gutted"
    copy.mkdir()
    for path in out.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    (copy / manifest.accepted[0]["file"]).unlink()
    report = validate_dataset(copy)
    assert not report.ok
    assert any(v.rule == "manifest-index" for v in report.violations)


def test_validate_missing_manifest(tmp_path):
    report = validate_dataset(tmp_path)
    assert not report.ok
    assert report.violations[0].rule == "manifest-missing"


def _duplicate_first_trajectory(doc):
    doc["trajectories"].append(dict(doc["trajectories"][0]))
    doc["accepted_count"] += 1
    return doc


def _drop_first_seed(doc):
    del doc["trajectories"][0]["seed"]
    return doc


def _set_in_first(records, key, value):
    def tamper(doc):
        doc[records][0][key] = value
        return doc

    return tamper


def _one_record_counted_true(records, count_key):
    # True == 1, so the count must be rejected for its type, not its value
    def tamper(doc):
        dropped = {record["seed"] for record in doc[records][1:]}
        doc[records] = doc[records][:1]
        doc["seeds"] = [seed for seed in doc["seeds"] if seed not in dropped]
        doc[count_key] = True
        return doc

    return tamper


def _set_in_config(key, value):
    return lambda doc: {**doc, "config": {**doc["config"], key: value}}


@pytest.mark.parametrize(
    "tamper, rule, detail",
    [
        (lambda doc: [doc], "manifest-unparseable", "not a JSON object"),
        (lambda doc: json.dumps(doc).encode().replace(b'"seeds"', b'"s\xffeds"'), "manifest-unparseable", "utf-8"),
        (_drop_first_seed, "manifest-index", "integer seed"),
        (lambda doc: {**doc, "trajectories": None}, "manifest-index", "integer seed"),
        (lambda doc: {**doc, "rejected_count": doc["rejected_count"] + 1}, "manifest-index", "rejected_count"),
        (_one_record_counted_true("trajectories", "accepted_count"), "manifest-index", "accepted_count"),
        (_one_record_counted_true("rejections", "rejected_count"), "manifest-index", "rejected_count"),
        (lambda doc: {**doc, "seeds": doc["seeds"][1:]}, "manifest-seeds", "exactly the accepted and rejected"),
        (_duplicate_first_trajectory, "manifest-seeds", "more than once"),
        (lambda doc: {**doc, "config": []}, "manifest-config", "key/value mapping"),
        (_set_in_first("trajectories", "file", 5), "manifest-index", "file name must be a string"),
        (_set_in_first("trajectories", "file", [1]), "manifest-index", "file name must be a string"),
        (lambda doc: {**doc, "min_improvement": "x"}, "manifest-config", "min_improvement must be a number"),
        (_set_in_first("trajectories", "actions", 5), "manifest-index", "actions string malformed"),
        # huge integer fields are reported promptly, never simulated at their size
        (_set_in_config("belt_delay", 10**30), "replay", "cumulative reward mismatch"),
        (_set_in_config("seasonal_period", 10**30), "replay", "cumulative reward mismatch"),
        (_set_in_config("episode_len", 10**30), "manifest-config", "episode_len must lie in"),
        (_set_in_first("rejections", "ga_reward", "x"), "manifest-index", "missing or not finite"),
        (_set_in_first("rejections", "baseline_reward", float("nan")), "manifest-index", "missing or not finite"),
        (_set_in_first("rejections", "ga_reward", 1e9), "filter", "passes the margin rule"),
    ],
    ids=[
        "not-an-object",
        "not-utf8",
        "entry-without-seed",
        "null-trajectories",
        "rejected-count",
        "accepted-count-bool",
        "rejected-count-bool",
        "seeds-list",
        "duplicate-seed",
        "config-not-object",
        "file-not-string",
        "file-unhashable",
        "min-improvement-not-number",
        "actions-not-string",
        "huge-belt-delay",
        "huge-seasonal-period",
        "huge-episode-len",
        "rejection-reward-not-number",
        "rejection-reward-nan",
        "rejection-passes-filter",
    ],
)
def test_validate_reports_manifest_tamper(campaign, tmp_path, capsys, tamper, rule, detail):
    out, manifest = campaign
    assert manifest.accepted and manifest.rejected, "campaign needs accepted and rejected seeds to tamper with"
    copy = tmp_path / "tampered"
    copy.mkdir()
    for path in out.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    doc = tamper(json.loads((copy / "manifest.json").read_text()))
    if isinstance(doc, bytes):  # the tamper wrote the file's bytes itself
        (copy / "manifest.json").write_bytes(doc)
    else:
        (copy / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")

    report = validate_dataset(copy)
    assert not report.ok
    assert any(v.rule == rule and detail in v.detail for v in report.violations), report.format()
    assert main(["validate", str(copy)]) == 2
