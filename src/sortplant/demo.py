"""Demonstration campaign: GA-optimized episodes, filtered and exported.

Each uniquely seeded environment gets one GA run; trajectories that beat the
rule-based baseline by the improvement margin are replayed into transition
files, everything else is recorded as a rejection.  The manifest makes the
dataset self-describing and tamper-evident.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from .config import ConfigError, EnvConfig, config_from_mapping, config_to_dict
from .env import OBS_SIZE, ContractViolation, InputTape
from .baselines import rule_based_actions
from .planners import GaParams, episode_reward, ga_optimize, ga_seed_for_env, parallel_map, rollout
from .trajio import Transition, read_transitions, sha256_file, write_transitions

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1

# Benchmark evaluation owns seeds below this bound; demonstration campaigns
# must stay at or above it so the two seed sets can never overlap.
BENCH_SEED_LIMIT = 1000

DEFAULT_MIN_IMPROVEMENT = 0.15


def passes_filter(ga_reward: float, rb_reward: float, min_improvement: float = DEFAULT_MIN_IMPROVEMENT) -> bool:
    """Sign-safe margin rule: the GA reward must clear the baseline by
    min_improvement of the baseline's magnitude (x1.15 for positive
    baselines)."""
    return ga_reward >= rb_reward + min_improvement * abs(rb_reward)


@dataclass
class DemoTrajectory:
    env_seed: int
    actions: tuple[int, ...]
    transitions: list[Transition]
    cumulative_reward: float
    baseline_reward: float


@dataclass
class Rejection:
    env_seed: int
    ga_reward: float
    baseline_reward: float


@dataclass
class DatasetManifest:
    config: EnvConfig
    ga_params: GaParams
    min_improvement: float
    seeds: tuple[int, ...]
    accepted: list[dict]
    rejected: list[dict]

    def to_dict(self) -> dict:
        return {
            "format_version": MANIFEST_FORMAT,
            "config": config_to_dict(self.config),
            "ga_params": dataclasses.asdict(self.ga_params),
            "min_improvement": self.min_improvement,
            "seeds": list(self.seeds),
            "accepted_count": len(self.accepted),
            "rejected_count": len(self.rejected),
            "trajectories": self.accepted,
            "rejections": self.rejected,
        }


def generate_demo(
    config: EnvConfig,
    env_seed: int,
    ga_params: GaParams,
    min_improvement: float = DEFAULT_MIN_IMPROVEMENT,
) -> Union[DemoTrajectory, Rejection]:
    """Optimize one environment seed and apply the acceptance filter.

    The GA best sequence is replayed through a fresh rollout to materialize
    the exported transitions; determinism guarantees the replay reproduces
    the optimizer's reward exactly.  The rule-based baseline is scored open
    loop from the tape, as the benchmark scores it.
    """
    n = config.episode_len
    tape = InputTape(config, env_seed)
    baseline = episode_reward(config, env_seed, rule_based_actions(tape, n), tape)
    per_env = dataclasses.replace(ga_params, ga_seed=ga_seed_for_env(ga_params.ga_seed, env_seed))
    ga = ga_optimize(config, env_seed, n, per_env)
    if not passes_filter(ga.best_reward, baseline, min_improvement):
        return Rejection(env_seed, ga.best_reward, baseline)
    total, transitions = rollout(config, env_seed, ga.best_sequence, tape)
    if total != ga.best_reward:
        raise RuntimeError(
            f"replay of seed {env_seed} returned {total!r}, optimizer saw {ga.best_reward!r}; determinism broken"
        )
    return DemoTrajectory(env_seed, ga.best_sequence, transitions, total, baseline)


def run_campaign(
    config: EnvConfig,
    seeds: Sequence[int],
    ga_params: GaParams,
    min_improvement: float = DEFAULT_MIN_IMPROVEMENT,
    out_dir: Union[str, Path] = "demos",
    workers: int = 1,
) -> DatasetManifest:
    """Generate, filter, and export demonstrations for every seed.

    Each seed is one :func:`generate_demo` call through :func:`parallel_map`;
    files and the manifest are written in ascending seed order, so reruns are
    byte-identical whatever the worker count.
    """
    if not _is_finite_number(min_improvement):
        raise ContractViolation(f"min_improvement must be a finite number, got {min_improvement!r}")
    seeds = tuple(sorted(set(int(s) for s in seeds)))
    if len(seeds) == 0:
        raise ContractViolation("campaign needs at least one seed")
    bad = [s for s in seeds if s < BENCH_SEED_LIMIT]
    if bad:
        raise ContractViolation(
            f"seed(s) {bad[:5]} overlap the benchmark pool [0, {BENCH_SEED_LIMIT}); campaign seeds must be >= {BENCH_SEED_LIMIT}"
        )

    outcomes = parallel_map(generate_demo, [(config, s, ga_params, min_improvement) for s in seeds], workers)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    accepted: list[dict] = []
    rejected: list[dict] = []
    for outcome in outcomes:
        if isinstance(outcome, DemoTrajectory):
            name = f"traj_{outcome.env_seed}.jsonl"
            write_transitions(out / name, outcome.transitions)
            accepted.append(
                {
                    "seed": outcome.env_seed,
                    "file": name,
                    "ga_reward": outcome.cumulative_reward,
                    "baseline_reward": outcome.baseline_reward,
                    "actions": "".join(str(b) for b in outcome.actions),
                    "sha256": sha256_file(out / name),
                }
            )
        else:
            rejected.append(
                {
                    "seed": outcome.env_seed,
                    "ga_reward": outcome.ga_reward,
                    "baseline_reward": outcome.baseline_reward,
                }
            )
    manifest = DatasetManifest(config, ga_params, min_improvement, seeds, accepted, rejected)
    (out / MANIFEST_NAME).write_text(json.dumps(manifest.to_dict(), indent=2) + "\n", encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class Violation:
    file: str
    rule: str
    detail: str


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation] = field(default_factory=list)

    def format(self) -> str:
        if self.ok:
            return "dataset OK"
        lines = [f"dataset FAILED: {len(self.violations)} violation(s)"]
        lines += [f"  {v.file}: [{v.rule}] {v.detail}" for v in self.violations]
        return "\n".join(lines)


def validate_dataset(directory: Union[str, Path]) -> ValidationReport:
    """Re-check schema, digests, counts, the seed index, the filter rule (every
    accepted record passes it, every rejection fails it), and replay equality.

    Replay re-simulates every accepted trajectory from (config, seed, action
    string) recorded in the manifest and compares rewards bit-exactly.
    """
    directory = Path(directory)
    violations: list[Violation] = []
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        return ValidationReport(False, [Violation(MANIFEST_NAME, "manifest-missing", "no manifest in directory")])
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return ValidationReport(False, [Violation(MANIFEST_NAME, "manifest-unparseable", str(exc))])
    if not isinstance(manifest, dict):
        return ValidationReport(False, [Violation(MANIFEST_NAME, "manifest-unparseable", "manifest is not a JSON object")])
    if manifest.get("format_version") != MANIFEST_FORMAT:
        return ValidationReport(
            False,
            [Violation(MANIFEST_NAME, "manifest-version", f"unsupported format_version {manifest.get('format_version')!r}")],
        )
    try:
        config = config_from_mapping(manifest["config"])
    except (KeyError, ConfigError) as exc:
        return ValidationReport(False, [Violation(MANIFEST_NAME, "manifest-config", str(exc))])
    min_improvement = manifest.get("min_improvement", DEFAULT_MIN_IMPROVEMENT)
    if not _is_finite_number(min_improvement):
        return ValidationReport(
            False, [Violation(MANIFEST_NAME, "manifest-config", f"min_improvement must be a number, got {min_improvement!r}")]
        )

    entries = manifest.get("trajectories")
    rejections = manifest.get("rejections")
    if not _seeded_records(entries) or not _seeded_records(rejections):
        return ValidationReport(
            False,
            [Violation(MANIFEST_NAME, "manifest-index", "trajectories and rejections must be lists of records with an integer seed")],
        )
    # type() is int keeps out booleans, since True == 1
    accepted_count, rejected_count = manifest.get("accepted_count"), manifest.get("rejected_count")
    if type(accepted_count) is not int or accepted_count != len(entries):
        violations.append(Violation(MANIFEST_NAME, "manifest-index", "accepted_count does not match index length"))
    if type(rejected_count) is not int or rejected_count != len(rejections):
        violations.append(Violation(MANIFEST_NAME, "manifest-index", "rejected_count does not match rejections length"))
    recorded = [record["seed"] for record in entries + rejections]
    if len(set(recorded)) != len(recorded):
        violations.append(Violation(MANIFEST_NAME, "manifest-seeds", "a seed is recorded more than once"))
    if manifest.get("seeds") != sorted(set(recorded)):
        violations.append(Violation(MANIFEST_NAME, "manifest-seeds", "seeds does not list exactly the accepted and rejected seeds"))
    for record in rejections:
        seed, ga_reward, rb_reward = record["seed"], record.get("ga_reward"), record.get("baseline_reward")
        if not (_is_finite_number(ga_reward) and _is_finite_number(rb_reward)):
            detail = f"rejected seed {seed}: ga_reward/baseline_reward missing or not finite"
            violations.append(Violation(MANIFEST_NAME, "manifest-index", detail))
        elif passes_filter(ga_reward, rb_reward, min_improvement):
            detail = f"rejected seed {seed}: ga {ga_reward} vs baseline {rb_reward} passes the margin rule"
            violations.append(Violation(MANIFEST_NAME, "filter", detail))

    indexed_files = {entry.get("file") for entry in entries if isinstance(entry.get("file"), str)}
    for stray in sorted(p.name for p in directory.glob("traj_*.jsonl") if p.name not in indexed_files):
        violations.append(Violation(stray, "manifest-index", "data file present but not indexed"))

    for entry in entries:
        name = entry.get("file", "<missing file name>")
        if not isinstance(name, str):
            violations.append(Violation(MANIFEST_NAME, "manifest-index", f"seed {entry['seed']}: file name must be a string, got {name!r}"))
            continue
        path = directory / name
        if not path.is_file():
            violations.append(Violation(name, "manifest-index", "indexed file missing from disk"))
            continue
        digest = sha256_file(path)
        if digest != entry.get("sha256"):
            violations.append(Violation(name, "digest", f"sha256 mismatch: manifest {entry.get('sha256')}, file {digest}"))
            continue
        try:
            transitions = read_transitions(path, OBS_SIZE)
        except Exception as exc:
            violations.append(Violation(name, "schema", str(exc)))
            continue
        if len(transitions) != config.episode_len:
            violations.append(
                Violation(name, "transition-count", f"expected {config.episode_len} transitions, found {len(transitions)}")
            )
            continue
        if any(tr.truncated for tr in transitions[:-1]) or not transitions[-1].truncated:
            violations.append(Violation(name, "schema", "truncated flag must be set on exactly the final transition"))
        ga_reward = entry.get("ga_reward")
        rb_reward = entry.get("baseline_reward")
        if not (_is_finite_number(ga_reward) and _is_finite_number(rb_reward)):
            violations.append(Violation(name, "manifest-index", "ga_reward/baseline_reward missing or not finite"))
            continue
        if not passes_filter(ga_reward, rb_reward, min_improvement):
            violations.append(Violation(name, "filter", f"ga {ga_reward} vs baseline {rb_reward} fails the margin rule"))
        actions_str = entry.get("actions", "")
        if not isinstance(actions_str, str) or not set(actions_str) <= {"0", "1"} or len(actions_str) != config.episode_len:
            violations.append(Violation(name, "manifest-index", "actions string malformed"))
            continue
        if any(tr.action != int(actions_str[i]) for i, tr in enumerate(transitions)):
            violations.append(Violation(name, "replay", "stored actions disagree with manifest action string"))
            continue
        replay_total, replay_transitions = rollout(config, entry["seed"], [int(b) for b in actions_str])
        stored_total = sum(tr.reward for tr in transitions)
        if replay_total != ga_reward or stored_total != ga_reward:
            violations.append(
                Violation(
                    name,
                    "replay",
                    f"cumulative reward mismatch: manifest {ga_reward!r}, stored {stored_total!r}, replay {replay_total!r}",
                )
            )
            continue
        for i, (stored, fresh) in enumerate(zip(transitions, replay_transitions)):
            if stored.reward != fresh.reward:
                violations.append(Violation(name, "replay", f"transition {i} reward mismatch"))
                break
    return ValidationReport(not violations, violations)


def _seeded_records(value: object) -> bool:
    """A JSON list of objects, each carrying an integer ``seed``."""
    return isinstance(value, list) and all(isinstance(r, dict) and type(r.get("seed")) is int for r in value)


def _is_finite_number(value: object) -> bool:
    """A JSON number other than a boolean, NaN or an infinity."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
