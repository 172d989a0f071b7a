"""Benchmark harness: strategy evaluation over seed sets with plot-ready output.

Strategies: R (uniform random policy), RB (majority-pair rule), BF (exhaustive
search, short horizons only), GA (evolutionary planner).  R and RB run closed
loop through the live environment; BF and GA are planners scored by their best
frozen-seed sequence.  Scores from external agents can be merged from a file
so downstream results land in the same tables.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from .config import ConfigError, EnvConfig, config_to_dict
from .baselines import random_actions, rule_based_actions
from .demo import BENCH_SEED_LIMIT
from .env import ContractViolation, InputTape, purity_reward
from .planners import (
    BRUTE_FORCE_CAP,
    GaParams,
    GenStats,
    brute_force,
    episode_reward,
    ga_optimize,
    ga_seed_for_env,
    parallel_map,
)

STRATEGIES = ("R", "RB", "BF", "GA")

PER_SEED_HEADER = "strategy,seed,reward"
SUMMARY_HEADER = "strategy,count,mean,std,median,min,max"
CURVE_HEADER = "deviation,reward"
GENERATIONS_HEADER = "seed,generation,max_reward,mean_reward,min_reward"


@dataclass(frozen=True)
class BenchSpec:
    strategies: tuple[str, ...]
    seeds: tuple[int, ...]
    horizon: int
    ga_params: GaParams = GaParams()

    def __post_init__(self) -> None:
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ContractViolation(f"unknown strategy name(s): {unknown}; expected subset of {STRATEGIES}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ContractViolation("benchmark seed list contains duplicates")
        bad = [s for s in self.seeds if not 0 <= s < BENCH_SEED_LIMIT]
        if bad:
            raise ContractViolation(
                f"benchmark seeds must lie in [0, {BENCH_SEED_LIMIT}) to stay disjoint from campaign seeds; got {bad[:5]}"
            )
        if "BF" in self.strategies and self.horizon > BRUTE_FORCE_CAP:
            raise ContractViolation(f"BF is only allowed for horizons <= {BRUTE_FORCE_CAP}")
        if self.horizon < 1:
            raise ContractViolation("horizon must be >= 1")


@dataclass
class Summary:
    count: int
    mean: float
    std: float
    median: float
    min: float
    max: float


@dataclass
class BenchResult:
    spec: BenchSpec
    per_seed: dict[str, list[tuple[int, float]]]  # strategy -> [(seed, reward)], seed-ascending
    summaries: dict[str, Summary]
    ga_generations: dict[int, tuple[GenStats, list[GenStats]]]  # seed -> (initial, per generation)


def evaluate_strategy(
    strategy: str, config: EnvConfig, seed: int, horizon: int, ga_params: GaParams
) -> tuple[float, Optional[tuple[GenStats, list[GenStats]]]]:
    """Cumulative reward of one strategy on one seed; GA also returns its
    per-generation curve."""
    if strategy in ("R", "RB"):
        # scored open loop (see the module docstring); the policy stream is
        # independent of the environment streams, so R reusing the env seed
        # as its policy seed costs nothing
        tape = InputTape(config, seed)
        actions = random_actions(seed, horizon) if strategy == "R" else rule_based_actions(tape, horizon)
        return episode_reward(config, seed, actions, tape), None
    if strategy == "BF":
        return brute_force(config, seed, horizon).best_reward, None
    if strategy == "GA":
        params = dataclasses.replace(ga_params, ga_seed=ga_seed_for_env(ga_params.ga_seed, seed))
        result = ga_optimize(config, seed, horizon, params)
        return result.best_reward, (result.initial_stats, result.per_generation)
    raise ContractViolation(f"unknown strategy {strategy!r}")


def run_bench(config: EnvConfig, spec: BenchSpec, workers: int = 1) -> BenchResult:
    """Evaluate every (strategy, seed) cell through :func:`parallel_map`;
    reduction order is fixed by (strategy, seed), so worker count never
    changes the result."""
    if spec.horizon > config.episode_len:
        raise ContractViolation(f"horizon {spec.horizon} exceeds episode_len {config.episode_len}")
    seeds = tuple(sorted(spec.seeds))
    cells = [(strategy, config, seed, spec.horizon, spec.ga_params) for strategy in spec.strategies for seed in seeds]
    outcomes = parallel_map(evaluate_strategy, cells, workers)

    per_seed: dict[str, list[tuple[int, float]]] = {s: [] for s in spec.strategies}
    ga_generations: dict[int, tuple[GenStats, list[GenStats]]] = {}
    for (strategy, _, seed, _, _), (reward, curve) in zip(cells, outcomes):
        per_seed[strategy].append((seed, reward))
        if curve is not None:
            ga_generations[seed] = curve
    summaries = {s: summarize([r for _, r in rows]) for s, rows in per_seed.items()}
    return BenchResult(spec, per_seed, summaries, ga_generations)


def summarize(rewards: Sequence[float]) -> Summary:
    """Population statistics of per-seed rewards (the seed set is the whole
    evaluated population, so std is the population form)."""
    if not rewards:
        raise ContractViolation("cannot summarize zero rewards")
    return Summary(
        count=len(rewards),
        mean=statistics.fmean(rewards),
        std=statistics.pstdev(rewards),
        median=statistics.median(rewards),
        min=min(rewards),
        max=max(rewards),
    )


def load_external_scores(path: Union[str, Path]) -> dict[str, list[tuple[int, float]]]:
    """Read merged-in scores: a CSV with header strategy,seed,reward."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines or lines[0].strip() != PER_SEED_HEADER:
        raise ConfigError(f"external scores file must start with header '{PER_SEED_HEADER}'")
    scores: dict[str, list[tuple[int, float]]] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ConfigError(f"malformed external score row: {ln!r}")
        name, seed_s, reward_s = (p.strip() for p in parts)
        try:
            scores.setdefault(name, []).append((int(seed_s), float(reward_s)))
        except ValueError as exc:
            raise ConfigError(f"malformed external score row: {ln!r}") from exc
    for name in scores:
        scores[name].sort()
    return scores


def reward_curve_samples(config: EnvConfig, lo: float = -0.25, hi: float = 0.25, steps: int = 100) -> list[tuple[float, float]]:
    """Samples of the per-container reward law over a purity-deviation range."""
    samples = []
    for i in range(steps + 1):
        d = lo + (hi - lo) * i / steps
        samples.append((d, purity_reward(d, config.penalty_factor)))
    return samples


def emit_outputs(
    result: BenchResult,
    out_dir: Union[str, Path],
    config: EnvConfig,
    external: Optional[dict[str, list[tuple[int, float]]]] = None,
) -> list[Path]:
    """Write the per-seed table, summary table, reward-law curve, GA
    generation table (when GA ran), and a provenance echo of the resolved
    config.  Re-emission over the same inputs is byte-identical."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    external = external or {}
    collision = sorted(set(external) & set(result.per_seed))
    if collision:
        raise ConfigError(f"external score strategy name(s) collide with evaluated strategies: {collision}")

    written: list[Path] = []

    rows = [PER_SEED_HEADER]
    for strategy in list(result.spec.strategies) + sorted(external):
        pairs = result.per_seed.get(strategy, external.get(strategy, []))
        rows += [f"{strategy},{seed},{reward!r}" for seed, reward in pairs]
    written.append(_write(out / "per_seed.csv", rows))

    rows = [SUMMARY_HEADER]
    merged = dict(result.summaries)
    for name, pairs in external.items():
        merged[name] = summarize([r for _, r in pairs])
    for strategy in list(result.spec.strategies) + sorted(external):
        s = merged[strategy]
        rows.append(f"{strategy},{s.count},{s.mean!r},{s.std!r},{s.median!r},{s.min!r},{s.max!r}")
    written.append(_write(out / "summary.csv", rows))

    rows = [CURVE_HEADER]
    rows += [f"{d!r},{r!r}" for d, r in reward_curve_samples(config)]
    written.append(_write(out / "reward_curve.csv", rows))

    if result.ga_generations:
        rows = [GENERATIONS_HEADER]
        for seed in sorted(result.ga_generations):
            initial, per_gen = result.ga_generations[seed]
            for g, stats in enumerate([initial] + list(per_gen)):
                rows.append(f"{seed},{g},{stats.max_reward!r},{stats.mean_reward!r},{stats.min_reward!r}")
        written.append(_write(out / "ga_generations.csv", rows))

    meta = {
        "config": config_to_dict(config),
        "strategies": list(result.spec.strategies),
        "seeds": sorted(result.spec.seeds),
        "horizon": result.spec.horizon,
        "ga_params": dataclasses.asdict(result.spec.ga_params),
        "external_strategies": sorted(external),
    }
    meta_path = out / "run_meta.json"
    meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    written.append(meta_path)
    return written


def _write(path: Path, rows: list[str]) -> Path:
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path

