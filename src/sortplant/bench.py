"""Benchmark harness: strategy evaluation over seed sets with plot-ready output.

Strategies: R (uniform random policy), RB (majority-pair rule), BF (exhaustive
search, short horizons only), GA (evolutionary planner).  BF and GA are
planners scored by their best frozen-seed sequence (:func:`evaluate_strategy`).
R and RB are scored open loop: neither policy reads plant state (R draws from
its own stream, RB reads only the head batch), so each one's actions are a
function of (config, seed), drawn for a seed group at once, and the reward of
a sequence is what the closed-loop run would earn.  :func:`score_open_loop`
therefore scores the R and RB cells of up to ``STACK_SEEDS`` seeds in one
:func:`~sortplant.planners.evaluate_population` call over one
:class:`~sortplant.env.TapeStack`, which both strategies share; BF and GA make
the same calls on a stack of their one seed.  Scores from external agents can
be merged from a file so downstream results land in the same tables.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from .config import ConfigError, EnvConfig, config_to_dict
from .baselines import random_actions, rule_based_actions
from .demo import BENCH_SEED_LIMIT
from .env import ContractViolation, TapeStack, purity_reward
from .planners import (
    BRUTE_FORCE_CAP,
    GaParams,
    GenStats,
    _spans,
    brute_force,
    evaluate_population,
    ga_optimize,
    ga_seed_for_env,
    parallel_map,
)

STRATEGIES = ("R", "RB", "BF", "GA")
# the strategies whose actions are known before the episode runs
OPEN_LOOP = ("R", "RB")
# seeds per TapeStack in run_bench, so R and RB cells per evaluate_population
# call are at most twice this.  The per-step cost of that call barely grows
# with its width, and the stack's working set is one block of about
# env.STACK_ROWS seed-steps (STACK_ROWS // STACK_SEEDS steps of each seed).
# The sizing table in the "Stacked tapes" entry of CHANGES.md and the runs in
# BENCH_7.json hold the measured time and peak memory
STACK_SEEDS = 25

PER_SEED_HEADER = "strategy,seed,reward"
SUMMARY_HEADER = "strategy,count,mean,std,median,min,max"
CURVE_HEADER = "deviation,reward"
GENERATIONS_HEADER = "seed,generation,max_reward,mean_reward,min_reward"
CURVE_SPAN = 0.25
CURVE_STEPS = 100


@dataclass(frozen=True)
class BenchSpec:
    strategies: tuple[str, ...]
    seeds: tuple[int, ...]
    horizon: int
    ga_params: GaParams = GaParams()

    def __post_init__(self) -> None:
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown or not self.strategies or len(set(self.strategies)) != len(self.strategies):
            raise ContractViolation(f"need one or more distinct strategies from {STRATEGIES}, got {list(self.strategies)}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ContractViolation("benchmark seed list must be nonempty, without duplicates")
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
    """Cumulative reward of one planner strategy, BF or GA, on one seed
    (scored on a stack of this seed alone); GA also returns its
    per-generation curve.  R and RB go through :func:`score_open_loop`."""
    if strategy == "BF":
        return brute_force(config, seed, horizon).best_reward, None
    if strategy == "GA":
        params = dataclasses.replace(ga_params, ga_seed=ga_seed_for_env(ga_params.ga_seed, seed))
        result = ga_optimize(config, seed, horizon, params)
        return result.best_reward, (result.initial_stats, result.per_generation)
    raise ContractViolation(f"{strategy!r} is not a planner strategy (BF, GA)")


def score_open_loop(config: EnvConfig, seeds: Sequence[int], strategies: Sequence[str], horizon: int) -> list[float]:
    """Rewards of the R and RB cells of ``seeds``, strategy-major, from one
    action draw per strategy, one :class:`TapeStack` and one
    :func:`evaluate_population` call (see the module docstring).  The policy
    stream is independent of the environment streams, so R reusing the env
    seed as its policy seed costs nothing."""
    bits: list[list[int]] = []
    for strategy in strategies:
        if strategy == "R":
            bits += random_actions(seeds, horizon)
        elif strategy == "RB":
            bits += rule_based_actions(config, seeds, horizon)
        else:
            raise ContractViolation(f"{strategy!r} is not an open-loop strategy {OPEN_LOOP}")
    tape_of_col = list(range(len(seeds))) * len(strategies)
    return evaluate_population(TapeStack(config, seeds), bits, tape_of_col).tolist()


def _score_cells(
    strategies: tuple[str, ...], config: EnvConfig, seeds: tuple[int, ...], horizon: int, ga_params: GaParams
) -> list[tuple[float, Optional[tuple[GenStats, list[GenStats]]]]]:
    """One :func:`run_bench` job: the open-loop cells of a seed group, or one
    planner cell.  Outcomes come strategy-major, as :func:`score_open_loop`
    returns them."""
    if all(strategy in OPEN_LOOP for strategy in strategies):
        return [(reward, None) for reward in score_open_loop(config, seeds, strategies, horizon)]
    (strategy,), (seed,) = strategies, seeds
    return [evaluate_strategy(strategy, config, seed, horizon, ga_params)]


def run_bench(config: EnvConfig, spec: BenchSpec, workers: int = 1) -> BenchResult:
    """Evaluate every (strategy, seed) cell through :func:`parallel_map`.

    The R and RB cells go in groups of at most ``STACK_SEEDS`` seeds, one job
    per group; every BF or GA cell is a job of its own.  Results are keyed
    by (strategy, seed), so the worker count never changes them.
    """
    if spec.horizon > config.episode_len:
        raise ContractViolation(f"horizon {spec.horizon} exceeds episode_len {config.episode_len}")
    seeds = tuple(sorted(spec.seeds))
    open_loop = tuple(s for s in spec.strategies if s in OPEN_LOOP)
    jobs = []
    if open_loop:
        groups = -(-len(seeds) // STACK_SEEDS)
        jobs += [(open_loop, config, seeds[lo:hi], spec.horizon, spec.ga_params) for lo, hi in _spans(len(seeds), groups)]
    jobs += [((s,), config, (seed,), spec.horizon, spec.ga_params) for s in spec.strategies if s not in OPEN_LOOP for seed in seeds]
    outcomes = parallel_map(_score_cells, jobs, workers)

    cells: dict[tuple[str, int], tuple[float, Optional[tuple[GenStats, list[GenStats]]]]] = {}
    for (strategies, _, group, _, _), job_outcomes in zip(jobs, outcomes):
        cells.update(zip([(s, seed) for s in strategies for seed in group], job_outcomes))
    per_seed = {s: [(seed, cells[s, seed][0]) for seed in seeds] for s in spec.strategies}
    ga_generations = {seed: cells["GA", seed][1] for seed in seeds if "GA" in spec.strategies}
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
    """Read merged-in scores: a UTF-8 CSV with header strategy,seed,reward,
    one row per (strategy, seed), each with a nonempty strategy name and a
    finite reward.  Anything else raises :class:`ConfigError`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"external scores file {path} is not UTF-8: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != PER_SEED_HEADER:
        raise ConfigError(f"external scores file must start with header '{PER_SEED_HEADER}'")
    scores: dict[str, dict[int, float]] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ConfigError(f"malformed external score row: {ln!r}")
        name, seed_s, reward_s = (p.strip() for p in parts)
        try:
            seed, reward = int(seed_s), float(reward_s)
        except ValueError as exc:
            raise ConfigError(f"malformed external score row: {ln!r}") from exc
        if not name:
            raise ConfigError(f"external score row without a strategy name: {ln!r}")
        if not math.isfinite(reward):
            raise ConfigError(f"external score row with a non-finite reward: {ln!r}")
        if seed in scores.setdefault(name, {}):
            raise ConfigError(f"external scores repeat strategy {name!r} on seed {seed}")
        scores[name][seed] = reward
    return {name: sorted(cells.items()) for name, cells in scores.items()}


def reward_curve_samples(config: EnvConfig) -> list[tuple[float, float]]:
    """Samples of the per-container reward law at ``CURVE_STEPS + 1`` evenly
    spaced purity deviations from ``-CURVE_SPAN`` to ``CURVE_SPAN``."""
    lo, hi = -CURVE_SPAN, CURVE_SPAN
    deviations = (lo + (hi - lo) * i / CURVE_STEPS for i in range(CURVE_STEPS + 1))
    return [(d, purity_reward(d, config.penalty_factor)) for d in deviations]


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

