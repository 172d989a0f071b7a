"""Offline optimizers over binary action sequences.

Both planners score candidates with the frozen-seed rollout: the same seed
realizes the same inputs no matter which actions are applied, so the episode
reward is a pure function of the bit sequence.  That gives an upper bound on
controller performance, not a controller.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .baselines import run_policy
from .config import EnvConfig
from .env import ContractViolation, InputTape, advance, reset
from .rng import derive_seed
from .trajio import Transition

BRUTE_FORCE_CAP = 20


@dataclass(frozen=True)
class GaParams:
    population: int = 100
    generations: int = 25
    crossover_rate: float = 0.7
    mutation_rate: float = 0.1
    tournament_size: int = 2
    ga_seed: int = 0

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ContractViolation("population must be >= 2")
        if self.generations < 0:
            raise ContractViolation("generations must be >= 0")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ContractViolation("crossover_rate must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ContractViolation("mutation_rate must lie in [0, 1]")
        if self.tournament_size != 2:
            raise ContractViolation("tournament_size is fixed at 2")


class GenStats(NamedTuple):
    max_reward: float
    mean_reward: float
    min_reward: float


@dataclass
class GaResult:
    best_sequence: tuple[int, ...]
    best_reward: float
    initial_stats: GenStats
    per_generation: list[GenStats]
    evaluations: int


@dataclass
class BruteForceResult:
    best_sequence: tuple[int, ...]
    best_reward: float
    evaluations: int


def episode_reward(config: EnvConfig, seed: int, actions: Sequence[int], tape: Optional[InputTape] = None) -> float:
    """Cumulative reward of an action sequence, skipping observation builds."""
    state, _ = reset(config, seed, tape)
    total = 0.0
    for action in actions:
        total += advance(state, action)[0]
    return total


def rollout(
    config: EnvConfig, seed: int, actions: Sequence[int], tape: Optional[InputTape] = None
) -> tuple[float, list[Transition]]:
    """Apply an action sequence from a fresh reset and materialize transitions:
    :func:`run_policy` under the scripted policy ``actions[t]``."""
    run = run_policy(config, seed, lambda state: actions[state.t], len(actions), keep_transitions=True, tape=tape)
    return run.cumulative_reward, run.transitions


# ---------------------------------------------------------------------------
# genetic operators
# ---------------------------------------------------------------------------


def crossover(parent_a: Sequence[int], parent_b: Sequence[int], cut: int) -> tuple[list[int], list[int]]:
    """Single-point recombination: prefixes swapped at the cut."""
    n = len(parent_a)
    if len(parent_b) != n:
        raise ContractViolation("parents must have equal length")
    if not 1 <= cut <= n - 1:
        raise ContractViolation(f"cut must lie in [1, {n - 1}], got {cut}")
    child_a = list(parent_a[:cut]) + list(parent_b[cut:])
    child_b = list(parent_b[:cut]) + list(parent_a[cut:])
    return child_a, child_b


def mutate(seq: Sequence[int], rate: float, rng: random.Random) -> list[int]:
    """Flip each bit independently with the given probability.

    Always consumes exactly len(seq) draws, so the stream position never
    depends on outcomes.
    """
    if not 0.0 <= rate <= 1.0:
        raise ContractViolation("mutation rate must lie in [0, 1]")
    return [bit ^ 1 if rng.random() < rate else bit for bit in seq]


def tournament_select(population: Sequence[Sequence[int]], fitnesses: Sequence[float], rng: random.Random) -> int:
    """Size-2 tournament with replacement; the fitter wins, ties keep the
    first drawn."""
    if not population:
        raise ContractViolation("population must be nonempty")
    i = rng.randrange(len(population))
    j = rng.randrange(len(population))
    return i if fitnesses[i] >= fitnesses[j] else j


# ---------------------------------------------------------------------------
# process fan-out (results never depend on the worker count)
# ---------------------------------------------------------------------------


def parallel_map(fn: Callable, jobs: Sequence[tuple], workers: int) -> list:
    """``[fn(*job) for job in jobs]``, spread over up to ``workers`` processes.

    One worker or fewer than two jobs run in this process; otherwise a pool of
    ``min(workers, len(jobs))`` processes is opened and closed here.  Results
    come back in job order either way.  ``fn`` and every job are pickled for
    the pool, so ``fn`` must be a module-level function.
    """
    if workers < 1:
        raise ContractViolation(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(jobs) < 2:
        return [fn(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, *zip(*jobs)))


def _spans(total: int, parts: int) -> list[tuple[int, int]]:
    """Cut range(total) into at most ``parts`` contiguous (start, stop) spans
    whose sizes differ by at most one."""
    parts = max(1, min(parts, total))
    bounds = [total * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _score_chunk(tape: InputTape, chunk: list[tuple[int, ...]]) -> list[float]:
    return [episode_reward(tape.config, tape.seed, bits, tape) for bits in chunk]


class _FitnessOracle:
    """Memoized frozen-seed fitness, scored in chunks through parallel_map.

    Candidates are deduplicated in first-appearance order; results are merged
    back by position, so worker count never changes any number.
    """

    def __init__(self, config: EnvConfig, seed: int, n: int, workers: int = 1) -> None:
        self.workers = workers
        self.tape = InputTape(config, seed)
        if workers > 1:
            # every chunk ships a pickled copy of the tape: fill it once here
            # so no worker regenerates the inputs
            episode_reward(config, seed, [0] * n, self.tape)
        self.cache: dict[tuple[int, ...], float] = {}
        self.evaluations = 0

    def fitnesses(self, population: Sequence[Sequence[int]]) -> list[float]:
        todo: list[tuple[int, ...]] = []
        seen = set()
        for bits in population:
            key = tuple(bits)
            if key not in self.cache and key not in seen:
                seen.add(key)
                todo.append(key)
        if todo:
            self.evaluations += len(todo)
            chunks = [todo[start:stop] for start, stop in _spans(len(todo), self.workers * 4)]
            results = parallel_map(_score_chunk, [(self.tape, chunk) for chunk in chunks], self.workers)
            for chunk, values in zip(chunks, results):
                self.cache.update(zip(chunk, values))
        return [self.cache[tuple(bits)] for bits in population]


# ---------------------------------------------------------------------------
# planners
# ---------------------------------------------------------------------------


def brute_force(config: EnvConfig, seed: int, n: int, workers: int = 1) -> BruteForceResult:
    """Exhaustively score all 2**n sequences; ties pick the lexicographically
    smallest (0 before 1)."""
    if n < 1:
        raise ContractViolation("horizon must be >= 1")
    if n > BRUTE_FORCE_CAP:
        raise ContractViolation(f"brute force refuses n > {BRUTE_FORCE_CAP} (2**{n} rollouts); use the GA instead")
    total = 1 << n
    tape = InputTape(config, seed)
    # below 256 codes a pool costs more than the episodes it would share out
    parts = workers * 4 if total >= 256 else 1
    partials = parallel_map(_brute_span, [(tape, n, start, stop) for start, stop in _spans(total, parts)], workers)
    # spans are merged in code order with a strict >, so ties keep the lowest code
    best_code, best_reward = partials[0]
    for code, reward in partials[1:]:
        if reward > best_reward:
            best_code, best_reward = code, reward
    return BruteForceResult(_code_to_bits(best_code, n), best_reward, total)


def _brute_span(tape: InputTape, n: int, start: int, stop: int) -> tuple[int, float]:
    config, seed = tape.config, tape.seed
    best_code = start
    best_reward = episode_reward(config, seed, _code_to_bits(start, n), tape)
    for code in range(start + 1, stop):
        reward = episode_reward(config, seed, _code_to_bits(code, n), tape)
        if reward > best_reward:
            best_reward = reward
            best_code = code
    return best_code, best_reward


def _code_to_bits(code: int, n: int) -> tuple[int, ...]:
    # MSB first, so increasing codes enumerate sequences in lexicographic order
    return tuple((code >> (n - 1 - i)) & 1 for i in range(n))


def ga_optimize(config: EnvConfig, seed: int, n: int, params: GaParams, workers: int = 1) -> GaResult:
    """Evolve binary action sequences against the frozen-seed fitness.

    Tournament selection (size 2), single-point crossover, independent
    per-bit mutation.  The breeding population carries no elite; the best
    candidate ever evaluated is archived separately and returned.  All
    stochastic choices come from one sequential stream seeded by ga_seed and
    are drawn before fitness dispatch.  Each generation's new candidates are
    scored through :func:`parallel_map` (a pool per generation when
    ``workers > 1``), so results are independent of worker count.
    """
    if n < 1:
        raise ContractViolation("horizon must be >= 1")
    rng = random.Random(params.ga_seed)
    oracle = _FitnessOracle(config, seed, n, workers)
    population = [[rng.randrange(2) for _ in range(n)] for _ in range(params.population)]
    fitnesses = oracle.fitnesses(population)
    best_idx = max(range(len(fitnesses)), key=lambda i: fitnesses[i])
    best_bits = tuple(population[best_idx])
    best_reward = fitnesses[best_idx]
    initial_stats = _gen_stats(fitnesses)

    per_generation: list[GenStats] = []
    for _ in range(params.generations):
        children: list[list[int]] = []
        while len(children) < params.population:
            pa = population[tournament_select(population, fitnesses, rng)]
            pb = population[tournament_select(population, fitnesses, rng)]
            if n >= 2 and rng.random() < params.crossover_rate:
                cut = rng.randint(1, n - 1)
                ca, cb = crossover(pa, pb, cut)
            else:
                ca, cb = list(pa), list(pb)
            children.append(mutate(ca, params.mutation_rate, rng))
            children.append(mutate(cb, params.mutation_rate, rng))
        population = children[: params.population]
        fitnesses = oracle.fitnesses(population)
        per_generation.append(_gen_stats(fitnesses))
        gen_best = max(range(len(fitnesses)), key=lambda i: fitnesses[i])
        if fitnesses[gen_best] > best_reward:
            best_reward = fitnesses[gen_best]
            best_bits = tuple(population[gen_best])
    return GaResult(best_bits, best_reward, initial_stats, per_generation, oracle.evaluations)


def _gen_stats(fitnesses: Sequence[float]) -> GenStats:
    return GenStats(max(fitnesses), sum(fitnesses) / len(fitnesses), min(fitnesses))


def ga_seed_for_env(base_ga_seed: int, env_seed: int) -> int:
    """Per-environment GA stream so re-runs across seeds are decorrelated."""
    return derive_seed(base_ga_seed, env_seed)
