"""Offline optimizers over binary action sequences.

Both planners score candidates with the frozen-seed rollout: the same seed
realizes the same inputs no matter which actions are applied, so the episode
reward is a pure function of the bit sequence.  That gives an upper bound on
controller performance, not a controller.

Both score through :func:`evaluate_population`, which steps a whole batch of
candidates through a :class:`~sortplant.env.TapeStack` on numpy arrays and
returns, bit for bit, what :func:`episode_reward` (the scalar reference path)
returns for each.  A planner's stack holds its one seed.  The GA scores its
initial population and each generation's children in one call each, in this
process; BF scores its codes in chunks of ``BRUTE_FORCE_CHUNK`` and can
spread code ranges over worker processes.  A result's ``evaluations`` counts
the candidates it scored, duplicates included.

The columns of one call may play different seeds of a wider stack:
``tape_of_col[i]`` is the index into the stack's seeds of the seed column i
plays.  The benchmark scores the R and RB cells of many seeds this way.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .baselines import run_policy
from .config import EnvConfig
from .env import CONTAINER_E, N_CONTAINERS, N_MATERIALS, ContractViolation, InputTape, TapeStack, advance, reset
from .rng import derive_seed
from .trajio import Transition

BRUTE_FORCE_CAP = 20
# 100x the default population: a generation is scored in one call whose
# state arrays grow with the population
MAX_POPULATION = 10_000
# 400x the default: generations run one after another, so a larger value
# only makes a run hang
MAX_GENERATIONS = 10_000
# codes per evaluate_population call in brute_force.  At chunks of 256, 512
# and 1024, one seed of the default config took 0.119, 0.084 and 0.072 s at
# n = 14 and 2.37, 1.58 and 1.42 s at n = 18, with a max RSS of 35.6, 36.0
# and 36.4 MB (median of 7 fresh processes each, 2-CPU Linux container)
BRUTE_FORCE_CHUNK = 256


@dataclass(frozen=True)
class GaParams:
    population: int = 100
    generations: int = 25
    crossover_rate: float = 0.7
    mutation_rate: float = 0.1
    tournament_size: int = 2
    ga_seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.population <= MAX_POPULATION:
            raise ContractViolation(f"population must lie in [2, {MAX_POPULATION}], got {self.population}")
        if not 0 <= self.generations <= MAX_GENERATIONS:
            raise ContractViolation(f"generations must lie in [0, {MAX_GENERATIONS}], got {self.generations}")
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
    evaluations: int  # population * (generations + 1) candidates scored


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


def evaluate_population(
    stack: TapeStack, bits: Sequence[Sequence[int]] | np.ndarray, tape_of_col: Optional[Sequence[int] | np.ndarray] = None
) -> np.ndarray:
    """Frozen-seed rewards of P action sequences scored together.

    ``bits`` is a (P, n) 0/1 matrix, and ``tape_of_col[i]`` is the index
    into ``stack.seeds`` of the seed that column i plays.  Entry i of the
    result equals ``episode_reward(stack.config, seed, bits[i])`` for that
    seed, bit for bit, so one call scores many seeds.  ``tape_of_col``
    defaults to all zeros, the first (or only) seed.

    The P episodes step through numpy state arrays with the population on
    the last axis: contents (5, 4, P), pending_since (5, P) and busy_until
    (n_presses, P).  Each step reads both sorts of every seed
    (``stack.sorted_deposits``) and gathers column i's deposits at
    ``2 * tape_of_col[i] + bits[i, t]``.  The rules of
    :func:`update_containers_and_presses` and :func:`compute_reward` are
    mirrored operation for operation:

    - every sum runs left to right, ``((a + b) + c) + d``, never ``np.sum``;
    - when every deposit of the step fits its container in every column,
      all five deposits are added in one pass.  That is exact: the general
      branch would multiply each by 1.0 and add a spill of +0.0 to E, and
      E's contents start at 0.0, are reset to 0.0 and only grow, so they
      are never -0.0;
    - otherwise each container of A-D gets a keep factor: 1.0 if the
      deposit fits, 0.0 without headroom, headroom / total otherwise, and
      E takes ``deposit * (1.0 - keep)`` of A-D in order, then its own
      deposit (``x * 1.0`` and ``x * 0.0`` reproduce the scalar additions
      exactly);
    - a container that is not waiting has pending_since ``int64`` max, so
      one array is the whole queue: a crossing at step t lowers it to t,
      the minimum keeps an earlier step, and a press resets it;
    - presses are served in order, each idle press taking the waiting
      container with the least (pending_since, index): ``argmin`` returns
      the first of equal minima, which is the lower index.  So a press
      takes at most one job per step;
    - an empty container adds 0.0 to the step reward.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ContractViolation(f"bits must be a (P, n) matrix, got {bits.ndim} dimension(s)")
    pop, n = bits.shape
    config = stack.config
    if n > config.episode_len:
        raise ContractViolation(f"{n} actions exceed episode_len {config.episode_len}")
    if ((bits != 0) & (bits != 1)).any():
        raise ContractViolation("actions must be 0 or 1")
    width = len(stack.seeds)
    if tape_of_col is None:
        tape_of_col = np.zeros(pop, dtype=np.intp)
    tape_of_col = np.asarray(tape_of_col)
    if tape_of_col.shape != (pop,) or tape_of_col.dtype.kind not in "iu":
        raise ContractViolation(f"tape_of_col must hold one integer per column, got shape {tape_of_col.shape}")
    if ((tape_of_col < 0) | (tape_of_col >= width)).any():
        raise ContractViolation(f"tape_of_col must index one of {width} seed(s)")
    # column i reads entry 2 * tape + action of each step's sort table
    table_cols = bits.astype(np.intp) + 2 * tape_of_col.astype(np.intp)[:, None]

    capacity = config.container_capacity
    threshold = config.pressing_threshold
    duration = config.press_duration
    penalty = config.penalty_factor
    purity_thresholds = np.array(config.purity_thresholds)[:, None]
    columns = np.arange(pop)
    not_waiting = np.iinfo(np.int64).max

    contents = np.zeros((N_CONTAINERS, N_MATERIALS, pop))
    pending = np.full((N_CONTAINERS, pop), not_waiting, dtype=np.int64)
    busy = np.zeros((config.n_presses, pop), dtype=np.int64)
    designated_contents = contents[:N_MATERIALS]
    e_contents = contents[CONTAINER_E]
    # contents[m, m, :] for m in A-D: the rows of contents seen as (20, P)
    # step by N_MATERIALS + 1, a view that follows every in-place write
    own = contents.reshape(N_CONTAINERS * N_MATERIALS, pop)[:: N_MATERIALS + 1]
    total = np.zeros(pop)
    if pop == 0:  # pending.min() below needs a column
        return total
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(n):
            table, table_totals = stack.sorted_deposits(t)
            cols = table_cols[:, t]
            deposits = table[:, :, cols]
            dep_total = table_totals[:, cols]

            # deposits: containers A-D are independent of each other, but E
            # takes their overflow in container order, then its own deposit
            c = designated_contents
            headroom = capacity - (((c[:, 0] + c[:, 1]) + c[:, 2]) + c[:, 3])
            fits = headroom >= dep_total
            if fits.all():  # exact, see the docstring
                contents += deposits
            else:
                keep = np.where(fits, 1.0, np.where(headroom <= 0.0, 0.0, headroom / dep_total))
                c += deposits[:N_MATERIALS] * keep[:, None]
                spill = deposits[:N_MATERIALS] * (1.0 - keep)[:, None]
                e_contents += spill[0]
                e_contents += spill[1]
                e_contents += spill[2]
                e_contents += spill[3]
                e_contents += deposits[CONTAINER_E]

            fill = ((contents[:, 0] + contents[:, 1]) + contents[:, 2]) + contents[:, 3]
            np.minimum(pending, np.where(fill >= threshold, t, not_waiting), out=pending)
            if pending.min() != not_waiting:
                for p in range(config.n_presses):
                    idle = busy[p] <= t
                    first = pending.argmin(axis=0)
                    take = idle & (pending[first, columns] != not_waiting)
                    rows, cols = first[take], columns[take]
                    contents[rows, :, cols] = 0.0
                    fill[rows, cols] = 0.0
                    pending[rows, cols] = not_waiting
                    busy[p, take] = t + duration

            filled = fill[:N_MATERIALS]
            deviation = own / filled - purity_thresholds
            reward = np.where(filled > 0.0, np.where(deviation >= 0.0, deviation, penalty * deviation), 0.0)
            total += ((reward[0] + reward[1]) + reward[2]) + reward[3]
    return total


def rollout(
    config: EnvConfig, seed: int, actions: Sequence[int], tape: Optional[InputTape] = None
) -> tuple[float, list[Transition]]:
    """Apply an action sequence from a fresh reset and materialize transitions:
    :func:`run_policy` under the scripted policy ``actions[t]``."""
    run = run_policy(config, seed, lambda state: actions[state.t], len(actions), tape=tape)
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
    ``min(workers, len(jobs), os.cpu_count())`` processes is opened and closed
    here.  Results come back in job order either way.  ``fn`` and every job
    are pickled for the pool, so ``fn`` must be a module-level function.
    """
    if workers < 1:
        raise ContractViolation(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(jobs) < 2:
        return [fn(*job) for job in jobs]
    # imported here: importing the pool machinery adds 1.3 MB of resident
    # memory (Python 3.11, measured after numpy), which a run that never
    # opens a pool should not pay
    from concurrent.futures import ProcessPoolExecutor

    # processes beyond the CPUs would only queue
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs), os.cpu_count() or 1)) as pool:
        return list(pool.map(fn, *zip(*jobs)))


def _spans(total: int, parts: int) -> list[tuple[int, int]]:
    """Cut range(total) into at most ``parts`` contiguous (start, stop) spans
    whose sizes differ by at most one."""
    parts = max(1, min(parts, total))
    bounds = [total * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


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
    stack = TapeStack(config, (seed,))
    # a pool pays only when there is more than one chunk to share out, and
    # opens at most one process per CPU, so the spans stop there too
    parts = min(workers, os.cpu_count() or 1) if total > BRUTE_FORCE_CHUNK else 1
    partials = parallel_map(_brute_span, [(stack, n, start, stop) for start, stop in _spans(total, parts)], workers)
    # spans are merged in code order with a strict >, so ties keep the lowest code
    best_code, best_reward = partials[0]
    for code, reward in partials[1:]:
        if reward > best_reward:
            best_code, best_reward = code, reward
    return BruteForceResult(_code_to_bits(best_code, n), best_reward, total)


def _brute_span(stack: TapeStack, n: int, start: int, stop: int) -> tuple[int, float]:
    shifts = np.arange(n - 1, -1, -1)  # MSB first, as in _code_to_bits
    best_code, best_reward = start, -math.inf
    for low in range(start, stop, BRUTE_FORCE_CHUNK):
        codes = np.arange(low, min(low + BRUTE_FORCE_CHUNK, stop))
        rewards = evaluate_population(stack, (codes[:, None] >> shifts) & 1)
        i = int(np.argmax(rewards))  # the first maximum, so the lowest code
        if rewards[i] > best_reward:
            best_code, best_reward = low + i, float(rewards[i])
    return best_code, best_reward


def _code_to_bits(code: int, n: int) -> tuple[int, ...]:
    # MSB first, so increasing codes enumerate sequences in lexicographic order
    return tuple((code >> (n - 1 - i)) & 1 for i in range(n))


def ga_optimize(config: EnvConfig, seed: int, n: int, params: GaParams) -> GaResult:
    """Evolve binary action sequences against the frozen-seed fitness.

    Tournament selection (size 2), single-point crossover, independent
    per-bit mutation.  The breeding population carries no elite; the best
    candidate ever scored is archived separately and returned.  All
    stochastic choices come from one sequential stream seeded by ga_seed and
    are drawn before fitness dispatch.  The initial population and each
    generation's children are scored in one :func:`evaluate_population` call
    each, duplicates included.
    """
    if n < 1:
        raise ContractViolation("horizon must be >= 1")
    if n > config.episode_len:
        raise ContractViolation(f"{n} actions exceed episode_len {config.episode_len}")
    rng = random.Random(params.ga_seed)
    stack = TapeStack(config, (seed,))
    population = [[rng.randrange(2) for _ in range(n)] for _ in range(params.population)]
    best_bits, best_reward = (), -math.inf
    stats: list[GenStats] = []
    for generation in range(params.generations + 1):
        if generation:
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
        bits = np.frombuffer(b"".join(map(bytes, population)), np.uint8).reshape(params.population, n)
        fitnesses = evaluate_population(stack, bits).tolist()
        stats.append(_gen_stats(fitnesses))
        best = max(range(params.population), key=lambda i: fitnesses[i])
        if fitnesses[best] > best_reward:
            best_bits, best_reward = tuple(population[best]), fitnesses[best]
    return GaResult(best_bits, best_reward, stats[0], stats[1:], params.population * (params.generations + 1))


def _gen_stats(fitnesses: Sequence[float]) -> GenStats:
    return GenStats(max(fitnesses), sum(fitnesses) / len(fitnesses), min(fitnesses))


def ga_seed_for_env(base_ga_seed: int, env_seed: int) -> int:
    """Per-environment GA stream so re-runs across seeds are decorrelated."""
    return derive_seed(base_ga_seed, env_seed)
