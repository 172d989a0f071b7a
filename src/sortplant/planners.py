"""Offline optimizers over binary action sequences.

Both planners score candidates with the frozen-seed rollout: the same seed
realizes the same inputs no matter which actions are applied, so the episode
reward is a pure function of the bit sequence.  That gives an upper bound on
controller performance, not a controller.

Both run the plant rules as one array step, :func:`_step`, which advances
the columns of a :class:`_Columns` state through one step of a
:class:`~sortplant.env.TapeStack` and keeps every column equal, bit for bit,
to what :func:`episode_reward` (the scalar reference path) computes.  A
planner's stack holds its one seed.  The GA scores its initial population
and each generation's children through :func:`evaluate_population`, one call
each, duplicates included; ``GaResult.evaluations`` counts those candidates.
BF walks the decision tree on the same step, one column per prefix, so a
shared prefix is simulated once; it runs in this process, with no chunks
and no pool, and ``BruteForceResult.evaluations`` is the 2**n sequences it
decides between.

The columns of one call may play different seeds of a wider stack:
``tape_of_col[i]`` is the index into the stack's seeds of the seed column i
plays.  The benchmark scores the R and RB cells of many seeds this way.
"""

from __future__ import annotations

import functools
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
# most columns one brute_force step advances; a wider level of the tree is
# cut in halves, finished one after the other.  At W = 512, 1024 and 4096 one
# default-config seed took 9.5, 9.5 and 9.4 ms at n = 14 (medians of 40
# calls) and 0.58, 0.59 and 0.61 s at n = 20 (medians of 3), with a max RSS
# of 34.2, 34.8 and 37.0 MB at n = 14 and 34.5, 35.4 and 39.8 MB at n = 20
# (fresh processes, 2-CPU Linux container).  The chunked scan the tree
# replaced took 55-60 ms and 5.9-6.1 s, at 35.0 and 34.9 MB.  512 is as fast
# as 1024 (interleaved medians within 3%) and holds the least memory
BRUTE_FORCE_WIDTH = 512


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


# a container that is not waiting for a press
_NOT_WAITING = np.iinfo(np.int64).max


class _Columns(NamedTuple):
    """The plant state of P episodes, one per column on the last axis."""

    contents: np.ndarray  # (5, 4, P) material in each container
    pending: np.ndarray  # (5, P) pending_since, int64 max when not waiting
    busy: np.ndarray  # (n_presses, P) busy_until
    total: np.ndarray  # (P,) reward so far

    @classmethod
    def start(cls, config: EnvConfig, pop: int) -> _Columns:
        """P episodes at step 0: empty containers, idle presses, no reward."""
        return cls(
            np.zeros((N_CONTAINERS, N_MATERIALS, pop)),
            np.full((N_CONTAINERS, pop), _NOT_WAITING, dtype=np.int64),
            np.zeros((config.n_presses, pop), dtype=np.int64),
            np.zeros(pop),
        )

    def halves(self) -> tuple[_Columns, _Columns]:
        """The first half of the columns as a view and the second as a copy,
        so this state's arrays are freed once the first half is dropped."""
        half = len(self.total) // 2
        return _Columns(*(a[..., :half] for a in self)), _Columns(*(a[..., half:].copy() for a in self))

    def branch(self) -> _Columns:
        """Each column twice in a row, as new arrays: column 2j + a of the
        result continues column j of this state."""
        return _Columns(*(np.repeat(a, 2, axis=-1) for a in self))


@functools.lru_cache(maxsize=8)
def _purity_column(thresholds: tuple[float, ...]) -> np.ndarray:
    """The purity thresholds as a read-only (4, 1) column, built once per
    config rather than on every step."""
    column = np.array(thresholds)[:, None]
    column.flags.writeable = False
    return column


def _step(stack: TapeStack, t: int, cols: np.ndarray, state: _Columns) -> None:
    """Advance every column of ``state`` through step t, in place.

    Column i sorts step t's head batch as entry ``cols[i]`` of
    ``stack.sorted_deposits(t)``.  Callers run it under
    ``np.errstate(divide="ignore", invalid="ignore")``: an empty container's
    purity is 0/0, which the reward discards.  The rules of
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

    Each column's arithmetic is its own, so a column's result does not
    depend on the other columns of the call.
    """
    config = stack.config
    capacity = config.container_capacity
    threshold = config.pressing_threshold
    duration = config.press_duration
    penalty = config.penalty_factor
    purity_thresholds = _purity_column(config.purity_thresholds)
    not_waiting = _NOT_WAITING
    contents, pending, busy, total = state
    pop = total.shape[0]
    designated_contents = contents[:N_MATERIALS]
    e_contents = contents[CONTAINER_E]

    table, table_totals = stack.sorted_deposits(t)
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
        columns = np.arange(pop)
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
    # contents[m, m, :] for m in A-D: the rows of contents seen as (20, P)
    # step by N_MATERIALS + 1
    own = contents.reshape(N_CONTAINERS * N_MATERIALS, pop)[:: N_MATERIALS + 1]
    deviation = own / filled - purity_thresholds
    reward = np.where(filled > 0.0, np.where(deviation >= 0.0, deviation, penalty * deviation), 0.0)
    total += ((reward[0] + reward[1]) + reward[2]) + reward[3]


def evaluate_population(
    stack: TapeStack, bits: Sequence[Sequence[int]] | np.ndarray, tape_of_col: Optional[Sequence[int] | np.ndarray] = None
) -> np.ndarray:
    """Frozen-seed rewards of P action sequences scored together.

    ``bits`` is a (P, n) 0/1 matrix, and ``tape_of_col[i]`` is the index
    into ``stack.seeds`` of the seed that column i plays.  Entry i of the
    result equals ``episode_reward(stack.config, seed, bits[i])`` for that
    seed, bit for bit, so one call scores many seeds.  ``tape_of_col``
    defaults to all zeros, the first (or only) seed.

    The P episodes start as one :class:`_Columns` state and take n
    :func:`_step` calls; step t gathers column i's deposits at
    ``2 * tape_of_col[i] + bits[i, t]`` of the stack's sort table.
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

    state = _Columns.start(config, pop)
    if pop == 0:  # pending.min() in _step needs a column
        return state.total
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(n):
            _step(stack, t, table_cols[:, t], state)
    return state.total


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


def brute_force(config: EnvConfig, seed: int, n: int) -> BruteForceResult:
    """Exhaustively score all 2**n sequences; ties pick the lexicographically
    smallest (0 before 1).

    The search walks the decision tree on one :class:`_Columns` state: level
    t holds one column per prefix of length t, in code order, and each
    :func:`_step` doubles it (:meth:`_Columns.branch`), so a shared prefix is
    simulated once and the 2**n leaves cost about 2**(n + 1) column-steps.
    A level that would pass ``BRUTE_FORCE_WIDTH`` columns is cut in halves:
    the lower half goes on, and the upper half waits as a copy.  So no step
    advances more than that many columns, and each level below the first
    cut holds at most half of them.  Each group of leaves reduces to its
    first best code, and groups merge in code order with a strict >, so ties
    keep the lowest code.
    """
    if n < 1:
        raise ContractViolation("horizon must be >= 1")
    if n > BRUTE_FORCE_CAP:
        raise ContractViolation(f"brute force refuses n > {BRUTE_FORCE_CAP} (2**{n} rollouts); use the GA instead")
    if n > config.episode_len:
        raise ContractViolation(f"{n} actions exceed episode_len {config.episode_len}")
    stack = TapeStack(config, (seed,))
    # (state, t, first code) of each group of length-t prefixes still to
    # finish; the last one holds the lowest codes
    groups = [(_Columns.start(config, 1), 0, 0)]
    best_code, best_reward = 0, -math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        while groups:
            state, level, first = groups.pop()
            for t in range(level, n):
                width = len(state.total)
                if 2 * width > BRUTE_FORCE_WIDTH:
                    state, upper = state.halves()
                    groups.append((upper, t, first + ((width // 2) << (n - t))))
                state = state.branch()
                _step(stack, t, np.arange(len(state.total)) & 1, state)  # action 0 on even columns, 1 on odd
            i = int(np.argmax(state.total))  # the first maximum, so the lowest code
            if state.total[i] > best_reward:
                best_code, best_reward = first + i, float(state.total[i])
    return BruteForceResult(_code_to_bits(best_code, n), best_reward, 1 << n)


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
