"""Offline optimizers over binary action sequences.

Both planners score candidates with the frozen-seed rollout: the same seed
realizes the same inputs no matter which actions are applied, so the episode
reward is a pure function of the bit sequence.  That gives an upper bound on
controller performance, not a controller.

Both run the plant rules as one array step, :func:`_step`, which advances
the columns of a :class:`_Columns` state through one step of a
:class:`~sortplant.env.TapeStack`, and one reward law, :func:`_step_reward`,
which scores a step from the state's own material and fill.  Together they
keep every column equal, bit for bit, to what :func:`episode_reward` (the
scalar reference path) computes.  A planner's stack holds its one seed.

The GA scores its initial population and each generation's children through
:func:`evaluate_population`, one call each, duplicates included;
``GaResult.evaluations`` counts those candidates.  The evaluator scores the
rewards of a block of steps at once.  The genetic operators run as array ops
on a ``uint8`` population, with the draws of the scalar operators
(:func:`tournament_select`, :func:`crossover`, :func:`mutate`) taken in bulk
from the same ``random.Random`` stream, so each result is the one the scalar
operators give.

BF walks the decision tree on the same step, one column per prefix, so a
shared prefix is simulated once, and it drops every subtree whose exact
upper bound cannot reach the best leaf found so far (a branch and bound), so
its result is still the exhaustive one.  It runs in this process, with no
chunks and no pool, and ``BruteForceResult.evaluations`` is the 2**n
sequences it decides between, not the nodes it stepped.

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

# the prune does not help the worst case: when every sequence ties (the two
# modes sort alike), no subtree can be dropped and every node is stepped, as
# before the prune (see the branch-and-bound entry of CHANGES.md for times)
BRUTE_FORCE_CAP = 20
# 100x the default population: a generation is scored in one call whose
# state arrays grow with the population
MAX_POPULATION = 10_000
# 400x the default: generations run one after another, so a larger value
# only makes a run hang
MAX_GENERATIONS = 10_000
# most columns one brute_force step advances; a wider level of the tree is
# cut in halves, finished one after the other.  Before the tree had its
# prune, at W = 512, 1024 and 4096 one default-config seed took 9.5, 9.5 and
# 9.4 ms at n = 14 (medians of 40 calls) and 0.58, 0.59 and 0.61 s at n = 20
# (medians of 3), with a max RSS of 34.2, 34.8 and 37.0 MB at n = 14 and
# 34.5, 35.4 and 39.8 MB at n = 20 (fresh processes, 2-CPU Linux container).
# The chunked scan the tree replaced took 55-60 ms and 5.9-6.1 s, at 35.0 and
# 34.9 MB.  512 was as fast as 1024 (interleaved medians within 3%) and held
# the least memory.  With the prune, 1024 takes 3.9 ms against 4.7 ms at n =
# 14 (interleaved medians of 200 calls) but holds 0.5 MB more at n = 20
BRUTE_FORCE_WIDTH = 512
# prefixes per level of the beam search that gives brute_force its first
# incumbent
BRUTE_FORCE_BEAM = 8
# relative slack of brute_force's prune (_may_reach).  A reward and its bound
# each sum at most 4 * BRUTE_FORCE_CAP terms whose own rounding is a few ulps,
# so the two differ from exact sums by less than 1e-12 of the incumbent's
# scale, and the margin is a thousand times that.  A wider margin only keeps
# a few more columns; it never changes the result
_PRUNE_MARGIN = 1e-9
# column-steps whose rewards evaluate_population scores in one block of
# max(1, _REWARD_BUDGET // P) steps: 16 at the GA's P = 100, 32 at P = 50,
# one from P = 801.  The block is a budget, not a fixed number of steps: at
# P = 1000 fixed blocks of 16 steps took 1.14x the time of blocks of one
# (23.1 against 20.3 ms for n = 100), because a step's ops no longer cost
# more than its row copies (interleaved medians of 30 calls, 2-CPU Linux
# container; CHANGES.md has the table)
_REWARD_BUDGET = 1600
# most Mersenne Twister words the GA turns into an array at once, which
# bounds the transient buffers of a large population (about 1 MB)
_WORD_BUDGET = 1 << 16


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
    fill: np.ndarray  # (5, P) each container's contents summed left to right
    pending: np.ndarray  # (5, P) pending_since, int64 max when not waiting
    busy: np.ndarray  # (n_presses, P) busy_until
    total: np.ndarray  # (P,) reward so far

    @classmethod
    def start(cls, config: EnvConfig, pop: int) -> _Columns:
        """P episodes at step 0: empty containers, idle presses, no reward."""
        return cls(
            np.zeros((N_CONTAINERS, N_MATERIALS, pop)),
            np.zeros((N_CONTAINERS, pop)),
            np.full((N_CONTAINERS, pop), _NOT_WAITING, dtype=np.int64),
            np.zeros((config.n_presses, pop), dtype=np.int64),
            np.zeros(pop),
        )

    @property
    def own(self) -> np.ndarray:
        """(4, P): the own material of containers A-D, contents[m, m], read
        as every (N_MATERIALS + 1)-th row of contents seen as (20, P)."""
        return self.contents.reshape(N_CONTAINERS * N_MATERIALS, -1)[:: N_MATERIALS + 1]

    def halves(self) -> tuple[_Columns, _Columns]:
        """The first half of the columns as a view and the second as a copy,
        so this state's arrays are freed once the first half is dropped."""
        half = len(self.total) // 2
        return _Columns(*(a[..., :half] for a in self)), _Columns(*(a[..., half:].copy() for a in self))

    def branch(self) -> _Columns:
        """Each column twice in a row, as new arrays: column 2j + a of the
        result continues column j of this state."""
        return _Columns(*(np.repeat(a, 2, axis=-1) for a in self))

    def take(self, index: np.ndarray) -> _Columns:
        """The columns at ``index``, in that order, as new arrays."""
        return _Columns(*(a[..., index] for a in self))


@functools.lru_cache(maxsize=8)
def _purity_column(thresholds: tuple[float, ...]) -> np.ndarray:
    """The purity thresholds as a read-only (4, 1) column, built once per
    config rather than on every step."""
    column = np.array(thresholds)[:, None]
    column.flags.writeable = False
    return column


def _step(stack: TapeStack, t: int, cols: np.ndarray, state: _Columns) -> None:
    """Advance every column of ``state`` through step t, in place, up to
    its step reward, which :func:`_step_reward` scores from ``state.own``
    and ``state.fill``.

    Column i sorts step t's head batch as entry ``cols[i]`` of
    ``stack.sorted_deposits(t)``.  The rules of
    :func:`update_containers_and_presses` are mirrored operation for
    operation:

    - every sum runs left to right, ``((a + b) + c) + d``, never ``np.sum``;
    - the headroom of A-D is the capacity less the fill the last step left.
      That is the sum of the contents as they stand, bit for bit: the step
      wrote it after the deposits, and a press zeroes a container's fill
      with its contents;
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
      takes at most one job per step.

    Each column's arithmetic is its own, so a column's result does not
    depend on the other columns of the call.
    """
    config = stack.config
    capacity = config.container_capacity
    threshold = config.pressing_threshold
    duration = config.press_duration
    not_waiting = _NOT_WAITING
    contents, fill, pending, busy, _ = state
    pop = fill.shape[1]
    designated_contents = contents[:N_MATERIALS]
    e_contents = contents[CONTAINER_E]

    table, table_totals = stack.sorted_deposits(t)
    deposits = table[:, :, cols]
    dep_total = table_totals[:, cols]

    # deposits: containers A-D are independent of each other, but E
    # takes their overflow in container order, then its own deposit
    c = designated_contents
    headroom = capacity - fill[:N_MATERIALS]
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

    np.add(contents[:, 0], contents[:, 1], out=fill)
    fill += contents[:, 2]
    fill += contents[:, 3]
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


def _step_reward(config: EnvConfig, own: np.ndarray, filled: np.ndarray) -> np.ndarray:
    """The step reward of columns whose containers A-D hold ``own`` of their
    own material in ``filled`` in all, both of shape (..., 4, P); the result
    has shape (..., P).

    It mirrors :func:`compute_reward`: an empty container adds 0.0, and the
    four containers are summed left to right.  Callers run it under
    ``np.errstate(divide="ignore", invalid="ignore")``: an empty container's
    purity is 0/0, which the reward discards.
    """
    deviation = own / filled - _purity_column(config.purity_thresholds)
    reward = np.where(filled > 0.0, np.where(deviation >= 0.0, deviation, config.penalty_factor * deviation), 0.0)
    return ((reward[..., 0, :] + reward[..., 1, :]) + reward[..., 2, :]) + reward[..., 3, :]


def _step_and_score(stack: TapeStack, t: int, cols: np.ndarray, state: _Columns) -> None:
    """:func:`_step`, then each column's step reward added to its total."""
    _step(stack, t, cols, state)
    np.add(state.total, _step_reward(stack.config, state.own, state.fill[:N_MATERIALS]), out=state.total)


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
    ``2 * tape_of_col[i] + bits[i, t]`` of the stack's sort table.  Each
    step's own material and fill of A-D are copied into row buffers, and
    :func:`_step_reward` scores ``max(1, _REWARD_BUDGET // P)`` steps at
    once.  The rows are added to the totals in step order by
    ``np.add.accumulate``, which sums them one after the other, as one step
    at a time would.
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
    rows = max(1, min(n, _REWARD_BUDGET // pop))
    own = np.empty((rows, N_MATERIALS, pop))
    filled = np.empty((rows, N_MATERIALS, pop))
    # row 0 holds the totals before a block of steps, row r + 1 the totals
    # after its step r
    totals = np.zeros((rows + 1, pop))
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(n):
            _step(stack, t, table_cols[:, t], state)
            row = t % rows
            own[row] = state.own
            filled[row] = state.fill[:N_MATERIALS]
            if row == rows - 1 or t == n - 1:
                block = totals[: row + 2]
                block[1:] = _step_reward(config, own[: row + 1], filled[: row + 1])
                np.add.accumulate(block, axis=0, out=block)
                totals[0] = block[-1]
    return totals[0]


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


# ---------------------------------------------------------------------------
# planners
# ---------------------------------------------------------------------------


def brute_force(config: EnvConfig, seed: int, n: int) -> BruteForceResult:
    """The best of all 2**n sequences; ties pick the lexicographically
    smallest (0 before 1).

    The search walks the decision tree on one :class:`_Columns` state: level
    t holds one column per surviving prefix of length t, in code order, and
    each :func:`_step` doubles it (:meth:`_Columns.branch`), so a shared
    prefix is simulated once.  A level that would pass ``BRUTE_FORCE_WIDTH``
    columns is cut in halves: the lower half goes on, and the upper half
    waits as a copy.  So no step advances more than that many columns.

    It is a branch and bound (Land & Doig, 1960).  A beam of
    ``BRUTE_FORCE_BEAM`` prefixes gives a first incumbent, the best leaf
    found so far (:func:`_beam_incumbent`).  After each step, a column is
    dropped when its reward so far plus :func:`_bound`, an upper bound on
    what its subtree can still earn, falls short of the incumbent
    (:func:`_may_reach`).  So only subtrees that cannot hold an optimum are
    skipped, and the result is the exhaustive one.  Each group of leaves
    reduces to its first best code, which replaces the incumbent when its
    reward is higher, or equal with a lower code, so ties keep the lowest
    code.  ``evaluations`` is the 2**n sequences decided between, however
    many nodes were stepped.
    """
    if n < 1:
        raise ContractViolation("horizon must be >= 1")
    if n > BRUTE_FORCE_CAP:
        raise ContractViolation(f"brute force refuses n > {BRUTE_FORCE_CAP} (2**{n} rollouts); use the GA instead")
    if n > config.episode_len:
        raise ContractViolation(f"{n} actions exceed episode_len {config.episode_len}")
    stack = TapeStack(config, (seed,), n)
    with np.errstate(divide="ignore", invalid="ignore"):
        best_code, best_reward = _branch_and_bound(stack, n, _beam_incumbent(stack, n))
    return BruteForceResult(_code_to_bits(best_code, n), best_reward, 1 << n)


def _branch_codes(codes: np.ndarray) -> np.ndarray:
    """The codes of the children of each prefix code c, in code order: 2c
    (action 0), then 2c + 1 (action 1), as :meth:`_Columns.branch` lays
    their columns out."""
    children = np.repeat(codes << 1, 2)
    children[1::2] |= 1
    return children


def _beam_incumbent(stack: TapeStack, n: int) -> tuple[int, float]:
    """(code, reward) of the best leaf of a beam search: each level keeps
    the ``BRUTE_FORCE_BEAM`` columns with the highest reward so far (the
    lower code among equals), in code order.  Its leaves are scored by
    :func:`_step` as the tree scores them, so the reward is exact."""
    state, codes = _Columns.start(stack.config, 1), np.zeros(1, dtype=np.int64)
    for t in range(n):
        state, codes = state.branch(), _branch_codes(codes)
        _step_and_score(stack, t, codes & 1, state)
        if len(codes) > BRUTE_FORCE_BEAM:
            # Python's sort is stable under reverse=True, so equals keep code
            # order; a numpy sort would page in about 0.5 MB of its code
            totals = state.total.tolist()
            top = sorted(sorted(range(len(totals)), key=totals.__getitem__, reverse=True)[:BRUTE_FORCE_BEAM])
            state, codes = state.take(top), codes[top]
    i = int(np.argmax(state.total))
    return int(codes[i]), float(state.total[i])


def _bound_tables(stack: TapeStack, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each level t = 0 .. n, the tables :func:`_bound` reads for the
    steps t .. n - 1, as (M, S) of shapes (4, n - t) and (4, n - t + 1).

    q[m, u] is the larger own-material share of step u's two possible
    deposits into container m of A-D (0 for an empty deposit).  M[m, j] is
    the running maximum of q[m] over the steps t .. t + j, and S[m, k] the
    sum of phi_m(M[m, j]) over j >= k, where phi_m(x) = max(0, x -
    threshold_m) bounds the reward of a container of purity x.
    """
    thresholds = _purity_column(stack.config.purity_thresholds)
    shares = np.empty((N_MATERIALS, n))
    diagonal = np.arange(N_MATERIALS)
    for u in range(n):
        table, totals = stack.sorted_deposits(u)
        own = table[diagonal, diagonal]  # (4, 2): container m's own material under each action
        shares[:, u] = np.divide(own, totals, out=np.zeros_like(totals), where=totals > 0.0).max(axis=1)
    running = np.empty((N_MATERIALS, 0))
    tables = [(running, np.zeros((N_MATERIALS, 1)))]
    for t in range(n - 1, -1, -1):  # M of level t is q[:, t], then M of level t + 1 raised to it
        share = shares[:, t : t + 1]
        running = np.concatenate([share, np.maximum(share, running)], axis=1)
        suffix = np.zeros((N_MATERIALS, n - t + 1))
        suffix[:, :-1] = np.cumsum(np.maximum(running - thresholds, 0.0)[:, ::-1], axis=1)[:, ::-1]
        tables.append((running, suffix))
    return tables[::-1]


def _bound(state: _Columns, running: np.ndarray, suffix: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """An upper bound on the reward each column can still earn over the
    steps that ``running`` and ``suffix`` (one level of
    :func:`_bound_tables`) cover.

    Container m's contents are a non-negative mix of the deposits it took
    since its last press: a keep factor scales a whole deposit, a press
    empties the container, and an empty container earns 0.  So at step t +
    j its purity is at most max(p_m, M[m, j]), p_m being its purity now,
    and its reward at most phi_m of that.  M is nondecreasing, so with k the
    number of j where M[m, j] <= p_m, the steps left earn at most k *
    phi_m(p_m) + S[m, k].
    """
    width = state.total.shape[0]
    if not running.shape[1]:  # no step left
        return np.zeros(width)
    fill = state.fill[:N_MATERIALS]
    purity = np.divide(state.own, fill, out=np.zeros_like(fill), where=fill > 0.0)
    phi = np.maximum(purity - thresholds, 0.0)
    bound = np.zeros(width)
    for m in range(N_MATERIALS):
        k = np.searchsorted(running[m], purity[m], side="right")
        bound += k * phi[m] + suffix[m, k]
    return bound


def _may_reach(total: np.ndarray, bound: np.ndarray, incumbent: float) -> np.ndarray:
    """The columns to keep: those whose total + bound lies no lower than
    ``_PRUNE_MARGIN * (1 + |incumbent|)`` under the incumbent.  The margin
    is far wider than the rounding of either side, so a column that could
    tie the incumbent is never dropped."""
    return total + bound >= incumbent - _PRUNE_MARGIN * (1.0 + abs(incumbent))


def _branch_and_bound(stack: TapeStack, n: int, incumbent: tuple[int, float]) -> tuple[int, float]:
    """(code, reward) of the first best leaf of the tree, or ``incumbent``
    (a leaf's code and exact reward) where no leaf beats it or ties it with
    a lower code; see :func:`brute_force`."""
    best_code, best_reward = incumbent
    tables = _bound_tables(stack, n)
    thresholds = _purity_column(stack.config.purity_thresholds)
    # (state, codes, t) of each group of length-t prefixes still to finish;
    # the last one holds the lowest codes
    groups = [(_Columns.start(stack.config, 1), np.zeros(1, dtype=np.int64), 0)]
    while groups:
        state, codes, level = groups.pop()
        for t in range(level, n):
            width = len(codes)
            if 2 * width > BRUTE_FORCE_WIDTH:
                state, upper = state.halves()
                groups.append((upper, codes[width // 2 :], t))
                codes = codes[: width // 2]
            state, codes = state.branch(), _branch_codes(codes)
            _step_and_score(stack, t, codes & 1, state)
            keep = _may_reach(state.total, _bound(state, *tables[t + 1], thresholds), best_reward)
            if not keep.all():
                kept = np.flatnonzero(keep)  # in code order
                if not len(kept):
                    break  # no leaf of the group can reach the incumbent
                state, codes = state.take(kept), codes[kept]
        else:  # the group's leaves
            i = int(np.argmax(state.total))  # the first maximum, so the lowest code
            reward, code = float(state.total[i]), int(codes[i])
            if reward > best_reward or (reward == best_reward and code < best_code):
                best_code, best_reward = code, reward
    return best_code, best_reward


def _code_to_bits(code: int, n: int) -> tuple[int, ...]:
    # MSB first, so increasing codes enumerate sequences in lexicographic order
    return tuple((code >> (n - 1 - i)) & 1 for i in range(n))


def _mt_words(draws: Sequence[int], count: int) -> np.ndarray:
    """The Mersenne Twister words of ``getrandbits(32 * count)`` results as a
    (len(draws), count) ``uint32`` array, each row in draw order: CPython
    fills such an integer with successive outputs, the least significant
    word first."""
    return np.frombuffer(b"".join(d.to_bytes(4 * count, "little") for d in draws), dtype="<u4").reshape(len(draws), count)


def _doubles(words: np.ndarray) -> np.ndarray:
    """The doubles ``random()`` makes of the word pairs along the last axis:
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53, exact in float64."""
    pairs = words.reshape(*words.shape[:-1], -1, 2)
    return ((pairs[..., 0] >> 5) * 67108864.0 + (pairs[..., 1] >> 6)) / 9007199254740992.0


def _random_bits(rng: random.Random, count: int) -> np.ndarray:
    """``[rng.randrange(2) for _ in range(count)]`` as a ``uint8`` array,
    leaving ``rng`` where those calls leave it.

    ``randrange(2)`` takes a word's top two bits and draws again while they
    read 2 or 3.  Each round draws only as many words as values are still
    missing, so no word past the last value is drawn.
    """
    bits = np.empty(count, dtype=np.uint8)
    filled = 0
    while filled < count:
        need = min(count - filled, _WORD_BUDGET)
        top = _mt_words([rng.getrandbits(32 * need)], need)[0] >> 30
        top = top[top < 2]
        bits[filled : filled + len(top)] = top
        filled += len(top)
    return bits


def _tournament_winners(fitness: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """:func:`tournament_select` over arrays of entrants: the fitter of
    ``first[k]`` and ``second[k]``, the first on a tie."""
    return np.where(fitness[first] >= fitness[second], first, second)


def _breed(population: np.ndarray, fitness: np.ndarray, params: GaParams, rng: random.Random) -> np.ndarray:
    """The next (P, n) generation, with the draws of the scalar operators.

    Pairs are bred until P children exist, the last pair's second child
    dropped when P is odd.  For each pair the control draws come first, in
    order: two :func:`tournament_select` draws of two ``randrange(P)``, the
    crossover coin (only when n >= 2), then the cut's ``randint``.  Its
    2n :func:`mutate` coins follow as one ``getrandbits`` of 4n words,
    which :func:`_doubles` turns into the ``random()`` doubles in draw
    order.  Winners, :func:`crossover` (a pair without one is cut at n)
    and the flips are then array ops over all pairs.
    """
    size, n = population.shape
    pairs = (size + 1) // 2
    randrange, coin, randint, getrandbits = rng.randrange, rng.random, rng.randint, rng.getrandbits
    entrants: list[int] = []
    cuts = [n] * pairs
    flips = np.empty((pairs, 2 * n), dtype=bool)
    group = max(1, _WORD_BUDGET // (4 * n))
    draws: list[int] = []
    for k in range(pairs):
        entrants += (randrange(size), randrange(size), randrange(size), randrange(size))
        if n >= 2 and coin() < params.crossover_rate:
            cuts[k] = randint(1, n - 1)
        draws.append(getrandbits(128 * n))
        if len(draws) == group or k == pairs - 1:
            flips[k + 1 - len(draws) : k + 1] = _doubles(_mt_words(draws, 4 * n)) < params.mutation_rate
            draws.clear()
    first, second = np.array(entrants, dtype=np.intp).reshape(pairs, 2, 2).transpose(2, 0, 1)
    parents = population[_tournament_winners(fitness, first, second)]  # (pairs, 2, n)
    # from the cut on, each child takes the other parent's bits
    swapped = np.arange(n) >= np.array(cuts)[:, None, None]
    children = np.where(swapped, parents[:, ::-1], parents)
    children ^= flips.reshape(pairs, 2, n)
    return children.reshape(2 * pairs, n)[:size]


def ga_optimize(config: EnvConfig, seed: int, n: int, params: GaParams) -> GaResult:
    """Evolve binary action sequences against the frozen-seed fitness.

    Tournament selection (size 2), single-point crossover, independent
    per-bit mutation.  The breeding population carries no elite; the best
    candidate ever scored (the first of equal maxima, and the earliest
    generation's on a tie) is archived separately and returned.  All
    stochastic choices come from one sequential ``random.Random(ga_seed)``
    stream and are drawn before fitness dispatch, in the order of
    ``randrange(2)`` per bit of the initial population and then the scalar
    operators' per pair.  The draws are taken in bulk
    (:func:`_random_bits`, :func:`_breed`) and the operators run as array
    ops on a ``uint8`` (P, n) population, so every result is the one
    :func:`tournament_select`, :func:`crossover` and :func:`mutate` would
    give.  The initial population and each generation's children are
    scored in one :func:`evaluate_population` call each, duplicates
    included.
    """
    if n < 1:
        raise ContractViolation("horizon must be >= 1")
    if n > config.episode_len:
        raise ContractViolation(f"{n} actions exceed episode_len {config.episode_len}")
    rng = random.Random(params.ga_seed)
    stack = TapeStack(config, (seed,), n)
    population = _random_bits(rng, params.population * n).reshape(params.population, n)
    best_bits, best_reward = (), -math.inf
    stats: list[GenStats] = []
    for generation in range(params.generations + 1):
        if generation:
            population = _breed(population, fitness, params, rng)
        fitness = evaluate_population(stack, population)
        fitnesses = fitness.tolist()
        stats.append(_gen_stats(fitnesses))
        best = max(range(params.population), key=lambda i: fitnesses[i])
        if fitnesses[best] > best_reward:
            best_bits, best_reward = tuple(population[best].tolist()), fitnesses[best]
    return GaResult(best_bits, best_reward, stats[0], stats[1:], params.population * (params.generations + 1))


def _gen_stats(fitnesses: Sequence[float]) -> GenStats:
    return GenStats(max(fitnesses), sum(fitnesses) / len(fitnesses), min(fitnesses))


def ga_seed_for_env(base_ga_seed: int, env_seed: int) -> int:
    """Per-environment GA stream so re-runs across seeds are decorrelated."""
    return derive_seed(base_ga_seed, env_seed)
