"""Sorting-plant dynamics: material flow, containers, presses, reward, observation.

A full episode is a deterministic function of (config, seed, action sequence).
Every stochastic input comes from a counter-based draw keyed by the step index
(see :mod:`sortplant.rng`), so the realized inputs never depend on which
actions were taken; planners exploit this by re-rolling the same seed under
many candidate sequences.

The belt is the input tape itself: the batch generated at step t reaches
the sorter at step t + ``belt_delay``, so no belt contents are stored.  Per
step, in order: the head batch (``tape.batch(t - belt_delay)``) is sorted
under the chosen mode; deposits land in containers; containers at the
pressing threshold are baled by idle presses; the reward is read off the
post-deposit container purities.

A sort reads only the head batch and the jitters of its step, never plant
state, so every step's inputs, jitters and both sorts are computed ahead of
the actions, in numpy blocks (:func:`_fill_block`).  The tape has two
readers.  :class:`InputTape` is the random-access reader of the closed loop:
it keeps its blocks of ``BLOCK`` steps, and :func:`advance`,
:func:`build_observation` and the rule policy read batches and sorts off
it.  :class:`TapeStack` is the in-order reader of many seeds that share a
config (one seed for a planner): it fills a block of every seed in one pass,
with the seed on a leading axis, and serves the batched evaluator.
:func:`generate_input` and :func:`sort_batch` remain as the scalar reference
that the blocks match bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import EnvConfig
from .rng import Stream, noise_block, noise_draw, noise_draws

N_MATERIALS = 4
CONTAINER_E = 4
N_CONTAINERS = 5
OBS_SIZE = 33

# steps per block of an InputTape: one block covers a default 100-step episode
BLOCK = 128
# seeds x steps per block of a TapeStack, which holds one block at a time:
# a stack of S seeds fills blocks of STACK_ROWS // S steps, since its peak
# memory grows with the rows and its fill cost with the number of blocks (a
# stack of one covers a GA horizon of up to 400 steps with one fill).  The
# sizing table in the "Stacked tapes" entry of CHANGES.md and the runs in
# BENCH_7.json hold the measurements behind the value
STACK_ROWS = 400

# mode 0 boosts A and C, mode 1 boosts B and D
BOOSTED_BY_MODE = ((0, 2), (1, 3))

_TWO_PI = 2.0 * math.pi
# phase shift of material m's seasonal sinusoid, as generate_input adds it
_SEASON_SHIFTS = tuple(m * (math.pi / 2.0) for m in range(N_MATERIALS))


class ContractViolation(ValueError):
    """A documented precondition was violated by the caller."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class MaterialBatch:
    """One step's worth of mixed input material.  Treat as immutable: batches
    may be shared between rollouts that replay the same seed."""

    quantities: list[float]
    total: float


@dataclass
class Container:
    """Holds sorted material, tracked per true material so purity is exact.

    ``contents[j]`` is the amount of true material j inside; the designated
    material of container m is m itself (container E has none).
    ``pending_since`` is the step at which the container crossed
    pressing_threshold and began waiting for a press, or None when it is not
    waiting.  It is the only record of the press queue.
    """

    contents: list[float] = field(default_factory=lambda: [0.0] * N_MATERIALS)
    pending_since: Optional[int] = None

    @property
    def total(self) -> float:
        c = self.contents
        return c[0] + c[1] + c[2] + c[3]


@dataclass
class Press:
    busy_until: int = 0


@dataclass(frozen=True)
class Bale:
    material: int
    size: float
    purity: float
    pressed_at: int


@dataclass
class SortOutcome:
    """deposits[c][j] = units of true material j placed in container c."""

    deposits: list[list[float]]
    accuracies: list[float]


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    terminated: bool
    truncated: bool
    info: dict


class _Block(NamedTuple):
    """Tape arrays for the steps t = t0 .. t0 + L - 1 of S seeds, as
    :func:`_fill_block` returns them, seed on the leading axis.

    Row i is step t = t0 + i: the head batch it sorts (generated at
    t - belt_delay) and both of its sorts.  The last axis of ``deposits``,
    ``deposit_totals`` and ``accuracies`` is the action.
    """

    quantities: np.ndarray  # (S, L, 4)
    totals: np.ndarray  # (S, L)
    deposits: np.ndarray  # (S, L, 5, 4, 2)
    deposit_totals: np.ndarray  # (S, L, 4, 2)
    accuracies: np.ndarray  # (S, L, 4, 2)


class TapeStack:
    """The input tapes of many seeds that share one config, read together in
    step order.

    Block b, the steps b * block_len .. (b + 1) * block_len - 1, of every
    seed is filled in one numpy pass (:func:`_fill_block`) when a step in it
    is read.  The stack keeps only the block it filled last, so a pass over
    the steps in order holds one block of its seeds at a time, whatever the
    horizon; a step read again after its block was dropped is filled again,
    to the same values.  :meth:`sorted_deposits` serves
    :func:`~sortplant.planners.evaluate_population` every seed's sorts of one
    step at once.
    """

    __slots__ = ("config", "seeds", "block_len", "_b", "_deposits", "_totals")

    def __init__(self, config: EnvConfig, seeds: Sequence[int]) -> None:
        if not seeds:
            raise ContractViolation("a tape stack needs at least one seed")
        self.config = config
        self.seeds = tuple(seeds)
        self.block_len = max(1, STACK_ROWS // len(self.seeds))
        self._b: Optional[int] = None
        self._deposits = self._totals = np.empty(0)

    def sorted_deposits(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Both possible sorts of step t for every seed, as ``(deposits,
        totals)`` of shapes (5, 4, 2S) and (4, 2S).

        Column 2k + a is seed k under action a: ``deposits[c, j, 2k + a]`` is
        :func:`sort_batch`'s ``deposits[c][j]`` for that seed's head batch,
        and ``totals[c, 2k + a]`` that deposit's total for container c of
        A-D, summed left to right as :func:`update_containers_and_presses`
        does.  Both are views into the block's tables, which are laid out in
        this shape once per block.
        """
        b, i = divmod(t, self.block_len)
        if b != self._b:
            steps = self.block_len
            block = _fill_block(self.config, self.seeds, b * steps, steps)
            self._deposits = block.deposits.transpose(1, 2, 3, 0, 4).reshape(steps, N_CONTAINERS, N_MATERIALS, -1)
            self._totals = block.deposit_totals.transpose(1, 2, 0, 3).reshape(steps, N_MATERIALS, -1)
            self._b = b
        return self._deposits[i], self._totals[i]


class InputTape:
    """The input batches and sorts of one (config, seed) pair, read at any
    step by the closed loop.

    Step t's head batch and both of its sorts live in row ``t % BLOCK`` of
    block ``t // BLOCK``.  A block is filled in one numpy pass
    (:func:`_fill_block`) the first time any of its steps is read, and kept,
    so a tape costs only the blocks it touches, whatever ``belt_delay`` or
    ``episode_len``.  Every entry equals, bit for bit, what the scalar
    reference (:func:`generate_input`, :func:`sort_batch`) computes.
    """

    __slots__ = ("config", "seed", "_blocks")

    def __init__(self, config: EnvConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self._blocks: dict[int, _Block] = {}

    def _row(self, t: int) -> tuple[_Block, int]:
        b, i = divmod(t, BLOCK)
        block = self._blocks.get(b)
        if block is None:
            filled = _fill_block(self.config, (self.seed,), b * BLOCK, BLOCK)
            block = self._blocks[b] = _Block(*(array[0] for array in filled))
        return block, i

    def batch(self, t: int) -> MaterialBatch:
        """The batch generated at step t, which step t + belt_delay sorts."""
        block, i = self._row(t + self.config.belt_delay)
        return MaterialBatch(block.quantities[i].tolist(), float(block.totals[i]))

    def sort_outcome(self, t: int, action: int) -> SortOutcome:
        """What :func:`sort_batch` returns for step t's head batch and
        jitters under ``action``."""
        block, i = self._row(t)
        return SortOutcome(block.deposits[i, :, :, action].tolist(), block.accuracies[i, :, action].tolist())


@dataclass
class EnvState:
    """The single mutable simulation object for one episode."""

    config: EnvConfig
    t: int
    containers: list[Container]
    presses: list[Press]
    bales: list[Bale]
    last_action: Optional[int]
    last_realized_accuracies: list[float]
    tape: InputTape

    def mass_balance(self) -> tuple[float, float]:
        """(total sorted so far, total in containers + bales).  Steps 0 .. t-1
        sorted the tape batches of -belt_delay .. t-belt_delay-1."""
        delay = self.config.belt_delay
        sorted_total = sum(self.tape.batch(k - delay).total for k in range(self.t))
        accounted = sum(c.total for c in self.containers)
        accounted += sum(b.size for b in self.bales)
        return sorted_total, accounted


# ---------------------------------------------------------------------------
# plant operations
# ---------------------------------------------------------------------------


def generate_input(config: EnvConfig, seed: int, t: int) -> MaterialBatch:
    """Stochastic seasonal input model; pure function of (config, seed, t).

    Batch size is uniform in [batch_min, batch_max).  The material mix comes
    from uniform draws modulated by phase-shifted sinusoids (one quarter turn
    apart per material) so the composition drifts over the season.
    """
    u0 = noise_draw(seed, Stream.INPUT_SIZE, t, 0)
    total = config.batch_min + u0 * (config.batch_max - config.batch_min)
    phase = _TWO_PI * t / config.seasonal_period
    amp = config.seasonal_amplitude
    weights = []
    for m, u in enumerate(noise_draws(seed, Stream.INPUT_MIX, t, N_MATERIALS)):
        w = u * (1.0 + amp * math.sin(phase + m * (math.pi / 2.0)))
        weights.append(w if w > 0.01 else 0.01)
    wsum = weights[0] + weights[1] + weights[2] + weights[3]
    quantities = [total * w / wsum for w in weights]
    return MaterialBatch(quantities, quantities[0] + quantities[1] + quantities[2] + quantities[3])


def effective_accuracy(mode: int, material: int, load_fraction: float, config: EnvConfig, jitter: float) -> float:
    """Realized capture rate of one station for one batch.

    The mode-selected pair sorts at 1 - boost_noise, the rest at the
    baseline; load degrades accuracy quadratically; jitter shifts the result
    before clamping to [0, 1].
    """
    if not 0.0 <= load_fraction <= 1.0:
        raise ContractViolation(f"load fraction must lie in [0, 1], got {load_fraction!r}")
    if material in BOOSTED_BY_MODE[mode]:
        base = 1.0 - config.boost_noise
    else:
        base = config.baseline_accuracy
    a = base * (1.0 - config.degradation_coeff * load_fraction * load_fraction) + jitter
    if a < 0.0:
        return 0.0
    if a > 1.0:
        return 1.0
    return a


def sort_batch(
    batch: MaterialBatch, mode: int, config: EnvConfig, jitters: tuple[float, float, float, float]
) -> SortOutcome:
    """Run one batch through the four stations in order A, B, C, D.

    Station m captures a_m of its own residual material.  Its misfires drag
    foreign material in alongside: a false-capture volume of
    (1 - a_m) * contamination_coeff * r[m] is drawn from the other residuals
    in proportion to their current amounts (capped by what is actually
    there).  Whatever survives all four stations lands in container E.
    Quantities are continuous flows, so mass is conserved exactly.

    Tying the false-capture volume to the station's own throughput keeps a
    deposit's purity pinned to the station's realized accuracy; boosting a
    heavily represented material therefore lifts that container's purity the
    most, which is what gives the majority-pair heuristic its edge over
    random play.

    ``jitters`` is the per-station accuracy jitter.  In an episode it is
    step t's draw from the jitter stream, which :func:`_fill_block` makes,
    the one place that stream is drawn.
    """
    load = batch.total / config.batch_max
    if load > 1.0:
        load = 1.0
    kappa = config.contamination_coeff
    residual = list(batch.quantities)
    deposits = [[0.0] * N_MATERIALS for _ in range(N_CONTAINERS)]
    accuracies = []
    for m in range(N_MATERIALS):
        a = effective_accuracy(mode, m, load, config, jitters[m])
        accuracies.append(a)
        row = deposits[m]
        processed = residual[m]
        own = a * processed
        row[m] = own
        residual[m] -= own
        false_volume = (1.0 - a) * kappa * processed
        if false_volume > 0.0:
            pool = 0.0
            for j in range(N_MATERIALS):
                if j != m:
                    pool += residual[j]
            if pool > 0.0:
                frac = false_volume / pool
                if frac > 1.0:
                    frac = 1.0
                for j in range(N_MATERIALS):
                    if j == m:
                        continue
                    grabbed = frac * residual[j]
                    row[j] = grabbed
                    residual[j] -= grabbed
    deposits[CONTAINER_E] = residual
    return SortOutcome(deposits, accuracies)


@functools.lru_cache(maxsize=64)
def _season(period: int, amplitude: float, g0: int, count: int) -> np.ndarray:
    """(count, 4) seasonal factors of :func:`generate_input` for the steps
    g0 .. g0 + count - 1.  They do not depend on the seed, so the tapes of
    many seeds share one read-only copy."""
    phases = [_TWO_PI * g / period for g in range(g0, g0 + count)]
    sines = np.array([math.sin(phase + shift) for phase in phases for shift in _SEASON_SHIFTS])
    season = 1.0 + amplitude * sines.reshape(count, N_MATERIALS)
    season.flags.writeable = False
    return season


def head_batches(config: EnvConfig, seeds: Sequence[int], g0: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`generate_input` for the steps g0 .. g0 + count - 1 of every
    seed in ``seeds``, in one numpy pass: quantities (S, count, 4) and
    totals (S, count).

    Each array operation is the scalar path's operation applied elementwise
    in the same order (sums left to right, the weight floor as
    ``np.where``), so every entry is bit-identical to the scalar reference,
    whatever the other seeds.  ``math.sin`` stays scalar, because ``np.sin``
    may differ from libm in the last place; the seasonal factors broadcast
    over the seeds.
    """
    u0 = noise_block(seeds, Stream.INPUT_SIZE, g0, count, 1)[..., 0]
    total = config.batch_min + u0 * (config.batch_max - config.batch_min)
    season = _season(config.seasonal_period, config.seasonal_amplitude, g0, count)
    w = noise_block(seeds, Stream.INPUT_MIX, g0, count, N_MATERIALS) * season
    w = np.where(w > 0.01, w, 0.01)
    wsum = ((w[..., 0] + w[..., 1]) + w[..., 2]) + w[..., 3]
    quantities = total[..., None] * w / wsum[..., None]
    totals = ((quantities[..., 0] + quantities[..., 1]) + quantities[..., 2]) + quantities[..., 3]
    return quantities, totals


def _fill_block(config: EnvConfig, seeds: Sequence[int], t0: int, steps: int) -> _Block:
    """The block of the tapes of (config, seed) for every seed in ``seeds``
    that holds the steps t = t0 .. t0 + steps - 1: the head batches
    (:func:`head_batches`) and :func:`sort_batch` under both actions, with
    each step's jitters drawn here, in one numpy pass.  Every array has the
    seed on its leading axis.

    As in :func:`head_batches`, each array operation is the scalar path's
    applied elementwise in the same order (branches as ``np.where``), so
    every entry is bit-identical to the scalar reference.
    """
    quantities, totals = head_batches(config, seeds, t0 - config.belt_delay, steps)
    jitters = (2.0 * noise_block(seeds, Stream.JITTER, t0, steps, N_MATERIALS) - 1.0) * config.accuracy_jitter

    # sort_batch, with (seed, step) leading and the action trailing on every
    # station value; a residual broadcasts over the action until its first sort
    load = totals / config.batch_max
    load = np.where(load > 1.0, 1.0, load)
    wear = (1.0 - config.degradation_coeff * load * load)[..., None]
    kappa = config.contamination_coeff
    residual = [quantities[..., j, None] for j in range(N_MATERIALS)]
    deposits = np.zeros((len(seeds), steps, N_CONTAINERS, N_MATERIALS, 2))
    accuracies = np.empty((len(seeds), steps, N_MATERIALS, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(N_MATERIALS):
            base = np.array([1.0 - config.boost_noise if m in BOOSTED_BY_MODE[a] else config.baseline_accuracy for a in (0, 1)])
            acc = base * wear + jitters[..., m, None]
            acc = np.where(acc < 0.0, 0.0, np.where(acc > 1.0, 1.0, acc))
            accuracies[..., m, :] = acc
            processed = residual[m]
            own = acc * processed
            deposits[..., m, m, :] = own
            residual[m] = processed - own
            false_volume = (1.0 - acc) * kappa * processed
            others = [j for j in range(N_MATERIALS) if j != m]
            pool = 0.0
            for j in others:
                pool = pool + residual[j]
            grab = (false_volume > 0.0) & (pool > 0.0)
            frac = false_volume / pool
            frac = np.where(frac > 1.0, 1.0, frac)
            for j in others:
                grabbed = frac * residual[j]
                deposits[..., m, j, :] = np.where(grab, grabbed, 0.0)
                residual[j] = np.where(grab, residual[j] - grabbed, residual[j])
    for j in range(N_MATERIALS):
        deposits[..., CONTAINER_E, j, :] = residual[j]
    d = deposits[..., :N_MATERIALS, :, :]
    deposit_totals = ((d[..., 0, :] + d[..., 1, :]) + d[..., 2, :]) + d[..., 3, :]
    return _Block(quantities, totals, deposits, deposit_totals, accuracies)


def update_containers_and_presses(state: EnvState, deposits: list[list[float]]) -> list[Bale]:
    """Deposit sorted flows, mark threshold crossings, run idle presses.

    Containers A-D are capped at container_capacity; whatever does not fit
    diverts to container E (split proportionally across the deposit's true
    materials).  A container crossing pressing_threshold records the step in
    ``pending_since`` and waits.  Waiting containers are served in order of
    (pending_since, container index), each idle press taking at most one per
    step; an assignment empties the container into a bale and occupies the
    press for press_duration steps.
    """
    config = state.config
    t = state.t
    containers = state.containers
    e_contents = containers[CONTAINER_E].contents

    for c in range(N_MATERIALS):
        dep = deposits[c]
        dep_total = dep[0] + dep[1] + dep[2] + dep[3]
        if dep_total <= 0.0:
            continue
        cont = containers[c].contents
        headroom = config.container_capacity - (cont[0] + cont[1] + cont[2] + cont[3])
        if headroom >= dep_total:
            for j in range(N_MATERIALS):
                cont[j] += dep[j]
        elif headroom <= 0.0:
            for j in range(N_MATERIALS):
                e_contents[j] += dep[j]
        else:
            keep = headroom / dep_total
            for j in range(N_MATERIALS):
                cont[j] += dep[j] * keep
                e_contents[j] += dep[j] * (1.0 - keep)
    dep_e = deposits[CONTAINER_E]
    for j in range(N_MATERIALS):
        e_contents[j] += dep_e[j]

    waiting: list[tuple[int, int]] = []  # (pending_since, container index)
    for c in range(N_CONTAINERS):
        cont = containers[c]
        if cont.pending_since is None:
            if cont.total < config.pressing_threshold:
                continue
            cont.pending_since = t
        waiting.append((cont.pending_since, c))

    new_bales: list[Bale] = []
    if waiting:
        idle = [p for p in state.presses if p.busy_until <= t]
        waiting.sort()
        for (_, c), press in zip(waiting, idle):
            cont = containers[c]
            size = cont.total
            purity = cont.contents[c] / size if c != CONTAINER_E else 0.0
            bale = Bale(c, size, purity, t)
            new_bales.append(bale)
            state.bales.append(bale)
            cont.contents = [0.0] * N_MATERIALS
            cont.pending_since = None
            press.busy_until = t + config.press_duration
    return new_bales


def purity_reward(deviation: float, penalty_factor: float) -> float:
    """The per-container reward law: a deviation d of purity above the
    material's threshold earns d; one below it costs penalty_factor * d."""
    return deviation if deviation >= 0.0 else penalty_factor * deviation


def compute_reward(containers: list[Container], config: EnvConfig) -> float:
    """Sum of :func:`purity_reward` over the nonempty designated containers.

    Empty containers and container E contribute nothing.
    """
    thresholds = config.purity_thresholds
    penalty = config.penalty_factor
    reward = 0.0
    for m in range(N_MATERIALS):
        contents = containers[m].contents
        total = contents[0] + contents[1] + contents[2] + contents[3]
        if total <= 0.0:
            continue
        reward += purity_reward(contents[m] / total - thresholds[m], penalty)
    return reward


# Documented per-index observation ranges (inclusive).  Container E's fill
# level is unbounded above: it is the overflow sink while both presses are
# busy.  The table is part of the public contract and is verified by tests.
def observation_ranges(config: EnvConfig) -> list[tuple[float, float]]:
    cap_ratio = config.container_capacity / config.pressing_threshold
    ranges = []
    ranges += [(0.0, 1.0)] * 4  # 0-3   newest batch quantities / batch_max
    ranges += [(0.0, 1.0)]  # 4     newest batch total / batch_max
    ranges += [(0.0, 1.0)] * 4  # 5-8   head batch quantities / batch_max
    ranges += [(0.0, 1.0)]  # 9     head batch load fraction
    ranges += [(0.0, 1.0)] * 4  # 10-13 realized accuracies of last sort
    ranges += [(0.0, cap_ratio)] * 4  # 14-17 container fill A-D / pressing_threshold
    ranges += [(0.0, math.inf)]  # 18    container fill E / pressing_threshold
    ranges += [(0.0, 1.0)] * 4  # 19-22 purities A-D (empty reads as threshold)
    ranges += [(-1.0, 1.0)] * 4  # 23-26 purity deviations A-D
    ranges += [(0.0, 1.0)] * 2  # 27-28 press busy time remaining / press_duration
    ranges += [(0.0, 1.0)]  # 29    previous action
    ranges += [(0.0, 1.0)]  # 30    t / episode_len
    ranges += [(-1.0, 1.0)] * 2  # 31-32 sin/cos of seasonal phase
    return ranges


def build_observation(state: EnvState) -> np.ndarray:
    """Fixed 33-component continuous encoding of the current state."""
    config = state.config
    bmax = config.batch_max
    obs = [0.0] * OBS_SIZE

    if config.belt_delay > 0:
        # the belt holds tape steps t - belt_delay (head) .. t - 1 (tail, newest)
        tail = state.tape.batch(state.t - 1)
        head = state.tape.batch(state.t - config.belt_delay)
        for m in range(N_MATERIALS):
            obs[m] = tail.quantities[m] / bmax
            obs[5 + m] = head.quantities[m] / bmax
        obs[4] = tail.total / bmax
        load = head.total / bmax
        obs[9] = load if load <= 1.0 else 1.0

    acc = state.last_realized_accuracies
    obs[10] = acc[0]
    obs[11] = acc[1]
    obs[12] = acc[2]
    obs[13] = acc[3]

    thresholds = config.purity_thresholds
    for m in range(N_CONTAINERS):
        obs[14 + m] = state.containers[m].total / config.pressing_threshold
    for m in range(N_MATERIALS):
        contents = state.containers[m].contents
        total = contents[0] + contents[1] + contents[2] + contents[3]
        purity = contents[m] / total if total > 0.0 else thresholds[m]
        obs[19 + m] = purity
        obs[23 + m] = purity - thresholds[m]

    duration = config.press_duration
    if duration > 0:
        for i, press in enumerate(state.presses):
            remaining = press.busy_until - state.t
            obs[27 + i] = remaining / duration if remaining > 0 else 0.0

    obs[29] = float(state.last_action) if state.last_action is not None else 0.0
    obs[30] = state.t / config.episode_len
    phase = _TWO_PI * state.t / config.seasonal_period
    obs[31] = math.sin(phase)
    obs[32] = math.cos(phase)
    return np.asarray(obs, dtype=np.float64)


def reset(config: EnvConfig, seed: int, tape: Optional[InputTape] = None) -> tuple[EnvState, np.ndarray]:
    """Fresh episode state, deterministic in (config, seed).

    The belt starts full: at step 0 it holds the tape batches of
    t = -belt_delay .. -1.  None is generated up front except the two the
    observation reads, so the cost does not depend on belt_delay.  A given
    ``tape`` must be the tape of (config, seed).
    """
    if tape is None:
        tape = InputTape(config, seed)
    elif tape.seed != seed or tape.config != config:
        raise ContractViolation("the tape belongs to another (config, seed) pair")
    state = EnvState(
        config=config,
        t=0,
        containers=[Container() for _ in range(N_CONTAINERS)],
        presses=[Press() for _ in range(config.n_presses)],
        bales=[],
        last_action=None,
        last_realized_accuracies=[config.baseline_accuracy] * N_MATERIALS,
        tape=tape,
    )
    return state, build_observation(state)


def advance(state: EnvState, action: int) -> tuple[float, list[Bale]]:
    """Run one transition without building the observation vector.

    The sort comes off the tape (:meth:`InputTape.sort_outcome`);
    :func:`step` is exactly this plus :func:`build_observation`.
    """
    config = state.config
    if state.t >= config.episode_len:
        raise ContractViolation("episode already truncated; reset before stepping again")
    if action != 0 and action != 1:
        raise ContractViolation(f"action must be 0 or 1, got {action!r}")

    t = state.t
    outcome = state.tape.sort_outcome(t, action)
    new_bales = update_containers_and_presses(state, outcome.deposits)
    reward = compute_reward(state.containers, config)

    state.last_action = action
    state.last_realized_accuracies = outcome.accuracies
    state.t = t + 1
    return reward, new_bales


def step(state: EnvState, action: int) -> StepResult:
    """Advance one step under the given sorting mode.

    Truncation (never termination) flags the time limit; stepping a
    truncated episode raises :class:`ContractViolation`.
    """
    reward, new_bales = advance(state, action)
    truncated = state.t == state.config.episode_len
    observation = build_observation(state)
    info = {"new_bales": new_bales, "accuracies": list(state.last_realized_accuracies)}
    return StepResult(observation, reward, False, truncated, info)
