"""Planners: operators, batched evaluation, brute force, GA archive/determinism,
oracle dominance."""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sortplant.config import EnvConfig
from sortplant.env import STACK_ROWS, ContractViolation, InputTape, TapeStack
from sortplant import planners
from sortplant.baselines import make_policy, run_policy
from sortplant.planners import (
    GaParams,
    brute_force,
    crossover,
    episode_reward,
    evaluate_population,
    ga_optimize,
    ga_seed_for_env,
    mutate,
    rollout,
    tournament_select,
)
from test_press import PINNED_ACTIONS, PINNED_REGIMES

CFG = EnvConfig()
SMALL_GA = GaParams(population=20, generations=8, ga_seed=5)


class ScriptedRng:
    """Feeds predetermined draw values to the operators under test."""

    def __init__(self, randranges=(), randoms=()):
        self._ints = list(randranges)
        self._floats = list(randoms)

    def randrange(self, n):
        return self._ints.pop(0)

    def random(self):
        return self._floats.pop(0)


# --- operators -------------------------------------------------------------


def test_crossover_mechanics():
    a, b = crossover([0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1], 3)
    assert a == [0, 0, 0, 1, 1, 1]
    assert b == [1, 1, 1, 0, 0, 0]


def test_crossover_identical_parents():
    a, b = crossover([1, 0, 1], [1, 0, 1], 1)
    assert a == b == [1, 0, 1]


def test_crossover_preserves_bits_per_position():
    pa, pb = [0, 1, 1, 0, 1], [1, 1, 0, 0, 0]
    for cut in range(1, 5):
        a, b = crossover(pa, pb, cut)
        for i in range(5):
            assert sorted([a[i], b[i]]) == sorted([pa[i], pb[i]])


def test_crossover_bad_cut_rejected():
    with pytest.raises(ContractViolation):
        crossover([0, 1], [1, 0], 0)
    with pytest.raises(ContractViolation):
        crossover([0, 1], [1, 0], 2)
    with pytest.raises(ContractViolation):
        crossover([0, 1], [1, 0, 1], 1)


def test_mutate_rate_extremes():
    rng = random.Random(0)
    seq = [0, 1, 0, 0, 1, 1]
    assert mutate(seq, 0.0, rng) == seq
    assert mutate(seq, 1.0, rng) == [1, 0, 1, 1, 0, 0]


def test_mutate_flip_count_concentrates():
    rng = random.Random(42)
    flips = 0
    for _ in range(10_000):
        flips += sum(a != b for a, b in zip([0] * 100, mutate([0] * 100, 0.1, rng)))
    assert 9.4 <= flips / 10_000 <= 10.6


def test_tournament_returns_the_fitter():
    pop = [[0], [1]]
    assert tournament_select(pop, [3.2, 1.1], ScriptedRng(randranges=[0, 1])) == 0
    assert tournament_select(pop, [3.2, 1.1], ScriptedRng(randranges=[1, 0])) == 0
    # ties keep the first drawn
    assert tournament_select(pop, [2.0, 2.0], ScriptedRng(randranges=[1, 0])) == 1


def test_tournament_single_candidate():
    rng = random.Random(1)
    assert all(tournament_select([[0, 1]], [0.5], rng) == 0 for _ in range(10))


# --- rollout ---------------------------------------------------------------


def test_rollout_empty_sequence():
    total, transitions = rollout(CFG, 3, [])
    assert total == 0.0 and transitions == []


def test_rollout_repeatable_and_sums_rewards():
    actions = [1, 0, 0, 1, 1, 0, 1, 0]
    t1 = rollout(CFG, 8, actions)
    t2 = rollout(CFG, 8, actions)
    assert t1[0] == t2[0]
    assert t1[0] == sum(tr.reward for tr in t1[1])
    assert [tr.action for tr in t1[1]] == actions
    assert episode_reward(CFG, 8, actions) == t1[0]


# --- batched evaluation ----------------------------------------------------

GATE_LEN = 40

# press_duration 0 lets a press free up on the step it starts, capacity ratio
# 1.0 is the overflow regime, belt_delay 0 sorts each batch on the step that
# generates it, and a small threshold keeps presses and containers crowded
gate_configs = st.builds(
    lambda threshold, capacity_ratio, press_duration, belt_delay, penalty: EnvConfig(
        episode_len=GATE_LEN,
        pressing_threshold=threshold,
        container_capacity=threshold * capacity_ratio,
        press_duration=press_duration,
        belt_delay=belt_delay,
        penalty_factor=penalty,
    ),
    threshold=st.floats(5.0, 300.0),
    capacity_ratio=st.just(1.0) | st.floats(1.0, 2.0),
    press_duration=st.just(0) | st.integers(0, 60),
    belt_delay=st.just(0) | st.integers(0, 10),
    penalty=st.floats(0.1, 10.0),
)


@st.composite
def bit_matrices(draw):
    pop = draw(st.integers(1, 8))
    n = draw(st.integers(1, GATE_LEN))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=pop, max_size=pop))


def _pinned_press_regimes(test):
    for _, overrides, *_ in PINNED_REGIMES:
        bits = [PINNED_ACTIONS, [1 - b for b in PINNED_ACTIONS], [0] * len(PINNED_ACTIONS)]
        test = example(cfg=EnvConfig(**overrides), seed=11, bits=bits)(test)
    return test


@settings(max_examples=100, deadline=None)
@given(cfg=gate_configs, seed=st.integers(0, 2**32), bits=bit_matrices())
@_pinned_press_regimes
def test_evaluate_population_is_bit_identical_to_episode_reward(cfg, seed, bits):
    rewards = evaluate_population(TapeStack(cfg, (seed,)), bits)
    assert rewards.shape == (len(bits),)
    assert [float(r).hex() for r in rewards] == [episode_reward(cfg, seed, row).hex() for row in bits]


@st.composite
def stacked_columns(draw):
    """(seeds, bits, tape_of_col): a stack of 1-12 seeds and columns drawn over it."""
    stacked = draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=12, unique=True))
    bits = draw(bit_matrices())
    tape_of_col = draw(st.lists(st.integers(0, len(stacked) - 1), min_size=len(bits), max_size=len(bits)))
    return stacked, bits, tape_of_col


def _pinned_stacked_press_regimes(test):
    # 3 seeds fill blocks of 133 steps, which hold a 100-step episode; 12
    # seeds fill blocks of 33 steps, so both passes cross and refill blocks
    for _, overrides, *_ in PINNED_REGIMES:
        bits = [PINNED_ACTIONS, [1 - b for b in PINNED_ACTIONS], [0] * len(PINNED_ACTIONS), PINNED_ACTIONS]
        test = example(cfg=EnvConfig(**overrides), columns=([11, 12, 13], bits, [0, 2, 1, 2]))(test)
        test = example(cfg=EnvConfig(**overrides), columns=(list(range(11, 23)), bits, [0, 11, 5, 11]))(test)
    return test


@settings(max_examples=100, deadline=None)
@given(cfg=gate_configs, columns=stacked_columns())
@_pinned_stacked_press_regimes
def test_stacked_evaluate_population_is_bit_identical_to_episode_reward(cfg, columns):
    stacked, bits, tape_of_col = columns
    stack = TapeStack(cfg, stacked)
    rewards = evaluate_population(stack, bits, tape_of_col)
    expected = [episode_reward(cfg, stacked[k], row).hex() for k, row in zip(tape_of_col, bits)]
    assert [float(r).hex() for r in rewards] == expected
    # the stack keeps one block, so when the columns cross blocks (at least
    # 11 seeds, at most 36 steps a block), a second pass refills the first
    assert [float(r).hex() for r in evaluate_population(stack, bits, tape_of_col)] == expected


@pytest.mark.parametrize(
    "tape_of_col, match",
    [([0, 3], "index one of 3"), ([0, -1], "index one of 3"), ([0], "one integer per column"), ([0.0, 1.0], "one integer per column")],
    ids=["past-last-tape", "negative", "too-few", "float"],
)
def test_evaluate_population_tape_of_col_contract(tape_of_col, match):
    bits = [[0, 1], [1, 1]]
    with pytest.raises(ContractViolation, match=match):
        evaluate_population(TapeStack(CFG, (0, 1, 2)), bits, tape_of_col)
    with pytest.raises(ContractViolation, match="index one of 1"):
        evaluate_population(TapeStack(CFG, (0,)), bits, [0, 1])


@pytest.mark.parametrize(
    "bits, match",
    [
        ([[0, 2, 1]], "0 or 1"),
        ([[0] * (CFG.episode_len + 1)], "exceed episode_len"),
        ([0, 1, 1], "matrix"),
    ],
    ids=["non-binary", "beyond-episode-len", "one-dimensional"],
)
def test_evaluate_population_contract(bits, match):
    with pytest.raises(ContractViolation, match=match):
        evaluate_population(TapeStack(CFG, (0,)), bits)
    if isinstance(bits[0], list):  # the scalar path refuses the same rows
        with pytest.raises(ContractViolation):
            episode_reward(CFG, 0, bits[0])


@pytest.mark.parametrize(
    "shape, expected",
    [((0, 5), []), ((3, 0), [0.0, 0.0, 0.0])],
    ids=["no-columns", "no-steps"],
)
def test_evaluate_population_empty_shapes(shape, expected):
    rewards = evaluate_population(TapeStack(CFG, (0,)), np.zeros(shape, dtype=np.int64))
    assert rewards.shape == (len(expected),)
    assert rewards.tolist() == expected


# --- brute force -----------------------------------------------------------


def test_brute_force_n1_tie_rule():
    result = brute_force(CFG, 2, 1)
    r0 = episode_reward(CFG, 2, [0])
    r1 = episode_reward(CFG, 2, [1])
    assert result.best_reward == max(r0, r1)
    assert result.evaluations == 2
    if r0 >= r1:
        assert result.best_sequence == (0,)


def test_brute_force_counts_and_dominates_rule():
    result = brute_force(CFG, 5, 6)
    assert result.evaluations == 64
    rb = run_policy(CFG, 5, make_policy("rule"), 6)
    assert result.best_reward >= episode_reward(CFG, 5, rb.actions)


def test_brute_force_cap():
    with pytest.raises(ContractViolation):
        brute_force(CFG, 0, 21)


def _pinned_brute_regimes(test):
    # n = 10 at width 2, 8 or 64 cuts every level past the first 1, 3 or 6
    for (_, overrides, *_), width in zip(PINNED_REGIMES, itertools.cycle((2, 8, 64))):
        test = example(cfg=EnvConfig(**overrides), seed=11, n=10, width=width)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(cfg=gate_configs, seed=st.integers(0, 2**32), n=st.integers(1, 10), width=st.sampled_from((2, 8, 64)))
@_pinned_brute_regimes
def test_brute_force_tree_matches_scalar_scan(cfg, seed, n, width):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planners, "BRUTE_FORCE_WIDTH", width)
        result = brute_force(cfg, seed, n)
    tape = InputTape(cfg, seed)
    sequences = list(itertools.product((0, 1), repeat=n))  # code order
    rewards = [episode_reward(cfg, seed, bits, tape) for bits in sequences]
    first_best = rewards.index(max(rewards))
    assert result.best_sequence == sequences[first_best]
    assert result.best_reward.hex() == rewards[first_best].hex()
    assert result.evaluations == 2**n


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_brute_force_chunks_match_exhaustive_scan(seed, monkeypatch):
    # 512 codes: the whole tree in one pass at the default width, and cut
    # into subtrees past the third level at a width of 8
    n = 9
    tape = InputTape(CFG, seed)
    sequences = list(itertools.product((0, 1), repeat=n))  # code order
    rewards = [episode_reward(CFG, seed, bits, tape) for bits in sequences]
    first_best = rewards.index(max(rewards))
    for width in (planners.BRUTE_FORCE_WIDTH, 8):
        monkeypatch.setattr(planners, "BRUTE_FORCE_WIDTH", width)
        result = brute_force(CFG, seed, n)
        assert result.best_sequence == sequences[first_best]
        assert result.best_reward == rewards[first_best]


def test_brute_force_ties_pick_code_zero(monkeypatch):
    # both modes sort at the same accuracy, so every sequence earns the same
    cfg = EnvConfig(baseline_accuracy=1.0 - EnvConfig().boost_noise)
    monkeypatch.setattr(planners, "BRUTE_FORCE_WIDTH", 8)
    result = brute_force(cfg, 4, 10)
    assert result.best_sequence == (0,) * 10
    assert result.best_reward == episode_reward(cfg, 4, [1] * 10)


@pytest.mark.parametrize("width, n", [(8, 10), (None, 12)], ids=["width-8", "default-width"])
def test_brute_force_steps_each_tree_node_once_within_the_width(width, n, monkeypatch):
    if width is not None:
        monkeypatch.setattr(planners, "BRUTE_FORCE_WIDTH", width)
    widths = []
    real_step = planners._step

    def recording(stack, t, cols, state):
        widths.append(len(state.total))
        return real_step(stack, t, cols, state)

    monkeypatch.setattr(planners, "_step", recording)
    brute_force(CFG, 3, n)
    assert max(widths) == planners.BRUTE_FORCE_WIDTH
    # one column-step per node below the root: 2 + 4 + ... + 2**n
    assert sum(widths) == 2 ** (n + 1) - 2


def test_worker_processes_are_clamped_to_the_cpus(monkeypatch):
    sizes, jobs = [], []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size and runs the
        jobs here, so no process starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            jobs.append(len(columns[0]))
            return map(fn, *columns)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert planners.parallel_map(pow, [(2, k) for k in range(10)], 5000) == [2**k for k in range(10)]
    assert sizes == [3]
    assert jobs == [10]


# --- GA ---------------------------------------------------------------------


def test_default_ga_fills_its_stack_once(drawn_steps):
    # a stack of one seed holds STACK_ROWS steps, so every generation of a
    # 100-step GA reads the block the first one filled
    ga_optimize(CFG, 1, 100, GaParams())
    assert drawn_steps == list(range(-CFG.belt_delay, STACK_ROWS - CFG.belt_delay))


def test_ga_zero_generations_reports_initial_population():
    result = ga_optimize(CFG, 1, 10, GaParams(population=12, generations=0, ga_seed=3))
    assert result.per_generation == []
    assert result.best_reward == result.initial_stats.max_reward
    assert episode_reward(CFG, 1, result.best_sequence) == result.best_reward


def test_ga_repeatable():
    a = ga_optimize(CFG, 4, 12, SMALL_GA)
    b = ga_optimize(CFG, 4, 12, SMALL_GA)
    assert a == b


def test_ga_best_is_archive_maximum():
    result = ga_optimize(CFG, 7, 10, SMALL_GA)
    seen = [result.initial_stats.max_reward] + [g.max_reward for g in result.per_generation]
    assert result.best_reward == max(seen)
    assert episode_reward(CFG, 7, result.best_sequence) == result.best_reward
    assert len(result.per_generation) == SMALL_GA.generations
    assert result.evaluations == SMALL_GA.population * (SMALL_GA.generations + 1)


def test_ga_never_beats_brute_force():
    for seed in (0, 1, 2):
        bf = brute_force(CFG, seed, 6)
        ga = ga_optimize(CFG, seed, 6, SMALL_GA)
        assert ga.best_reward <= bf.best_reward


def test_ga_stats_are_internally_consistent():
    result = ga_optimize(CFG, 3, 8, GaParams(population=10, generations=5, ga_seed=1))
    for stats in [result.initial_stats] + result.per_generation:
        assert stats.min_reward <= stats.mean_reward <= stats.max_reward


@pytest.mark.parametrize(
    "cap, field", [("MAX_POPULATION", "population"), ("MAX_GENERATIONS", "generations")], ids=["population", "generations"]
)
def test_ga_params_upper_bounds(cap, field, monkeypatch):
    monkeypatch.setattr(planners, cap, 6)
    GaParams(**{field: 6})
    with pytest.raises(ContractViolation, match=f"{field} must lie in"):
        GaParams(**{field: 7})


def test_ga_rejects_bad_params():
    with pytest.raises(ContractViolation):
        GaParams(population=1)
    with pytest.raises(ContractViolation):
        GaParams(crossover_rate=1.5)
    with pytest.raises(ContractViolation):
        GaParams(tournament_size=3)
    with pytest.raises(ContractViolation):
        ga_optimize(CFG, 0, 0, SMALL_GA)


def test_ga_seed_derivation_decorrelates_envs():
    assert ga_seed_for_env(0, 1000) != ga_seed_for_env(0, 1001)
    assert ga_seed_for_env(0, 1000) == ga_seed_for_env(0, 1000)


def reference_ga(config, seed, n, params):
    """ga_optimize's draws in the same order, with every candidate scored
    through the scalar episode_reward.  Returns the best sequence, its reward
    and the (max, mean, min) of each generation, the initial population's
    first."""
    rng = random.Random(params.ga_seed)
    tape = InputTape(config, seed)
    size = params.population
    population = [[rng.randrange(2) for _ in range(n)] for _ in range(size)]
    best, best_reward, stats = None, None, []
    for generation in range(params.generations + 1):
        if generation:
            children = []
            while len(children) < size:
                parents = []
                for _ in range(2):
                    i, j = rng.randrange(size), rng.randrange(size)
                    parents.append(population[i if fitnesses[i] >= fitnesses[j] else j])
                a, b = parents
                if n >= 2 and rng.random() < params.crossover_rate:
                    cut = rng.randint(1, n - 1)
                    a, b = a[:cut] + b[cut:], b[:cut] + a[cut:]
                for child in (a, b):
                    children.append([bit ^ 1 if rng.random() < params.mutation_rate else bit for bit in child])
            population = children[:size]
        fitnesses = [episode_reward(config, seed, bits, tape) for bits in population]
        stats.append((max(fitnesses), sum(fitnesses) / size, min(fitnesses)))
        top = fitnesses.index(max(fitnesses))
        if best is None or fitnesses[top] > best_reward:
            best, best_reward = tuple(population[top]), fitnesses[top]
    return best, best_reward, stats


@settings(max_examples=60, deadline=None)
@given(
    cfg=gate_configs,
    seed=st.integers(0, 2**32),
    n=st.integers(1, 12),
    params=st.builds(
        GaParams,
        population=st.integers(2, 9),
        generations=st.integers(0, 4),
        crossover_rate=st.just(0.0) | st.just(1.0) | st.floats(0.0, 1.0),
        mutation_rate=st.just(0.0) | st.floats(0.0, 1.0),
        ga_seed=st.integers(0, 2**32),
    ),
)
# with baseline_accuracy == 1 - boost_noise every sequence ties, so each
# tournament and the archive fall to their tie rules
@example(cfg=EnvConfig(baseline_accuracy=0.9, boost_noise=0.1), seed=3, n=6, params=GaParams(population=5, generations=3, ga_seed=1))
def test_ga_matches_a_scalar_reference_ga(cfg, seed, n, params):
    result = ga_optimize(cfg, seed, n, params)
    best, best_reward, stats = reference_ga(cfg, seed, n, params)
    assert result.best_sequence == best
    assert result.best_reward.hex() == best_reward.hex()
    observed = [result.initial_stats] + result.per_generation
    assert [[x.hex() for x in row] for row in observed] == [[x.hex() for x in row] for row in stats]
    assert result.evaluations == params.population * (params.generations + 1)
