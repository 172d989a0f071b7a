"""Benchmark harness: statistics, strategy evaluation, emitted tables."""

from __future__ import annotations

import math

import pytest

from sortplant import bench
from sortplant.config import ConfigError, EnvConfig
from sortplant.env import ContractViolation
from sortplant.baselines import make_policy, random_actions, rule_based_actions, run_policy
from sortplant.bench import (
    STACK_SEEDS,
    BenchSpec,
    emit_outputs,
    evaluate_strategy,
    load_external_scores,
    run_bench,
    score_open_loop,
    summarize,
)
from sortplant.planners import BRUTE_FORCE_CAP, GaParams, brute_force, episode_reward

CFG = EnvConfig()
SMALL_GA = GaParams(population=10, generations=3, ga_seed=2)


def test_summarize_hand_values():
    s = summarize([1.0, 2.0, 3.0])
    assert s.mean == 2.0
    assert s.median == 2.0
    assert s.std == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)  # population std
    assert (s.min, s.max, s.count) == (1.0, 3.0, 3)


def test_summarize_single_value():
    s = summarize([4.5])
    assert s.mean == s.median == 4.5 and s.std == 0.0


def test_summarize_order_invariant():
    assert summarize([3.0, 1.0, 2.0]) == summarize([1.0, 2.0, 3.0])


def test_rb_closed_loop_equals_replayed_sequence():
    run = run_policy(CFG, 17, make_policy("rule"), 30)
    assert score_open_loop(CFG, (17,), ("RB",), 30) == [run.cumulative_reward]
    assert episode_reward(CFG, 17, run.actions) == run.cumulative_reward


@pytest.mark.parametrize("belt_delay", [0, 1, 5])
def test_open_loop_r_and_rb_cells_equal_closed_loop_runs(belt_delay):
    cfg = EnvConfig(belt_delay=belt_delay)
    seeds = (0, 7, 999)
    # one draw per strategy for the whole group, one row per seed
    drawn = {"R": random_actions(seeds, 100), "RB": rule_based_actions(cfg, seeds, 100)}
    rewards = score_open_loop(cfg, seeds, ("R", "RB"), 100)
    for k, seed in enumerate(seeds):
        for i, (strategy, policy) in enumerate((("R", make_policy("random", policy_seed=seed)), ("RB", make_policy("rule")))):
            run = run_policy(cfg, seed, policy, 100)
            assert set(run.actions) == {0, 1}
            assert drawn[strategy][k] == run.actions
            assert rewards[i * len(seeds) + k].hex() == run.cumulative_reward.hex()


def test_bf_dominates_ga_cellwise():
    for seed in (0, 3):
        bf, _ = evaluate_strategy("BF", CFG, seed, 6, SMALL_GA)
        ga, curve = evaluate_strategy("GA", CFG, seed, 6, SMALL_GA)
        assert bf == brute_force(CFG, seed, 6).best_reward
        assert ga <= bf
        assert curve is not None and len(curve[1]) == SMALL_GA.generations


def test_spec_validation():
    with pytest.raises(ContractViolation):
        BenchSpec(strategies=("R", "XX"), seeds=(0,), horizon=5)
    with pytest.raises(ContractViolation):
        BenchSpec(strategies=("R",), seeds=(0, 0), horizon=5)
    with pytest.raises(ContractViolation):
        BenchSpec(strategies=("R",), seeds=(1500,), horizon=5)  # campaign pool
    with pytest.raises(ContractViolation):
        BenchSpec(strategies=("BF",), seeds=(0,), horizon=21)
    with pytest.raises(ContractViolation, match="need one or more distinct strategies"):
        BenchSpec(strategies=(), seeds=(0,), horizon=5)
    with pytest.raises(ContractViolation, match=r"distinct strategies .*, got \['R', 'RB', 'R'\]"):
        BenchSpec(strategies=("R", "RB", "R"), seeds=(0,), horizon=5)
    with pytest.raises(ContractViolation, match="seed list must be nonempty"):
        BenchSpec(strategies=("R",), seeds=(), horizon=5)


def test_run_bench_and_emit(tmp_path):
    spec = BenchSpec(strategies=("R", "RB"), seeds=(2, 0, 1), horizon=10, ga_params=SMALL_GA)
    result = run_bench(CFG, spec)
    assert sorted(s for s, _ in result.per_seed["R"]) == [0, 1, 2]
    emit_outputs(result, tmp_path, CFG)

    per_seed = (tmp_path / "per_seed.csv").read_text().splitlines()
    assert per_seed[0] == "strategy,seed,reward"
    assert len(per_seed) == 1 + 2 * 3  # header + strategies x seeds
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "strategy,count,mean,std,median,min,max"
    assert len(summary) == 3
    curve = (tmp_path / "reward_curve.csv").read_text().splitlines()
    assert curve[0] == "deviation,reward"
    assert len(curve) == 102
    assert not (tmp_path / "ga_generations.csv").exists()  # GA not requested
    assert (tmp_path / "run_meta.json").exists()

    # per-seed rows round-trip to the exact rewards
    row = per_seed[1].split(",")
    assert float(row[2]) == result.per_seed["R"][0][1]


def test_reward_curve_shape(tmp_path):
    spec = BenchSpec(strategies=("RB",), seeds=(0,), horizon=5, ga_params=SMALL_GA)
    emit_outputs(run_bench(CFG, spec), tmp_path, CFG)
    rows = [line.split(",") for line in (tmp_path / "reward_curve.csv").read_text().splitlines()[1:]]
    for dev_s, reward_s in rows:
        dev, reward = float(dev_s), float(reward_s)
        expected = dev if dev >= 0 else CFG.penalty_factor * dev
        assert reward == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_ga_generation_table_emitted(tmp_path):
    spec = BenchSpec(strategies=("GA",), seeds=(1,), horizon=6, ga_params=SMALL_GA)
    result = run_bench(CFG, spec)
    emit_outputs(result, tmp_path, CFG)
    rows = (tmp_path / "ga_generations.csv").read_text().splitlines()
    assert rows[0] == "seed,generation,max_reward,mean_reward,min_reward"
    assert len(rows) == 1 + 1 + SMALL_GA.generations  # header + gen 0 + bred generations


def test_re_emission_is_byte_identical(tmp_path):
    spec = BenchSpec(strategies=("R", "RB"), seeds=(0, 1), horizon=8, ga_params=SMALL_GA)
    result = run_bench(CFG, spec)
    a, b = tmp_path / "a", tmp_path / "b"
    emit_outputs(result, a, CFG)
    emit_outputs(run_bench(CFG, spec), b, CFG)
    for path in sorted(a.iterdir()):
        assert (b / path.name).read_bytes() == path.read_bytes()


def test_workers_do_not_change_results():
    spec = BenchSpec(strategies=("R", "RB", "GA"), seeds=(0, 1, 2), horizon=8, ga_params=SMALL_GA)
    serial = run_bench(CFG, spec, workers=1)
    parallel = run_bench(CFG, spec, workers=2)
    assert serial.per_seed == parallel.per_seed
    assert serial.summaries == parallel.summaries


@pytest.mark.parametrize("horizon", [1, 37, 100, 130])
@pytest.mark.parametrize("count", [1, STACK_SEEDS, STACK_SEEDS + 1], ids=["one", "stack", "stack-plus-one"])
def test_stacked_cells_are_independent_of_worker_count(count, horizon, tmp_path):
    # 130 steps cross a block boundary; BF joins the horizons it may run
    cfg = EnvConfig(episode_len=130)
    strategies = ("RB", "BF", "R") if horizon <= BRUTE_FORCE_CAP else ("RB", "R")
    seeds = tuple(range(999, 999 - 7 * count, -7))
    spec = BenchSpec(strategies=strategies, seeds=seeds, horizon=horizon, ga_params=SMALL_GA)
    written = {}
    for workers in (1, 2):
        emit_outputs(run_bench(cfg, spec, workers=workers), tmp_path / str(workers), cfg)
        written[workers] = (tmp_path / str(workers) / "per_seed.csv").read_bytes()
    assert written[1] == written[2]
    # a stacked cell scores what the cell scores alone, as a stack of one
    rows = [line.split(",") for line in written[1].decode().splitlines()[1:]]
    assert [row[0] for row in rows] == [s for s in strategies for _ in seeds]
    for strategy, seed, reward in rows:
        if strategy != "BF":
            (alone,) = score_open_loop(cfg, (int(seed),), (strategy,), horizon)
            assert float(reward).hex() == alone.hex()


def test_open_loop_cells_are_scored_in_stacks(monkeypatch):
    stacks = []
    real = bench.evaluate_population

    def recording(stack, bits, tape_of_col):
        stacks.append((len(stack.seeds), len(bits)))
        return real(stack, bits, tape_of_col)

    monkeypatch.setattr(bench, "evaluate_population", recording)
    count = 2 * STACK_SEEDS + 1
    run_bench(CFG, BenchSpec(strategies=("R", "RB"), seeds=tuple(range(count)), horizon=5))
    # one call per stack of at most STACK_SEEDS seeds, both strategies in it
    assert len(stacks) == 3
    assert sum(size for size, _ in stacks) == count
    assert all(size <= STACK_SEEDS and columns == 2 * size for size, columns in stacks)


def test_score_open_loop_rejects_planners():
    with pytest.raises(ContractViolation, match="not an open-loop strategy"):
        score_open_loop(CFG, (0, 1), ("R", "GA"), 5)
    # and the planner path does not score the open-loop strategies
    for strategy in bench.OPEN_LOOP:
        with pytest.raises(ContractViolation, match="not a planner strategy"):
            evaluate_strategy(strategy, CFG, 0, 5, SMALL_GA)


def test_external_scores_merge(tmp_path):
    scores = tmp_path / "ext.csv"
    scores.write_text("strategy,seed,reward\nDQN,0,4.5\nDQN,1,5.5\nPPO,0,6.0\nPPO,1,7.0\n")
    loaded = load_external_scores(scores)
    assert loaded["DQN"] == [(0, 4.5), (1, 5.5)]

    spec = BenchSpec(strategies=("R",), seeds=(0, 1), horizon=5, ga_params=SMALL_GA)
    result = run_bench(CFG, spec)
    emit_outputs(result, tmp_path / "out", CFG, external=loaded)
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    names = [line.split(",")[0] for line in summary[1:]]
    assert names == ["R", "DQN", "PPO"]
    per_seed = (tmp_path / "out" / "per_seed.csv").read_text().splitlines()
    assert "DQN,1,5.5" in per_seed


def test_external_scores_reject_collision_and_bad_header(tmp_path):
    scores = tmp_path / "bad.csv"
    scores.write_text("strategy,seed,reward\nR,0,1.0\n")
    spec = BenchSpec(strategies=("R",), seeds=(0,), horizon=5, ga_params=SMALL_GA)
    result = run_bench(CFG, spec)
    with pytest.raises(ConfigError):
        emit_outputs(result, tmp_path / "x", CFG, external=load_external_scores(scores))
    noheader = tmp_path / "nh.csv"
    noheader.write_text("DQN,0,1.0\n")
    with pytest.raises(ConfigError):
        load_external_scores(noheader)


def test_horizon_must_fit_episode():
    spec = BenchSpec(strategies=("R",), seeds=(0,), horizon=CFG.episode_len + 1)
    with pytest.raises(ContractViolation):
        run_bench(CFG, spec)
