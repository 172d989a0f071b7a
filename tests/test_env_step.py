"""Episode stepping: reset, determinism, truncation, mass ledger, golden rewards."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sortplant.config import EnvConfig
from sortplant.env import BLOCK, ContractViolation, InputTape, advance, generate_input, reset, step
from sortplant.planners import episode_reward, rollout
from sortplant.rng import Stream, noise_draw

CFG = EnvConfig()

# head-batch quantities at reset (the t = -2 tape batch), frozen per seed
GOLDEN_HEAD_SEED0 = [25.405215591976596, 22.121013650172323, 5.084261850288856, 18.728771958011183]
GOLDEN_HEAD_SEED1 = [5.689558070912881, 48.700639373450336, 18.486105915754134, 26.107967490710532]

# rewards for seed 42 under actions [0, 1, 0]; step 0 cross-checked by the
# independent trace below, steps 1-2 frozen from the first verified run
GOLDEN_REWARDS_SEED42 = [0.2896159599122201, 0.46384351188239836, 0.41347879727394277]


def oracle_first_step_reward(seed: int, action: int) -> float:
    """Spreadsheet-style trace of step 0 from nothing but the draw recipe and
    the documented formulas (defaults; containers start empty, no pressing)."""
    # input recipe for the batch sorted at step 0 (generated at t = -2)
    t_created = -2
    u0 = noise_draw(seed, Stream.INPUT_SIZE, t_created, 0)
    total = 20.0 + u0 * (100.0 - 20.0)
    weights = []
    for m in range(4):
        u = noise_draw(seed, Stream.INPUT_MIX, t_created, m)
        w = u * (1.0 + 0.5 * math.sin(2 * math.pi * t_created / 50 + m * math.pi / 2))
        weights.append(max(w, 0.01))
    head = [total * w / sum(weights) for w in weights]

    load = min(sum(head) / 100.0, 1.0)
    boosted = (0, 2) if action == 0 else (1, 3)
    thresholds = (0.85, 0.80, 0.75, 0.70)
    r = list(head)
    reward = 0.0
    for m in range(4):
        eta = (2.0 * noise_draw(seed, Stream.JITTER, 0, m) - 1.0) * 0.02
        base = 0.98 if m in boosted else 0.80
        a = min(max(base * (1.0 - 0.30 * load * load) + eta, 0.0), 1.0)
        processed = r[m]
        own = a * processed
        r[m] = processed - own
        false_volume = (1.0 - a) * 0.75 * processed
        pool = sum(r[j] for j in range(4) if j != m)
        grabbed = 0.0
        if false_volume > 0.0 and pool > 0.0:
            frac = min(false_volume / pool, 1.0)
            for j in range(4):
                if j != m:
                    g = frac * r[j]
                    grabbed += g
                    r[j] -= g
        purity = own / (own + grabbed)
        dev = purity - thresholds[m]
        reward += dev if dev >= 0.0 else 5.0 * dev
    return reward


def test_reset_is_deterministic_and_prefills_belt():
    s1, o1 = reset(CFG, 7)
    s2, o2 = reset(CFG, 7)
    assert np.array_equal(o1, o2)
    # at step 0 the belt holds the tape batches of t = -2 (head) and -1 (tail)
    belt = [s1.tape.batch(t).quantities for t in range(-CFG.belt_delay, 0)]
    assert belt == [s2.tape.batch(t).quantities for t in range(-CFG.belt_delay, 0)]
    assert belt == [generate_input(CFG, 7, t).quantities for t in (-2, -1)]
    assert list(o1[0:4]) == [q / CFG.batch_max for q in belt[-1]]
    assert list(o1[5:9]) == [q / CFG.batch_max for q in belt[0]]
    assert s1.bales == [] and s1.last_action is None


@pytest.mark.parametrize(
    "replay",
    [
        lambda config, seed, tape: reset(config, seed, tape),
        lambda config, seed, tape: episode_reward(config, seed, [0, 1], tape),
        lambda config, seed, tape: rollout(config, seed, [0, 1], tape),
    ],
    ids=["reset", "episode_reward", "rollout"],
)
def test_a_tape_replays_only_its_own_config_and_seed(replay):
    tape = InputTape(CFG, 7)
    replay(CFG, 7, tape)
    replay(EnvConfig(), 7, tape)  # an equal config
    with pytest.raises(ContractViolation, match="another"):
        replay(CFG, 8, tape)
    with pytest.raises(ContractViolation, match="another"):
        replay(EnvConfig(penalty_factor=4.0), 7, tape)


def test_reset_golden_head_batches_differ_by_seed():
    s0, _ = reset(CFG, 0)
    s1, _ = reset(CFG, 1)
    assert s0.tape.batch(-2).quantities == pytest.approx(GOLDEN_HEAD_SEED0, rel=1e-12)
    assert s1.tape.batch(-2).quantities == pytest.approx(GOLDEN_HEAD_SEED1, rel=1e-12)


def test_reset_cost_does_not_grow_with_belt_delay(drawn_steps):
    counts = []
    for belt_delay in (1000, 10**30):
        drawn_steps.clear()
        _, obs = reset(EnvConfig(belt_delay=belt_delay), 5)
        # only the blocks holding the tail and head batches read by the observation
        assert -belt_delay in drawn_steps and -1 in drawn_steps
        assert obs[4] > 0.0 and obs[9] > 0.0
        counts.append(len(drawn_steps))
    assert counts == [2 * BLOCK, 2 * BLOCK]


def test_first_step_reward_matches_hand_trace():
    state, _ = reset(CFG, 42)
    result = step(state, 0)
    assert result.reward == pytest.approx(oracle_first_step_reward(42, 0), rel=1e-12)
    assert result.reward == pytest.approx(GOLDEN_REWARDS_SEED42[0], rel=1e-12)
    # mode 1 takes a different path through the same trace
    s2, _ = reset(CFG, 42)
    assert step(s2, 1).reward == pytest.approx(oracle_first_step_reward(42, 1), rel=1e-12)


def test_golden_reward_sequence_seed42():
    state, _ = reset(CFG, 42)
    rewards = [step(state, a).reward for a in (0, 1, 0)]
    assert rewards == pytest.approx(GOLDEN_REWARDS_SEED42, rel=1e-12)


def test_full_episode_bit_identical_across_runs():
    def run():
        state, _ = reset(CFG, 9)
        rewards = []
        final = None
        for _ in range(CFG.episode_len):
            result = step(state, 0)
            rewards.append(result.reward)
            final = result.observation
        return rewards, final.tobytes(), [(b.material, b.size, b.purity, b.pressed_at) for b in state.bales]

    first, second = run(), run()
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_truncation_at_episode_end_only():
    cfg = EnvConfig(episode_len=5)
    state, _ = reset(cfg, 3)
    flags = [step(state, 1).truncated for _ in range(5)]
    assert flags == [False, False, False, False, True]
    with pytest.raises(ContractViolation):
        step(state, 0)


def test_terminated_always_false():
    state, _ = reset(CFG, 3)
    assert all(step(state, 0).terminated is False for _ in range(20))


def test_invalid_action_rejected():
    state, _ = reset(CFG, 0)
    with pytest.raises(ContractViolation):
        step(state, 2)


LEDGER_LEN = 60


def _coin_flips(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2) for _ in range(n)]


# capacity ratio 1.0 is the overflow regime (every crossing container is full),
# a long press_duration saturates both presses, belt_delay 0 sorts each batch
# on the step that generates it, and a delay longer than the episode sorts
# only batches generated before step 0
ledger_configs = st.builds(
    lambda threshold, capacity_ratio, press_duration, belt_delay: EnvConfig(
        episode_len=LEDGER_LEN,
        pressing_threshold=threshold,
        container_capacity=threshold * capacity_ratio,
        press_duration=press_duration,
        belt_delay=belt_delay,
    ),
    threshold=st.floats(20.0, 400.0),
    capacity_ratio=st.just(1.0) | st.floats(1.0, 2.0),
    press_duration=st.sampled_from([0, 40]) | st.integers(0, LEDGER_LEN),
    belt_delay=st.just(0) | st.integers(0, 2 * LEDGER_LEN),
)


@settings(max_examples=100, deadline=None)
@given(
    cfg=ledger_configs,
    seed=st.integers(0, 2**32),
    actions=st.lists(st.integers(0, 1), min_size=LEDGER_LEN, max_size=LEDGER_LEN),
)
@example(cfg=CFG, seed=77, actions=_coin_flips(8, CFG.episode_len))
@example(
    cfg=EnvConfig(episode_len=LEDGER_LEN, container_capacity=200.0, press_duration=40, belt_delay=0),
    seed=3,
    actions=[t % 2 for t in range(LEDGER_LEN)],
)
@example(cfg=EnvConfig(episode_len=LEDGER_LEN, belt_delay=10**30), seed=5, actions=_coin_flips(9, LEDGER_LEN))
def test_mass_ledger_balances_every_step(cfg, seed, actions):
    state, _ = reset(cfg, seed)
    for action in actions:
        step(state, action)
        generated, accounted = state.mass_balance()
        assert abs(generated - accounted) / generated <= 1e-9


@pytest.mark.parametrize("belt_delay", [0, 2, 5])
def test_advance_equals_step_rewards(belt_delay):
    cfg = EnvConfig(belt_delay=belt_delay)
    s1, _ = reset(cfg, 15)
    s2, _ = reset(cfg, 15)
    actions = _coin_flips(1, 50)
    assert set(actions) == {0, 1}
    r_step = [step(s1, a).reward for a in actions]
    r_adv = [advance(s2, a)[0] for a in actions]
    assert r_step == r_adv  # bit-exact: same dynamics path


def test_shared_tape_changes_nothing():
    tape = InputTape(CFG, 21)
    s1, o1 = reset(CFG, 21, tape)
    s2, o2 = reset(CFG, 21)
    assert np.array_equal(o1, o2)
    for _ in range(30):
        assert step(s1, 1).reward == step(s2, 1).reward


def test_pressing_resets_container_and_archives_bale():
    state, _ = reset(CFG, 4)
    for _ in range(CFG.episode_len):
        result = step(state, 0)
        for bale in result.info["new_bales"]:
            assert state.containers[bale.material].total == 0.0
            assert bale.size >= CFG.pressing_threshold * 0.99 or bale.size > 0
            assert 0.0 <= bale.purity <= 1.0
    assert state.bales, "a default episode should press at least once"
