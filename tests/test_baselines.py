"""Baseline policies: random coin, majority-pair rule, closed-loop runner."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortplant.config import EnvConfig
from sortplant.env import ContractViolation, MaterialBatch, advance, generate_input, reset
from sortplant.baselines import make_policy, random_policy, rule_based_policy, run_policy

CFG = EnvConfig()

# frozen prefixes so the (seed, t) keying can never silently change
GOLDEN_RANDOM_SEED3 = "11101111111111101100"
GOLDEN_RANDOM_SEED4 = "01010100111000100010"


def batch(quantities):
    return MaterialBatch(list(quantities), sum(quantities))


def test_random_policy_deterministic_and_golden():
    assert "".join(str(random_policy(3, t)) for t in range(20)) == GOLDEN_RANDOM_SEED3
    assert "".join(str(random_policy(4, t)) for t in range(20)) == GOLDEN_RANDOM_SEED4
    assert random_policy(3, 11) == random_policy(3, 11)


def test_random_policy_is_roughly_fair():
    zeros = sum(random_policy(123, t) == 0 for t in range(10_000))
    assert 0.48 <= zeros / 10_000 <= 0.52


def test_rule_examples():
    assert rule_based_policy(batch([20, 5, 15, 5])) == 0
    assert rule_based_policy(batch([5, 20, 5, 15])) == 1
    assert rule_based_policy(batch([10, 10, 10, 10])) == 0  # tie goes to 0


@settings(max_examples=200, deadline=None)
@given(q=st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4))
def test_rule_flips_under_pair_swap(q):
    action = rule_based_policy(batch(q))
    swapped = rule_based_policy(batch([q[1], q[0], q[3], q[2]]))
    if q[0] + q[2] != q[1] + q[3]:
        assert swapped == action ^ 1
    else:
        assert action == swapped == 0


def test_rule_reads_only_the_head_batch():
    state, _ = reset(CFG, 6)
    # the head of the belt at step 0 is the tape batch of t = -belt_delay
    expected = rule_based_policy(state.tape.batch(-CFG.belt_delay))
    assert make_policy("rule")(state) == expected


@pytest.mark.parametrize("belt_delay", [0, 1, 2, 5])
def test_rule_policy_matches_advance_path_at_any_belt_delay(belt_delay):
    # the batch sorted at step t is generated at t - belt_delay; with no
    # delay that is the step itself
    cfg = EnvConfig(belt_delay=belt_delay, episode_len=40)
    run = run_policy(cfg, 9, make_policy("rule"), 40)
    state, _ = reset(cfg, 9)
    actions, total = [], 0.0
    for t in range(40):
        actions.append(rule_based_policy(generate_input(cfg, 9, t - belt_delay)))
        total += advance(state, actions[-1])[0]
    assert run.actions == actions
    assert run.cumulative_reward == total


def test_make_policy_validation():
    with pytest.raises(ContractViolation):
        make_policy("greedy")
    with pytest.raises(ContractViolation):
        make_policy("random")  # missing policy seed


def test_run_policy_collects_consistent_transitions():
    run = run_policy(CFG, 12, make_policy("rule"), 25)
    assert len(run.actions) == len(run.transitions) == 25
    assert run.cumulative_reward == pytest.approx(sum(tr.reward for tr in run.transitions), rel=1e-12)
    assert all(not tr.truncated for tr in run.transitions)  # 25 < episode_len


def test_run_policy_rejects_horizon_beyond_episode():
    with pytest.raises(ContractViolation):
        run_policy(CFG, 0, make_policy("rule"), CFG.episode_len + 1)
