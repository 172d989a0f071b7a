"""Reference policies: uniform random and the majority-pair heuristic.

Both are benchmark floors; the rule-based policy is also the comparison
baseline for the demonstration filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import EnvConfig
from .env import ContractViolation, EnvState, InputTape, MaterialBatch, head_batches, reset, step
from .rng import Stream, noise_block, noise_draw
from .trajio import Transition

POLICY_NAMES = ("random", "rule")

Policy = Callable[[EnvState], int]


def random_policy(policy_seed: int, t: int) -> int:
    """Coin flip per step, deterministic in (policy_seed, t)."""
    return 0 if noise_draw(policy_seed, Stream.POLICY, t, 0) < 0.5 else 1


def rule_based_policy(head_batch: MaterialBatch) -> int:
    """Boost the majority pair of the batch about to be sorted; ties pick 0."""
    q = head_batch.quantities
    return 0 if q[0] + q[2] >= q[1] + q[3] else 1


def random_actions(policy_seeds: Sequence[int], n: int) -> list[list[int]]:
    """``[random_policy(seed, t) for t in range(n)]`` for each of ``policy_seeds``, from one array draw."""
    return (noise_block(policy_seeds, Stream.POLICY, 0, n, 1)[..., 0] >= 0.5).astype(int).tolist()


def rule_based_actions(config: EnvConfig, seeds: Sequence[int], n: int) -> list[list[int]]:
    """The rule-based policy's actions for steps 0 .. n-1, one list per seed.
    The policy reads only step t's head batch, generated at t - belt_delay,
    so its actions are a function of (config, seed); no block is filled."""
    q = head_batches(config, seeds, -config.belt_delay, n)[0]
    return np.where(q[..., 0] + q[..., 2] >= q[..., 1] + q[..., 3], 0, 1).tolist()


def make_policy(name: str, policy_seed: Optional[int] = None) -> Policy:
    """Resolve a policy by CLI/benchmark name into a state -> action callable."""
    if name == "random":
        if policy_seed is None:
            raise ContractViolation("random policy needs a policy seed")
        seed = policy_seed
        return lambda state: random_policy(seed, state.t)
    if name == "rule":
        # the head batch, which advance sorts at this step (see env.advance)
        return lambda state: rule_based_policy(state.tape.batch(state.t - state.config.belt_delay))
    raise ContractViolation(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")


@dataclass
class PolicyRun:
    actions: list[int]
    cumulative_reward: float
    transitions: list[Transition]


def run_policy(
    config: EnvConfig,
    seed: int,
    policy: Policy,
    n_steps: int,
    tape: Optional[InputTape] = None,
) -> PolicyRun:
    """Roll a closed-loop policy for n_steps from a fresh reset and record every transition."""
    if n_steps > config.episode_len:
        raise ContractViolation(f"horizon {n_steps} exceeds episode_len {config.episode_len}")
    state, obs = reset(config, seed, tape)
    actions: list[int] = []
    transitions: list[Transition] = []
    total = 0.0
    for _ in range(n_steps):
        action = policy(state)
        result = step(state, action)
        actions.append(action)
        total += result.reward
        transitions.append(Transition(obs, action, result.reward, result.observation, result.truncated))
        obs = result.observation
    return PolicyRun(actions, total, transitions)
