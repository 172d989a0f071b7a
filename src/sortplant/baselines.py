"""Reference policies: uniform random and the majority-pair heuristic.

Both are benchmark floors; the rule-based policy is also the comparison
baseline for the demonstration filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import EnvConfig
from .env import ContractViolation, EnvState, InputTape, MaterialBatch, reset, step
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


def random_actions(policy_seed: int, n: int) -> list[int]:
    """``[random_policy(policy_seed, t) for t in range(n)]`` from one array draw."""
    return (noise_block(policy_seed, Stream.POLICY, 0, n, 1)[:, 0] >= 0.5).astype(int).tolist()


def rule_based_actions(tape: InputTape, n: int) -> list[int]:
    """The rule-based policy's actions for steps 0 .. n-1: it reads only the
    head batch, so its actions are a function of the tape alone."""
    q = tape.head_quantities(n)
    return np.where(q[:, 0] + q[:, 2] >= q[:, 1] + q[:, 3], 0, 1).tolist()


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
    transitions: Optional[list[Transition]]


def run_policy(
    config: EnvConfig,
    seed: int,
    policy: Policy,
    n_steps: int,
    keep_transitions: bool = False,
    tape: Optional[InputTape] = None,
) -> PolicyRun:
    """Roll a closed-loop policy for n_steps from a fresh reset."""
    if n_steps > config.episode_len:
        raise ContractViolation(f"horizon {n_steps} exceeds episode_len {config.episode_len}")
    state, obs = reset(config, seed, tape)
    actions: list[int] = []
    transitions: Optional[list[Transition]] = [] if keep_transitions else None
    total = 0.0
    for _ in range(n_steps):
        action = policy(state)
        result = step(state, action)
        actions.append(action)
        total += result.reward
        if transitions is not None:
            transitions.append(Transition(obs, action, result.reward, result.observation, result.truncated))
        obs = result.observation
    return PolicyRun(actions, total, transitions)
