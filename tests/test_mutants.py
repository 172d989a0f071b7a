"""The gates bite: source mutants that the pinned examples must kill.

Each row of ``MUTANTS`` is one exact text replacement in a module of the
package, the reason it is wrong, and the check that must fail on it.  The
mutated source is compiled into a throwaway module, registered in
``sys.modules`` while it runs (``dataclass`` needs that), and the check runs
against it.  A mutant is killed when the check fails or raises.  The old
text must occur exactly once, so a refactor that moves it fails here rather
than skipping the row; such a refactor updates the row.

Known equivalent mutants are left out of the table, with the argument:

- the prune's ``>=`` as ``>`` with its margin kept: a column would have to
  land exactly on the incumbent less the margin, and no example does;
- ``_doubles``' division by 2**53 as a multiplication by 2**-53: scaling by
  a power of two is exact either way (CPython's ``random()`` multiplies).
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import sortplant
from sortplant.config import EnvConfig
from sortplant.env import TapeStack
from sortplant.planners import GaParams, episode_reward
from test_planners import (
    TIE_CFG,
    assert_bound_is_admissible,
    assert_brute_force_matches_scan,
    assert_bulk_draws_match_the_scalar_draws,
    assert_ga_matches_reference_ga,
    assert_ties_replace_a_higher_incumbent,
    assert_tournaments_match_tournament_select,
)
from test_press import PINNED_ACTIONS, PINNED_REGIMES
from test_rng import assert_streams_are_separate

# the pinned evaluator examples: every press regime under three action rows,
# and two rows of the default config.  A reassociated reward sum changes the
# bits on few examples: one row of press0-crowded and one of the default
# config here
_ROWS = [PINNED_ACTIONS, [1 - b for b in PINNED_ACTIONS], [0] * len(PINNED_ACTIONS)]
_EVALUATOR_EXAMPLES = [(EnvConfig(**overrides), 11, _ROWS) for _, overrides, *_ in PINNED_REGIMES]
_EVALUATOR_EXAMPLES.append((EnvConfig(), 10, [[t % 2 for t in range(100)], [(t // 7) % 2 for t in range(100)]]))


def _evaluator_matches_episode_reward(module):
    # each example at the module's reward budget (one block of every step),
    # in blocks of 16 steps, which leave a last block of 4, and in blocks of
    # one step, which a budget below the column count gives
    for cfg, seed, rows in _EVALUATOR_EXAMPLES:
        expected = [episode_reward(cfg, seed, row).hex() for row in rows]
        for budget in (module._REWARD_BUDGET, 16 * len(rows), 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(module, "_REWARD_BUDGET", budget)
                rewards = module.evaluate_population(TapeStack(cfg, (seed,), len(rows[0])), rows)
            assert [float(r).hex() for r in rewards] == expected, budget


def _tree_matches_scan(module):
    for _, overrides, *_ in PINNED_REGIMES[:3]:
        assert_brute_force_matches_scan(module, EnvConfig(**overrides), 11, 7, 8)


def _bulk_draws_match_the_scalar_draws(module):
    for ga_seed, count, draws in [(-1, 7, 3), (0, 1, 1), (2**70 + 3, 40, 2)]:
        assert_bulk_draws_match_the_scalar_draws(module, ga_seed, count, draws)


# a tie config (every sequence ties, so the tie rules decide), a default
# config and an odd population
_GA_EXAMPLES = [
    (EnvConfig(baseline_accuracy=0.9, boost_noise=0.1), 3, 6, GaParams(population=5, generations=3, ga_seed=1)),
    (EnvConfig(), 6, 12, GaParams(population=7, generations=3, ga_seed=11)),
    (EnvConfig(), 17, 20, GaParams(population=20, generations=4, crossover_rate=0.5, ga_seed=2**70 + 3)),
]


def _ga_matches_reference_ga(module):
    for cfg, seed, n, params in _GA_EXAMPLES:
        assert_ga_matches_reference_ga(module, cfg, seed, n, params)


def _bound_is_admissible(module):
    assert_bound_is_admissible(module, TIE_CFG, 4, 1)
    for _, overrides, *_ in PINNED_REGIMES:
        assert_bound_is_admissible(module, EnvConfig(**overrides), 11, 6)


MUTANTS = [
    # the batched plant step
    ("planners", "if fits.all():", "if fits.any():", "all-fit path taken when only some deposits fit", _evaluator_matches_episode_reward),
    (
        "planners",
        "        contents += deposits\n",
        "        designated_contents += deposits[:N_MATERIALS]\n",
        "all-fit path drops E's own deposit",
        _evaluator_matches_episode_reward,
    ),
    ("planners", "            pending[rows, cols] = not_waiting\n", "", "a press does not reset pending", _evaluator_matches_episode_reward),
    (
        "planners",
        "np.minimum(pending, np.where(fill >= threshold, t, not_waiting), out=pending)",
        "np.copyto(pending, np.where(fill >= threshold, t, pending))",
        "a crossing overwrites an earlier pending_since",
        _evaluator_matches_episode_reward,
    ),
    (
        "planners",
        "first = pending.argmin(axis=0)",
        "first = N_CONTAINERS - 1 - pending[::-1].argmin(axis=0)",
        "equal pending_since goes to the higher index",
        _evaluator_matches_episode_reward,
    ),
    (
        "planners",
        "reward = np.where(filled > 0.0,",
        "reward = np.where(filled >= 0.0,",
        "an empty container is scored",
        _evaluator_matches_episode_reward,
    ),
    ("planners", "        e_contents += spill[3]\n", "", "the spill skips container D", _evaluator_matches_episode_reward),
    (
        "planners",
        "return ((reward[..., 0, :] + reward[..., 1, :]) + reward[..., 2, :]) + reward[..., 3, :]",
        "return (reward[..., 0, :] + reward[..., 1, :]) + (reward[..., 2, :] + reward[..., 3, :])",
        "the step reward's sum is reassociated in pairs",
        _evaluator_matches_episode_reward,
    ),
    (
        "planners",
        "return ((reward[..., 0, :] + reward[..., 1, :]) + reward[..., 2, :]) + reward[..., 3, :]",
        "return reward[..., 0, :] + (reward[..., 1, :] + (reward[..., 2, :] + reward[..., 3, :]))",
        "the step reward's sum is folded from the right",
        _evaluator_matches_episode_reward,
    ),
    (
        "planners",
        "                block[1:] = _step_reward(config, own[: row + 1], filled[: row + 1])\n",
        "                block[1:] = _step_reward(config, own[: row + 1], filled[: row + 1])[::-1]\n",
        "a block's reward rows are summed out of step order",
        _evaluator_matches_episode_reward,
    ),
    ("planners", "            fill[rows, cols] = 0.0\n", "", "a press leaves the fill unzeroed", _evaluator_matches_episode_reward),
    (
        "planners",
        "rows = max(1, min(n, _REWARD_BUDGET // pop))",
        "rows = min(n, _REWARD_BUDGET // pop)",
        "a block past the budget holds no step",
        _evaluator_matches_episode_reward,
    ),
    (
        "planners",
        "if row == rows - 1 or t == n - 1:",
        "if row == rows - 1:",
        "a last block shorter than the others is never scored",
        _evaluator_matches_episode_reward,
    ),
    # the GA's bulk draws and array operators
    (
        "planners",
        "((pairs[..., 0] >> 5) * 67108864.0 + (pairs[..., 1] >> 6))",
        "((pairs[..., 0] >> 6) * 67108864.0 + (pairs[..., 1] >> 5))",
        "the two word shifts of a double are swapped",
        _bulk_draws_match_the_scalar_draws,
    ),
    (
        "planners",
        'd.to_bytes(4 * count, "little")',
        'd.to_bytes(4 * count, "big")',
        "a draw's words are read most significant first",
        _bulk_draws_match_the_scalar_draws,
    ),
    (
        "planners",
        "np.where(fitness[first] >= fitness[second], first, second)",
        "np.where(fitness[first] > fitness[second], first, second)",
        "tournament ties go to the second entrant",
        assert_tournaments_match_tournament_select,
    ),
    ("planners", "cuts = [n] * pairs", "cuts = [0] * pairs", "a pair without crossover swaps its parents", _ga_matches_reference_ga),
    (
        "planners",
        "if fitnesses[best] > best_reward:",
        "if fitnesses[best] >= best_reward:",
        "the archive keeps the last of equal bests",
        _ga_matches_reference_ga,
    ),
    (
        "planners",
        "best = max(range(params.population), key=lambda i: fitnesses[i])",
        "best = max(reversed(range(params.population)), key=lambda i: fitnesses[i])",
        "a generation's best is the last of equal maxima",
        _ga_matches_reference_ga,
    ),
    (
        "planners",
        "sum(fitnesses) / len(fitnesses)",
        "(sum(fitnesses[: len(fitnesses) // 2]) + sum(fitnesses[len(fitnesses) // 2 :])) / len(fitnesses)",
        "the generation mean is reassociated",
        _ga_matches_reference_ga,
    ),
    # the brute-force tree
    (
        "planners",
        "return _Columns(*(np.repeat(a, 2, axis=-1) for a in self))",
        "return _Columns(*(np.concatenate([a, a], axis=-1) for a in self))",
        "a branch lays children out of code order",
        _tree_matches_scan,
    ),
    (
        "planners",
        "groups.append((upper, codes[width // 2 :], t))",
        "groups.append((upper, codes[: width // 2], t))",
        "the waiting upper half carries the lower half's codes",
        _tree_matches_scan,
    ),
    # the branch and bound
    (
        "planners",
        "        bound += k * phi[m] + suffix[m, k]\n    return bound\n",
        "        bound += k * phi[m] + suffix[m, k]\n    return bound * 0.999\n",
        "the bound is tightened by a small factor",
        _bound_is_admissible,
    ),
    (
        "planners",
        "return total + bound >= incumbent - _PRUNE_MARGIN * (1.0 + abs(incumbent))",
        "return total + bound > incumbent",
        "the prune drops columns that tie the incumbent",
        assert_ties_replace_a_higher_incumbent,
    ),
    (
        "planners",
        "return total + bound >= incumbent - _PRUNE_MARGIN * (1.0 + abs(incumbent))",
        "return total + bound >= incumbent",
        "the prune has no margin for rounding",
        assert_ties_replace_a_higher_incumbent,
    ),
    (
        "planners",
        "if reward > best_reward or (reward == best_reward and code < best_code):",
        "if reward >= best_reward:",
        "a later group's tie replaces the incumbent",
        assert_ties_replace_a_higher_incumbent,
    ),
    # the per-process key table
    (
        "rng",
        "@functools.lru_cache(maxsize=256)\n",
        "@lambda fn, table={}: lambda seed, stream: table.setdefault(seed, fn(seed, stream))\n",
        "the key memo drops the stream from its key",
        assert_streams_are_separate,
    ),
]


def _mutant(module_name: str, old: str, new: str) -> types.ModuleType:
    source = Path(sortplant.__file__).with_name(f"{module_name}.py").read_text(encoding="utf-8")
    assert source.count(old) == 1, f"the old text must occur once in {module_name}.py"
    name = f"sortplant._mutant_{module_name}"
    module = types.ModuleType(name)
    module.__package__ = "sortplant"
    sys.modules[name] = module
    try:
        exec(compile(source.replace(old, new), f"<mutant of {module_name}.py>", "exec"), module.__dict__)
    except BaseException:
        del sys.modules[name]
        raise
    return module


@pytest.mark.parametrize("module_name, old, new, reason, check", MUTANTS, ids=[row[3] for row in MUTANTS])
def test_mutant_is_killed(module_name, old, new, reason, check):
    module = _mutant(module_name, old, new)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            check(module)
    except Exception:
        return
    finally:
        del sys.modules[module.__name__]
    pytest.fail(f"no check failed on the mutant: {reason}")


def test_checks_pass_on_the_package():
    for module_name, check in {(row[0], row[4]) for row in MUTANTS}:
        check(importlib.import_module(f"sortplant.{module_name}"))
