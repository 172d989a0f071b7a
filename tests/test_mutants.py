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
  land exactly on the incumbent less the margin, and no example does.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

import sortplant
from sortplant.config import EnvConfig
from sortplant.env import TapeStack
from sortplant.planners import episode_reward
from test_planners import TIE_CFG, assert_bound_is_admissible, assert_brute_force_matches_scan, assert_ties_replace_a_higher_incumbent
from test_press import PINNED_ACTIONS, PINNED_REGIMES

# the pinned evaluator examples: every press regime under three action rows,
# and two rows of the default config.  A reassociated reward sum changes the
# bits on few examples: one row of press0-crowded and one of the default
# config here
_ROWS = [PINNED_ACTIONS, [1 - b for b in PINNED_ACTIONS], [0] * len(PINNED_ACTIONS)]
_EVALUATOR_EXAMPLES = [(EnvConfig(**overrides), 11, _ROWS) for _, overrides, *_ in PINNED_REGIMES]
_EVALUATOR_EXAMPLES.append((EnvConfig(), 10, [[t % 2 for t in range(100)], [(t // 7) % 2 for t in range(100)]]))


def _evaluator_matches_episode_reward(module):
    for cfg, seed, rows in _EVALUATOR_EXAMPLES:
        rewards = module.evaluate_population(TapeStack(cfg, (seed,), len(rows[0])), rows)
        assert [float(r).hex() for r in rewards] == [episode_reward(cfg, seed, row).hex() for row in rows]


def _tree_matches_scan(module):
    for _, overrides, *_ in PINNED_REGIMES[:3]:
        assert_brute_force_matches_scan(module, EnvConfig(**overrides), 11, 7, 8)


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
        "total += ((reward[0] + reward[1]) + reward[2]) + reward[3]",
        "total += (reward[0] + reward[1]) + (reward[2] + reward[3])",
        "the step reward's sum is reassociated in pairs",
        _evaluator_matches_episode_reward,
    ),
    (
        "planners",
        "total += ((reward[0] + reward[1]) + reward[2]) + reward[3]",
        "total += reward[0] + (reward[1] + (reward[2] + reward[3]))",
        "the step reward's sum is folded from the right",
        _evaluator_matches_episode_reward,
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
    from sortplant import planners

    for check in {row[4] for row in MUTANTS}:
        check(planners)
