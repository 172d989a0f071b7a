"""Container bookkeeping and pressing: thresholds, queueing, overflow."""

from __future__ import annotations

import hashlib

import pytest

from sortplant.config import EnvConfig
from sortplant.env import Container, advance, reset, update_containers_and_presses
from sortplant.planners import episode_reward


def fresh_state(t=0, **cfg_kwargs):
    state, _ = reset(EnvConfig(**cfg_kwargs), 0)
    state.t = t
    return state


def deposit_only(material, amount):
    deposits = [[0.0] * 4 for _ in range(5)]
    deposits[material][material] = amount
    return deposits


def test_threshold_crossing_presses_immediately_when_idle():
    state = fresh_state(t=6)
    state.containers[0] = Container([150.0, 0.0, 0.0, 0.0])
    bales = update_containers_and_presses(state, deposit_only(0, 60.0))
    assert len(bales) == 1
    bale = bales[0]
    assert bale.material == 0
    assert bale.size == pytest.approx(210.0, rel=1e-12)
    assert bale.purity == 1.0
    assert bale.pressed_at == 6
    assert state.containers[0].total == 0.0
    assert state.containers[0].pending_since is None
    assert state.presses[0].busy_until == 6 + 3


def test_busy_presses_defer_until_one_frees():
    state = fresh_state(t=0)
    state.presses[0].busy_until = 2
    state.presses[1].busy_until = 4
    state.containers[2] = Container([0.0, 0.0, 190.0, 20.0])
    bales = update_containers_and_presses(state, deposit_only(2, 10.0))
    assert bales == []
    assert state.containers[2].pending_since is not None
    assert state.containers[2].total == pytest.approx(220.0)

    # nothing frees at t=1
    state.t = 1
    assert update_containers_and_presses(state, [[0.0] * 4 for _ in range(5)]) == []
    # press 0 frees at t=2: the pending container is baled on that step
    state.t = 2
    bales = update_containers_and_presses(state, [[0.0] * 4 for _ in range(5)])
    assert len(bales) == 1
    assert bales[0].size == pytest.approx(220.0)
    assert bales[0].pressed_at == 2
    assert state.presses[0].busy_until == 2 + 3


def test_fifo_order_with_index_tiebreak():
    state = fresh_state(t=0)
    state.presses[0].busy_until = 5
    state.presses[1].busy_until = 5
    # containers 1 and 3 cross on step 0, container 0 on step 1
    deposits = [[0.0] * 4 for _ in range(5)]
    deposits[1][1] = 250.0
    deposits[3][3] = 240.0
    assert update_containers_and_presses(state, deposits) == []
    state.t = 1
    assert update_containers_and_presses(state, deposit_only(0, 260.0)) == []
    state.t = 5
    bales = update_containers_and_presses(state, [[0.0] * 4 for _ in range(5)])
    # two presses free together: first-crossed first, ties by container index
    assert [b.material for b in bales] == [1, 3]
    state.t = 8
    bales = update_containers_and_presses(state, [[0.0] * 4 for _ in range(5)])
    assert [b.material for b in bales] == [0]


def test_overflow_above_capacity_diverts_to_e():
    state = fresh_state(t=0)
    state.presses[0].busy_until = 10
    state.presses[1].busy_until = 10
    state.containers[1] = Container([0.0, 300.0, 0.0, 0.0])
    state.containers[1].pending_since = 0  # crossed earlier, never pressed
    bales = update_containers_and_presses(state, deposit_only(1, 40.0))
    assert bales == []
    assert state.containers[1].total == pytest.approx(300.0)
    assert state.containers[4].contents[1] == pytest.approx(40.0)


def test_partial_overflow_fills_to_capacity_then_diverts():
    state = fresh_state(t=0)
    state.presses[0].busy_until = 10
    state.presses[1].busy_until = 10
    state.containers[1] = Container([0.0, 290.0, 0.0, 0.0])
    state.containers[1].pending_since = 0
    deposits = [[0.0] * 4 for _ in range(5)]
    deposits[1] = [30.0, 20.0, 10.0, 0.0]  # 60 units arriving, 10 of headroom
    update_containers_and_presses(state, deposits)
    assert state.containers[1].total == pytest.approx(300.0)
    # the diverted 50 units keep the deposit's material mix
    assert state.containers[4].contents == pytest.approx([25.0, 16.666666666666668, 8.333333333333334, 0.0])
    total = state.containers[1].total + state.containers[4].total
    assert total == pytest.approx(290.0 + 60.0, rel=1e-12)


def test_container_e_is_pressed_with_zero_purity():
    state = fresh_state(t=3)
    deposits = [[0.0] * 4 for _ in range(5)]
    deposits[4] = [100.0, 60.0, 30.0, 20.0]
    bales = update_containers_and_presses(state, deposits)
    assert len(bales) == 1
    assert bales[0].material == 4
    assert bales[0].purity == 0.0
    assert bales[0].size == pytest.approx(210.0)


def test_bale_purity_reflects_contents():
    state = fresh_state(t=0)
    state.containers[2] = Container([10.0, 0.0, 160.0, 10.0])
    bales = update_containers_and_presses(state, deposit_only(2, 20.0))
    assert len(bales) == 1
    assert bales[0].purity == pytest.approx(180.0 / 200.0, rel=1e-12)


# Frozen reference for the press queue: seed 11 under a fixed action pattern,
# one row per press regime.  Each row holds repr(episode_reward) and the sha256
# of repr([(material, size, purity, pressed_at), ...]) over the episode's bales.
# press0 and press1 agree because a press takes at most one job per step.
PINNED_ACTIONS = [(t // 3 + t * t) % 2 for t in range(100)]
PINNED_REGIMES = [
    ("overflow", dict(container_capacity=200.0, press_duration=12), "-12.947387701085168",
     "6e3d2e9a3b13c925260c05c0be333956ba4d655c6957593448ffab5aaad96e97", 16),
    ("press0", dict(press_duration=0), "-13.125810204450683",
     "1fde41d56169680cfda6125b296fe8a541e6f79679c2d102c3a721acfe65353b", 25),
    ("press0-crowded", dict(pressing_threshold=20.0, container_capacity=20.0, press_duration=0), "-0.3172174801501416",
     "4fa6d5ba3aadae78d29e3a34a6d6f28030d71429559dba8e37c51d5a21d01768", 179),
    ("press1", dict(press_duration=1), "-13.125810204450683",
     "1fde41d56169680cfda6125b296fe8a541e6f79679c2d102c3a721acfe65353b", 25),
    ("press2-crowded", dict(pressing_threshold=20.0, container_capacity=30.0, press_duration=2), "-13.39882423614573",
     "918cdebb0421ef4c6cba6f6a87b1010503df01d929df503d9752f372ee823d74", 100),
    ("press40", dict(press_duration=40), "-3.988486822712542",
     "a8233aecfd43b209c2a3ce2035f808d508260346529324fcf0db5f74b4a89fee", 6),
    ("belt0", dict(belt_delay=0), "-11.973952182741828",
     "5cbdd1b22778f4e0fa00a5834ab4a6fb5d352e426a522497a9f1f2f7b7e7cc4c", 24),
]  # fmt: skip


@pytest.mark.parametrize(
    "overrides, reward_repr, bales_sha256, n_bales",
    [pytest.param(*row[1:], id=row[0]) for row in PINNED_REGIMES],
)
def test_press_regimes_match_pinned_reference(overrides, reward_repr, bales_sha256, n_bales):
    cfg = EnvConfig(**overrides)
    assert repr(episode_reward(cfg, 11, PINNED_ACTIONS)) == reward_repr
    state, _ = reset(cfg, 11)
    for action in PINNED_ACTIONS:
        advance(state, action)
    bales = repr([(b.material, b.size, b.purity, b.pressed_at) for b in state.bales])
    assert len(state.bales) == n_bales
    assert hashlib.sha256(bales.encode()).hexdigest() == bales_sha256
