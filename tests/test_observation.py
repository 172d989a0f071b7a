"""Observation vector: layout, initial values, documented ranges."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from sortplant.config import EnvConfig
from sortplant.env import OBS_SIZE, Container, build_observation, observation_ranges, reset, step

CFG = EnvConfig()


def test_fresh_reset_layout():
    state, obs = reset(CFG, 11)
    assert len(obs) == OBS_SIZE
    # belt encodings populated from the tape batches of t = -2 and -1
    assert obs[4] > 0.0 and obs[9] > 0.0
    # accuracies report the baseline before the first sort
    assert list(obs[10:14]) == [CFG.baseline_accuracy] * 4
    # containers empty: zero fill, purity reported at threshold, zero deviation
    assert list(obs[14:19]) == [0.0] * 5
    assert tuple(obs[19:23]) == CFG.purity_thresholds
    assert list(obs[23:27]) == [0.0] * 4
    # presses idle, no action yet, t = 0
    assert list(obs[27:33]) == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]


def test_purity_deviation_component():
    state, _ = reset(CFG, 0)
    state.containers[0] = Container([0.87, 0.13, 0.0, 0.0])
    obs = build_observation(state)
    assert obs[19] == pytest.approx(0.87, rel=1e-12)
    assert obs[23] == pytest.approx(0.02, rel=1e-9)


def test_press_and_action_components():
    state, _ = reset(CFG, 0)
    result = step(state, 1)
    assert result.observation[29] == 1.0
    assert result.observation[30] == pytest.approx(1 / CFG.episode_len)
    state.presses[0].busy_until = state.t + 2
    obs = build_observation(state)
    assert obs[27] == pytest.approx(2 / CFG.press_duration)
    assert obs[28] == 0.0


def test_seasonal_phase_components():
    cfg = EnvConfig(seasonal_period=40)
    state, _ = reset(cfg, 0)
    for _ in range(10):  # quarter period
        step(state, 0)
    obs = build_observation(state)
    assert obs[31] == pytest.approx(1.0, abs=1e-12)  # sin peak
    assert obs[32] == pytest.approx(0.0, abs=1e-12)


def test_ranges_hold_under_fuzzed_stepping():
    ranges = observation_ranges(CFG)
    assert len(ranges) == OBS_SIZE
    rng = random.Random(99)
    state, obs = reset(CFG, 123)
    for step_count in range(1000):
        if state.t >= CFG.episode_len:
            state, obs = reset(CFG, rng.randrange(10**9))
        obs = step(state, rng.randrange(2)).observation
        assert obs.shape == (OBS_SIZE,)
        assert np.all(np.isfinite(obs))
        for i, (lo, hi) in enumerate(ranges):
            assert lo - 1e-12 <= obs[i] <= hi + 1e-12, f"component {i} out of range: {obs[i]}"


def test_observation_is_pure_function_of_state():
    state, _ = reset(CFG, 5)
    for _ in range(10):
        step(state, 1)
    a = build_observation(state)
    b = build_observation(state)
    assert np.array_equal(a, b)
    assert a.dtype == np.float64
