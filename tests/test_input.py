"""Input model: determinism, seasonal weighting, golden vector."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortplant.config import EnvConfig
from sortplant.env import generate_input
from sortplant.rng import Stream, noise_draw

# frozen from the first run of the recipe below (defaults, seed 42, t 0)
GOLDEN_BATCH_42_0 = [
    5.340078163137481,
    18.665451592880753,
    11.219665561857013,
    4.240226549553766,
]


def recipe(config: EnvConfig, seed: int, t: int) -> list[float]:
    # independent restatement of the input recipe, kept free of env.py code
    u0 = noise_draw(seed, Stream.INPUT_SIZE, t, 0)
    total = config.batch_min + u0 * (config.batch_max - config.batch_min)
    weights = []
    for m in range(4):
        u = noise_draw(seed, Stream.INPUT_MIX, t, m)
        w = u * (1.0 + config.seasonal_amplitude * math.sin(2 * math.pi * t / config.seasonal_period + m * math.pi / 2))
        weights.append(max(w, 0.01))
    return [total * w / sum(weights) for w in weights]


def test_golden_vector_seed42():
    cfg = EnvConfig()
    batch = generate_input(cfg, 42, 0)
    assert batch.quantities == pytest.approx(GOLDEN_BATCH_42_0, rel=1e-12)
    assert recipe(cfg, 42, 0) == pytest.approx(GOLDEN_BATCH_42_0, rel=1e-12)
    assert batch.total == pytest.approx(sum(GOLDEN_BATCH_42_0), rel=1e-12)


def test_deterministic():
    cfg = EnvConfig()
    a = generate_input(cfg, 7, 13)
    b = generate_input(cfg, 7, 13)
    assert a.quantities == b.quantities


def test_no_seasonality_means_quantities_track_raw_draws():
    cfg = EnvConfig(seasonal_amplitude=0.0)
    batch = generate_input(cfg, 5, 9)
    draws = [max(noise_draw(5, Stream.INPUT_MIX, 9, m), 0.01) for m in range(4)]
    total = sum(batch.quantities)
    expected = [total * d / sum(draws) for d in draws]
    assert batch.quantities == pytest.approx(expected, rel=1e-12)


def test_negative_step_supported():
    # at reset the belt holds the batches of t = -delay .. -1
    cfg = EnvConfig()
    batch = generate_input(cfg, 3, -2)
    assert all(q > 0 for q in batch.quantities)
    assert generate_input(cfg, 3, -2).quantities == batch.quantities


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), t=st.integers(min_value=-5, max_value=10_000))
def test_batch_bounds(seed, t):
    cfg = EnvConfig()
    batch = generate_input(cfg, seed, t)
    assert all(q >= 0.0 for q in batch.quantities)
    assert cfg.batch_min <= batch.total <= cfg.batch_max * (1.0 + cfg.seasonal_amplitude) + 1e-9
    assert batch.total <= cfg.batch_max + 1e-9
