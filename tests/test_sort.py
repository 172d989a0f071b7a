"""Sorting cascade: hand-traced flows, contamination off, mass conservation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortplant.config import EnvConfig
from sortplant.env import InputTape, MaterialBatch, effective_accuracy, sort_batch
from sortplant.rng import Stream, noise_draw

NO_JITTER = (0.0, 0.0, 0.0, 0.0)


def make_batch(quantities):
    return MaterialBatch(list(quantities), sum(quantities))


def stream_jitters(config, seed, t):
    """Step t's station jitters: the jitter stream's draws, scaled."""
    return tuple((2.0 * noise_draw(seed, Stream.JITTER, t, m) - 1.0) * config.accuracy_jitter for m in range(4))


def trace_sort(quantities, mode, config, jitters=NO_JITTER):
    """Independent restatement of the station flow equations."""
    load = min(sum(quantities) / config.batch_max, 1.0)
    r = list(quantities)
    deposits = [[0.0] * 4 for _ in range(5)]
    for m in range(4):
        a = effective_accuracy(mode, m, load, config, jitters[m])
        processed = r[m]
        own = a * processed
        deposits[m][m] = own
        r[m] = processed - own
        false_volume = (1.0 - a) * config.contamination_coeff * processed
        pool = sum(r[j] for j in range(4) if j != m)
        if false_volume > 0.0 and pool > 0.0:
            frac = min(false_volume / pool, 1.0)
            for j in range(4):
                if j != m:
                    deposits[m][j] = frac * r[j]
                    r[j] -= deposits[m][j]
    deposits[4] = r
    return deposits


def test_empty_batch_gives_zero_deposits():
    out = sort_batch(make_batch([0, 0, 0, 0]), 0, EnvConfig(), NO_JITTER)
    assert all(v == 0.0 for row in out.deposits for v in row)


def test_single_material_hand_trace():
    # pure-A batch, boosted station, no jitter, degradation off: the one
    # station that processes anything captures 98% and has no foreign pool
    cfg = EnvConfig(degradation_coeff=0.0)
    out = sort_batch(make_batch([10, 0, 0, 0]), 0, cfg, NO_JITTER)
    dep = out.deposits
    assert dep[0][0] == pytest.approx(9.8, rel=1e-12)
    assert sum(dep[0]) == pytest.approx(9.8, rel=1e-12)  # container A is pure
    assert sum(dep[1]) == 0.0 and sum(dep[2]) == 0.0 and sum(dep[3]) == 0.0
    assert dep[4][0] == pytest.approx(0.2, rel=1e-12)  # leftover A to container E
    assert sum(sum(row) for row in dep) == pytest.approx(10.0, rel=1e-12)
    assert out.accuracies[0] == pytest.approx(0.98, rel=1e-15)


def test_mixed_batch_matches_independent_trace():
    cfg = EnvConfig(degradation_coeff=0.0)
    q = [10.0, 20.0, 0.0, 5.0]
    out = sort_batch(make_batch(q), 0, cfg, NO_JITTER)
    expected = trace_sort(q, 0, cfg)
    for c in range(5):
        assert out.deposits[c] == pytest.approx(expected[c], rel=1e-12, abs=1e-15)
    # spot-check the first station's numbers by hand:
    # own = 0.98*10, false volume = 0.02*0.75*10 = 0.15 over a pool of 25
    assert out.deposits[0][0] == pytest.approx(9.8, rel=1e-12)
    assert out.deposits[0][1] == pytest.approx(20.0 * 0.15 / 25.0, rel=1e-12)
    assert out.deposits[0][3] == pytest.approx(5.0 * 0.15 / 25.0, rel=1e-12)


def test_deposit_purity_tracks_station_accuracy():
    # with a large enough foreign pool, purity of a station's deposit is
    # a / (a + (1-a)*kappa) regardless of composition
    cfg = EnvConfig(degradation_coeff=0.0)
    out = sort_batch(make_batch([10.0, 30.0, 30.0, 30.0]), 1, cfg, NO_JITTER)
    row = out.deposits[0]  # station A unboosted in mode 1
    purity = row[0] / sum(row)
    assert purity == pytest.approx(0.80 / (0.80 + 0.20 * cfg.contamination_coeff), rel=1e-12)


def test_contamination_off_means_pure_containers():
    cfg = EnvConfig(contamination_coeff=0.0)
    out = sort_batch(make_batch([12, 7, 3, 9]), 1, cfg, stream_jitters(cfg, 5, 2))
    for c in range(4):
        for j in range(4):
            if j != c:
                assert out.deposits[c][j] == 0.0
        assert out.deposits[c][c] > 0.0


def test_jitter_draws_come_from_the_jitter_stream():
    cfg = EnvConfig()
    tape = InputTape(cfg, 1)
    outcomes = []
    for t in (0, 0, 1):
        out = sort_batch(tape.batch(t - cfg.belt_delay), 0, cfg, stream_jitters(cfg, 1, t))
        assert out == tape.sort_outcome(t, 0)
        outcomes.append(out)
    a, b, c = outcomes
    assert a.accuracies == b.accuracies
    assert a.accuracies != c.accuracies


quantity = st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    q=st.lists(quantity, min_size=4, max_size=4),
    mode=st.integers(0, 1),
    seed=st.integers(0, 2**32),
    t=st.integers(0, 500),
)
def test_mass_conserved_and_deposits_nonnegative(q, mode, seed, t):
    cfg = EnvConfig(batch_max=5_000.0, batch_min=0.0)
    out = sort_batch(make_batch(q), mode, cfg, stream_jitters(cfg, seed, t))
    total_in = sum(q)
    total_out = sum(sum(row) for row in out.deposits)
    assert total_out == pytest.approx(total_in, rel=1e-9, abs=1e-9)
    assert all(v >= 0.0 for row in out.deposits for v in row)


@settings(max_examples=200, deadline=None)
@given(q=st.lists(quantity, min_size=4, max_size=4), mode=st.integers(0, 1))
def test_flows_match_independent_trace(q, mode):
    cfg = EnvConfig(batch_max=5_000.0, batch_min=0.0)
    out = sort_batch(make_batch(q), mode, cfg, NO_JITTER)
    expected = trace_sort(q, mode, cfg)
    for c in range(5):
        assert out.deposits[c] == pytest.approx(expected[c], rel=1e-12, abs=1e-12)
