"""Array-backed input tape: every block entry of both readers against the
scalar reference path, stacked tapes against one-seed tapes, and a cost
bounded by the blocks a run touches."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sortplant.cli import main
from sortplant.config import EnvConfig
from sortplant.env import BLOCK, STACK_ROWS, InputTape, TapeStack, _fill_block, generate_input, head_batches, sort_batch
from sortplant.rng import Stream, noise_block, noise_draw, noise_draws
from test_sort import stream_jitters


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


# large amplitude and jitter reach the 0.01 weight floor and both accuracy
# clamps; contamination 1 with a weak baseline pushes the grab fraction past 1
tape_configs = st.builds(
    lambda threshold, capacity_ratio, belt_delay, jitter, period, amplitude, batch_min, batch_span, baseline, boost_noise,
    degradation, contamination: EnvConfig(
        pressing_threshold=threshold,
        container_capacity=threshold * capacity_ratio,
        belt_delay=belt_delay,
        accuracy_jitter=jitter,
        seasonal_period=period,
        seasonal_amplitude=amplitude,
        batch_min=batch_min,
        batch_max=batch_min + batch_span,
        baseline_accuracy=min(baseline, 1.0 - boost_noise),
        boost_noise=boost_noise,
        degradation_coeff=degradation,
        contamination_coeff=contamination,
    ),
    threshold=st.floats(20.0, 400.0),
    capacity_ratio=st.just(1.0) | st.floats(1.0, 2.0),
    belt_delay=st.sampled_from([0, 1, 10**30]) | st.integers(0, 3 * BLOCK),
    jitter=st.just(0.0) | st.floats(0.0, 0.6),
    period=st.integers(1, 200),
    amplitude=st.floats(0.0, 3.0),
    batch_min=st.just(0.0) | st.floats(0.0, 100.0),
    batch_span=st.floats(0.001, 200.0),
    baseline=st.floats(0.01, 1.0),
    boost_noise=st.floats(0.0, 0.5),
    degradation=st.floats(0.0, 1.0),
    contamination=st.just(1.0) | st.floats(0.0, 1.0),
)
seeds = st.sampled_from([0, 2**64 - 1, -7]) | st.integers(-(2**70), 2**70)


@settings(max_examples=40, deadline=None)
@given(cfg=tape_configs, seed=seeds, t=st.integers(-4 * BLOCK, 4 * BLOCK))
@example(cfg=EnvConfig(), seed=0, t=0)
@example(cfg=EnvConfig(belt_delay=0, accuracy_jitter=0.0), seed=2**64 - 1, t=-1)
@example(cfg=EnvConfig(belt_delay=1, container_capacity=200.0), seed=-3, t=BLOCK)
@example(cfg=EnvConfig(belt_delay=10**30, pressing_threshold=300.0), seed=5, t=-(10**30))
# both accuracy clamps, and batches whose rounded total exceeds batch_max
@example(cfg=EnvConfig(accuracy_jitter=0.6, boost_noise=0.0, seasonal_amplitude=3.0), seed=11, t=0)
@example(
    cfg=EnvConfig(
        batch_min=50.0, batch_max=50.0, accuracy_jitter=0.6, baseline_accuracy=0.01, degradation_coeff=1.0, contamination_coeff=1.0
    ),
    seed=12,
    t=0,
)
def test_tape_block_matches_scalar_reference(cfg, seed, t):
    # one tape block of steps, read through both readers
    tape = InputTape(cfg, seed)
    stack = TapeStack(cfg, (seed,), BLOCK)
    first = t // BLOCK * BLOCK
    for s in range(first, first + BLOCK):
        head = generate_input(cfg, seed, s - cfg.belt_delay)
        batch = tape.batch(s - cfg.belt_delay)
        assert hexes(batch.quantities) == hexes(head.quantities)
        assert batch.total.hex() == head.total.hex()
        jitters = stream_jitters(cfg, seed, s)
        deposits, totals = stack.sorted_deposits(s)
        for action in (0, 1):
            ref = sort_batch(head, action, cfg, jitters)
            outcome = tape.sort_outcome(s, action)
            assert hexes(outcome.deposits) == hexes(ref.deposits)
            assert hexes(outcome.accuracies) == hexes(ref.accuracies)
            assert hexes(deposits[:, :, action]) == hexes(ref.deposits)
            assert hexes(totals[:, action]) == hexes([((d[0] + d[1]) + d[2]) + d[3] for d in ref.deposits[:4]])


@given(seed=seeds, stream=st.sampled_from(list(Stream)), t0=st.integers(-(2**70), 2**70))
@example(seed=0, stream=Stream.POLICY, t0=2**64 - 2)
def test_noise_block_matches_noise_draw(seed, stream, t0):
    stacked = (seed, seed ^ 1, -seed)
    block = noise_block(stacked, stream, t0, 4, 3)
    assert block.shape == (3, 4, 3)
    assert block.tolist() == [[[noise_draw(s, stream, t0 + i, c) for c in range(3)] for i in range(4)] for s in stacked]
    assert noise_draws(seed, stream, t0, 3) == block[0, 0].tolist()


@settings(max_examples=40, deadline=None)
@given(
    cfg=tape_configs,
    stacked=st.lists(seeds, min_size=1, max_size=5),
    t=st.integers(-4 * BLOCK, 4 * BLOCK),
    horizon=st.integers(1, 2 * STACK_ROWS),
)
@example(cfg=EnvConfig(belt_delay=0), stacked=[0, 2**64 - 1, -7], t=0, horizon=100)
@example(cfg=EnvConfig(belt_delay=1, accuracy_jitter=0.0), stacked=[-3, -3, 0], t=-1, horizon=14)
@example(cfg=EnvConfig(belt_delay=10**30), stacked=[2**64 - 1, 0, 5, -(2**70)], t=BLOCK, horizon=STACK_ROWS)
def test_stacked_fill_matches_one_seed_tapes(cfg, stacked, t, horizon):
    # every array of a stacked block, seed by seed, is the one-seed tape's block
    t0 = t // BLOCK * BLOCK
    block = _fill_block(cfg, stacked, t0, BLOCK)
    for k, seed in enumerate(stacked):
        own = _fill_block(cfg, (seed,), t0, BLOCK)
        for name, array in zip(block._fields, block):
            assert hexes(array[k]) == hexes(getattr(own, name)[0]), name
    # and the stack's per-step tables and the stacked head batches of steps
    # 0 .. n-1 agree with each seed alone, whose block length differs, and
    # with its tape
    # a block holds at most the horizon's steps
    stack = TapeStack(cfg, stacked, horizon)
    assert stack.block_len == min(STACK_ROWS // len(stacked), horizon)
    deposits, totals = stack.sorted_deposits(t)
    n = 2 * BLOCK
    heads = head_batches(cfg, stacked, -cfg.belt_delay, n)
    for k, seed in enumerate(stacked):
        own = TapeStack(cfg, (seed,), STACK_ROWS)
        own_deposits, own_totals = own.sorted_deposits(t)
        assert hexes(deposits[:, :, 2 * k : 2 * k + 2]) == hexes(own_deposits)
        assert hexes(totals[:, 2 * k : 2 * k + 2]) == hexes(own_totals)
        own_heads = head_batches(cfg, (seed,), -cfg.belt_delay, n)
        assert all(hexes(array[k]) == hexes(own_array[0]) for array, own_array in zip(heads, own_heads))
        tape = InputTape(cfg, seed)
        batches = [tape.batch(s - cfg.belt_delay) for s in range(n)]
        assert hexes(heads[0][k]) == hexes([batch.quantities for batch in batches])
        assert hexes(heads[1][k]) == hexes([batch.total for batch in batches])
        for action in (0, 1):
            assert hexes(own_deposits[:, :, action]) == hexes(tape.sort_outcome(t, action).deposits)


def test_short_simulate_fills_only_the_blocks_it_reads(drawn_steps, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("episode_len: 100000\n")
    out = tmp_path / "t.jsonl"
    assert main(["simulate", "--config", str(cfg), "--seed", "1", "--policy", "rule", "--len", "5", "--out", str(out)]) == 0
    # steps 0..4 sort, and their observations read, batches of block 0 only
    assert drawn_steps == list(range(-2, BLOCK - 2))
