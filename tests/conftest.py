"""Shared fixtures."""

from __future__ import annotations

import pytest

from sortplant import env
from sortplant.rng import Stream


@pytest.fixture
def drawn_steps(monkeypatch):
    """The input steps the tapes draw, in draw order, once per seed.

    Every block draws its batch sizes with one ``noise_block`` call on the
    INPUT_SIZE stream for all the seeds it fills, so those calls list every
    step the tapes generated.
    """
    steps: list[int] = []
    real = env.noise_block

    def recording(seeds, stream, t0, count, channels):
        if stream == Stream.INPUT_SIZE:
            for _ in seeds:
                steps.extend(range(t0, t0 + count))
        return real(seeds, stream, t0, count, channels)

    monkeypatch.setattr(env, "noise_block", recording)
    return steps
