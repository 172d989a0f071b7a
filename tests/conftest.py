"""Shared fixtures."""

from __future__ import annotations

import pytest

from sortplant import env
from sortplant.rng import Stream


@pytest.fixture
def drawn_steps(monkeypatch):
    """The input steps the tape draws, in draw order.

    Every block draws its batch sizes with one ``noise_block`` call on the
    INPUT_SIZE stream, so those calls list every step the tape generated.
    """
    steps: list[int] = []
    real = env.noise_block

    def recording(seed, stream, t0, count, channels):
        if stream == Stream.INPUT_SIZE:
            steps.extend(range(t0, t0 + count))
        return real(seed, stream, t0, count, channels)

    monkeypatch.setattr(env, "noise_block", recording)
    return steps
