"""Counter-based noise source shared by every stochastic component.

Each draw is a pure function of (seed, stream, step, channel): no generator
state, no dependence on call order or action history.  This is what lets a
planner evaluate many action sequences against the same frozen future.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INV_2_53 = 2.0**-53
# the same constants as numpy scalars, for noise_block
_U_GOLDEN, _U_MIX_A, _U_MIX_B = np.uint64(_GOLDEN), np.uint64(_MIX_A), np.uint64(_MIX_B)
_U11, _U27, _U30, _U31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)


class Stream(IntEnum):
    """Independent draw streams; the numeric ids are part of the determinism
    contract and must never change."""

    INPUT_SIZE = 1
    INPUT_MIX = 2
    JITTER = 3
    POLICY = 4


def mix64(z: int) -> int:
    """One SplitMix64 round: add the golden-ratio increment, then finalize."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _stream_key(seed: int, stream: int) -> int:
    """The (seed, stream) prefix of every draw key."""
    return mix64(mix64(seed & _MASK64) ^ int(stream))


def noise_draw(seed: int, stream: int, t: int, channel: int) -> float:
    """Uniform draw in [0, 1) keyed by (seed, stream, step, channel).

    Negative step indices map onto their 64-bit two's complement, so the
    batches already on the belt at reset (t = -delay .. -1) use the same
    recipe as in-episode draws.
    """
    u = mix64(mix64(_stream_key(seed, stream) ^ (t & _MASK64)) ^ (channel & _MASK64))
    return (u >> 11) * _INV_2_53


def noise_draws(seed: int, stream: int, t: int, channels: int) -> list[float]:
    """``[noise_draw(seed, stream, t, c) for c in range(channels)]`` bit for
    bit, with the (seed, stream, step) key mixed once."""
    key = mix64(_stream_key(seed, stream) ^ (t & _MASK64))
    return [(mix64(key ^ c) >> 11) * _INV_2_53 for c in range(channels)]


def noise_block(seeds: Sequence[int], stream: int, t0: int, steps: int, channels: int) -> np.ndarray:
    """Array twin of :func:`noise_draw` over many seeds: entry ``[k, i, c]``
    is ``noise_draw(seeds[k], stream, t0 + i, c)`` bit for bit.

    The SplitMix64 rounds run in numpy ``uint64``, whose arithmetic wraps mod
    2**64 as the masked integer rounds do; each seed's (seed, stream) prefix
    is mixed once in Python.  ``t0`` may be any integer: only its low 64 bits
    enter.
    """
    keys = np.array([_stream_key(seed, stream) for seed in seeds], dtype=np.uint64)
    ts = np.arange(steps, dtype=np.uint64)
    ts += np.uint64(t0 & _MASK64)
    z = _mix64_array(keys[:, None] ^ ts)[:, :, None] ^ np.arange(channels, dtype=np.uint64)
    return (_mix64_array(z) >> _U11).astype(np.float64) * _INV_2_53


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` on every entry of a fresh ``uint64`` array, in place."""
    z += _U_GOLDEN
    z ^= z >> _U30
    z *= _U_MIX_A
    z ^= z >> _U27
    z *= _U_MIX_B
    z ^= z >> _U31
    return z


def derive_seed(base: int, salt: int) -> int:
    """Deterministically derive an independent 64-bit seed from (base, salt).

    Used to give each per-environment optimizer run its own sequential stream
    without correlating runs across environment seeds.
    """
    return mix64(mix64(base & _MASK64) ^ (salt & _MASK64))
