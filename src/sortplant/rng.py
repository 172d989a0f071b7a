"""Counter-based noise source shared by every stochastic component.

Each draw is a pure function of (seed, stream, step, channel): no generator
state, no dependence on call order or action history.  This is what lets a
planner evaluate many action sequences against the same frozen future.
"""

from __future__ import annotations

from enum import IntEnum

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INV_2_53 = 2.0**-53


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


def noise_draw(seed: int, stream: int, t: int, channel: int) -> float:
    """Uniform draw in [0, 1) keyed by (seed, stream, step, channel).

    Negative step indices map onto their 64-bit two's complement, so the
    batches already on the belt at reset (t = -delay .. -1) use the same
    recipe as in-episode draws.
    """
    u = mix64(mix64(mix64(mix64(seed & _MASK64) ^ int(stream)) ^ (t & _MASK64)) ^ (channel & _MASK64))
    return (u >> 11) * _INV_2_53


def derive_seed(base: int, salt: int) -> int:
    """Deterministically derive an independent 64-bit seed from (base, salt).

    Used to give each per-environment optimizer run its own sequential stream
    without correlating runs across environment seeds.
    """
    return mix64(mix64(base & _MASK64) ^ (salt & _MASK64))
