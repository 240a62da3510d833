"""The lab's one pseudo-random stream: SplitMix64 (Steele, Lea and Flood,
OOPSLA 2014) evaluated as a counter-based generator.

Draw k of seed s is the SplitMix64 output for the state s + (k + 1) gamma,
a pure function of (s, k): a block of draws is read from any offset with no
state carried between reads, and the same (seed, offset) gives the same
bits on every run. The arithmetic stays on uint64 arrays, where numpy wraps
modulo 2^64 without a warning (it warns on uint64 scalars).
"""

from __future__ import annotations

import numpy as np

SEEDS = 2**64  # a seed is an integer in [0, SEEDS)

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start .. start + count - 1 of the stream `seed`, as uniforms on
    [0, 1) with 53-bit resolution."""
    if not 0 <= seed < SEEDS:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed}")
    k = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.full(count, seed, dtype=np.uint64) + k * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX[0]
    z = (z ^ (z >> np.uint64(27))) * _MIX[1]
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


def box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms on [0, 1), one from each pair along the
    last axis (of length 2) by the Box-Muller transform; 1 - u[..., 0] lies
    in (0, 1], so the logarithm is finite."""
    return np.sqrt(-2.0 * np.log1p(-u[..., 0])) * np.cos(2.0 * np.pi * u[..., 1])
