"""Seeded, cross-platform deterministic random sampling.

Reports and property sweeps must be byte-identical across runs and platforms,
so sampling is built on splitmix64 (pure 64-bit integer arithmetic) instead of
a platform RNG.  Every consumer derives child streams from an explicit seed.
Sampled checks fold their per-sample errors with `_worse`.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 stream; uniform doubles use the top 53 bits."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        self._state = z = (self._state + _GOLDEN) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return lo + (hi - lo) * (((z ^ (z >> 31)) >> 11) * 2.0 ** -53)


def child_seed(seed: int, tag: int) -> int:
    """Stable derived seed for per-family / per-case streams."""
    return ((seed * _GOLDEN) ^ ((tag + 1) * 0xBF58476D1CE4E5B9)) & _MASK


def _worse(worst: float, sample: float) -> float:
    """Running worst of sampled errors, like ``max`` but a NaN sample sticks.

    ``max(worst, nan)`` keeps ``worst``, so a NaN sample would pass a check
    vacuously; here it becomes the worst and fails every ``<= tolerance`` test.
    """
    return sample if sample > worst or sample != sample else worst
