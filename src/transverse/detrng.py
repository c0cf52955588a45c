"""Fixed deterministic randomness for reproducible experiments.

The stream is splitmix64 (Steele, Lea, Flood 2014): state advances by the
odd constant 0x9E3779B97F4A7C15 and each output is a finalized mix of the
state.  Shuffling uses the decreasing-index exchange shuffle, drawing the
exchange partner as ``next() % (i + 1)``.  Both are pinned here, rather than
delegated to the stdlib, so that certificates replay byte-for-byte across
interpreter releases.  The tiny modulo bias is irrelevant at the sizes this
library shuffles (dozens of projective points).
"""

from __future__ import annotations

__all__ = ["SplitMix64", "exchange_shuffle"]

_MASK = (1 << 64) - 1
# the state step of one draw: n draws move the state by n * _GAMMA
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """64-bit splitmix generator with a fixed, documented update rule."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next() % bound


def exchange_shuffle(items: list, rng: SplitMix64) -> None:
    """In-place decreasing-index exchange shuffle (Fisher-Yates)."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
