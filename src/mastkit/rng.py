"""Deterministic random numbers with a portable, documented algorithm.

Generated trees must be reproducible from their seed across interpreter
versions and platforms, so randomness comes from SplitMix64 (Steele,
Lea and Flood's 2014 mixer) rather than from the interpreter's default
generator, whose distribution-level methods are not pinned.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """A 64-bit counter-based generator; one output per state increment."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def randrange(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` by rejection; 0 < bound <= 2**64."""
        if not 0 < bound <= 1 << 64:
            raise ValueError("bound must be in 1 .. 2**64")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def mix64(*parts: int) -> int:
    """Collapse integers into one well-spread 64-bit value.

    Used to derive independent stream seeds (per trial, per tree of a
    pair) from a base seed without overlapping the streams.
    """
    acc = 0x243F6A8885A308D3  # arbitrary odd constant
    for p in parts:
        acc = _mix((acc ^ (p & _MASK)) * 0x9E3779B97F4A7C15 & _MASK)
    return acc
