"""Seeded, cross-platform deterministic random sampling.

Reports and property sweeps must be byte-identical across runs and platforms,
so sampling is built on splitmix64 (pure 64-bit integer arithmetic) instead of
a platform RNG.  Every consumer derives child streams from an explicit seed.
Sampled checks keep a running worst of their per-sample errors, like ``max``
except that a NaN sample sticks: ``max(worst, nan)`` keeps ``worst``, so a
NaN would pass a check vacuously, while as the worst it fails every
``<= tolerance`` test.

The stream is computed `_BLOCK` draws at a time: successive states sit side
by side in one Python int, one 128-bit lane each, so every mixing step is a
single big-integer operation over the whole block.  A 64-bit lane times a
64-bit constant stays below 2**128, and each step masks away the bits a shift
pulls in from the next lane, so no lane disturbs another and every draw equals
the scalar splitmix64 output bit for bit.  Lanes are read out little-endian,
whatever the machine's byte order.  `SplitMix64.words` yields the 53-bit
words and `SplitMix64.draws` maps each to its double w * 2**-53 in [0, 1),
both inside C-level iterators, so no Python frame runs per draw.

A hot loop may read `words` and fold 2**-53 into its affine map: it draws
``lo + (span * 2**-53) * w`` where ``uniform(lo, lo + span)`` draws
``lo + span * (w * 2**-53)``, and so skips the float `draws` makes per word.
The two are the same double whenever ``span * 2**-53`` is exact, as it is for
every span of at least 2**-969: w * 2**-53 is exact for w < 2**53, so both
forms round the one real product span * w * 2**-53 once.  A narrower span may
round, so a loop whose span is not a constant reads `draws` or `unit`.
"""

import operator
import struct
from itertools import chain, count, repeat

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 256


def _lanes(words) -> int:
    """The words side by side, word k in bits [128k, 128k + 128)."""
    return int.from_bytes(b"".join(w.to_bytes(16, "little") for w in words), "little")


_ONES = _lanes([1] * _BLOCK)
_STEPS = _lanes([(k + 1) * _GOLDEN for k in range(_BLOCK)])  # lane k: state + (k+1)*golden
_M64 = _lanes([_MASK] * _BLOCK)
_M53 = _lanes([_MASK >> 11] * _BLOCK)
_UNPACK = struct.Struct("<" + "Q8x" * _BLOCK).unpack


def _block(state: int) -> tuple[int, ...]:
    """Top 53 bits of the `_BLOCK` splitmix64 outputs that follow `state`."""
    z = ((state & _MASK) * _ONES + _STEPS) & _M64
    z = ((z ^ (z >> 30)) & _M64) * 0xBF58476D1CE4E5B9 & _M64
    z = ((z ^ (z >> 27)) & _M64) * 0x94D049BB133111EB & _M64
    return _UNPACK((((z ^ (z >> 31)) >> 11) & _M53).to_bytes(16 * _BLOCK, "little"))


class SplitMix64:
    """splitmix64 stream; uniform doubles use the top 53 bits.

    ``words`` iterates over the stream's 53-bit ints, ``draws`` over their
    doubles in [0, 1), and ``unit()`` returns the next double; all three read
    one stream.  ``uniform(lo, hi)`` returns ``lo + (hi - lo) * unit()``.  A hot
    loop binds one of them once; see the module docstring for when it may read
    ``words`` with 2**-53 folded into its span.
    """

    def __init__(self, seed: int):
        # each block starts from the last pre-mix state of the one before
        self.words = chain.from_iterable(map(_block, count(seed & _MASK, _BLOCK * _GOLDEN)))
        self.draws = map(operator.mul, self.words, repeat(2.0 ** -53))
        self.unit = self.draws.__next__

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * self.unit()


def child_seed(seed: int, tag: int) -> int:
    """Stable derived seed for per-family / per-case streams."""
    return ((seed * _GOLDEN) ^ ((tag + 1) * 0xBF58476D1CE4E5B9)) & _MASK
