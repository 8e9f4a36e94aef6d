"""splitmix64 against published reference outputs and the scalar oracle, the
uniform-double map, and the affine map with 2**-53 folded into its width."""

import math
import struct

import pytest

from oracles import ScalarSplitMix64
from ssmin.sampling import SplitMix64

# Reference outputs of Vigna's splitmix64.c: the first five for seed 1234567,
# and the first for seed 0.
REFERENCE = {
    1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423,
              4593380528125082431, 16408922859458223821],
    0: [0xE220A8397B1DCDAF],
}


@pytest.mark.parametrize("seed", list(REFERENCE))
def test_uniform_reads_the_top_53_reference_bits(seed):
    rng = SplitMix64(seed)
    for k in REFERENCE[seed]:
        assert rng.uniform(0.0, 1.0) == (k >> 11) * 2.0 ** -53


@pytest.mark.parametrize("lo,hi", [(-2.5, 2.5), (-1.5, 1.5), (0.05, 1.5), (-3, 3)])
def test_uniform_scales_as_lo_plus_width_times_unit(lo, hi):
    rng = SplitMix64(1234567)
    for k in REFERENCE[1234567]:
        assert rng.uniform(lo, hi) == lo + (hi - lo) * ((k >> 11) * 2.0 ** -53)


def test_seed_is_reduced_mod_2_64():
    assert SplitMix64(2**64).uniform() == SplitMix64(0).uniform()


@pytest.mark.parametrize("seed", [0, 1, 1234567, 2**63, 2**64 - 1, 2**64, 2**70 + 3])
def test_block_stream_equals_scalar_reference(seed):
    # four 256-draw blocks and part of a fifth: every lane and four block carries
    ranges = [(0.0, 1.0), (-2.5, 2.5), (-3, 3), (0.05, 1.5), (-1e-300, 1e300)]
    n = 1124
    block, scalar = SplitMix64(seed), ScalarSplitMix64(seed)
    got = [block.uniform(*ranges[i % len(ranges)]) for i in range(n)]
    assert got == [scalar.uniform(*ranges[i % len(ranges)]) for i in range(n)]


@pytest.mark.parametrize("seed", list(REFERENCE))
def test_unit_reads_the_top_53_reference_bits(seed):
    unit = SplitMix64(seed).unit
    for k in REFERENCE[seed]:
        assert unit() == (k >> 11) * 2.0 ** -53


@pytest.mark.parametrize("seed", [0, 1, 1234567, 2**63, 2**64 - 1, 2**64, 2**70 + 3])
def test_unit_and_uniform_share_one_stream(seed):
    # unit, words, draws and uniform reads interleave over four 256-draw blocks
    # and part of a fifth
    ranges = [(0.0, 1.0), (-2.5, 2.5), (-3, 3), (0.05, 1.5), (-1e-300, 1e300)]
    n = 1124
    block, scalar = SplitMix64(seed), ScalarSplitMix64(seed)
    for i in range(n):
        if i % 4 == 0:
            assert block.unit() == scalar.uniform(0.0, 1.0)
        elif i % 4 == 1:
            assert next(block.words) == scalar.word()
        elif i % 4 == 2:
            assert next(block.draws) == scalar.uniform(0.0, 1.0)
        else:
            lo, hi = ranges[i % len(ranges)]
            assert block.uniform(lo, hi) == scalar.uniform(lo, hi)


@pytest.mark.parametrize("seed", list(REFERENCE))
def test_words_are_the_top_53_reference_bits(seed):
    words = SplitMix64(seed).words
    assert [next(words) for _ in REFERENCE[seed]] == [k >> 11 for k in REFERENCE[seed]]


# the f' and g' box widths of `equivalence_sweep` and its f'' and g'' width
SWEEP_SPANS = [5.0, 2.4, 3.0, 5.2, 6.0]


def _seeded_spans(n):
    """Spans log-uniform in [2**-969, 1e300], with both ends."""
    rng = SplitMix64(9)
    lo, hi = math.log(2.0 ** -969), math.log(1e300)
    return [2.0 ** -969, 1e300] + [math.exp(rng.uniform(lo, hi)) for _ in range(n)]


def _folds_exactly(span):
    """Whether span * 2**-53 is exact."""
    return span * 2 ** -53 / 2 ** -53 == span


@pytest.mark.parametrize("span", SWEEP_SPANS + _seeded_spans(40))
def test_folded_map_equals_the_float_map_bit_for_bit(span):
    assert _folds_exactly(span)
    rng = SplitMix64(33)
    # words at both ends of [0, 2**53) and seeded ones between
    words = [0, 1, 2, 2**52, 2**53 - 1] + [next(rng.words) for _ in range(200)]
    for lo in (-0.5 * span, 0.0, -3.0, 1e-300, -span):
        for w in words:
            folded = lo + (span * 2 ** -53) * w
            drawn = lo + span * (w * 2 ** -53)
            assert struct.pack("<d", folded) == struct.pack("<d", drawn), (span, lo, w)


def test_a_narrow_span_does_not_fold_exactly():
    # the width of F3_38's u and v boxes at c0 = 1e300: span * 2**-53 is subnormal
    span = 1.734601055388106e-300
    assert not _folds_exactly(span)
    assert span * 2 ** -53 * 5 != span * (5 * 2 ** -53)
    assert not _folds_exactly(math.nan)
