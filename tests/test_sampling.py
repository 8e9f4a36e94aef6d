"""splitmix64 against published reference outputs and the scalar oracle, and
the uniform-double map."""

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
    # unit and uniform calls interleave over four 256-draw blocks and part of a fifth
    ranges = [(0.0, 1.0), (-2.5, 2.5), (-3, 3), (0.05, 1.5), (-1e-300, 1e300)]
    n = 1124
    block, scalar = SplitMix64(seed), ScalarSplitMix64(seed)
    for i in range(n):
        if i % 3:
            lo, hi = ranges[i % len(ranges)]
            assert block.uniform(lo, hi) == scalar.uniform(lo, hi)
        else:
            assert block.unit() == scalar.uniform(0.0, 1.0)
