"""Tests for the deterministic point sampler."""

import numpy as np
import pytest

from wstar.sampling import DET_FLOOR, SamplingError, SplitMix64, sample_points

# Frozen reference outputs, checked against an independent implementation of
# the splitmix64 recurrence (state += 0x9E3779B97F4A7C15, two xorshift-multiply
# rounds, final 31-bit xorshift).
SEED0_U64 = [
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
]
SEED42_U64 = [
    13679457532755275413,
    2949826092126892291,
    5139283748462763858,
]
SEED42_DOUBLES = [
    0.7415648787718233,
    0.1599103928769201,
    0.27860113025513866,
]


class TestSplitMix64:
    def test_reference_sequence_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == SEED0_U64

    def test_reference_sequence_seed_42(self):
        rng = SplitMix64(42)
        assert [rng.next_u64() for _ in range(3)] == SEED42_U64

    def test_reference_doubles(self):
        rng = SplitMix64(42)
        got = [rng.next_double() for _ in range(3)]
        assert got == pytest.approx(SEED42_DOUBLES, abs=0.0)

    def test_doubles_are_in_unit_interval(self):
        rng = SplitMix64(7)
        for _ in range(1000):
            d = rng.next_double()
            assert 0.0 <= d < 1.0

    def test_uniform_respects_bounds(self):
        rng = SplitMix64(3)
        for _ in range(500):
            v = rng.uniform(-2.5, 7.0)
            assert -2.5 <= v < 7.0

    def test_seed_wraps_to_64_bits(self):
        a = SplitMix64(5)
        b = SplitMix64((1 << 64) + 5)
        assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]

    def test_streams_differ_across_seeds(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


class TestSamplePoints:
    BOUNDS = [(-1.0, 1.0), (0.5, 5.0), (0.0, 3.14)]

    def test_shape_and_bounds(self):
        pts = sample_points(self.BOUNDS, 40, seed=42)
        assert pts.shape == (40, 3)
        for j, (lo, hi) in enumerate(self.BOUNDS):
            assert np.all(pts[:, j] >= lo)
            assert np.all(pts[:, j] < hi)

    def test_deterministic_for_fixed_seed(self):
        a = sample_points(self.BOUNDS, 16, seed=42)
        b = sample_points(self.BOUNDS, 16, seed=42)
        assert np.array_equal(a, b)
        c = sample_points(self.BOUNDS, 16, seed=43)
        assert not np.array_equal(a, c)

    def test_first_point_matches_raw_stream(self):
        rng = SplitMix64(42)
        expected = [rng.uniform(lo, hi) for lo, hi in self.BOUNDS]
        pts = sample_points(self.BOUNDS, 1, seed=42)
        assert pts[0].tolist() == expected

    def test_rejection_filters_and_stays_deterministic(self):
        reject = lambda row: row[0] < 0.0
        a = sample_points(self.BOUNDS, 25, seed=42, reject=reject)
        b = sample_points(self.BOUNDS, 25, seed=42, reject=reject)
        assert np.array_equal(a, b)
        assert np.all(a[:, 0] >= 0.0)

    def test_rejected_candidates_consume_stream(self):
        # With rejection active the accepted stream is a strict subsequence of
        # the unfiltered stream: dropping rejected rows from the plain sample
        # must reproduce the filtered sample's prefix.
        reject = lambda row: row[0] < 0.0
        plain = sample_points(self.BOUNDS, 60, seed=42)
        filtered = sample_points(self.BOUNDS, 10, seed=42, reject=reject)
        surviving = plain[plain[:, 0] >= 0.0]
        assert np.array_equal(filtered, surviving[:10])

    def test_exhaustion_raises(self):
        with pytest.raises(SamplingError, match=r"after 1000 attempts \(point 1 of 1, seed 1\)"):
            sample_points(self.BOUNDS, 1, seed=1, reject=lambda row: True)

    def test_det_floor_constant(self):
        assert DET_FLOOR == 1e-10
