"""Tests for the deterministic point sampler."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wstar import cli
from wstar.catalog import catalog_metric
from wstar.geometry import workspace
from wstar.sampling import (DET_FLOOR, MAX_ATTEMPTS, SamplingError, SplitMix64,
                            sample_points)

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
        reject = lambda rows: rows[:, 0] < 0.0
        a = sample_points(self.BOUNDS, 25, seed=42, reject=reject)
        b = sample_points(self.BOUNDS, 25, seed=42, reject=reject)
        assert np.array_equal(a, b)
        assert np.all(a[:, 0] >= 0.0)

    def test_rejected_candidates_consume_stream(self):
        # With rejection active the accepted stream is a strict subsequence of
        # the unfiltered stream: dropping rejected rows from the plain sample
        # must reproduce the filtered sample's prefix.
        reject = lambda rows: rows[:, 0] < 0.0
        plain = sample_points(self.BOUNDS, 60, seed=42)
        filtered = sample_points(self.BOUNDS, 10, seed=42, reject=reject)
        surviving = plain[plain[:, 0] >= 0.0]
        assert np.array_equal(filtered, surviving[:10])

    def test_exhaustion_raises(self):
        with pytest.raises(SamplingError, match=r"after 1000 attempts \(point 1 of 1, seed 1\)"):
            sample_points(self.BOUNDS, 1, seed=1,
                          reject=lambda rows: np.ones(len(rows), dtype=bool))

    def test_det_floor_constant(self):
        assert DET_FLOOR == 1e-10


def per_candidate(bounds, count, seed, reject_row):
    """The sampler as one loop per candidate: the reference the block form
    must reproduce, point for point and error for error."""
    rng = SplitMix64(seed)
    out = np.empty((count, len(bounds)))
    for k in range(count):
        for attempt in range(MAX_ATTEMPTS):
            row = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
            if not reject_row(row):
                out[k] = row
                break
        else:
            raise SamplingError(
                f"no acceptable point after {MAX_ATTEMPTS} attempts "
                f"(point {k + 1} of {count}, seed {seed})"
            )
    return out


def by_position(rejected):
    """Block predicate rejecting the candidates whose stream positions are in
    ``rejected``; it counts every candidate it is shown."""
    seen = 0

    def reject(rows):
        nonlocal seen
        mask = np.array([seen + i in rejected for i in range(len(rows))], dtype=bool)
        seen += len(rows)
        return mask

    return reject


def one_row(block_reject):
    return lambda row: bool(block_reject(row[None, :])[0])


class TestBlockEqualsPerCandidate:
    BOUNDS = [(-1.0, 1.0), (0.5, 5.0), (0.0, 3.14)]

    @settings(max_examples=40, deadline=None)
    @given(
        bounds=st.lists(
            st.tuples(st.floats(-100.0, 100.0), st.floats(1e-3, 50.0)).map(
                lambda p: (p[0], p[0] + p[1])),
            min_size=1, max_size=4),
        count=st.integers(1, 50),
        seed=st.integers(0, 2**64 - 1),
        rate=st.floats(0.0, 0.9),
    )
    def test_same_points_as_per_candidate_loop(self, bounds, count, seed, rate):
        # rejects about ``rate`` of the candidates, by the fractional part of
        # a function of the candidate's coordinates
        def reject(rows):
            return np.modf(np.abs(rows).sum(axis=1) * 1e3)[0] < rate

        assert np.array_equal(sample_points(bounds, count, seed, reject=reject),
                              per_candidate(bounds, count, seed, one_row(reject)))

    def test_last_attempt_can_accept(self):
        rejected = set(range(MAX_ATTEMPTS - 1))
        a = sample_points(self.BOUNDS, 1, 7, reject=by_position(rejected))
        b = per_candidate(self.BOUNDS, 1, 7, one_row(by_position(rejected)))
        assert np.array_equal(a, b)
        rng = SplitMix64(7)
        for _ in range(MAX_ATTEMPTS - 1):
            [rng.uniform(lo, hi) for lo, hi in self.BOUNDS]
        assert a[0].tolist() == [rng.uniform(lo, hi) for lo, hi in self.BOUNDS]

    def test_exhaustion_fires_at_the_same_point(self):
        # the first point is accepted; the next MAX_ATTEMPTS candidates are not
        rejected = set(range(1, MAX_ATTEMPTS + 1))
        msg = (rf"after {MAX_ATTEMPTS} attempts \(point 2 of 3, seed 5\)")
        with pytest.raises(SamplingError, match=msg):
            sample_points(self.BOUNDS, 3, 5, reject=by_position(rejected))
        with pytest.raises(SamplingError, match=msg):
            per_candidate(self.BOUNDS, 3, 5, one_row(by_position(rejected)))

    def test_attempts_reset_after_each_accepted_point(self):
        # MAX_ATTEMPTS - 1 rejections before each of three points
        rejected = {p for p in range(3 * MAX_ATTEMPTS) if p % MAX_ATTEMPTS != MAX_ATTEMPTS - 1}
        a = sample_points(self.BOUNDS, 3, 9, reject=by_position(rejected))
        b = per_candidate(self.BOUNDS, 3, 9, one_row(by_position(rejected)))
        assert np.array_equal(a, b)

    def test_block_is_the_number_of_points_still_missing(self):
        sizes = []

        def reject(rows):
            sizes.append(len(rows))
            return rows[:, 0] < 0.0

        pts = sample_points(self.BOUNDS, 20, 42, reject=reject)
        plain = sample_points(self.BOUNDS, sum(sizes), 42)
        assert sizes[0] == 20
        assert np.array_equal(pts, plain[plain[:, 0] >= 0.0])

    @pytest.mark.parametrize("bad", [
        lambda rows: False,
        lambda rows: rows[0, 0] < 0.0,
        lambda rows: (rows[:, 0] < 0.0).astype(int),
        lambda rows: (rows[:, :2] < 0.0),
    ])
    def test_predicate_must_return_a_block_mask(self, bad):
        with pytest.raises(TypeError, match=r"bool array of shape \(4,\)"):
            sample_points(self.BOUNDS, 4, 42, reject=bad)


# sha256 of sample_for(...).tobytes() at 1024 points and seed 42, computed with
# the one-candidate-at-a-time sampler; "schwarzschild_narrow" has theta in
# (0, 2e-5), where |det g| falls below DET_FLOOR and candidates are rejected
PINNED_POINTS = {
    "minkowski": "c60d23122528b7d9b39abffd84d37a71e0db96f51072f368ad77fec4b251e146",
    "schwarzschild": "acc0c4f847104635a86982d15eadbf75f7698007fa33fdd7809b259564c083c2",
    "desitter_flat": "8330b927266103d9e43254cee1ef6a77c07149b2b6d865e3d02464b166c30440",
    "flrw_dust": "a8a4fd40d9cadd9eb8ddf6976ea4c0a679b9f72f25a61c3fdcf5a728c8c8fead",
    "perturbed_flat": "6608d462547e404ca28e4aa8754278515e252a1664e2b68540af720e4f8178ee",
    "schwarzschild_narrow": "ec3ece7604c02823de96f79f5d172ccd32970e9f8e44374dc72ad40aeaf3d42d",
}


def pinned_metric(name):
    if name != "schwarzschild_narrow":
        return catalog_metric(name)
    metric = catalog_metric("schwarzschild")
    domain = list(metric.domain)
    domain[metric.coords.index("theta")] = (0.0, 2e-5)
    return dataclasses.replace(metric, domain=tuple(domain))


@pytest.mark.parametrize("name", PINNED_POINTS)
def test_sample_for_points_are_pinned(name):
    pts = cli.sample_for(workspace(pinned_metric(name)), 1024, 42)
    assert hashlib.sha256(pts.tobytes()).hexdigest() == PINNED_POINTS[name]


def test_narrow_domain_rejects_candidates():
    geo = workspace(pinned_metric("schwarzschild_narrow"))
    plain = sample_points(geo.metric.domain, 1024, 42)
    assert np.any(geo.det_values(plain) <= DET_FLOOR)
