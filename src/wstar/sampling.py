"""Deterministic point sampling over coordinate boxes.

The generator is splitmix64: a 64-bit counter advanced by the golden-ratio
increment 0x9E3779B97F4A7C15, output-mixed by two xor-shift-multiply rounds
(0xBF58476D1CE4E5B9, 0x94D049BB133111EB) and a final 31-bit xor-shift.
Doubles in [0, 1) take the top 53 bits: (z >> 11) * 2^-53.  The full algorithm
is documented in the README so the point stream is reproducible from any
language.

Candidate points are drawn coordinate by coordinate from the sampling box and
rejected (stream keeps advancing) when the caller's predicate says the point
is degenerate — the standard predicate rejects |det g| <= 1e-10 or a metric
evaluation failure.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["SplitMix64", "sample_points", "SamplingError", "DET_FLOOR"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

DET_FLOOR = 1e-10  # |det g| at or below this rejects the candidate point
MAX_ATTEMPTS = 1000  # candidates drawn for one point before giving up


class SamplingError(Exception):
    """Rejection sampling exhausted its attempt budget."""


class SplitMix64:
    """splitmix64 sequence; state is the 64-bit seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def next_double(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + self.next_double() * (hi - lo)


def sample_points(
    bounds: Sequence[tuple],
    count: int,
    seed: int,
    reject: Callable[[np.ndarray], bool] | None = None,
) -> np.ndarray:
    """Draw ``count`` accepted points from the box given by ``bounds``.

    ``bounds`` is one (lo, hi) pair per coordinate.  ``reject`` return True
    to discard a candidate; each candidate consumes one draw per coordinate
    whether or not it is accepted, so the accepted set is a deterministic
    function of (bounds, count, seed, reject).  Raises :class:`SamplingError`
    if any single point exhausts ``MAX_ATTEMPTS`` candidates.
    """
    rng = SplitMix64(seed)
    out = np.empty((count, len(bounds)))
    for k in range(count):
        for attempt in range(MAX_ATTEMPTS):
            row = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
            if reject is None or not reject(row):
                out[k] = row
                break
        else:
            raise SamplingError(
                f"no acceptable point after {MAX_ATTEMPTS} attempts "
                f"(point {k + 1} of {count}, seed {seed})"
            )
    return out
