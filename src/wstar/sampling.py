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
evaluation failure.  The predicate sees a block of candidates at a time: as
many as there are points still missing, so one metric evaluation serves the
whole block.  Candidates are still accepted in stream order, each still
consumes one draw per coordinate, and ``MAX_ATTEMPTS`` counts the consecutive
rejections for one point, so the points and the exhaustion error are those of
a one-candidate-at-a-time loop.
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
MAX_ATTEMPTS = 1000  # consecutive rejections for one point before giving up


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
    reject: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Draw ``count`` accepted points from the box given by ``bounds``.

    ``bounds`` is one (lo, hi) pair per coordinate.  ``reject`` takes a block
    of candidate rows, shape (B, n), and returns a (B,) bool array, True to
    discard a candidate.  Each candidate consumes one draw per coordinate
    whether or not it is accepted, and candidates are accepted in stream
    order, so the accepted set is a deterministic function of (bounds, count,
    seed, reject).  Raises :class:`SamplingError` if any single point meets
    ``MAX_ATTEMPTS`` consecutive rejections.
    """
    rng = SplitMix64(seed)
    out = np.empty((count, len(bounds)))
    k = attempts = 0
    while k < count:
        # one candidate per missing point: none is drawn past the last accept
        rows = np.array([[rng.uniform(lo, hi) for lo, hi in bounds]
                         for _ in range(count - k)])
        mask = np.zeros(len(rows), dtype=bool) if reject is None else reject(rows)
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool
                and mask.shape == (len(rows),)):
            got = (f"{mask.dtype} array of shape {mask.shape}"
                   if isinstance(mask, np.ndarray) else type(mask).__name__)
            raise TypeError(
                f"reject must return a bool array of shape ({len(rows)},) "
                f"for a block of {len(rows)} candidates, got {got}"
            )
        for row, rejected in zip(rows, mask):
            if rejected:
                attempts += 1
                if attempts == MAX_ATTEMPTS:
                    raise SamplingError(
                        f"no acceptable point after {MAX_ATTEMPTS} attempts "
                        f"(point {k + 1} of {count}, seed {seed})"
                    )
            else:
                out[k] = row
                k += 1
                attempts = 0
    return out
