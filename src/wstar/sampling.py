"""Deterministic point sampling over coordinate boxes.

The generator is splitmix64: a 64-bit counter advanced by the golden-ratio
increment 0x9E3779B97F4A7C15, output-mixed by two xor-shift-multiply rounds
(0xBF58476D1CE4E5B9, 0x94D049BB133111EB) and a final 31-bit xor-shift.
Doubles in [0, 1) take the top 53 bits: (z >> 11) * 2^-53.  The full algorithm
is documented in the README so the point stream is reproducible from any
language.  The generator is counter-based: draw k (from 0) is the mix of
seed + (k + 1)·γ mod 2^64, so :func:`sample_points` draws a block of
candidates as one uint64 array expression; :class:`SplitMix64` is the
one-draw-at-a-time reference.

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


def _doubles(seed: int, start: int, count: int) -> np.ndarray:
    """Draws ``start`` to ``start + count - 1`` of ``SplitMix64(seed).next_double()``.

    uint64 array arithmetic wraps modulo 2^64 without a warning (numpy
    scalar arithmetic would warn), so every step is an array operation.
    """
    z = (np.arange(start + 1, start + count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
         + np.uint64(seed & _MASK))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


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
    n = len(bounds)
    low = np.array([lo for lo, _ in bounds], dtype=np.float64)
    span = np.array([hi - lo for lo, hi in bounds], dtype=np.float64)  # as uniform has it
    out = np.empty((count, n))
    k = attempts = drawn = 0
    while k < count:
        # one candidate per missing point: none is drawn past the last accept
        rows = low + _doubles(seed, drawn, (count - k) * n).reshape(count - k, n) * span
        drawn += rows.size
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
