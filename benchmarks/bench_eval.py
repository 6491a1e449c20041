#!/usr/bin/env python3
"""Time the tape kernel's tangent mode on the tapes ``check`` and ``classify`` run.

Those commands take every curvature field from the metric's 3-jet
(:class:`wstar.jet.Jet`), and two tapes do their kernel work, both run once
per 64-point block by the one curvature pass (:meth:`wstar.jet.Jet.curvature`):

- ``jet``: the tape of g, ∂g and ∂²g over the coordinates, with the
  partials of the ∂²g outputs (∂³g);
- ``leaf``: the leaf tape of Γ and R_{ijkl} by symmetry class, whose inputs
  are jet values and g^{ij}, with each input's partials seeded from the jet
  and the partials of the classes.

Each workload records the kernel calls one curvature pass makes (points,
differentiated outputs, seeds) and times them again, at 32 points and at
``--points``.  The table also gives each tape's instruction count and the
size of its level schedule: the number of instruction groups (one value
ufunc call and one chain rule each per chunk of points) and the number of
depth levels.

Usage::

    python benchmarks/bench_eval.py [--points 2048] [--repeat 5] [--metric NAME]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from wstar import backend
from wstar.catalog import CATALOG_NAMES, catalog_metric
from wstar.cli import sample_for
from wstar.geometry import workspace
from wstar.tape import Tape


def kernel_calls(jet, pts) -> dict:
    """tape name -> (tape, the :meth:`Tape.run` arguments of each kernel call
    that one curvature pass at ``pts`` makes on it, without ``coords``)."""
    calls = {"jet": (jet.tape, []), "leaf": (jet._leaf_tape, [])}
    for tape, seen in calls.values():
        def record(points, params=None, diff=None, seeds=None, coords=None, tape=tape,
                   seen=seen):
            seen.append((points, params, diff, seeds))
            return Tape.run(tape, points, params, diff, seeds, coords)

        tape.run = record  # shadows the method on this tape only
    try:
        for _ in jet.curvature(pts):
            pass
    finally:
        for tape, _ in calls.values():
            del tape.run
    return calls


def best_of(tape, calls, repeat: int) -> float:
    timings = []
    for _ in range(repeat):
        start = time.perf_counter()
        for args in calls:
            tape.run(*args)
        timings.append(time.perf_counter() - start)
    return min(timings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=2048)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--metric", choices=CATALOG_NAMES, default=None,
                        help="benchmark one metric instead of the whole catalog")
    args = parser.parse_args()

    names = (args.metric,) if args.metric else CATALOG_NAMES
    wide = f"{args.points} pts"
    header = (
        f"{'metric':<16} {'tape':<5} {'instructions':>12} {'groups':>7} {'depth':>6} "
        f"{'32 pts':>10} {wide:>10}"
    )
    print(f"kernel = {backend.BACKEND} (tangent mode), repeat = {args.repeat} (best-of)")
    print(header)
    print("-" * len(header))
    for name in names:
        geo = workspace(catalog_metric(name))
        pts = np.ascontiguousarray(sample_for(geo, args.points, args.seed))
        narrow, full = kernel_calls(geo.jet, pts[:32]), kernel_calls(geo.jet, pts)
        for label, (tape, calls) in full.items():
            _, groups = tape.schedule
            depth = int(backend.levels(tape.code, tape.a, tape.b).max(initial=-1)) + 1
            t_narrow = best_of(tape, narrow[label][1], args.repeat)
            t_wide = best_of(tape, calls, args.repeat)
            print(
                f"{name:<16} {label:<5} {tape.n_instructions:>12} {len(groups):>7} {depth:>6} "
                f"{t_narrow * 1e3:>8.1f}ms {t_wide * 1e3:>8.1f}ms"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
