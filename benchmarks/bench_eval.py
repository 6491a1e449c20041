#!/usr/bin/env python3
"""Time the tape kernel's tangent mode on the W* tape of each catalog metric.

Each workload compiles one tape for the (0,4) modified curvature and the
Christoffel symbols, the inputs of its covariant derivative as the commands
form it, and times ``wstar.backend.run_tangents`` (values of every output,
coordinate partials of the W* components) at ``--points`` and at 32 points.
The table also gives the tape's instruction count and the size of its level
schedule: the number of instruction groups (one value ufunc call and one
chain rule each per chunk of points) and the number of depth levels.

Usage::

    python benchmarks/bench_eval.py [--points 2048] [--repeat 5] [--metric NAME]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from wstar import backend
from wstar import wstar as ws
from wstar.catalog import CATALOG_NAMES, catalog_metric
from wstar.cli import sample_for
from wstar.geometry import workspace
from wstar.tape import compile_tape


def workload(name: str):
    m = catalog_metric(name)
    geo = workspace(m)
    w04 = ws.wstar_tensor(m).wstar04
    exprs = w04.expressions() + geo.christoffel.expressions()
    tape = compile_tape(exprs, geo.dim, tuple(sorted(m.params)))
    diff = tape.outputs[: len(w04.expressions())]  # partials of W* only
    return m, geo, tape, diff


def best_of(tape, diff, pts, pvec, repeat: int) -> float:
    timings = []
    for _ in range(repeat):
        start = time.perf_counter()
        backend.run_tangents(tape.schedule, pts, pvec, tape.outputs, diff)
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
        f"{'metric':<16} {'instructions':>12} {'groups':>7} {'depth':>6} "
        f"{'32 pts':>10} {wide:>10}"
    )
    print(f"kernel = {backend.BACKEND} (tangent mode), repeat = {args.repeat} (best-of)")
    print(header)
    print("-" * len(header))
    for name in names:
        m, geo, tape, diff = workload(name)
        pts = np.ascontiguousarray(sample_for(geo, args.points, args.seed))
        pvec = tape.param_vector(dict(m.params))
        _, groups = tape.schedule
        depth = int(backend.levels(tape.code, tape.a, tape.b).max(initial=-1)) + 1
        t_narrow = best_of(tape, diff, pts[:32], pvec, args.repeat)
        t_wide = best_of(tape, diff, pts, pvec, args.repeat)
        print(
            f"{name:<16} {tape.n_instructions:>12} {len(groups):>7} {depth:>6} "
            f"{t_narrow * 1e3:>8.1f}ms {t_wide * 1e3:>8.1f}ms"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
