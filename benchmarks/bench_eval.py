#!/usr/bin/env python3
"""Time the tape kernel on the W*-bundle tape of each catalog metric.

Each workload compiles one tape for the full modified-curvature bundle (the
(0,4) tensor, its (0,2) contraction, and the rank-5 covariant derivative) and
times ``wstar.backend.run_tape`` at ``--points`` and at 32 points.  The
table also gives the tape's instruction count and the size of its level
schedule: the number of instruction groups (one ufunc call each per chunk of
points) and the number of depth levels.

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
    bundle = ws.wstar_tensor(m)
    fields = [bundle.wstar04, bundle.wstar02, ws._nabla_wstar04(geo)]
    exprs = []
    for f in fields:
        exprs.extend(f.expressions())
    tape = compile_tape(exprs, geo.dim, tuple(sorted(m.params)))
    return m, geo, tape


def best_of(tape, pts, pvec, repeat: int) -> float:
    timings = []
    for _ in range(repeat):
        start = time.perf_counter()
        backend.run_tape(tape.code, tape.a, tape.b, tape.cval, pts, pvec, tape.outputs)
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
    print(f"kernel = {backend.BACKEND}, repeat = {args.repeat} (best-of)")
    print(header)
    print("-" * len(header))
    for name in names:
        m, geo, tape = workload(name)
        pts = np.ascontiguousarray(sample_for(geo, args.points, args.seed))
        pvec = tape.param_vector(dict(m.params))
        _, groups = backend.schedule(tape.code, tape.a, tape.b, tape.cval)
        depth = int(backend.levels(tape.code, tape.a, tape.b).max(initial=-1)) + 1
        t_narrow = best_of(tape, pts[:32], pvec, args.repeat)
        t_wide = best_of(tape, pts, pvec, args.repeat)
        print(
            f"{name:<16} {tape.n_instructions:>12} {len(groups):>7} {depth:>6} "
            f"{t_narrow * 1e3:>8.1f}ms {t_wide * 1e3:>8.1f}ms"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
