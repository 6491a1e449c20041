"""Compare saved runs of one workload on two commits, metric by metric.

    python3 perfbench/compare.py --parent p1.txt p2.txt ... --change c1.txt c2.txt ...

Each file is the standard output of one ``run.py`` run.  For every metric it
prints each side's median and quartiles and the change's median as a share
of the parent's, and flags a metric whose change median is worse than the
parent's by more than the bound in ``BENCHMARK.json``.  Runs whose ``record``
lines name different tape kernels are reported as not comparable and are
never scored.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str):
    record, result = None, None
    with open(path) as f:
        for line in f:
            if line.startswith("record "):
                record = json.loads(line[len("record "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if record is None or result is None:
        raise SystemExit(f"{path}: no record line or result line")
    return record, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    sides = {"parent": [load(p) for p in args.parent],
             "change": [load(p) for p in args.change]}
    kernels = {name: sorted({r["backend"] for r, _ in runs}) for name, runs in sides.items()}
    if len({k for ks in kernels.values() for k in ks}) > 1:
        print(f"not comparable: the runs used different kernels "
              f"(parent {kernels['parent']}, change {kernels['change']})")
        return 0

    for name, runs in sides.items():
        failed = sum(res["failed"] for _, res in runs)
        print(f"{name}: {len(runs)} runs, kernel {kernels[name][0]}, failed operations {failed}")
    names = [n for n in sides["parent"][0][1]["metrics"] if n in sides["change"][0][1]["metrics"]]
    for metric in names:
        p = quartiles([res["metrics"][metric]["value"] for _, res in sides["parent"]])
        c = quartiles([res["metrics"][metric]["value"] for _, res in sides["change"]])
        unit = sides["parent"][0][1]["metrics"][metric]["unit"]
        line = (f"{metric:<40} parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]  "
                f"change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}] {unit}")
        if p[1]:
            line += f"  change/parent {c[1] / p[1]:.4f}"
        meta = bounds.get(metric, {})
        if "bound" in meta and p[1]:
            worse = (c[1] - p[1]) / p[1] if meta["better"] == "lower" else (p[1] - c[1]) / p[1]
            line += "  WORSE THAN BOUND" if worse > meta["bound"] else "  within bound"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
