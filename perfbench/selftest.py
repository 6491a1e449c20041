"""Smoke test of the benchmark itself, on ``minkowski`` at a few points.

    python3 perfbench/selftest.py

Asserts that an untraced run emits every ``end_to_end`` metric of
``BENCHMARK.json`` with its unit, that a traced run does the same for the
``per_layer`` metrics, and that a deliberately wrong expected verdict counts
as a failed operation.  Exits 0 on success; takes a few seconds.
"""

import json
import os
import sys

import expected
import run

WORKLOAD = run.Workload(("minkowski",), 4, {"compute": 1, "classify": 1, "check": 1})
SEED = 7


def require(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"selftest failed: {what}")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.path.insert(0, run.SRC)

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        res = run.measure(WORKLOAD, SEED, 0, trace)
        require(res["correct"] and res["failed"] == 0 and res["attempted"] >= 3,
                f"{section} run on minkowski reported failures: {res}")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        require(got == want, f"{section} metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                f"units {[(n, got[n], u) for n, u in want.items() if n in got and got[n] != u]}")
        require(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
                f"{section} metric values must be numbers")

    # minkowski is Ricci-flat; expecting the check to fail must be caught
    wrong = dict(expected.CHECKS, ricci_flat="F P F F F")
    res = run.measure(WORKLOAD, SEED, 0, False, table=expected.expected_table(wrong))
    require(res["failed"] > 0 and not res["correct"],
            "a wrong expected verdict did not raise the fail ratio above 0")

    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
