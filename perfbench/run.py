"""End-to-end benchmark of the ``wstar`` command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload perturbed_32 --seed 42 --seconds 20 --trace 0

Every operation is one cold ``python -m wstar.cli ...`` process with ``src``
on ``PYTHONPATH``, because every command pays the whole pipeline again:
import, parse, symbolic build, tape compile, kernel, check algebra, render.
One client runs the operations one after another (a closed loop, no
concurrency).  The seed goes to the program as ``--seed`` and draws the
``compute`` point; the program receives nothing else.

``--trace 0`` times every operation a fixed number of times (more for
short ones), keeps making passes while ``--seconds`` have not gone by, and
reports the end-to-end metrics from each operation's median sample.  ``--trace 1`` runs one untraced pass and
one traced pass (``tracer.py``, one cold process per operation) and reports
the per-layer metrics.  Every report is checked against the hand-written
table in ``expected.py`` and every ``compute`` value against
``exprlib.evaluate``.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import expected

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")

PROCESS_TIMEOUT_S = 170.0
SETUP_REPEATS = 7


# a pass runs the short commands first, so repeated samples of one operation
# are spaced apart by the long ones
COMMANDS = ("compute", "classify", "check")


@dataclass(frozen=True)
class Workload:
    metrics: tuple
    points: int
    samples: dict  # command -> fewest samples of each of its operations


# Why each workload exists (see perfbench/README.md for what should move where):
WORKLOADS = {
    # the slow case: kernel, symbolic build and tape compile all dominate
    "perturbed_32": Workload(("perturbed_flat",), 32,
                             {"compute": 5, "classify": 2, "check": 1}),
    # every verdict branch; short processes where fixed costs show
    "catalog_32": Workload(("minkowski", "schwarzschild", "desitter_flat", "flrw_dust"), 32,
                           {"compute": 5, "classify": 2, "check": 2}),
    # wide kernel calls and a large analysis share; symbolic work is small
    "wide_1024": Workload(("schwarzschild", "flrw_dust"), 1024,
                          {"compute": 5, "classify": 3, "check": 1}),
}

BUILD_KEYS = (
    "inverse_metric", "christoffel", "riemann13", "riemann04", "ricci",
    "grad_scalar", "weyl", "nabla_ricci", "nabla_weyl", "wstar04",
    "nabla_wstar04", "energy_momentum", "nabla_energy_momentum",
)


# --- processes ----------------------------------------------------------------


@dataclass
class Proc:
    code: int
    out: str
    err: str
    wall_s: float
    rss_mib: float


def spawn(args) -> Proc:
    """Run ``python <args>`` from the repository root; wall time spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    err = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        out = proc.stdout.read()
        drain.join()
        # wait4 rather than Popen.wait: it also returns the child's peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, out.decode(), err[0].decode() if err else "",
                wall, usage.ru_maxrss / 1024.0)


# --- correctness --------------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """Parse JSON, refusing the NaN / Infinity tokens Python would accept."""
    return json.loads(text, parse_constant=_reject_constant)


def _diff(kind, got: dict, want: dict) -> list:
    return [f"{kind} {k}: got {got.get(k, 'missing')}, expected {want.get(k, 'absent')}"
            for k in list(want) + [k for k in got if k not in want]
            if got.get(k, "missing") != want.get(k, "absent")]


class ComputeOracle:
    """W* components at one point from ``exprlib.evaluate``, which walks the
    expression tree and shares nothing with the tape compiler or kernel."""

    REL_TOL = 1e-9

    def __init__(self, metric_name: str, point):
        import numpy
        from wstar import wstar as ws
        from wstar.catalog import catalog_metric
        from wstar.exprlib import Point, evaluate

        metric = catalog_metric(metric_name)
        comps = ws.wstar_tensor(metric).wstar04.comps
        at = Point(tuple(point), dict(metric.params))
        self.values = {idx: evaluate(comps[idx], at) for idx in numpy.ndindex(comps.shape)}
        self.tol = self.REL_TOL * (1.0 + max(abs(v) for v in self.values.values()))

    def problems(self, text: str) -> list:
        got = {}
        if text.strip() != "all components zero":
            for line in text.strip().splitlines():
                key, _, raw = line.partition(":")
                try:
                    idx = tuple(int(i) for i in key.strip().strip("()").split(","))
                    value = float(raw)
                except ValueError:
                    return [f"compute: unparseable line {line!r}"]
                if idx not in self.values or idx in got:
                    return [f"compute: unexpected entry {line!r}"]
                got[idx] = value
        out = []
        for idx, want in self.values.items():
            have = got.get(idx, 0.0)
            if not abs(have - want) <= self.tol:
                out.append(f"compute {idx}: got {have!r}, oracle {want!r}")
        return out


@dataclass
class Operation:
    command: str
    metric: str
    args: tuple
    want: dict
    oracle: ComputeOracle | None = None

    @property
    def label(self) -> str:
        return f"{self.command} {self.metric}"

    def problems(self, proc: Proc, points: int, seed: int) -> list:
        want_code = self.want[f"{self.command}_exit"]
        out = [] if proc.code == want_code else [f"exit code {proc.code}, expected {want_code}"]
        if self.command == "compute":
            return out + self.oracle.problems(proc.out)
        try:
            rep = strict_json(proc.out)
        except ValueError as err:
            return out + [f"invalid JSON report: {err}"]
        if not isinstance(rep, dict):
            return out + ["report is not a JSON object"]
        head = {"metric": rep.get("metric"), "points": rep.get("points"), "seed": rep.get("seed")}
        out += _diff("report", head, {"metric": self.metric, "points": points, "seed": seed})
        if self.command == "check":
            got = {c["name"]: c["status"] for c in rep.get("checks", [])}
            return out + _diff("check", got, self.want["checks"])
        pairings = {p["name"]: p["holds"] for p in rep.get("pairings", [])}
        return (out + _diff("flag", rep.get("flags", {}), self.want["flags"])
                + _diff("pairing", pairings, self.want["pairings"]))


def compute_point(rng: random.Random, metric_name: str) -> list:
    """A point drawn by the benchmark's own generator, inside the catalog domain."""
    from wstar.catalog import catalog_metric

    domain = catalog_metric(metric_name).domain
    return [lo + (hi - lo) * (0.05 + 0.9 * rng.random()) for lo, hi in domain]


def operations(wl: Workload, seed: int, table: dict) -> list:
    from wstar.catalog import catalog_metric

    rng = random.Random(seed)
    ops = []
    for metric in wl.metrics:
        run = ("--points", str(wl.points), "--seed", str(seed), "--no-timestamp")
        for command in COMMANDS:
            if command == "check":
                args = ("check", "--metric", metric, "--checks", "all") + run
                ops.append(Operation(command, metric, args, table[metric]))
            elif command == "classify":
                args = ("classify", "--metric", metric) + run
                ops.append(Operation(command, metric, args, table[metric]))
            else:
                point = compute_point(rng, metric)
                coords = catalog_metric(metric).coords
                at = ",".join(f"{c}={v!r}" for c, v in zip(coords, point))
                args = ("compute", "--metric", metric, "--tensor", "wstar", "--at", at)
                ops.append(Operation(command, metric, args, table[metric],
                                     ComputeOracle(metric, point)))
    return ops


# --- measurement --------------------------------------------------------------


class Tally:
    """Operations attempted and failed; failures are printed by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op: Operation, proc: Proc, points: int, seed: int, tag: str = ""):
        self.attempted += 1
        problems = op.problems(proc, points, seed)
        status = "ok" if not problems else "FAILED"
        print(f"op{tag} {op.label}: {proc.wall_s:.3f} s, {proc.rss_mib:.1f} MiB, {status}")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"  mismatch: {p}")
            if proc.err.strip():
                print("  stderr: " + proc.err.strip().splitlines()[-1])


def run_op(op, wl, seed, tally, traced=False):
    """One cold process; returns (process, trace figures or None).

    A traced process prints its layer figures as the last line of its
    output; that line is split off before the report is checked.
    """
    proc = spawn(((TRACER,) if traced else ("-m", "wstar.cli")) + op.args)
    trace = None
    if traced:
        report, _, last = proc.out.rstrip("\n").rpartition("\n")
        try:
            proc.out, trace = report, json.loads(last)
        except ValueError:
            pass  # no layer figures: the report check below fails the operation
    tally.record(op, proc, wl.points, seed, " traced" if traced else "")
    return proc, trace


def setup_seconds() -> list:
    spawn(("-c", "import wstar.cli"))  # warm-up: compiles bytecode once
    return [spawn(("-c", "import wstar.cli")).wall_s for _ in range(SETUP_REPEATS)]


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def end_to_end(wl, seed, seconds, ops, tally) -> dict:
    """Time every operation at least ``wl.samples`` times, then keep making
    full passes until ``seconds`` have gone by.

    Each operation's figure is the median of its samples; a command's metric
    sums that figure over the metrics.
    """
    setup = setup_seconds()
    walls = {id(op): [] for op in ops}
    rss = 0.0
    start = time.perf_counter()
    while True:
        todo = [op for op in ops if len(walls[id(op)]) < wl.samples[op.command]]
        if not todo:
            if time.perf_counter() - start >= seconds:
                break
            todo = ops
        for op in todo:
            proc = run_op(op, wl, seed, tally)[0]
            walls[id(op)].append(proc.wall_s)
            rss = max(rss, proc.rss_mib)
    metrics = {}
    for command in COMMANDS:
        mine = [walls[id(op)] for op in ops if op.command == command]
        value = sum(statistics.median(w) for w in mine)
        metrics[f"{command}_s"] = {"value": value, "unit": "s"}
        counts = "/".join(str(len(w)) for w in mine)
        print(f"metric {command}_s: {value:.4f} s (sum over metrics of the median of {counts} samples)")
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(f"metric setup_s: median {statistics.median(setup):.4f} s ({spread(setup)})")
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
    print(f"metric peak_rss_mb: {rss:.1f} MiB (largest of all operations)")
    return metrics


def per_layer(wl, seed, ops, tally) -> dict:
    untraced = [run_op(op, wl, seed, tally)[0] for op in ops]
    traced = [(op,) + run_op(op, wl, seed, tally, traced=True) for op in ops]
    traced = [t for t in traced if t[2] is not None]
    if not traced:
        raise SystemExit("error: no traced operation reported its layer figures")

    self_s = defaultdict(float)
    build_s = defaultdict(float)
    incl_s = defaultdict(float)
    counts = defaultdict(int)
    wall = 0.0
    print("traced operations (self seconds per layer):")
    for op, proc, tr in traced:
        wall += tr["wall_s"]
        for table, part in ((self_s, "self_s"), (build_s, "build_s"), (incl_s, "incl_s"), (counts, "counts")):
            for k, v in tr[part].items():
                table[k] += v
        layers = ", ".join(f"{k} {v:.3f}" for k, v in tr["self_s"].items() if v >= 0.0005)
        print(f"  {op.label}: wall {tr['wall_s']:.3f} s; {layers}")

    m = {"metricfile.parse_s": self_s["metricfile"], "geometry.build_s": self_s["geometry"]}
    for key in BUILD_KEYS:
        m[f"geometry.build.{key}_s"] = build_s[key]
    m["geometry.build.other_s"] = sum(v for k, v in build_s.items() if k not in BUILD_KEYS)
    m["geometry.builds"] = counts["geometry.builds"]
    m["geometry.cache_hits"] = counts["geometry.cache_hits"]
    m["exprlib.intern_nodes"] = max(tr["intern_nodes"] for _, _, tr in traced)
    m["tape.compile_s"] = self_s["tape"]
    for key in ("compiles", "instructions", "outputs"):
        m[f"tape.{key}"] = counts[f"tape.{key}"]
    m["backend.run_tape_s"] = self_s["backend"]
    m["backend.calls"] = counts["backend.calls"]
    m["backend.instruction_points"] = counts["backend.instruction_points"]
    m["backend.instruction_points_per_s"] = (
        counts["backend.instruction_points"] / self_s["backend"] if self_s["backend"] else 0.0)
    m["sampling.sample_s"] = incl_s["sampling"]
    m["sampling.self_s"] = self_s["sampling"]
    m["sampling.kernel_calls"] = counts["sampling.kernel_calls"]
    m["checks.self_s"] = self_s["checks"]
    m["checks.pairing_s"] = incl_s["pairing"]
    m["relativity.classify_calls"] = counts["relativity.classify_calls"]
    m["relativity.classify_s"] = incl_s["classify"]
    m["relativity.fluid_s"] = incl_s["fluid"]
    m["relativity.self_s"] = self_s["relativity"]
    m["report.render_s"] = self_s["report"]
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = (sum(p.wall_s for _, p, _ in traced)
                             - sum(p.wall_s for p in untraced))
    m["trace.unattributed_s"] = wall - sum(self_s.values())

    print(f"self time as a share of the traced wall ({wall:.3f} s):")
    for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {s:9.4f} s {100.0 * s / wall:6.2f} %")
    print(f"  {'unattributed':<12} {m['trace.unattributed_s']:9.4f} s "
          f"{100.0 * m['trace.unattributed_s'] / wall:6.2f} %")
    out = {}
    for name, value in m.items():
        unit = "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "count"
        out[name] = {"value": value, "unit": unit}
    return out


def run_record(seed: int) -> dict:
    import numpy
    from wstar import backend

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"backend": backend.BACKEND, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": nproc, "seed": seed}


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            table: dict | None = None) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    record = run_record(seed)
    print("record " + json.dumps(record))
    ops = operations(wl, seed, expected.expected_table() if table is None else table)
    tally = Tally()
    if trace:
        metrics = per_layer(wl, seed, ops, tally)
    else:
        metrics = end_to_end(wl, seed, seconds, ops, tally)
    print(f"fail_ratio: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wstar", "cli.py")):
        print(f"error: no wstar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
