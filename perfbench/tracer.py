"""Run one ``wstar`` command in this process with spans at the layer boundaries.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/tracer.py check --metric perturbed_flat --no-timestamp

The command's own output is printed first; the last line is one JSON object
with the layer figures.  Wrappers are installed around public boundaries
only, so no program file changes:

* ``Geometry.cached`` (a miss is a symbolic build, named by cache key),
* ``wstar.geometry.compile_tape``,
* ``wstar.backend.run_tape`` (``Tape.evaluate`` looks it up per call),
* ``wstar.cli.load_metric``, ``wstar.cli.sample_points``, ``wstar.cli.render_json``,
* every ``wstar.checks.REGISTRY`` entry,
* ``relativity.classify``, ``pairing_checks``, ``is_einstein`` and
  ``fluid_relation_checks``.

Spans nest.  A span's self time is its duration minus the time its child
spans cover; time inside ``wstar.cli.main`` that no span covers is reported
as unattributed, so work moved behind an unwrapped boundary cannot vanish.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import time
from collections import defaultdict

LAYERS = ("metricfile", "geometry", "tape", "backend", "sampling", "checks",
          "relativity", "report")


def cache_key(name: str) -> str:
    """Cache key with any bracketed configuration stripped."""
    return re.sub(r"\[.*\]$", "", name)


class Tracer:
    """Span recorder: per-layer self time, inclusive times and counts."""

    def __init__(self):
        self._children = []  # child time covered, one entry per open span
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.build_s = defaultdict(float)  # geometry cache key -> self seconds
        self.incl_s = defaultdict(float)  # named inclusive spans
        self.counts = defaultdict(int)
        self.sampling = 0  # open sampling spans

    def call(self, layer, fn, *args, build_key=None, incl=None, **kwargs):
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            own = dur - self._children.pop()
            self.self_s[layer] += own
            if build_key is not None:
                self.build_s[build_key] += own
            if incl is not None:
                self.incl_s[incl] += dur
            if self._children:
                self._children[-1] += dur

    def wrap(self, layer, fn, incl=None, count=None):
        def wrapper(*args, **kwargs):
            if count is not None:
                self.counts[count] += 1
            return self.call(layer, fn, *args, incl=incl, **kwargs)

        return wrapper

    def install(self):
        from wstar import backend, checks, cli, geometry, relativity

        orig_cached = geometry.Geometry.cached

        def cached(geo, name, builder):
            built = []

            def build():
                built.append(True)
                return self.call("geometry", builder, build_key=cache_key(name))

            out = orig_cached(geo, name, build)
            self.counts["geometry.builds" if built else "geometry.cache_hits"] += 1
            return out

        geometry.Geometry.cached = cached

        orig_compile = geometry.compile_tape

        def compile_tape(*args, **kwargs):
            tape = self.call("tape", orig_compile, *args, **kwargs)
            self.counts["tape.compiles"] += 1
            self.counts["tape.instructions"] += tape.n_instructions
            self.counts["tape.outputs"] += tape.n_outputs
            return tape

        geometry.compile_tape = compile_tape

        orig_run = backend.run_tape

        def run_tape(code, a, b, cval, pts, pvec, out_idx):
            self.counts["backend.calls"] += 1
            self.counts["backend.instruction_points"] += int(code.shape[0]) * int(pts.shape[0])
            if self.sampling:
                self.counts["sampling.kernel_calls"] += 1
            return self.call("backend", orig_run, code, a, b, cval, pts, pvec, out_idx)

        backend.run_tape = run_tape

        orig_sample = cli.sample_points

        def sample_points(*args, **kwargs):
            self.sampling += 1
            try:
                return self.call("sampling", orig_sample, *args, incl="sampling", **kwargs)
            finally:
                self.sampling -= 1

        cli.sample_points = sample_points
        cli.load_metric = self.wrap("metricfile", cli.load_metric)
        cli.render_json = self.wrap("report", cli.render_json)

        for name, fn in list(checks.REGISTRY.items()):
            incl = "pairing" if name.startswith("pairing_") else None
            checks.REGISTRY[name] = self.wrap("checks", fn, incl=incl)

        relativity.classify = self.wrap(
            "relativity", relativity.classify, incl="classify", count="relativity.classify_calls")
        relativity.fluid_relation_checks = self.wrap(
            "relativity", relativity.fluid_relation_checks, incl="fluid")
        relativity.pairing_checks = self.wrap("relativity", relativity.pairing_checks)
        relativity.is_einstein = self.wrap("relativity", relativity.is_einstein)

    def summary(self, wall_s: float, intern_nodes: int) -> dict:
        return {
            "wall_s": wall_s,
            "self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "build_s": dict(self.build_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "intern_nodes": intern_nodes,
        }


def main(argv) -> int:
    from wstar import cli, exprlib

    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    sys.stdout.write(out.getvalue())
    print(json.dumps(tracer.summary(wall, len(exprlib._intern))))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
