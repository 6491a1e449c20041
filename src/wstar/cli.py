"""Command-line entry point: catalog listing, check runs, point evaluation.

This module parses the command line into one validated :class:`RunConfig`,
runs the checks and maps the outcome to an exit code; :mod:`wstar.report`
owns how the ``check`` and ``classify`` reports print.

Exit codes: 0 all requested checks passed (or output-only commands succeeded),
1 at least one check failed, 2 usage or input-parsing problem, 3 evaluation
error (bad point, singular metric, arithmetic failure), 4 the output could not
be written (a full disk, a closed pipe).  Reports are
deterministic for a fixed (metric, seed, points, tolerances) tuple; pass
``--no-timestamp`` to make JSON output byte-identical across runs.

``main(argv)`` is the library entry: it returns the exit code and leaves the
process as it found it.  ``console_entry()`` is the process entry behind the
``wstar`` script and ``python -m wstar.cli``.

A command loads only what it runs: the check stack (:mod:`wstar.checks`) is
imported on the ``check`` and ``classify`` paths, so ``compute`` and
``catalog list`` never load it.  Importing this module before numpy sets
``OPENBLAS_NUM_THREADS=1`` unless the caller has set it (see below).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, NoReturn

# A command process runs OpenBLAS with one thread unless its caller sets
# OPENBLAS_NUM_THREADS: the largest BLAS or LAPACK call here is a 48 x 48
# solve over 64 points, and the worker thread OpenBLAS starts when numpy is
# imported costs more CPU than that.  It takes effect only before the first
# numpy import of the process, so it comes before any of this module's.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import catalog, wstar as ws
from .geometry import Geometry, MetricSpec, workspace
from .jet import _raise_first, _weyl, by_symmetry, curvature_fields
from .matter import FieldEquationConfig, energy_momentum_values
from .metricfile import MetricFileError, load_metric as _load_metric_file
from .report import (RunReport, classification_payload, render_classification_table,
                     render_json, render_table, stamp, to_json)
from .sampling import DET_FLOOR, SamplingError, sample_points
from .tape import TapeEvalError

if TYPE_CHECKING:
    from .checks import CheckContext

__all__ = ["RunConfig", "EVAL_ERRORS", "load_metric", "run_checks", "compute_at", "main",
           "console_entry"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_EVAL = 3
EXIT_OUTPUT = 4


class UsageError(Exception):
    pass


class EvalError(Exception):
    pass


# what evaluating a metric at its sample points can raise: a point where a
# component or a derivative of one is not finite, a singular metric, float
# arithmetic.  ``check`` reports it on the check that raised it; a command
# that stops on it exits 3.
EVAL_ERRORS = (TapeEvalError, FloatingPointError, np.linalg.LinAlgError, ZeroDivisionError)


@dataclass(frozen=True)
class RunConfig:
    """Validated options shared by the check and classify commands."""

    metric: str
    checks: tuple = ("all",)
    points: int = 32
    seed: int = 42
    rtol: float = 1e-6
    atol: float = 1e-9
    k: float = 1.0
    lam: float = 0.0
    fmt: str = "json"
    timestamp: bool = True

    def __post_init__(self):
        if self.points < 1:
            raise UsageError("--points must be at least 1")
        for flag, value in (("--rtol", self.rtol), ("--atol", self.atol),
                            ("--k", self.k), ("--lambda", self.lam)):
            if not math.isfinite(value):
                raise UsageError(f"{flag} must be finite")
        if not self.rtol > 0.0:
            raise UsageError("--rtol must be positive")
        if not self.atol > 0.0:
            raise UsageError("--atol must be positive")
        if self.fmt not in ("json", "table"):
            raise UsageError("--format must be 'json' or 'table'")
        if self.k == 0.0:
            raise UsageError("--k must be nonzero")
        from .checks import REGISTRY
        bad = [c for c in self.checks if c != "all" and c not in REGISTRY]
        if bad:
            known = ", ".join(REGISTRY)
            raise UsageError(
                f"unknown check name(s): {', '.join(bad)};"
                f" available: all, {known}"
            )
        for i, name in enumerate(self.checks):
            if name in self.checks[:i]:
                raise UsageError(f"check {name!r} given twice")


def load_metric(source: str) -> MetricSpec:
    """A catalog name, or a path to a metric definition file."""
    if source in catalog.CATALOG_NAMES:
        return catalog.catalog_metric(source)
    if os.path.exists(source):
        return _load_metric_file(source)
    names = ", ".join(catalog.CATALOG_NAMES)
    raise UsageError(
        f"metric {source!r} is neither a catalog name ({names}) "
        "nor an existing file"
    )


def sample_for(geo: Geometry, count: int, seed: int) -> np.ndarray:
    """Deterministic in-domain sample, rejecting near-degenerate points."""
    reject = lambda rows: geo.det_values(rows) <= DET_FLOOR
    return sample_points(geo.metric.domain, count, seed, reject=reject)


def _context(cfg: RunConfig, checks) -> CheckContext:
    """The run's metric at its sample points, ready for the checks ``checks``.

    The checks use the constants of four dimensions (the -1/3 and 1/6 of the
    divergence forms, the trace 4L + k(mu - 3p)), so any other dim is refused
    before sampling.
    """
    from .checks import CheckContext
    metric = load_metric(cfg.metric)
    if metric.dim != 4:
        raise UsageError(
            f"metric {metric.name!r} has dim {metric.dim}; check and classify need dim 4"
        )
    pts = sample_for(workspace(metric), cfg.points, cfg.seed)
    return CheckContext(metric, pts, FieldEquationConfig(k=cfg.k, lam=cfg.lam),
                        atol=cfg.atol, rtol=cfg.rtol, checks=checks)


def run_checks(cfg: RunConfig) -> RunReport:
    from .checks import CheckOutcome, REGISTRY
    names = tuple(REGISTRY) if "all" in cfg.checks else cfg.checks
    ctx = _context(cfg, names)
    rep = RunReport(cfg, ctx.metric, timestamp=stamp(cfg))
    for name in names:
        try:
            out = ctx.check(name)
        except EVAL_ERRORS as err:
            out = CheckOutcome("fail", None, ctx.tol(0.0), None,
                               f"evaluation error: {err}", name=name)
        rep.checks.append(out)
    return rep


# --- point evaluation ---------------------------------------------------------

# --tensor name -> the field it prints or, for riemann and weyl, the symmetry
# classes of R_{ijkl} it is formed from
_TENSORS = {
    "metric": "g", "inverse": "ginv", "christoffel": "gam", "riemann": "rc", "ricci": "ric",
    "scalar": "R", "weyl": "rc", "wstar": "w04", "wstar_contraction": "w02",
}
# T is formed from Ricci, R and g, and is the one tensor that reads the
# coupling k; krupka is a decomposition, not a field
_TENSOR_NAMES = (*_TENSORS, "energy_momentum", "krupka")


def _entries(values: np.ndarray):
    for idx in np.ndindex(values.shape):
        v = float(values[idx])
        if v != 0.0:
            yield "(" + ",".join(str(i) for i in idx) + ")", v


def _render_values(values: np.ndarray, prefix: str = "") -> list:
    if values.ndim == 0:
        body = repr(float(values))
        return [f"{prefix}: {body}" if prefix else body]
    lines = [f"{prefix}{key}: {v!r}" for key, v in _entries(values)]
    if not lines:
        lines.append(f"{prefix}: all components zero" if prefix
                     else "all components zero")
    return lines


def parse_point(at: str, metric: MetricSpec) -> np.ndarray:
    given = {}
    for item in at.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"--at entries look like name=value; got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in metric.coords:
            raise UsageError(
                f"unknown coordinate {key!r}; this metric uses "
                + ", ".join(metric.coords)
            )
        if key in given:
            raise UsageError(f"coordinate {key!r} given twice")
        try:
            given[key] = float(raw)
        except ValueError:
            raise UsageError(f"coordinate {key!r} has non-numeric value {raw!r}")
        if not math.isfinite(given[key]):
            raise UsageError(f"coordinate {key!r} must be finite")
    missing = [c for c in metric.coords if c not in given]
    if missing:
        raise UsageError("missing coordinate value(s): " + ", ".join(missing))
    point = np.array([given[c] for c in metric.coords], dtype=float)
    for c, v, (lo, hi) in zip(metric.coords, point, metric.domain):
        if not lo <= v <= hi:
            raise EvalError(
                f"coordinate {c}={v:g} is outside the metric domain [{lo:g}, {hi:g}]"
            )
    return point


def compute_at(tensor: str, metric: MetricSpec, point: np.ndarray,
               cfg: FieldEquationConfig) -> str:
    """One tensor at one point, from the metric's 3-jet as ``check`` reads it."""
    if tensor not in _TENSOR_NAMES:
        raise UsageError(f"unknown tensor {tensor!r}; choose from {', '.join(_TENSOR_NAMES)}")
    if tensor == "weyl" and metric.dim < 3:
        raise UsageError("conformal curvature needs dim >= 3")
    if tensor in ("wstar", "wstar_contraction", "krupka") and metric.dim < 2:
        raise UsageError("the curvature modification needs dim >= 2")
    fields = curvature_fields(workspace(metric), point[None, :])
    if tensor == "krupka":
        lines = []
        w13 = _raise_first(fields["ginv"], fields["w04"])
        for label, values in zip("BCDE", ws.krupka_parts(w13)):
            lines.extend(_render_values(values[0], prefix=label))
        return "\n".join(lines)
    if tensor == "energy_momentum":
        values = energy_momentum_values(fields["ric"], fields["R"], fields["g"], cfg)
    else:
        values = fields[_TENSORS[tensor]]
    if tensor == "weyl":
        values = _weyl(values, fields["g"], fields["ric"], fields["R"])
    elif tensor == "riemann":
        values = by_symmetry(values)
    return "\n".join(_render_values(values[0]))


# --- classify -----------------------------------------------------------------


def classify_payload(cfg: RunConfig) -> tuple:
    """(payload dict, any-pairing-violated flag)."""
    from .checks import FLAGS, PAIRINGS, classification, holds, pairings
    ctx = _context(cfg, [name for _, name in FLAGS + PAIRINGS])
    pairs = pairings(ctx)
    payload = classification_payload(cfg, ctx.metric, classification(ctx), pairs,
                                     stamp(cfg))
    return payload, any(holds(out) is False for out in pairs.values())


# --- argument parsing ---------------------------------------------------------


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--metric", required=True, help="catalog name or metric file path")
    p.add_argument("--points", type=int, default=32)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--rtol", type=float, default=1e-6)
    p.add_argument("--atol", type=float, default=1e-9)
    p.add_argument("--k", type=float, default=1.0, help="gravitational coupling")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="cosmological constant")
    p.add_argument("--format", dest="fmt", choices=("json", "table"),
                   default="json")
    p.add_argument("--no-timestamp", dest="timestamp", action="store_false",
                   help="omit the timestamp for byte-identical output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wstar",
        description=(
            "Evaluate curvature identities, space-time properties, and "
            "theorem-consistency pairings for a metric at sampled points."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="work with the built-in metric catalog")
    cat_sub = cat.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list", help="list built-in metrics")

    chk = sub.add_parser("check", help="run named checks against a metric")
    _add_run_flags(chk)
    chk.add_argument(
        "--checks", default="all",
        help="comma-separated check names, or 'all' (default)",
    )

    cmp_ = sub.add_parser("compute", help="evaluate one tensor at one point")
    cmp_.add_argument("--metric", required=True)
    cmp_.add_argument("--tensor", required=True, choices=_TENSOR_NAMES)
    cmp_.add_argument("--at", required=True,
                      help="comma-separated coordinates, e.g. t=1,r=4,theta=1.2,phi=0")
    cmp_.add_argument("--k", type=float, default=1.0)
    cmp_.add_argument("--lambda", dest="lam", type=float, default=0.0)

    cls = sub.add_parser("classify", help="report property flags and pairings")
    _add_run_flags(cls)
    return parser


# each command returns (output text, exit code); main() writes the text
def _cmd_catalog(args) -> tuple:
    lines = (f"{name}: {catalog.describe(name)}" for name in catalog.CATALOG_NAMES)
    return "\n".join(lines), EXIT_OK


def _run_config(args, checks: tuple = ("all",)) -> RunConfig:
    """The validated run options of a ``check`` or ``classify`` command line."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name != "checks"}
    return RunConfig(checks=checks, **given)


def _cmd_check(args) -> tuple:
    names = tuple(s.strip() for s in args.checks.split(",") if s.strip())
    if not names:
        raise UsageError("--checks needs at least one name or 'all'")
    cfg = _run_config(args, names)
    rep = run_checks(cfg)
    text = render_json(rep) if cfg.fmt == "json" else render_table(rep)
    return text, EXIT_CHECK_FAILED if rep.failed else EXIT_OK


def _cmd_compute(args) -> tuple:
    metric = load_metric(args.metric)
    cfg = FieldEquationConfig(k=args.k, lam=args.lam)
    point = parse_point(args.at, metric)
    return compute_at(args.tensor, metric, point, cfg), EXIT_OK


def _cmd_classify(args) -> tuple:
    cfg = _run_config(args)
    payload, violated = classify_payload(cfg)
    text = to_json(payload) if cfg.fmt == "json" else render_classification_table(payload)
    return text, EXIT_CHECK_FAILED if violated else EXIT_OK


def _cannot_write(err: OSError) -> int:
    """Report output that could not be written, as far as stderr allows."""
    try:
        print(f"error: cannot write output: {err}", file=sys.stderr)
    except OSError:
        pass
    return EXIT_OUTPUT


def _join_negative_values(parser: argparse.ArgumentParser, argv) -> list:
    """``--k -1e-3`` as ``--k=-1e-3``: after a space, argparse takes a negative
    value in exponent form, or ``-inf``, for an option and rejects it.

    A flag is joined when argparse would read it, whole or as an unambiguous
    prefix, as a float option of the command being parsed: ``--lam`` is
    ``--lambda``, and ``--at`` is ``--atol`` in ``check`` and ``classify`` but
    ``compute``'s own point.
    """
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    command = commands.get(argv[0]) if argv else None
    options = command._option_string_actions if command else {}

    def takes_float(flag: str) -> bool:
        hits = [flag] if flag in options else [
            s for s in options if flag[:2] == "--" and s.startswith(flag)]
        return len(hits) == 1 and options[hits[0]].type is float

    out = []
    for arg in argv:
        if out and arg[:1] == "-" and takes_float(out[-1]):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(
        parser, sys.argv[1:] if argv is None else argv))
    handler = {
        "catalog": _cmd_catalog,
        "check": _cmd_check,
        "compute": _cmd_compute,
        "classify": _cmd_classify,
    }[args.command]
    try:
        text, code = handler(args)
    # ahead of ValueError, which LinAlgError subclasses
    except (EvalError, SamplingError) + EVAL_ERRORS as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return EXIT_EVAL
    except (UsageError, MetricFileError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(text)
    except OSError as err:
        return _cannot_write(err)
    return code


def console_entry() -> NoReturn:
    """Run one command as the whole process, and end the process with it.

    The expression graph a command builds lives until the command is done,
    so the cyclic collector is paused: its passes would only walk the graph
    again.  After ``main()`` returns, the process ends with ``os._exit``,
    which skips the interpreter's teardown of that graph; the operating
    system frees it at once.  The standard streams are flushed first; output
    that could not be written exits 4, like a failed write in ``main()``.  An
    exception or ``SystemExit`` out of ``main()`` takes the usual interpreter
    exit.
    """
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
    except OSError as err:
        if code != EXIT_OUTPUT:  # else main() has reported it already
            code = _cannot_write(err)
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover - exercised in subprocess tests
    console_entry()
