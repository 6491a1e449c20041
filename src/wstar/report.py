"""Run reports: JSON and table output of the ``check`` and ``classify`` commands.

Both JSON reports open with the six keys of :func:`header`; ``check`` then
lists the run's :class:`wstar.checks.CheckOutcome` records as they are
(:class:`RunReport`), ``classify`` its flags and theorem pairings.  Payloads
are built key-by-key in a fixed order and serialized with the standard
library, so two runs with the same inputs produce byte-identical output once
the optional timestamp is suppressed.  Floats go through Python's shortest
round-trip repr via ``json.dumps``; numpy scalars are converted first.  The
output is strict JSON: a check that could not be evaluated has
``max_residual: null``, and serialization refuses NaN and infinities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .geometry import MetricSpec

if TYPE_CHECKING:
    from .checks import CheckOutcome

__all__ = ["RunReport", "header", "payload", "to_json", "render_json", "render_table",
           "classification_payload", "render_classification_table"]


@dataclass
class RunReport:
    """All check verdicts of one ``check`` run, with the run that made them."""

    config: Any  # the run's wstar.cli.RunConfig
    metric: MetricSpec
    checks: List[CheckOutcome] = field(default_factory=list)
    timestamp: Optional[str] = None

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)


def stamp(config) -> Optional[str]:
    """The time of the run in UTC, or None when the run omits it."""
    if not config.timestamp:
        return None
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def header(config, metric: MetricSpec) -> dict:
    """The six keys that open both JSON reports, in schema order."""
    return {
        "metric": metric.name,
        "seed": config.seed,
        "points": config.points,
        "tolerances": {"atol": float(config.atol), "rtol": float(config.rtol)},
        "k": float(config.k),
        "lambda": float(config.lam),
    }


def _stamped(out: dict, timestamp: Optional[str]) -> dict:
    if timestamp is not None:
        out["timestamp"] = timestamp
    return out


def payload(report: RunReport) -> dict:
    """The ``check`` report as a dict, keys in schema order."""
    out = header(report.config, report.metric)
    out["checks"] = []
    for c in report.checks:
        entry = {
            "name": c.name,
            "status": c.status,
            "max_residual": None if c.max_residual is None else float(c.max_residual),
            "tolerance": float(c.tolerance),
            "worst_point": None if c.worst_point is None else [float(v) for v in c.worst_point],
        }
        if c.reason:
            entry["reason"] = c.reason
        out["checks"].append(entry)
    return _stamped(out, report.timestamp)


def to_json(data: dict) -> str:
    """Either report's payload as strict JSON text."""
    return json.dumps(data, indent=2, allow_nan=False)


def render_json(report: RunReport) -> str:
    return to_json(payload(report))


def _footer(lines: list, timestamp: Optional[str]) -> str:
    if timestamp is not None:
        lines += ["", f"generated: {timestamp}"]
    return "\n".join(lines)


def _fmt_point(point, coords) -> str:
    if point is None:
        return "-"
    return ", ".join(f"{n}={v:.6g}" for n, v in zip(coords, point))


def render_table(report: RunReport) -> str:
    cfg, metric = report.config, report.metric
    head = (
        f"metric: {metric.name}   dim: {metric.dim}   points: {cfg.points}"
        f"   seed: {cfg.seed}\n"
        f"atol: {cfg.atol:g}   rtol: {cfg.rtol:g}   k: {cfg.k:g}"
        f"   lambda: {cfg.lam:g}"
    )
    rows = [("check", "status", "max residual", "tolerance", "worst point")]
    rows += [(c.name, c.status, "-" if c.max_residual is None else f"{c.max_residual:.6e}",
              f"{c.tolerance:.3e}", _fmt_point(c.worst_point, metric.coords))
             for c in report.checks]
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = [head, ""]
    for j, r in enumerate(rows):
        lines.append("  ".join(col.ljust(w) for col, w in zip(r, widths)).rstrip())
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    notes = [f"note [{c.name}]: {c.reason}" for c in report.checks if c.reason]
    if notes:
        lines += ["", *notes]
    return _footer(lines, report.timestamp)


def classification_payload(config, metric: MetricSpec, flags: Dict[str, CheckOutcome],
                           pairings: Dict[str, CheckOutcome],
                           timestamp: Optional[str] = None) -> dict:
    """The ``classify`` report as a dict: flags and pairings by public name."""
    from .checks import holds  # not at load: compute does not load the check stack
    out = header(config, metric)
    out["flags"], out["residuals"] = {}, {}
    for name, c in flags.items():
        out["flags"][name] = holds(c)
        out["residuals"][name] = {"residual": float(c.max_residual),
                                  "threshold": float(c.tolerance)}
        if holds(c) is None and c.reason:
            out["residuals"][name]["note"] = c.reason
    out["pairings"] = [{"name": name, "holds": holds(c), "detail": c.reason}
                       for name, c in pairings.items()]
    return _stamped(out, timestamp)


def render_classification_table(payload: dict) -> str:
    head = f"metric: {payload['metric']}   points: {payload['points']}   seed: {payload['seed']}"
    lines = [head, ""]
    word = {True: "yes", False: "no", None: "n/a"}
    width = max(len(n) for n in payload["flags"])
    for name, flag in payload["flags"].items():
        r = payload["residuals"][name]
        extra = f"   (residual {r['residual']:.3e}, threshold {r['threshold']:.3e})"
        note = f"   -- {r['note']}" if "note" in r else ""
        lines.append(f"{name.ljust(width)}  {word[flag].ljust(3)}{extra}{note}")
    lines += ["", "theorem pairings:"]
    for p in payload["pairings"]:
        tag = {True: "consistent", False: "VIOLATED", None: "n/a"}[p["holds"]]
        lines.append(f"  {p['name']}: {tag} -- {p['detail']}")
    return _footer(lines, payload.get("timestamp"))
