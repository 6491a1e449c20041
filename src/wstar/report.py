"""Run reports: stable JSON and aligned-table rendering of check results.

A report holds the run's :class:`wstar.checks.CheckOutcome` records as they
are, one per requested check.  The JSON payload is built key-by-key in a fixed order and serialized with the
standard library, so two runs with the same inputs produce byte-identical
output once the optional timestamp is suppressed.  Floats go through Python's
shortest round-trip repr via ``json.dumps``; numpy scalars are converted
first.  The output is strict JSON: a check that could not be evaluated has
``max_residual: null``, and serialization refuses NaN and infinities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import List, Optional, Sequence

from .checks import CheckOutcome

__all__ = ["RunReport", "render_json", "render_table"]


@dataclass
class RunReport:
    """All check verdicts for one metric plus the run metadata."""

    metric: str
    seed: int
    points: int
    atol: float
    rtol: float
    k: float
    lam: float
    dim: int
    coords: Sequence[str]
    checks: List[CheckOutcome] = field(default_factory=list)
    timestamp: Optional[str] = None

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)


def utc_stamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def payload(report: RunReport) -> dict:
    """The dict serialized as JSON, keys in schema order."""
    out = {
        "metric": report.metric,
        "seed": report.seed,
        "points": report.points,
        "tolerances": {"atol": float(report.atol), "rtol": float(report.rtol)},
        "k": float(report.k),
        "lambda": float(report.lam),
        "checks": [],
    }
    for c in report.checks:
        entry = {
            "name": c.name,
            "status": c.status,
            "max_residual": None if c.max_residual is None else float(c.max_residual),
            "tolerance": float(c.tolerance),
            "worst_point": (
                None if c.worst_point is None else [float(v) for v in c.worst_point]
            ),
        }
        if c.reason:
            entry["reason"] = c.reason
        out["checks"].append(entry)
    if report.timestamp is not None:
        out["timestamp"] = report.timestamp
    return out


def render_json(report: RunReport) -> str:
    return json.dumps(payload(report), indent=2, allow_nan=False)


def _fmt_point(point, coords) -> str:
    if point is None:
        return "-"
    return ", ".join(f"{n}={v:.6g}" for n, v in zip(coords, point))


def render_table(report: RunReport) -> str:
    head = (
        f"metric: {report.metric}   dim: {report.dim}   points: {report.points}"
        f"   seed: {report.seed}\n"
        f"atol: {report.atol:g}   rtol: {report.rtol:g}   k: {report.k:g}"
        f"   lambda: {report.lam:g}"
    )
    rows = [("check", "status", "max residual", "tolerance", "worst point")]
    for c in report.checks:
        rows.append(
            (
                c.name,
                c.status,
                "-" if c.max_residual is None else f"{c.max_residual:.6e}",
                f"{c.tolerance:.3e}",
                _fmt_point(c.worst_point, report.coords),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = [head, ""]
    for j, r in enumerate(rows):
        lines.append("  ".join(col.ljust(w) for col, w in zip(r, widths)).rstrip())
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    notes = [(c.name, c.reason) for c in report.checks if c.reason]
    if notes:
        lines.append("")
        for name, reason in notes:
            lines.append(f"note [{name}]: {reason}")
    if report.timestamp is not None:
        lines.append("")
        lines.append(f"generated: {report.timestamp}")
    return "\n".join(lines)
