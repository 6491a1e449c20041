"""Line-oriented metric file format.

Example (``#`` starts a comment, symmetric entries may be given once)::

    dim = 4
    coords = t, r, theta, phi
    param M = 1.0
    domain r = 3.0 .. 20.0      # default interval is 0 .. 1
    g[0][0] = -(1 - 2*M/r)
    g[1][1] = 1/(1 - 2*M/r)
    g[2][2] = r^2
    g[3][3] = r^2 * sin(theta)^2

Unset components default to 0.  ``dim`` defaults to the coordinate count;
giving both requires them to agree.  Specifying ``g[i][j]`` fixes ``g[j][i]``
too; a conflicting second assignment is an error (reported with both line
numbers).
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .exprlib import ParseError, const, parse
from .geometry import MetricSpec

__all__ = ["MetricFileError", "load_metric", "parse_metric_text"]

_G_LINE = re.compile(r"^g\s*\[\s*(\d+)\s*\]\s*\[\s*(\d+)\s*\]\s*=\s*(.+)$")
_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class MetricFileError(Exception):
    """Malformed metric file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _float(text: str, lineno: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MetricFileError(f"{what} is not a number: {text!r}", lineno) from None
    if not math.isfinite(value):
        raise MetricFileError(f"{what} must be finite, got {text!r}", lineno)
    return value


def parse_metric_text(text: str, name: str) -> MetricSpec:
    dim = None
    coords: list | None = None
    params: dict = {}
    domains: dict = {}
    entries: dict = {}  # (i, j) normalized with i<=j -> (lineno, source)
    deferred_g: list = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _G_LINE.match(line)
        if m:
            deferred_g.append((lineno, int(m.group(1)), int(m.group(2)), m.group(3).strip()))
            continue
        key, _, rest = line.partition("=")
        key = key.strip()
        rest = rest.strip()
        if not _ or not rest:
            raise MetricFileError(f"expected 'key = value', got {line!r}", lineno)
        if key == "dim":
            if dim is not None:
                raise MetricFileError("duplicate dim line", lineno)
            try:
                dim = int(rest)
            except ValueError:
                raise MetricFileError(f"dim is not an integer: {rest!r}", lineno) from None
            if dim < 1:
                raise MetricFileError("dim must be positive", lineno)
        elif key == "coords":
            if coords is not None:
                raise MetricFileError("duplicate coords line", lineno)
            coords = [c.strip() for c in rest.split(",")]
            for c in coords:
                if not _IDENT.match(c):
                    raise MetricFileError(f"bad coordinate name {c!r}", lineno)
            if len(set(coords)) != len(coords):
                raise MetricFileError("repeated coordinate name", lineno)
        elif key.startswith("param "):
            pname = key[len("param ") :].strip()
            if not _IDENT.match(pname):
                raise MetricFileError(f"bad parameter name {pname!r}", lineno)
            if pname in params:
                raise MetricFileError(f"duplicate parameter {pname!r}", lineno)
            params[pname] = _float(rest, lineno, f"parameter {pname}")
        elif key.startswith("domain "):
            cname = key[len("domain ") :].strip()
            if cname in domains:
                raise MetricFileError(f"duplicate domain for {cname!r}", lineno)
            lo_text, sep, hi_text = rest.partition("..")
            if not sep:
                raise MetricFileError("domain needs the form 'lo .. hi'", lineno)
            lo = _float(lo_text.strip(), lineno, "domain lower bound")
            hi = _float(hi_text.strip(), lineno, "domain upper bound")
            if not lo < hi:
                raise MetricFileError("domain lower bound must be below upper bound", lineno)
            domains[cname] = (lineno, (lo, hi))
        else:
            raise MetricFileError(f"unrecognized line {line!r}", lineno)

    if coords is None:
        raise MetricFileError("missing coords line", max(1, text.count("\n") + 1))
    if dim is None:
        dim = len(coords)
    if len(coords) != dim:
        raise MetricFileError(
            f"dim = {dim} but {len(coords)} coordinates listed", 1
        )
    for pname in params:
        if pname in coords:
            raise MetricFileError(f"parameter {pname!r} shadows a coordinate", 1)
    for cname, (lineno, _interval) in domains.items():
        if cname not in coords:
            raise MetricFileError(f"domain for unknown coordinate {cname!r}", lineno)

    zero = const(0)
    g = [[zero for _ in range(dim)] for _ in range(dim)]
    for lineno, i, j, src in deferred_g:
        if i >= dim or j >= dim:
            raise MetricFileError(f"metric index out of range for dim {dim}", lineno)
        try:
            expr = parse(src, coords, params)
        except ParseError as err:
            raise MetricFileError(f"bad expression: {err}", lineno) from None
        key = (min(i, j), max(i, j))
        if key in entries:
            prev_line, prev_src = entries[key]
            prev = parse(prev_src, coords, params)
            if prev != expr:
                raise MetricFileError(
                    f"g[{i}][{j}] conflicts with line {prev_line}", lineno
                )
            continue
        entries[key] = (lineno, src)
        g[key[0]][key[1]] = expr
        g[key[1]][key[0]] = expr

    domain = tuple(domains.get(c, (0, (0.0, 1.0)))[1] for c in coords)
    return MetricSpec(
        name=name,
        coords=tuple(coords),
        g=tuple(tuple(row) for row in g),
        params=dict(params),
        domain=domain,
    )


def load_metric(path) -> MetricSpec:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as err:
        raise MetricFileError(f"cannot read {p}: {err.strerror or err}", 0) from None
    return parse_metric_text(text, p.stem)
