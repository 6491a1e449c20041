"""Flat instruction tapes for fast multi-point evaluation of expression DAGs.

A tape is a straight-line program in SSA form: instruction ``i`` writes
register ``i``, operands ``a``/``b`` are register indices (or immediate data
for leaf opcodes).  Shared subexpressions across all compiled components are
emitted once (the interning layer makes sharing visible by object identity),
so one tape evaluates a whole tensor field per point.

Execution is delegated to the level-scheduled numpy kernel in
:mod:`wstar.backend`, whose tangent mode also gives the coordinate partials
of chosen outputs; :meth:`Tape.run` is the one entry.  It flags the first
instruction per point whose result is not finite (division by zero, log of a
non-positive number, fractional power of a negative base, overflow, ...)
instead of raising, so a bad sample point does not abort a batch.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .exprlib import Expr, _postorder, to_text

__all__ = ["Tape", "compile_tape", "TapeEvalError", "point_text"]

# opcode table
OP_CONST = 0
OP_COORD = 1
OP_PARAM = 2
OP_NEG = 3
OP_SIN = 4
OP_COS = 5
OP_TAN = 6
OP_EXP = 7
OP_LN = 8
OP_SQRT = 9
OP_SINH = 10
OP_COSH = 11
OP_ADD = 12
OP_SUB = 13
OP_MUL = 14
OP_DIV = 15
OP_POWI = 16  # b holds the integer exponent
OP_POWF = 17  # cval holds the float exponent

_UNARY_OPS = {
    "neg": OP_NEG,
    "sin": OP_SIN,
    "cos": OP_COS,
    "tan": OP_TAN,
    "exp": OP_EXP,
    "ln": OP_LN,
    "sqrt": OP_SQRT,
    "sinh": OP_SINH,
    "cosh": OP_COSH,
}
_BINARY_OPS = {"add": OP_ADD, "sub": OP_SUB, "mul": OP_MUL, "div": OP_DIV}
_BINARY_CODES = frozenset(_BINARY_OPS.values())


def point_text(coords: Sequence[str], point) -> str:
    """``t=0.1, x=0, ...``: a point's coordinate values, named."""
    return ", ".join(f"{c}={v:.6g}" for c, v in zip(coords, point))


class TapeEvalError(Exception):
    """Batch evaluation failed at a specific point and subexpression.

    ``label`` names the first labelled output the failing subexpression
    feeds (``g[1][1]``, ``∂_r g[1][1]``, ...) and ``at`` the point's
    coordinate values, when the tape and the caller know them.
    """

    def __init__(self, message: str, point_index: int, expr: Expr | None,
                 coordinate: str | None = None, label: str | None = None,
                 at: str | None = None):
        self.message = message
        self.point_index = point_index
        self.expr = expr
        self.coordinate = coordinate  # set when a partial failed, not the value
        self.label = label
        field = f" for {label}" if label else ""
        where = f" in '{to_text(expr, max_len=80)}'" if expr is not None else ""
        point = f" at {at}" if at else ""
        super().__init__(f"{message}{field}{where}{point} (point #{point_index})")


class Tape:
    """Compiled form of a list of scalar expressions over shared coordinates."""

    def __init__(self, code, a, b, cval, outputs, nodes, n_coords, param_names,
                 labels=None):
        self.code = code
        self.a = a
        self.b = b
        self.cval = cval
        self.outputs = outputs
        self.nodes = nodes  # instruction index -> source Expr (error attribution)
        self.n_coords = n_coords
        self.param_names = tuple(param_names)
        self.labels = labels  # output index -> name, for error attribution
        self._activities = {}  # (lanes, diff, seeded) -> backend._activity

    @property
    def n_instructions(self) -> int:
        return int(self.code.shape[0])

    @property
    def n_outputs(self) -> int:
        return int(self.outputs.shape[0])

    def param_vector(self, params: Mapping[str, float]) -> np.ndarray:
        try:
            return np.array([float(params[name]) for name in self.param_names])
        except KeyError as missing:
            raise TapeEvalError(f"missing parameter {missing}", -1, None) from None

    @cached_property
    def schedule(self):
        """The kernel's level schedule of this tape (see :func:`wstar.backend.schedule`)."""
        from .backend import schedule

        return schedule(self.code, self.a, self.b, self.cval)

    def activity(self, lanes: int, diff_idx: np.ndarray, seeded: bool):
        """:func:`wstar.backend._activity` of a tangent run, analysed once per key."""
        key = (lanes, diff_idx.tobytes(), seeded)
        if key not in self._activities:
            from .backend import _activity

            self._activities[key] = _activity(*self.schedule, lanes, diff_idx, seeded)
        return self._activities[key]

    def _points(self, points) -> np.ndarray:
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.n_coords:
            raise ValueError(f"points must have shape (P, {self.n_coords})")
        return pts

    def run(self, points: np.ndarray, params: Mapping[str, float] | None = None,
            diff: Sequence[int] | None = None, seeds=None,
            coords: Sequence[str] | None = None):
        """Evaluate all outputs at many points, and the partials of outputs ``diff``.

        ``points`` has shape (P, n_coords).  Returns ``(values, partials, err,
        lane)``: ``values`` has shape (P, n_outputs) and ``err[p]`` is -1 for
        success or the index of the first failing instruction (that row is
        left as NaN).  Without ``diff``, ``partials`` and ``lane`` are None.
        With it, a partial that is not finite also fails its point,
        ``partials`` has shape (P, len(diff), lanes) and ``lane[p]`` is the
        lane whose partial failed (-1 if the value did).  The lanes are the
        coordinates, unless ``seeds`` (P, n_coords, lanes) gives each
        coordinate leaf its own partials per point (see
        :func:`wstar.backend.run`).

        Given the coordinate names ``coords`` (even ``()``), a failure raises
        :class:`TapeEvalError` for the first failed point, with the point's
        values and the lane (``coords[k]``) whose partial failed.
        """
        from . import backend

        pts = self._points(points)
        pvec = self.param_vector(params or {})
        if diff is None:  # looked up per call: perfbench/tracer.py wraps backend.run_tape
            vals, err = backend.run_tape(self.code, self.a, self.b, self.cval, pts, pvec,
                                         self.outputs)
            partials = lane = None
        else:
            diff_idx = self.outputs[np.asarray(diff, dtype=np.int64)]
            lanes = pts.shape[1] if seeds is None else seeds.shape[2]
            vals, partials, err, lane = backend.run(
                self.schedule, pts, pvec, self.outputs, diff_idx, seeds,
                self.activity(lanes, diff_idx, seeds is not None))
        if coords is not None:
            self._raise_first_failure(err, pts, coords, lane, diff)
        return vals, partials, err, lane

    def _raise_first_failure(self, err: np.ndarray, points, coords, lane, diff):
        """Raise :class:`TapeEvalError` for the first point ``err`` marks failed."""
        bad = np.nonzero(err >= 0)[0]
        if not bad.size:
            return
        p, first = int(bad[0]), int(err[bad[0]])
        k = -1 if lane is None else int(lane[p])
        at = point_text(coords, np.asarray(points)[p])
        # a failed partial is one of a differentiated output
        label = self._label_of(first, range(self.n_outputs) if k < 0 else diff)
        if k < 0:
            raise TapeEvalError("evaluation left the domain", p, self.nodes[first],
                                label=label, at=at)
        raise TapeEvalError(f"partial derivative along {coords[k]} is not finite",
                            p, self.nodes[first], coords[k], label, at)

    def _label_of(self, instruction: int, among) -> str | None:
        """The label of the first output in ``among`` that ``instruction`` feeds."""
        if self.labels is None:
            return None
        feeds = np.zeros(self.n_instructions, dtype=bool)
        feeds[instruction] = True
        code, a, b = self.code.tolist(), self.a.tolist(), self.b.tolist()
        for i in range(instruction + 1, self.n_instructions):
            if code[i] in (OP_CONST, OP_COORD, OP_PARAM):
                continue
            feeds[i] = feeds[a[i]] or (code[i] in _BINARY_CODES and feeds[b[i]])
        hit = next((j for j in among if feeds[self.outputs[j]]), None)
        return None if hit is None else self.labels[hit]


def compile_tape(
    exprs: Sequence[Expr], n_coords: int, param_names: Sequence[str] = (),
    labels: Sequence[str] | None = None,
) -> Tape:
    """Compile expressions into one tape, sharing common subexpressions.

    ``labels``, one per expression, name the outputs in evaluation errors.
    """
    pidx = {name: k for k, name in enumerate(param_names)}
    nodes = _postorder(*exprs)  # instruction i computes nodes[i]
    index = {id(node): i for i, node in enumerate(nodes)}
    code: list = []
    aa: list = []
    bb: list = []
    cv: list = []

    def emit(op: int, a: int = 0, b: int = 0, c: float = 0.0):
        code.append(op)
        aa.append(a)
        bb.append(b)
        cv.append(c)

    for node in nodes:
        kind = node.kind
        if kind == "const":
            emit(OP_CONST, c=float(node.data))
        elif kind == "coord":
            if node.data >= n_coords:
                raise ValueError(f"coordinate index {node.data} out of range")
            emit(OP_COORD, a=node.data)
        elif kind == "param":
            if node.data not in pidx:
                raise ValueError(f"unknown parameter '{node.data}'")
            emit(OP_PARAM, a=pidx[node.data])
        elif kind == "pow":
            base = index[id(node.args[0])]
            q = node.data
            if isinstance(q, Fraction) and q.denominator == 1 and abs(q.numerator) < 2**31:
                emit(OP_POWI, a=base, b=q.numerator)
            else:
                emit(OP_POWF, a=base, c=float(q))
        elif kind in _UNARY_OPS:
            emit(_UNARY_OPS[kind], a=index[id(node.args[0])])
        elif kind in _BINARY_OPS:
            emit(_BINARY_OPS[kind], a=index[id(node.args[0])], b=index[id(node.args[1])])
        else:
            raise ValueError(f"cannot compile node kind '{kind}'")

    outputs = np.array([index[id(r)] for r in exprs], dtype=np.int64)
    return Tape(
        np.array(code, dtype=np.int32),
        np.array(aa, dtype=np.int32),
        np.array(bb, dtype=np.int32),
        np.array(cv, dtype=np.float64),
        outputs,
        nodes,
        n_coords,
        param_names,
        None if labels is None else tuple(labels),
    )
