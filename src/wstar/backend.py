"""Level-scheduled numpy kernel for instruction tapes (see :mod:`wstar.tape`).

An instruction's depth is 0 for a leaf and 1 + the largest operand depth
otherwise, so all operands of a depth-d instruction are ready once the smaller
depths are done.  Instructions are grouped by (depth, opcode, exponent) and
each group runs as one fancy-indexed ufunc call over a chunk of 64 points,
keeping the register file at (instructions x 64) (level scheduling, Anderson
& Saad, 1989).  Registers are laid out in schedule order, so a group writes
one contiguous block.  Powers are grouped by exponent and get it as a scalar:
that keeps them bit-identical to one ``np.power`` call per instruction.

Per point, ``err`` holds the smallest instruction index whose value is not
finite (the tape is in topological order, so this is the first failure) and
that output row stays NaN.
"""

from __future__ import annotations

import numpy as np

from .tape import (OP_ADD, OP_CONST, OP_COORD, OP_COS, OP_COSH, OP_DIV, OP_EXP,
                   OP_LN, OP_MUL, OP_NEG, OP_PARAM, OP_POWF, OP_POWI, OP_SIN,
                   OP_SINH, OP_SQRT, OP_SUB, OP_TAN)

BACKEND = "python"
_CHUNK = 64
_UNARY = {OP_NEG: np.negative, OP_SIN: np.sin, OP_COS: np.cos, OP_TAN: np.tan,
          OP_EXP: np.exp, OP_LN: np.log, OP_SQRT: np.sqrt, OP_SINH: np.sinh,
          OP_COSH: np.cosh}
_BINARY = {OP_ADD: np.add, OP_SUB: np.subtract, OP_MUL: np.multiply,
           OP_DIV: np.divide}


def levels(code, a, b) -> np.ndarray:
    """Depth of each instruction in the tape's DAG."""
    ops, aa, bb = code.tolist(), a.tolist(), b.tolist()
    depth = [0] * len(ops)
    for i, op in enumerate(ops):
        if op in _BINARY:
            depth[i] = 1 + max(depth[aa[i]], depth[bb[i]])
        elif op in _UNARY or op in (OP_POWI, OP_POWF):
            depth[i] = 1 + depth[aa[i]]
    return np.array(depth, dtype=np.int64)


def schedule(code, a, b, cval):
    """``(reg, groups)``: instruction ``i`` lives in register ``reg[i]``.

    A group ``(op, start, stop, x, y, exponent)`` writes registers
    ``start:stop`` from operand registers ``x`` (and ``y`` if binary); a leaf
    group carries its constants, coordinate or parameter indices in ``x``.
    """
    n = code.shape[0]
    expo = np.where(code == OP_POWI, b, np.where(code == OP_POWF, cval, 0.0))
    depth = levels(code, a, b)
    order = np.lexsort((expo, code, depth))
    reg = np.empty(n, dtype=np.int64)
    reg[order] = np.arange(n)
    keys = np.stack([depth, code, expo])[:, order]
    cuts = np.flatnonzero(np.any(keys[:, 1:] != keys[:, :-1], axis=0)) + 1
    groups = []
    for start, stop in zip(np.r_[0, cuts], np.r_[cuts, n]) if n else ():
        rows = order[start:stop]
        op = int(code[rows[0]])
        x = (cval[rows, None] if op == OP_CONST else a[rows]
             if op in (OP_COORD, OP_PARAM) else reg[a[rows]])
        y = reg[b[rows]] if op in _BINARY else None
        e = int(b[rows[0]]) if op == OP_POWI else cval[rows[0]]
        groups.append((op, start, stop, x, y, e))
    return reg, groups


def run_tape(code, a, b, cval, pts, pvec, out_idx):
    reg, groups = schedule(code, a, b, cval)
    n, n_points = code.shape[0], pts.shape[0]
    vals = np.empty((n_points, out_idx.shape[0]))
    err = np.full(n_points, -1, dtype=np.int64)
    regs = np.empty((n, 0))
    for start in range(0, n_points, _CHUNK):
        chunk = pts[start:start + _CHUNK]
        if regs.shape[1] != chunk.shape[0]:
            regs = np.empty((n, chunk.shape[0]))
        with np.errstate(all="ignore"):
            for op, lo, hi, x, y, e in groups:
                out = regs[lo:hi]
                if op == OP_CONST:
                    out[...] = x
                elif op == OP_COORD:
                    out[...] = chunk[:, x].T
                elif op == OP_PARAM:
                    out[...] = pvec[x, None]
                elif op in _UNARY:
                    _UNARY[op](regs[x], out=out)
                elif op in _BINARY:
                    _BINARY[op](regs[x], regs[y], out=out)
                else:  # OP_POWI, OP_POWF
                    np.power(regs[x], e, out=out)
        bad = ~np.isfinite(regs)
        hit = np.flatnonzero(bad.any(axis=0))
        vals[start:start + chunk.shape[0]] = regs[reg[out_idx]].T
        if hit.size:
            err[start + hit] = bad[reg][:, hit].argmax(axis=0)
            vals[start + hit] = np.nan
    return vals, err
