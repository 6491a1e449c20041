"""Level-scheduled numpy kernel for instruction tapes (see :mod:`wstar.tape`).

An instruction's depth is 0 for a leaf and 1 + the largest operand depth
otherwise, so all operands of a depth-d instruction are ready once the smaller
depths are done.  Instructions are grouped by (depth, opcode, exponent) and
each group runs as one fancy-indexed ufunc call over a block of 64 points
(:func:`blocks`), keeping the register file at (instructions x 64) (level
scheduling, Anderson & Saad, 1989).  Registers are laid out in schedule order,
so a group writes one contiguous range of registers.  Powers are grouped by
exponent and get it as a scalar: that keeps them bit-identical to one
``np.power`` call per instruction.

Per point, ``err`` holds the smallest instruction index whose value is not
finite (the tape is in topological order, so this is the first failure) and
that output row stays NaN.

The same kernel body has a tangent mode (forward-mode differentiation;
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008).  Next to
its value, each register then carries its partials along every coordinate.
A coordinate leaf seeds a unit vector (or, for a tape whose leaves stand for
values that vary with the coordinates, the partials it is given per point),
a constant or parameter seeds zero, and each opcode applies its chain rule
to all partial lanes of a group in one ufunc call.  The value lane makes the
same ufunc calls on the same operands as in value mode, so values are
bit-identical.  A partial that is not finite where the value is (``sqrt`` at
0) counts as a failure of its instruction.
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


def blocks(count: int) -> list:
    """The blocks of ``count`` points, in order: slices of at most 64 points.

    The kernel runs one block at a time, and so does every whole-sample step
    whose temporaries would otherwise grow with the number of points."""
    return [slice(start, min(start + _CHUNK, count)) for start in range(0, count, _CHUNK)]


def run_tape(code, a, b, cval, pts, pvec, out_idx):
    """``(vals, err)`` of :func:`run` in value mode, scheduling the tape per call."""
    vals, _, err, _ = run(schedule(code, a, b, cval), pts, pvec, out_idx)
    return vals, err


def _activity(reg, groups, n_lanes, diff_idx, seeded):
    """``(idle, needed, active)`` for a tangent run.

    A ``sqrt`` or fractional power at 0 has a finite value and an infinite
    slope, so a lane whose operand partial is 0 would read 0·inf.  For such
    a group, ``idle[g]`` marks the (row, lane) pairs whose operand depends on
    no coordinate of that lane: their partial is exactly 0.  A seeded leaf
    may depend on every lane.  ``needed`` marks the registers that an
    instruction of ``diff_idx`` depends on; only their partials can fail a
    point or be read, so ``active[g]`` says whether group ``g`` writes any
    of them, and the chain rule of the others is skipped.
    """
    depends = np.zeros((reg.shape[0], n_lanes), dtype=bool)
    idle = []
    for op, lo, hi, x, y, _ in groups:
        if op == OP_COORD:
            depends[lo:hi] = True if seeded else np.eye(n_lanes, dtype=bool)[x]
        elif op not in (OP_CONST, OP_PARAM):
            depends[lo:hi] = depends[x] if y is None else depends[x] | depends[y]
        zero = ~depends[lo:hi]
        idle.append(zero if op in (OP_SQRT, OP_POWF) and zero.any() else None)
    needed = np.zeros(reg.shape[0], dtype=bool)
    needed[reg[diff_idx]] = True
    for op, lo, hi, x, y, _ in reversed(groups):
        if op not in (OP_CONST, OP_COORD, OP_PARAM):
            use = needed[lo:hi]
            needed[x[use]] = True
            if y is not None:
                needed[y[use]] = True
    active = [bool(needed[lo:hi].any()) for _, lo, hi, *_ in groups]
    return idle, needed, active


# d(op v)/dv from the operand values v, the result and the exponent
_SLOPE = {
    OP_SIN: lambda v, out, e: np.cos(v),
    OP_COS: lambda v, out, e: -np.sin(v),
    OP_TAN: lambda v, out, e: 1.0 + out * out,
    OP_EXP: lambda v, out, e: out,
    OP_SQRT: lambda v, out, e: 0.5 / out,
    OP_SINH: lambda v, out, e: np.cosh(v),
    OP_COSH: lambda v, out, e: np.sinh(v),
    OP_POWI: lambda v, out, e: e * np.power(v, e - 1),
    OP_POWF: lambda v, out, e: e * np.power(v, e - 1),
}


def _chain_rule(op, e, out, vx, vy, dx, dy, dout):
    """Write the partials of one group into ``dout`` from its values ``out``,
    its operand values ``vx``/``vy`` and operand partials ``dx``/``dy``
    (lanes on axis 1)."""
    if op == OP_NEG:
        np.negative(dx, out=dout)
    elif op == OP_ADD:
        np.add(dx, dy, out=dout)
    elif op == OP_SUB:
        np.subtract(dx, dy, out=dout)
    elif op == OP_MUL:
        np.multiply(dx, vy[:, None], out=dout)
        dout += vx[:, None] * dy
    elif op == OP_DIV:
        np.multiply(out[:, None], dy, out=dout)
        np.subtract(dx, dout, out=dout)
        dout /= vy[:, None]
    elif op == OP_LN:
        np.divide(dx, vx[:, None], out=dout)
    else:
        np.multiply(_SLOPE[op](vx, out, e)[:, None], dx, out=dout)


def run(sched, pts, pvec, out_idx, diff_idx=None, seeds=None, activity=None):
    """Values of ``out_idx`` and, given ``diff_idx``, the partials of ``diff_idx``.

    ``sched`` is :func:`schedule` of the tape.  Returns ``(vals, partials,
    err, lane)``: ``err[p]`` is -1 for success or the first instruction whose
    value is not finite at point ``p``.  In tangent mode ``partials[p, j,
    k]`` is the partial of instruction ``diff_idx[j]`` along lane ``k``;
    ``err`` then also counts non-finite partials of the instructions
    ``diff_idx`` depends on, and ``lane[p]`` is the lane whose partial failed
    at ``err[p]`` (-1 where the value failed).  Without ``diff_idx``,
    ``partials`` and ``lane`` are None.

    By default the lanes are the coordinates: coordinate leaf ``c`` seeds
    the unit vector along ``c``.  ``seeds`` of shape (P, n_coords, lanes)
    gives every leaf its partials per point instead, so a tape whose leaves
    are themselves functions of the coordinates is differentiated by the
    chain rule.  In tangent mode ``activity`` is :func:`_activity` of the
    run, which :meth:`wstar.tape.Tape.activity` keeps per tape.
    """
    reg, groups = sched
    n, n_points = reg.shape[0], pts.shape[0]
    vals = np.empty((n_points, out_idx.shape[0]))
    err = np.full(n_points, -1, dtype=np.int64)
    regs = np.empty((n, 0))
    tangent = diff_idx is not None
    if tangent:
        n_lanes = pts.shape[1] if seeds is None else seeds.shape[2]
        partials = np.empty((n_points, diff_idx.shape[0], n_lanes))
        lane = np.full(n_points, -1, dtype=np.int64)
        unit = np.eye(n_lanes)[:, :, None]
        idle, needed, active = activity
        diff_reg = reg[diff_idx]
    else:
        partials = lane = None
    for part in blocks(n_points):
        chunk = pts[part]
        if regs.shape[1] != chunk.shape[0]:
            regs = np.empty((n, chunk.shape[0]))
            if tangent:
                dregs = np.empty((n, n_lanes, chunk.shape[0]))
        with np.errstate(all="ignore"):
            for g, (op, lo, hi, x, y, e) in enumerate(groups):
                out = regs[lo:hi]
                vx = vy = None
                if op == OP_CONST:
                    out[...] = x
                elif op == OP_COORD:
                    out[...] = chunk[:, x].T
                elif op == OP_PARAM:
                    out[...] = pvec[x, None]
                elif op in _UNARY:
                    vx = regs[x]
                    _UNARY[op](vx, out=out)
                elif op in _BINARY:
                    vx, vy = regs[x], regs[y]
                    _BINARY[op](vx, vy, out=out)
                else:  # OP_POWI, OP_POWF
                    vx = regs[x]
                    np.power(vx, e, out=out)
                if not tangent or not active[g]:
                    continue
                dout = dregs[lo:hi]
                if op == OP_COORD:
                    dout[...] = unit[x] if seeds is None else (
                        seeds[part, x].transpose(1, 2, 0))
                elif vx is None:
                    dout[...] = 0.0
                else:
                    _chain_rule(op, e, out, vx, vy, dregs[x],
                                None if vy is None else dregs[y], dout)
                    if idle[g] is not None:
                        dout[idle[g]] = 0.0
        bad = ~np.isfinite(regs)
        if tangent:
            bad |= ~np.isfinite(dregs).all(axis=1) & needed[:, None]
        hit = np.flatnonzero(bad.any(axis=0))
        vals[part] = regs[reg[out_idx]].T
        if tangent:
            partials[part] = dregs[diff_reg].transpose(2, 0, 1)
        if hit.size:
            first, rows = bad[reg][:, hit].argmax(axis=0), part.start + hit
            err[rows] = first
            vals[rows] = np.nan
            if tangent:
                partials[rows] = np.nan
                failed = ~np.isfinite(dregs[reg[first], :, hit])
                lane[rows] = np.where(
                    np.isfinite(regs[reg[first], hit]), failed.argmax(axis=1), -1)
    return vals, partials, err, lane
