"""Named, tolerance-aware checks over a metric at sampled points.

Each check computes a per-point residual array from evaluated tensor fields,
compares its maximum against ``atol + rtol * scale`` (scale = magnitude of the
check's dominant ingredient), and reports pass / fail / not-applicable with
the worst sample point.  Property checks (does this space-time satisfy the
condition?) fail honestly on metrics that lack the property; identity checks
must pass everywhere, and the two circulated closed forms that disagree with
their independent routes fail with a reason naming the deviation instead of
being patched over.

:class:`CheckContext` is the one place where a run turns a metric into field
values, and it holds none of them.  Every verdict is a max over sample
points, so no check needs a field for the whole sample at once: the context
walks the blocks of points once (:func:`wstar.jet.field_blocks`, 64 points
each, from the metric's 3-jet; no symbolic curvature is built) and reduces
each block's fields at once to per-point columns, the *steps* of
:data:`_STEPS`: max |.| of every field (behind ``CheckContext.amax``), R,
each check's residuals, the fluid's mu and p, and the Ricci-recurrence fit's
covector, residual and curl.  Each step's columns are arrays of the sample's
length, filled in place block by block, and a block's fields are dropped
before the next block is formed: a check holds its columns and one block's
arrays.  On ``flrw_dust`` (tracemalloc) the walk peaks 1.2-1.3 MiB above
the columns, which take 0.4 MiB at 1024 points, 1.5 MiB at 4096 and 5.7 MiB
at 16384.  Every column is formed at the sample points alone: even the curl
of the recurrence 1-form b comes from the fields at each point, by the Ricci
identity (d_l b_m - d_m b_l) R_{jk} = [nabla_l, nabla_m] R_{jk}
(:func:`recurrence_fit`; E. M. Patterson, J. London Math. Soc. 27 (1952)
287-295).  One walk covers the checks the run names and the checks they
read: each check registers itself with :func:`_check`, which records,
beside the check's code, the steps it reduces to and the checks it reads.
A check outside them, asked for later, walks again for its own steps.
W*^h_{jkl} with the Krupka decomposition so exists for one block only.
Every dense array of n⁵ components or more per point (∇R_{ijkl}, ∇W* where
the divergence reads it, ∇Weyl, the six-slot [nabla, nabla] W*, and the
|.| of such a field) exists for one slice of a block only, 16 points
(:func:`wstar.jet.slices`, and :func:`wstar.jet.per_slice` for a step that
reduces it), where a 64-point block would hold 0.5 MiB per array at n = 4;
∇W* and the cyclic identity are held on their supports instead (below).
This is strip-mining and loop fusion (M. Wolfe, *High Performance
Compilers for Parallel Computing*, 1996).

A step that raises keeps its error in place of its columns, and the error
is raised again for every check that reads that step; the context memoizes
the check outcomes, errors included.  This per-step capture is the one way
a failing field is kept apart: T and ∇T divide by the coupling k, so they
are not among a block's fields but formed by the steps that read them (the
fluid, the T Codazzi and semi-symmetry residuals, and max |T| and max |∇T|
as the steps "t" and "nt"), and a T that cannot be formed fails only the
checks that read those steps.

:class:`CheckOutcome` is the one verdict record, from the registry to both
commands' output, and each verdict is computed in its registry function from
the steps' columns; one that reads other checks' outcomes (the
perfect-fluid results, the theorem pairings) runs only those.  The
``classify`` flags and pairings are views: :data:`FLAGS` and
:data:`PAIRINGS` name the check behind each public name and :func:`holds`
reads its value, so every report of a run reads the same numbers.

Support plans.  W*, ∇W*, the cyclic identity of ∇W* and the semi-symmetry
commutators skip what is 0 at every point of a block.  A field's support is
the set of its components that are nonzero at some point of the block
(:func:`wstar.jet._support`), and a plan lists, for what can be nonzero
given the supports of the factors, the columns its terms are gathered
from.  A plan is built once per distinct tuple of masks
(:func:`wstar.jet.planned`), in a dict that lives with one walk (W*, ∇W*)
or one context (the rest), never at module level; the structural zeros,
and so the masks, are the same in every block of a catalog metric.

- W*_{ijkl} and ∇_m W*_{ijkl} (:func:`wstar.jet._wstar_on_support`) are
  formed where R_{ijlk} or one of the two g ⊗ Ric terms can be nonzero,
  from the masks of the classes of R (∇R), of g and of Ricci (∇Ricci).  W*
  is then written out dense for the commutator and Krupka steps.  ∇W* stays
  on its support (:class:`wstar.jet.Compact`): ``scales`` reads max |∇W*|
  off its columns, the divergence makes it dense a 16-point slice at a
  time, and the cyclic identity reads its columns.  On Schwarzschild, de
  Sitter and FLRW 9-18% of ∇W*'s 1024 components per point are formed;
  ``perturbed_flat`` forms all of them, over 16-point slices.
- The cyclic sum of ∇W* and its closed form (:func:`_cyclic_plan`) are
  formed on the union support of their six addends, 10-21% of the
  components on those three metrics.
- The commutators R(X, Y)·X of W*, Ricci and T count the products
  x * R^s_{imn} whose two factors are nonzero at some point from the two
  masks; below ``_SPARSE_SHARE`` of the dense count (Schwarzschild, de
  Sitter and FLRW keep under 7%, ``perturbed_flat`` over half) a plan of
  only those products runs, otherwise ``geometry.ricci_commutator`` forms
  every product.

Every plan keeps the dense route's bits.  A value on a support is formed
with the dense formula's operations in its order: W* and the cyclic sums
gather their terms from the arrays the dense route multiplies and apply the
one implementation of their brackets (``wstar.wstar_from_terms``,
``wstar.cyclic_from_terms``), and the sparse commutator sums its products
in increasing s per slot with elementwise multiply and add, as the dense
``einsum`` does, and subtracts the slot terms in slot order.  What a plan
skips is an exact ±0 at every point of the block, since each of its terms
or factors is 0 there, and x ± 0 = x for finite x.  So at most the sign of
an exact zero differs, and every reader erases it: a sum with a nonzero
term, or the max |.| per point.

The registry is ordered; running a subset or everything through one context is
deterministic for a fixed (metric, seed, points, tolerances) tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, Optional, Union

import numpy as np

from .backend import blocks
from .geometry import Geometry, MetricSpec, ricci_commutator, workspace
from .jet import Compact, _raise_first, _support, _weyl, field_blocks, per_slice, planned
from .matter import (FieldEquationConfig, _amax, _strict, decompose_fluids,
                     energy_momentum_values)
from . import wstar as ws

__all__ = [
    "CheckContext", "CheckOutcome", "REGISTRY", "recurrence_fit",
    "FLAGS", "PAIRINGS", "holds", "classification", "pairings",
]


@dataclass
class CheckOutcome:
    """One check's verdict: residual against tolerance, and the worst point."""

    status: str  # "pass" | "fail" | "not-applicable"
    max_residual: Optional[float]  # None when the check could not be evaluated
    tolerance: float
    worst_point: Optional[np.ndarray]
    reason: Optional[str] = None
    name: str = ""  # the REGISTRY name, set by CheckContext.check


class CheckContext:
    """Per-point reductions and verdicts of one (metric, points, config) run.

    ``checks`` names the checks the run will ask for (every check by
    default).  The first step read walks the blocks of points once for the
    steps of those checks and of the checks they read; check outcomes, and
    ``recurrence``, are formed from the steps' columns on first use and kept
    for the run, so a check that reads another check's outcome, or a report
    that reads many, computes each at most once; so does a check that
    raises.  The context holds per-point columns and scalars only.
    """

    def __init__(self, metric: MetricSpec, points, cfg: FieldEquationConfig,
                 atol: float = 1e-9, rtol: float = 1e-6,
                 checks: Optional[Iterable[str]] = None):
        self.metric = metric
        self.geo: Geometry = workspace(metric)
        self.points = np.asarray(points, dtype=float)
        self.cfg = cfg
        self.atol = atol
        self.rtol = rtol
        self._planned = _steps_of(REGISTRY if checks is None else checks)
        self._columns: Dict[str, object] = {}  # step -> its columns, or its error
        self.plans: dict = {}  # (builder, support masks) -> its plan (wstar.jet.planned)
        self._outcomes: Dict[str, Union[CheckOutcome, Exception]] = {}

    def reduced(self, step: str):
        """The columns of ``step`` (a key of :data:`_STEPS`) over the whole sample."""
        if step not in self._columns:
            self._walk(self._planned | {step})
        out = self._columns[step]
        if isinstance(out, Exception):
            raise out
        return out

    def _walk(self, steps: set):
        """Reduce every block of points to the columns of ``steps`` not yet kept.

        Each step's columns are arrays of the sample's length, allocated from
        the first block's shapes, and every block writes its rows in place;
        block k's fields are dropped before block k+1 is formed.  So the walk
        holds the columns and one block's arrays, and nothing more.

        A step that raises keeps its error, and so does every step when the
        fields cannot be formed (the jet pass, a singular g, the leaf tape);
        the locals of the error's frames are cleared, so it keeps no block.
        The walk runs under :func:`_strict` whoever reads first, a check or a
        library caller such as ``relativity.fluid_relations``, so a float
        fault is kept as that error and no step keeps an inf or NaN column.
        """
        todo = [step for step in _STEPS if step in steps and step not in self._columns]
        count = len(self.points)
        columns: Dict[str, object] = {}
        try:
            with _strict():
                parts = iter(blocks(count))
                for fields in field_blocks(self.geo, self.points):
                    part = next(parts)
                    for step in todo:
                        if isinstance(columns.get(step), Exception):
                            continue
                        try:
                            value = _STEPS[step](self, fields)
                        except Exception as err:
                            columns[step] = _without_locals(err)
                            continue
                        if step not in columns:
                            columns[step] = _empty_columns(value, count)
                        for column, rows in zip(_arrays(columns[step]), _arrays(value)):
                            column[part] = rows
                    del fields  # before field_blocks forms the next block
        except Exception as err:
            columns = dict.fromkeys(todo, _without_locals(err))
        self._columns.update(columns)

    def amax(self, name: str) -> float:
        """max |field| over every point and component: a key of
        ``reduced("scales")``, or T ("t") or ∇T ("nt"), each a step of its own."""
        return float(np.max(self.reduced(name) if name in ("t", "nt")
                            else self.reduced("scales")[name]))

    @property
    def scalar(self) -> np.ndarray:
        """R at every point."""
        return self.reduced("R")

    @property
    def fluid(self) -> tuple:
        """(mu, p, failures): T decomposed at every point, NaN where it fails."""
        mu, p, errors = self.reduced("fluid")
        return mu, p, tuple(e for e in errors if e is not None)

    @cached_property
    def recurrence(self) -> "RecurrenceFit":
        return recurrence_fit(self)

    def tol(self, scale: float) -> float:
        return self.atol + self.rtol * scale

    def outcome(self, per_point: np.ndarray, scale: float,
                reason: Optional[str] = None) -> CheckOutcome:
        """Pass/fail from a per-point residual array and a scale."""
        per_point = np.asarray(per_point, dtype=float)
        worst = int(np.argmax(per_point))
        res = float(per_point[worst])
        tolerance = self.tol(scale)
        status = "pass" if res <= tolerance else "fail"
        return CheckOutcome(status, res, tolerance, self.points[worst], reason)

    def na(self, reason: str, tolerance: Optional[float] = None) -> CheckOutcome:
        return CheckOutcome(
            "not-applicable", 0.0, self.tol(0.0) if tolerance is None else tolerance,
            None, reason,
        )

    def check(self, name: str) -> CheckOutcome:
        """The named check's outcome, computed once per context (or its error, raised again).

        Float arithmetic that overflows, divides by zero or is invalid raises
        ``FloatingPointError``, and so does a residual or tolerance that is
        not finite: no check reports inf or NaN.
        """
        if name not in self._outcomes:
            try:
                with _strict():
                    out = REGISTRY[name](self)
                for what, value in (("residual", out.max_residual), ("tolerance", out.tolerance)):
                    if value is not None and not np.isfinite(value):
                        raise FloatingPointError(f"the {what} of {name} is {value}")
                out.name = name
            except Exception as err:
                out = err
            self._outcomes[name] = out
        out = self._outcomes[name]
        if isinstance(out, Exception):
            raise out
        return out


def _without_locals(err: Exception) -> Exception:
    """``err``, with the locals of the frames it passed through cleared
    (:func:`traceback.clear_frames`): they would keep the block whose step
    raised it for as long as the context keeps the error."""
    import traceback  # on the error path only

    traceback.clear_frames(err.__traceback__)
    return err


def _empty_columns(block, count: int):
    """Columns of ``count`` points shaped like one block's columns ``block``:
    an array, or a tuple or dict of arrays."""
    def empty(a):
        return np.empty((count,) + a.shape[1:], a.dtype)
    if isinstance(block, dict):
        return {key: empty(a) for key, a in block.items()}
    return tuple(map(empty, block)) if isinstance(block, tuple) else empty(block)


def _arrays(columns) -> list:
    """The arrays of a step's columns, in order."""
    if isinstance(columns, dict):
        return list(columns.values())
    return list(columns) if isinstance(columns, tuple) else [columns]


def _ptmax(a: np.ndarray) -> np.ndarray:
    """Collapse all but the leading (point) axis with max |.|; the |.| of an
    array of n⁵ components or more per point is formed a slice at a time
    (:func:`wstar.jet.per_slice`)."""
    if a.ndim < 6:
        return np.max(np.abs(a.reshape(a.shape[0], -1)), axis=1)
    return per_slice(lambda part: _ptmax(part.reshape(part.shape[0], -1)), a)


# The sparse commutator costs about 3x the dense one per product it forms
# (4.4 against 1.5 ns per product and point, measured at 1024 points on a
# 2-CPU x86-64 machine), plus a fixed cost per block that matters for the
# 2048-product rank-2 commutators; below 1/8 of the dense products it is the
# faster route at either rank.
_SPARSE_SHARE = 0.125


def _takes_sparse_route(xm: np.ndarray, rm: np.ndarray) -> bool:
    """Do both factors have support in under ``_SPARSE_SHARE`` of the products?

    Per slot, X at index b meets R^s_{imn} for s = b[slot]: densely every
    component of X meets the n^3 components of one R^s, and with supports the
    count is sum_s |{b: b[slot] = s}| * |support of R^s|.
    """
    n, rank = rm.shape[0], xm.ndim
    per_s = rm.reshape(n, -1).sum(axis=1)
    kept = sum(
        int(xm.sum(axis=tuple(a for a in range(rank) if a != slot)) @ per_s)
        for slot in range(rank)
    )
    return kept < _SPARSE_SHARE * rank * xm.size * rm[0].size


def _commutator_plan(xm: np.ndarray, rm: np.ndarray):
    """The nonzero products of the commutator, as columns of X, R and the result.

    Returns the number of result columns with a product and, per slot, one
    (result, x, r13) triple of column arrays for each s that has products;
    within one (slot, s) every result column occurs at most once.
    """
    n, rank = rm.shape[0], xm.ndim
    xs, rs = np.argwhere(xm), np.argwhere(rm)  # b indices; (s, i, m, n) indices
    used = np.zeros(n ** (rank + 2), dtype=bool)  # result columns with a product
    slots = []
    for slot in range(rank):
        steps = []
        for s in range(n):
            b, r = xs[xs[:, slot] == s], rs[rs[:, 0] == s]
            if not (len(b) and len(r)):
                continue
            b, r = np.repeat(b, len(r), axis=0), np.tile(r, (len(b), 1))
            a = b.copy()
            a[:, slot] = r[:, 1]  # the result index carries i in place of s
            out = np.ravel_multi_index((*a.T, r[:, 2], r[:, 3]), (n,) * (rank + 2))
            used[out] = True
            steps.append((out, np.ravel_multi_index(b.T, xm.shape),
                          np.ravel_multi_index(r.T, rm.shape)))
        slots.append(steps)
    where = np.cumsum(used) - 1  # a used result column's place among them
    return int(used.sum()), [[(where[out], x, r) for out, x, r in steps] for steps in slots]


def _commutator_route(xm: np.ndarray, rm: np.ndarray):
    """The sparse plan of the commutator for these support masks, or None
    where the dense route is taken."""
    return _commutator_plan(xm, rm) if _takes_sparse_route(xm, rm) else None


def _sparse_commutator(plan, x: np.ndarray, r13: np.ndarray) -> np.ndarray:
    """The nonzero result columns of ``ricci_commutator`` for one block, by point.

    The dense route sums each slot's term over s in increasing order and
    subtracts the slot terms in slot order; this does the same with only the
    products a plan keeps, so each column carries the same bits up to the
    sign of a zero.
    """
    count, slots = plan
    xt = np.ascontiguousarray(x.reshape(x.shape[0], -1).T)
    rt = np.ascontiguousarray(r13.reshape(r13.shape[0], -1).T)
    out = np.zeros((count, x.shape[0]))
    for steps in slots:
        term = np.zeros_like(out)
        for cols, xc, rc in steps:
            term[cols] += xt[xc] * rt[rc]
        out -= term
    return out.T


def _commutator_ptmax(ctx: CheckContext, x: np.ndarray, variance: str,
                      r13: np.ndarray) -> np.ndarray:
    """max |[nabla, nabla] X| per point of one block, for a lower-index X.

    The dense route forms n^(rank + 2) components per point, 2 MiB per 64
    points for W*, and a few such temporaries at once, so it runs a slice
    of the block at a time."""
    plan = planned(ctx.plans, _commutator_route, _support(x), _support(r13))
    if plan is None:
        return per_slice(lambda x, r13: _ptmax(ricci_commutator(x, variance, r13)), x, r13)
    if not plan[0]:
        return np.zeros(x.shape[0])  # every product is 0 at every point
    return _ptmax(_sparse_commutator(plan, x, r13))


def _cyclic_plan(wm: np.ndarray, gm: np.ndarray, xm: np.ndarray) -> tuple:
    """The union support of the six addends of the cyclic identity in a
    block (:func:`wstar.cyclic_from_terms`), and where each is gathered from.

    ``wm``, ``gm`` and ``xm`` are the supports of ∇W*, g and the Codazzi
    defect x of Ricci.  The addends at (i, j, k, l, m) are ∇W* and
    g_{jk} x_{ilm} at (k, l, m), (l, m, k) and (m, k, l), so the union
    support is closed under that cyclic shift.  Returns, over the kept
    components: the components of ∇W* at the three shifts, the columns of
    g and x for g_{jk} x_{ilm}, and the place among the kept of the two
    shifted components."""
    n = gm.shape[0]
    i, j, k, l, m = np.indices(wm.shape).reshape(5, -1)
    shifts = [np.ravel_multi_index(c, wm.shape) for c in ((i, j, k, l, m), (i, j, l, m, k),
                                                          (i, j, m, k, l))]
    gx = (j * n + k, (i * n + l) * n + m)
    gxm = gm.ravel()[gx[0]] & xm.ravel()[gx[1]]
    keep = np.flatnonzero(np.logical_or.reduce([(wm.ravel() | gxm)[c] for c in shifts]))
    place = np.zeros(wm.size, dtype=np.int64)
    place[keep] = np.arange(keep.size)
    return ([c[keep] for c in shifts], (gx[0][keep], gx[1][keep]),
            [place[c[keep]] for c in shifts[1:]])


def _bianchi(ctx: CheckContext, f: dict) -> np.ndarray:
    """max |cyclic sum - its closed form| per point of one block, formed on
    the union support of the addends (the plan of :func:`_cyclic_plan`) one
    16-point slice at a time, since the six addends are alive at once;
    everywhere else every addend, and so the gap, is an exact ±0."""
    dw, g, x = f["dw"], f["g"], ws.codazzi_defect(f["nric"])
    w, (gc, xc), shifted = planned(ctx.plans, _cyclic_plan, dw.support(), _support(g),
                                   _support(x))
    count = len(g)
    if not gc.size:
        return np.zeros(count)
    w = [dw.index.ravel()[c] for c in w]  # columns of the compact ∇W*

    def gap(cols, g, x):
        gx = g.take(gc, 1) * x.take(xc, 1)
        return _ptmax(np.subtract(*ws.cyclic_from_terms(
            *(cols.take(c, 1) for c in w), gx, *(gx.take(c, 1) for c in shifted))))

    return per_slice(gap, dw.cols, g.reshape(count, -1), x.reshape(count, -1))


def _wstar_divergence(ginv: np.ndarray, dw: Compact) -> np.ndarray:
    """g^{hi} ∇_h W*_{ijkl} at each point of one block, with ∇W* made dense
    one 16-point slice at a time for the einsum of :func:`wstar.divergence`."""
    return per_slice(lambda ginv, cols: ws.divergence(ginv, cols.take(dw.index, 1)),
                     ginv, dw.cols)


def _divergence_formula(f: dict, coeff: float) -> np.ndarray:
    return ws.divergence_closed_form(f["nric"], f["g"], f["gradR"], coeff)


# --- the per-block steps --------------------------------------------------------
#
# Each step reduces one block's fields (a dict of :func:`wstar.jet._block_fields`)
# to per-point columns: an array, or a tuple or dict of arrays.  A step that
# raises fails only the checks that read it (CheckContext._walk).


def _semisymmetry_trace_gap(w02, ric, r13) -> np.ndarray:
    lhs = ricci_commutator(w02, "ll", r13)
    rhs = (4.0 / 3.0) * ricci_commutator(ric, "ll", r13)
    return lhs - rhs


def _krupka_gaps(w13, w02, c, d, e) -> np.ndarray:
    """Per point: the traces of B, the gaps to the closed forms and the
    reconstruction gap of :func:`wstar.krupka_parts`, one column each."""
    b, c, d, e, deltas = ws.krupka_parts(w13, (c, d, e))
    cc, cd, ce = ws.krupka_closed_forms(w02)
    gaps = [*ws.traces(b), c - cc, d - cd, e - ce, w13 - (b + deltas)]
    return np.stack([_ptmax(gap) for gap in gaps], axis=1)


def _printed_form_gaps(w13, ric, scal, g, c, d, e) -> np.ndarray:
    """Per point: the gaps of the circulated trace combinations and of the
    ±1/9 Ricci forms to the solved C, D, E, one column each."""
    combo_c, combo_d, combo_e = ws.trace_combos(w13)
    rho = ws.traceless_ricci(ric, scal, g)
    gaps = [combo_c - c, combo_d - d, combo_e - e, d - rho / 9.0, e + rho / 9.0]
    return np.stack([_ptmax(gap) for gap in gaps], axis=1)


def _krupka(ctx: CheckContext, f: dict) -> tuple:
    """Per point: max |W*^h_{jkl}| and the residuals of ``krupka_oracle_match``
    and ``krupka_printed_forms``.  The trace system is solved once for both."""
    w13 = _raise_first(f["ginv"], f["w04"])
    cde = ws.krupka_oracle(w13)
    return (_ptmax(w13), _ptmax(_krupka_gaps(w13, f["w02"], *cde)),
            _ptmax(_printed_form_gaps(w13, f["ric"], f["R"], f["g"], *cde)))


def _divergence(ctx: CheckContext, f: dict) -> tuple:
    """Per point: max |g^{hi} ∇_h W*_{ijkl}|, the direct divergence of W*, and
    its gaps to the closed forms with 1/3 and with the 1/6 that the
    contracted Bianchi identity forces."""
    direct = _wstar_divergence(f["ginv"], f["dw"])
    return (_ptmax(direct), _ptmax(direct - _divergence_formula(f, 1.0 / 3.0)),
            _ptmax(direct - _divergence_formula(f, 1.0 / 6.0)))


def _weyl_div(nrc, g, nric, grad, ginv) -> np.ndarray:
    """g^{hi} ∇_h C_{ijkl}, with ∇Weyl's last two slots put in W*'s order."""
    nweyl = _weyl(nrc, g, nric, grad)
    return ws.divergence(ginv, np.einsum("pijlkm->pijklm", nweyl))


def _weyl_divergence(ctx: CheckContext, f: dict) -> tuple:
    """Per point: max |g^{hi} ∇_h C_{ijkl}|, its gap to the printed closed
    form codazzi/2 + grad/6, and max |codazzi| of Ricci.  ∇Weyl has n⁵
    components per point and is formed a slice at a time."""
    direct = per_slice(_weyl_div, f["nrc"], f["g"], f["nric"], f["gradR"], f["ginv"])
    printed = 0.5 * _divergence_formula(f, -1.0 / 3.0)
    return (_ptmax(direct), _ptmax(direct - printed), _ptmax(_divergence_formula(f, 0.0)))


def _t(ctx: CheckContext, f: dict) -> np.ndarray:
    """T_{ij} on one block: it divides by the coupling k, so only the steps
    that read T form it, and a T that cannot be formed fails only them."""
    return energy_momentum_values(f["ric"], f["R"], f["g"], ctx.cfg)


def _nt(ctx: CheckContext, f: dict) -> np.ndarray:
    """∇_m T_{ij} on one block, as :func:`_t`."""
    return energy_momentum_values(f["nric"], f["gradR"], f["g"], ctx.cfg)


def _fluid(ctx: CheckContext, f: dict) -> tuple:
    """(mu, p, why T has no fluid form or None) per point."""
    fluid = decompose_fluids(_t(ctx, f), f["g"], f["ginv"])
    return fluid.mu, fluid.p, np.array(fluid.errors, dtype=object)


def _recurrence(ctx: CheckContext, f: dict) -> tuple:
    """(b, max |nabla Ric - b Ric|, max |curl b|) per point, each 0 where
    Ricci vanishes: b by least squares per point and slot,
    b_m = <nabla_m Ric, Ric> / <Ric, Ric>, and its curl by :func:`_curl`."""
    usable = _ptmax(f["ric"]) > _RICCI_FLOOR
    count = len(usable)
    b, res, curl = np.zeros((count, f["ric"].shape[1])), np.zeros(count), np.zeros(count)
    if np.any(usable):
        ric, nric = f["ric"][usable], f["nric"][usable]
        fit = np.einsum("pjkm,pjk->pm", nric, ric) / np.einsum("pjk,pjk->p", ric, ric)[:, None]
        b[usable] = fit
        res[usable] = _ptmax(nric - np.einsum("pjk,pm->pjkm", ric, fit))
        curl[usable] = _ptmax(_curl(ric, f["r13"][usable]))
    return b, res, curl


def _traceless_ricci(f: dict) -> np.ndarray:
    return ws.traceless_ricci(f["ric"], f["R"], f["g"])


_STEPS: "Dict[str, Callable[[CheckContext, dict], object]]" = {
    "scales": lambda ctx, f: {name: _ptmax(v.cols if isinstance(v, Compact) else v)
                              for name, v in f.items()},
    "t": lambda ctx, f: _ptmax(_t(ctx, f)),
    "nt": lambda ctx, f: _ptmax(_nt(ctx, f)),
    "R": lambda ctx, f: f["R"],
    "trace_identity": lambda ctx, f: _ptmax(
        f["w02"] - ctx.geo.dim / (ctx.geo.dim - 1.0) * _traceless_ricci(f)),
    "divergence": _divergence,
    "bianchi_identity": _bianchi,
    "semisymmetry_trace_identity": lambda ctx, f: _ptmax(
        _semisymmetry_trace_gap(f["w02"], f["ric"], f["r13"])),
    "krupka": _krupka,
    "fluid": _fluid,
    "weyl_divergence": _weyl_divergence,
    "einstein": lambda ctx, f: _ptmax(_traceless_ricci(f)),
    "codazzi": lambda ctx, f: _ptmax(ws.codazzi_defect(f["nric"])),
    "recurrence": _recurrence,
    "ricci_semisymmetric": lambda ctx, f: _commutator_ptmax(ctx, f["ric"], "ll", f["r13"]),
    "wstar_semisymmetric": lambda ctx, f: _commutator_ptmax(ctx, f["w04"], "llll", f["r13"]),
    "quarter_rule": lambda ctx, f: _ptmax(
        f["nric"] - np.einsum("pjk,pm->pjkm", f["g"], f["gradR"]) / ctx.geo.dim),
    "t_codazzi": lambda ctx, f: _ptmax(ws.codazzi_defect(_nt(ctx, f))),
    "t_semisymmetric": lambda ctx, f: _commutator_ptmax(ctx, _t(ctx, f), "ll", f["r13"]),
}

# The checks, in report order: each ``_check_*`` function below registers
# itself through :func:`_check`.
REGISTRY: "Dict[str, Callable[[CheckContext], CheckOutcome]]" = {}
# check -> (the steps its verdict reduces to besides "scales" and "R", the
# checks whose outcomes it reads), as the check declares them
_DECLARED: "Dict[str, tuple]" = {}


def _check(name: str, steps: tuple = (), reads: tuple = ()):
    """Register the decorated function as the check ``name``, reported after
    the checks registered before it.

    ``steps`` are the keys of :data:`_STEPS` that its verdict reduces to
    besides "scales" and "R", and ``reads`` the checks whose outcomes it
    reads: what :func:`_steps_of` plans the one walk from."""

    def register(fn):
        REGISTRY[name] = fn
        _DECLARED[name] = (steps, reads)
        return fn

    return register


def _steps_of(names: Iterable[str]) -> set:
    """The steps that the checks ``names``, and the checks they read, reduce to."""
    seen, todo = set(), list(names)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_DECLARED[name][1])
    return {"scales", "R"}.union(*(_DECLARED[name][0] for name in seen))


# --- identity checks ----------------------------------------------------------


@_check("trace_identity", steps=("trace_identity",))
def _check_trace_identity(ctx: CheckContext) -> CheckOutcome:
    res = ctx.reduced("trace_identity")
    return ctx.outcome(res, 1.0 + ctx.amax("R") * ctx.amax("g"))


@_check("divergence_formula", steps=("divergence",))
def _check_divergence_formula(ctx: CheckContext) -> CheckOutcome:
    direct, third, sixth = ctx.reduced("divergence")
    adj = float(np.max(sixth))
    out = ctx.outcome(third, 1.0 + direct.max())
    if out.status == "fail":
        out.reason = (
            "circulated form carries 1/3 on the scalar-gradient term where the "
            "contracted Bianchi identity forces 1/6; the direct route is "
            f"authoritative (adjusted-coefficient gap {adj:.3e})"
        )
    return out


@_check("divergence_adjusted", steps=("divergence",))
def _check_divergence_adjusted(ctx: CheckContext) -> CheckOutcome:
    direct, _, sixth = ctx.reduced("divergence")
    return ctx.outcome(sixth, 1.0 + direct.max())


@_check("bianchi_identity", steps=("bianchi_identity",))
def _check_bianchi_identity(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("bianchi_identity"), 1.0 + ctx.amax("dw"))


@_check("semisymmetry_trace_identity", steps=("semisymmetry_trace_identity",))
def _check_semisymmetry_trace_identity(ctx: CheckContext) -> CheckOutcome:
    res = ctx.reduced("semisymmetry_trace_identity")
    scale = ctx.amax("r13") * (ctx.amax("w02") + ctx.amax("ric"))
    return ctx.outcome(res, scale)


@_check("krupka_oracle_match", steps=("krupka",))
def _check_krupka_oracle_match(ctx: CheckContext) -> CheckOutcome:
    w13, oracle, _ = ctx.reduced("krupka")
    return ctx.outcome(oracle, 1.0 + float(np.max(w13)))


@_check("krupka_printed_forms", steps=("krupka",))
def _check_krupka_printed_forms(ctx: CheckContext) -> CheckOutcome:
    w13, _, printed = ctx.reduced("krupka")
    out = ctx.outcome(printed, 1.0 + float(np.max(w13)))
    if out.status == "fail":
        out.reason = (
            "circulated trace combinations (1/33 weights, +-1/9 Ricci forms) "
            "do not solve the trace system away from Einstein metrics; the "
            "linear-solve oracle is authoritative and the engine closed forms "
            "match it (see krupka_oracle_match)"
        )
    return out


@_check("field_equation_trace", steps=("fluid",))
def _check_field_equation_trace(ctx: CheckContext) -> CheckOutcome:
    """The trace of the field equations, R = 4L + k(mu - 3p), wherever T has
    a fluid form: the residual is max |R - (4L + k(mu - 3p))| there."""
    mu, p, failures = ctx.fluid
    skipped = len(failures)
    if skipped == ctx.points.shape[0]:
        return ctx.na("no perfect-fluid decomposition at any sample point")
    gap = np.abs(ctx.scalar - (4.0 * ctx.cfg.lam + ctx.cfg.k * (mu - 3.0 * p)))
    out = ctx.outcome(np.where(np.isnan(gap), 0.0, gap), 1.0 + ctx.amax("R"))
    if skipped:
        out.reason = f"{skipped} point(s) had no fluid form and were skipped"
    return out


@_check("weyl_divergence", steps=("weyl_divergence",))
def _check_weyl_divergence(ctx: CheckContext) -> CheckOutcome:
    direct, deviation, codazzi = ctx.reduced("weyl_divergence")
    deviation, codazzi = float(np.max(deviation)), float(np.max(codazzi))
    grad = ctx.amax("gradR")
    note = f"printed closed form deviates from the direct route by {deviation:.3e}"
    scale = 1.0 + ctx.amax("nric")
    if codazzi > ctx.tol(scale) or grad > ctx.tol(ctx.amax("R")):
        return ctx.na(
            "Ricci tensor is not Codazzi at the sample points, so the "
            "vanishing conclusion does not apply; " + note
        )
    return ctx.outcome(direct, scale, note)


# --- property checks ----------------------------------------------------------


@_check("ricci_flat")
def _check_ricci_flat(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("scales")["ric"], ctx.amax("rc"))


@_check("einstein", steps=("einstein",))
def _check_einstein(ctx: CheckContext) -> CheckOutcome:
    n = ctx.geo.dim
    scale = ctx.amax("ric") + ctx.amax("R") * ctx.amax("g") / n
    out = ctx.outcome(ctx.reduced("einstein"), scale)
    trace_res = ctx.amax("w02")
    out.reason = f"independent trace route residual {trace_res:.3e}"
    return out


@_check("constant_scalar_curvature")
def _check_constant_scalar(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("scales")["gradR"], ctx.amax("R"))


@_check("codazzi", steps=("codazzi",))
def _check_codazzi(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("codazzi"), ctx.amax("nric"))


@_check("ricci_recurrent", steps=("recurrence",))
def _check_ricci_recurrent(ctx: CheckContext) -> CheckOutcome:
    fit = ctx.recurrence
    if not fit.applicable:
        return ctx.na(fit.reason or "recurrence undefined")
    return ctx.outcome(fit.point_residual, ctx.amax("nric"),
                       f"[nabla_l, nabla_m] Ric projected onto Ric, the recurrence 1-form's curl "
                       f"where the fit holds: {fit.closedness_residual:.3e}")


@_check("ricci_semisymmetric", steps=("ricci_semisymmetric",))
def _check_ricci_semisymmetric(ctx: CheckContext) -> CheckOutcome:
    res = ctx.reduced("ricci_semisymmetric")
    return ctx.outcome(res, ctx.amax("r13") * ctx.amax("ric"))


@_check("wstar_flat")
def _check_wstar_flat(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("scales")["w04"], ctx.amax("rc"))


@_check("wstar_divergence_free", steps=("divergence",))
def _check_wstar_divergence_free(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("divergence")[0], ctx.amax("dw"))


@_check("wstar_parallel")
def _check_wstar_parallel(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("scales")["dw"], ctx.amax("w04"))


@_check("wstar_semisymmetric", steps=("wstar_semisymmetric",))
def _check_wstar_semisymmetric(ctx: CheckContext) -> CheckOutcome:
    res = ctx.reduced("wstar_semisymmetric")
    return ctx.outcome(res, ctx.amax("r13") * ctx.amax("w04"))


@_check("quarter_rule", steps=("quarter_rule",), reads=("wstar_parallel",))
def _check_quarter_rule(ctx: CheckContext) -> CheckOutcome:
    parallel = ctx.check("wstar_parallel")
    if parallel.status != "pass":
        return ctx.na(
            "modified curvature is not covariantly constant here "
            f"(residual {parallel.max_residual:.3e}); the quarter-trace rule "
            "only applies in that regime"
        )
    return ctx.outcome(ctx.reduced("quarter_rule"), 1.0 + ctx.amax("nric"))


@_check("t_parallel", steps=("nt", "t"))
def _check_t_parallel(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("nt"), ctx.amax("t"))


@_check("t_codazzi", steps=("t_codazzi", "nt"))
def _check_t_codazzi(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("t_codazzi"), ctx.amax("nt"))


@_check("t_semisymmetric", steps=("t_semisymmetric", "t"))
def _check_t_semisymmetric(ctx: CheckContext) -> CheckOutcome:
    res = ctx.reduced("t_semisymmetric")
    return ctx.outcome(res, ctx.amax("r13") * ctx.amax("t"))


@_check("em_distribution", reads=("wstar_parallel",))
def _check_em_distribution(ctx: CheckContext) -> CheckOutcome:
    """The reduced field equation R_{ij} = k T_{ij}: T parallel when W* is.

    Its trace reads R = +k T; the sign-reversed reading R = -k T is scored
    too, so either convention can be audited.
    """
    k, scal = ctx.cfg.k, ctx.scalar
    t_trace = scal / k  # g^{ij} T_{ij} with T_{ij} = R_{ij}/k
    note = (
        f"trace reads R = +kT with residual {_amax(scal - k * t_trace):.3e}; "
        f"sign-reversed reading residual {_amax(scal + k * t_trace):.3e}"
    )
    parallel = ctx.check("wstar_parallel")
    if parallel.status != "pass":
        return ctx.na(
            "modified curvature is not covariantly constant "
            f"(residual {parallel.max_residual:.3e}); " + note
        )
    nabla_t = ctx.amax("nric") / abs(k)
    tolerance = ctx.tol(1.0 + _amax(t_trace))
    status = "pass" if nabla_t <= tolerance else "fail"
    return CheckOutcome(status, nabla_t, tolerance, None, note)


@_check("dust_vacuum", steps=("fluid",), reads=("wstar_flat",))
def _check_dust_vacuum(ctx: CheckContext) -> CheckOutcome:
    """Pressureless fluid + vanishing modified curvature must mean vacuum."""
    mu, p, _ = ctx.fluid
    ok = ~np.isnan(mu)
    if not np.any(ok):
        return ctx.na("no perfect-fluid decomposition at the sample points")
    mu_max, p_max = _amax(mu[ok]), _amax(p[ok])
    dust = p_max <= ctx.tol(1.0 + mu_max)
    flat = ctx.check("wstar_flat").status == "pass"
    if not dust or not flat:
        why = []
        if not dust:
            why.append(f"pressure is not negligible (max|p| = {p_max:.3e})")
        if not flat:
            why.append("modified curvature does not vanish")
        return ctx.na("; ".join(why))
    tolerance = ctx.tol(1.0)
    status = "pass" if mu_max <= tolerance else "fail"
    return CheckOutcome(status, mu_max, tolerance, None,
                        f"max|mu| = {mu_max:.3e} with dust and vanishing modified curvature")


# --- classification flags: views over the property checks ---------------------


# (public flag name, check it is read from), in report order
FLAGS = (
    ("ricci_flat", "ricci_flat"),
    ("einstein", "einstein"),
    ("constant_scalar_curvature", "constant_scalar_curvature"),
    ("codazzi_ricci", "codazzi"),
    ("ricci_recurrent", "ricci_recurrent"),
    ("ricci_semisymmetric", "ricci_semisymmetric"),
    ("wstar_semisymmetric", "wstar_semisymmetric"),
    ("wstar_flat", "wstar_flat"),
    ("wstar_divergence_free", "wstar_divergence_free"),
    ("wstar_parallel", "wstar_parallel"),
    ("T_semisymmetric", "t_semisymmetric"),
    ("T_codazzi", "t_codazzi"),
    ("T_parallel", "t_parallel"),
)


def holds(out: CheckOutcome) -> Optional[bool]:
    """A flag's value: None when the check does not apply, else whether it passed."""
    return None if out.status == "not-applicable" else out.status == "pass"


def classification(ctx: CheckContext) -> Dict[str, CheckOutcome]:
    """Every studied curvature/matter condition, as public flag name -> outcome.

    Scales follow the dominant-ingredient rule: a condition saying "tensor X
    vanishes" is scored against the magnitude of the tensor X is made from
    (e.g. the Codazzi residual against |nabla Ricci|, flatness of the modified
    curvature against |curvature|), so the flags stay meaningful across
    metrics whose curvature differs by orders of magnitude.
    """
    return {flag: ctx.check(name) for flag, name in FLAGS}


# --- theorem-consistency pairings ---------------------------------------------
#
# Each pairing compares flags computed from different routes and reads only
# the flags it names; a mismatch is reported honestly as a failed pairing
# rather than being reconciled.


def _flag(ctx: CheckContext, flag: str) -> Optional[bool]:
    return holds(ctx.check(dict(FLAGS)[flag]))


def _side(ctx: CheckContext, flag: str) -> str:
    out = ctx.check(dict(FLAGS)[flag])
    return (f"{flag}={holds(out)} (residual {out.max_residual:.3e}"
            f" vs threshold {out.tolerance:.3e})")


def _pairing(ctx: CheckContext, consistent: Optional[bool], detail: str) -> CheckOutcome:
    """A pairing's outcome: residual 0 when consistent, 1 when violated."""
    if consistent is None:
        return ctx.na(detail, tolerance=0.5)
    status = "pass" if consistent else "fail"
    return CheckOutcome(status, 0.0 if consistent else 1.0, 0.5, None, detail)


@_check("pairing_codazzi_divergence", reads=("codazzi", "wstar_divergence_free"))
def _check_pairing_codazzi_divergence(ctx: CheckContext) -> CheckOutcome:
    return _pairing(
        ctx, _flag(ctx, "codazzi_ricci") == _flag(ctx, "wstar_divergence_free"),
        f"{_side(ctx, 'codazzi_ricci')}; {_side(ctx, 'wstar_divergence_free')}",
    )


def _trace_vanishes(ctx: CheckContext, tol: float) -> bool:
    """Does the W* trace vanish, scored as n/(n-1) times an Einstein residual of ``tol``?"""
    factor = ctx.geo.dim / (ctx.geo.dim - 1.0)
    return ctx.amax("w02") <= factor * tol


@_check("pairing_einstein_trace", reads=("einstein",))
def _check_pairing_einstein_trace(ctx: CheckContext) -> CheckOutcome:
    ein = ctx.check("einstein")
    flag = ein.max_residual <= ein.tolerance
    trace_flag = _trace_vanishes(ctx, ein.tolerance)
    return _pairing(
        ctx, flag == trace_flag,
        f"einstein={flag} (residual {ein.max_residual:.3e}); "
        f"trace-of-modified-curvature={trace_flag} (residual {ctx.amax('w02'):.3e})",
    )


@_check("pairing_parallel_semisymmetric", reads=("wstar_parallel", "t_semisymmetric"))
def _check_pairing_parallel_semisymmetric(ctx: CheckContext) -> CheckOutcome:
    return _pairing(
        ctx, not _flag(ctx, "wstar_parallel") or bool(_flag(ctx, "T_semisymmetric")),
        f"{_side(ctx, 'wstar_parallel')}; {_side(ctx, 'T_semisymmetric')}",
    )


@_check("pairing_flat_parallel_t", reads=("wstar_flat", "constant_scalar_curvature", "t_parallel"))
def _check_pairing_flat_parallel_t(ctx: CheckContext) -> CheckOutcome:
    constant, parallel = _flag(ctx, "constant_scalar_curvature"), _flag(ctx, "T_parallel")
    return _pairing(
        ctx, not _flag(ctx, "wstar_flat") or (bool(constant) and bool(parallel)),
        f"{_side(ctx, 'wstar_flat')}; "
        f"constant_scalar_curvature={constant}; T_parallel={parallel}",
    )


@_check("pairing_flat_lambda_fluid", steps=("fluid",), reads=("wstar_flat",))
def _check_pairing_flat_lambda_fluid(ctx: CheckContext) -> CheckOutcome:
    """Vanishing W* makes the fluid a cosmological constant: mu + p = 0."""
    if not _flag(ctx, "wstar_flat"):
        return _pairing(ctx, True, "premise false - holds vacuously")
    mu, p, _ = ctx.fluid
    ok = ~np.isnan(mu)
    if not np.any(ok):
        return _pairing(ctx, None, "no fluid decomposition succeeded at the sample points")
    gap = _amax(mu[ok] + p[ok])
    return _pairing(ctx, gap <= ctx.tol(1.0 + _amax(mu[ok])),
                    f"max|mu + p| = {gap:.3e} over {int(np.sum(ok))} points")


@_check("pairing_semisymmetric_t", reads=("t_semisymmetric", "ricci_semisymmetric"))
def _check_pairing_semisymmetric_t(ctx: CheckContext) -> CheckOutcome:
    return _pairing(
        ctx, _flag(ctx, "T_semisymmetric") == _flag(ctx, "ricci_semisymmetric"),
        f"{_side(ctx, 'T_semisymmetric')}; {_side(ctx, 'ricci_semisymmetric')}",
    )


# (public pairing name, check it is read from), in report order
PAIRINGS = (
    ("codazzi_iff_divergence_free", "pairing_codazzi_divergence"),
    ("einstein_iff_trace_vanishes", "pairing_einstein_trace"),
    ("parallel_implies_t_semisymmetric", "pairing_parallel_semisymmetric"),
    ("flat_implies_constant_scalar_and_parallel_t", "pairing_flat_parallel_t"),
    ("flat_implies_lambda_like_fluid", "pairing_flat_lambda_fluid"),
    ("t_semisymmetric_iff_ricci_semisymmetric", "pairing_semisymmetric_t"),
)


def pairings(ctx: CheckContext) -> Dict[str, CheckOutcome]:
    """The theorem pairings, as public pairing name -> outcome.

    :func:`holds` gives whether a pairing is consistent (None when it does
    not apply), and the outcome's ``reason`` is its detail.
    """
    return {name: ctx.check(check) for name, check in PAIRINGS}


# --- Ricci recurrence -------------------------------------------------------


@dataclass(eq=False)
class RecurrenceFit:
    applicable: bool
    b: Optional[np.ndarray]  # (P, n) fitted covector per usable point
    fit_residual: float
    reason: Optional[str] = None
    point_residual: Optional[np.ndarray] = None  # (P,), zero where Ricci vanishes
    # max |d_l b_m - d_m b_l| over the usable points (see recurrence_fit);
    # None where the fit does not apply
    closedness_residual: Optional[float] = None


def _curl(ric: np.ndarray, r13: np.ndarray) -> np.ndarray:
    """d_l b_m - d_m b_l per point: [nabla_l, nabla_m] R_{jk}
    (``geometry.ricci_commutator``) projected onto Ric as the fit of b
    projects nabla_m R_{jk} (:func:`_recurrence`), which by the symmetry of Ric is
    -2 R^s_{jlm} (Ric Ric^T)_{sj} / <Ric, Ric>: one (n², n²) product per point."""
    count, n = ric.shape[:2]
    denom = -0.5 * np.einsum("pjk,pjk->p", ric, ric)
    weight = (ric @ ric.transpose(0, 2, 1)).reshape(count, 1, n * n) / denom[:, None, None]
    return (weight @ r13.reshape(count, n * n, n * n)).reshape(count, n, n)


_RICCI_FLOOR = 1e-10  # max |Ric| at a point whose recurrence is fitted


def recurrence_fit(ctx: CheckContext) -> RecurrenceFit:
    """Fit nabla_m R_{jk} = b_m R_{jk} and measure how closed the 1-form b is.

    Both come from the context's ``recurrence`` step, at the sample points.
    Where the fit holds, the Ricci identity gives the curl of b exactly from
    the fields at the point, with no derivative of b:
    (d_l b_m - d_m b_l) R_{jk} = [nabla_l, nabla_m] R_{jk}
    = -R^s_{jlm} R_{sk} - R^s_{klm} R_{js}, and the curl is that projected
    onto Ric (:func:`_curl`).  On a Ricci-recurrent space with Ric != 0 the
    1-form is closed, b = d log|Ric| (E. M. Patterson, "Some theorems on
    Ricci-recurrent spaces", J. London Math. Soc. 27 (1952) 287-295), so a
    curl above rounding measures how far the fit is from recurrence.
    Points where Ricci vanishes carry no information and are dropped; with
    no usable points the fit is reported as not applicable rather than as
    trivially recurrent.
    """

    usable = ctx.reduced("scales")["ric"] > _RICCI_FLOOR
    if not np.any(usable):
        return RecurrenceFit(False, None, 0.0, "Ricci tensor vanishes")
    b, point_residual, curl = ctx.reduced("recurrence")
    return RecurrenceFit(True, b[usable], float(point_residual.max()), None, point_residual,
                         float(curl.max()))
