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
covector and residual.  Then the block's fields are dropped.  One walk covers
the checks the run names and the checks they read (:data:`_STEP_OF`,
:data:`_READS`); a check outside them, asked for later, walks again for its
own steps.  W*^h_{jkl} with the Krupka decomposition so exists for one
block only.  Every array of n⁵ components or more per point (∇R_{ijkl},
∇W*, the cyclic sum of ∇W*, ∇Weyl, the six-slot [nabla, nabla] W*, and the
|.| of such a field) exists for one slice of a block only, 16 points
(:func:`wstar.jet.slices`, and :func:`wstar.jet.per_slice` for a step
that reduces it), where a 64-point block would hold 0.5 MiB per array at
n = 4.  This is strip-mining and loop fusion (M. Wolfe, *High Performance
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

The semi-symmetry commutators R(X, Y)·X of W*, Ricci and T pick their route
per block from its supports: the products x * R^s_{imn} whose two factors are
nonzero at some point are counted from the two masks, and below
``_SPARSE_SHARE`` of the dense count (Schwarzschild, de Sitter and FLRW keep
under 7%, ``perturbed_flat`` over half) a plan of only those products runs;
otherwise ``geometry.ricci_commutator`` forms every product.  A plan is built
once per distinct pair of masks in a run.  The sparse route keeps the dense
route's bits: per slot it sums the products in increasing s with elementwise
multiply and add, as the dense ``einsum`` does, and subtracts the slot terms
in slot order.  A skipped product is an exact ±0, x ± 0 = x for finite x,
and the max |.| per point erases the sign of a zero.

The registry is ordered; running a subset or everything through one context is
deterministic for a fixed (metric, seed, points, tolerances) tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, Iterable, Optional, Union

import numpy as np

from .geometry import Geometry, MetricSpec, ricci_commutator, workspace
from .jet import _raise_first, _weyl, by_symmetry, field_blocks, per_slice, ricci_values
from .matter import FieldEquationConfig, _amax, decompose_fluids, energy_momentum_values
from . import wstar as ws

__all__ = [
    "CheckContext", "CheckOutcome", "REGISTRY", "recurrence_fit",
    "FLAGS", "PAIRINGS", "holds", "classification", "pairings",
]


class _OnFirstRead:
    """A dataclass field (default None) that may be set to a callable: the
    first read calls it and keeps what it returns.  A call that raises is
    made again on the next read."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None
        value = getattr(obj, self.slot)
        if callable(value):
            value = value()
            setattr(obj, self.slot, value)
        return value

    def __set__(self, obj, value):
        setattr(obj, self.slot, value)


def _strict():
    """Float arithmetic that overflows, divides by zero or is invalid raises."""
    return np.errstate(divide="raise", over="raise", invalid="raise")


@dataclass
class CheckOutcome:
    """One check's verdict: residual against tolerance, and the worst point.

    ``reason`` may be given as a callable that forms it on first read, for a
    reason that costs work no verdict needs (the recurrence closedness)."""

    status: str  # "pass" | "fail" | "not-applicable"
    max_residual: Optional[float]  # None when the check could not be evaluated
    tolerance: float
    worst_point: Optional[np.ndarray]
    reason: Optional[str] = _OnFirstRead()
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
        self._commutator_plans: dict = {}  # support masks -> sparse commutator plan
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

        A step that raises keeps its error, and so does every step when the
        fields cannot be formed (the jet pass, a singular g, the leaf tape).
        The walk runs under :func:`_strict` whoever reads first, a check or a
        library caller such as ``relativity.fluid_relations``, so a float
        fault is kept as that error and no step keeps an inf or NaN column.
        """
        todo = [step for step in _STEPS if step in steps and step not in self._columns]
        parts: Dict[str, object] = {step: [] for step in todo}
        try:
            with _strict():
                for fields in field_blocks(self.geo, self.points):
                    for step in todo:
                        if isinstance(parts[step], list):
                            try:
                                parts[step].append(_STEPS[step](self, fields))
                            except Exception as err:
                                parts[step] = err
        except Exception as err:
            parts = dict.fromkeys(todo, err)
        for step, part in parts.items():
            self._columns[step] = _join(part) if isinstance(part, list) else part

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

    def commutator_plan(self, xm: np.ndarray, rm: np.ndarray):
        """The sparse plan of the commutator for these support masks, or None
        where the dense route is taken; decided once per distinct pair of masks."""
        key = (xm.shape, xm.tobytes(), rm.tobytes())
        plans = self._commutator_plans
        if key not in plans:
            plans[key] = _commutator_plan(xm, rm) if _takes_sparse_route(xm, rm) else None
        return plans[key]

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


def _join(parts: list):
    """The blocks' columns of one step, concatenated along the point axis."""
    if isinstance(parts[0], dict):
        return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(cols) for cols in zip(*parts))
    return np.concatenate(parts)


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


def _support(a: np.ndarray) -> np.ndarray:
    """Components that are nonzero at some point of the block.

    Two reductions over the point axis, so no mask of every point is formed.
    """
    return (np.max(a, axis=0) != 0) | (np.min(a, axis=0) != 0)


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
    plan = ctx.commutator_plan(_support(x), _support(r13))
    if plan is None:
        return per_slice(lambda x, r13: _ptmax(ricci_commutator(x, variance, r13)), x, r13)
    if not plan[0]:
        return np.zeros(x.shape[0])  # every product is 0 at every point
    return _ptmax(_sparse_commutator(plan, x, r13))


def _divergence_formula(f: dict, coeff: float) -> np.ndarray:
    return ws.divergence_closed_form(f["nric"], f["g"], f["gradR"], coeff)


def _trace_relation_gap(ctx: CheckContext) -> np.ndarray:
    """|R - (4L + k(mu - 3p))| per point; NaN where T has no fluid form."""
    mu, p, _ = ctx.fluid
    return np.abs(ctx.scalar - (4.0 * ctx.cfg.lam + ctx.cfg.k * (mu - 3.0 * p)))


# --- the per-block steps --------------------------------------------------------
#
# Each step reduces one block's fields (a dict of :func:`wstar.jet._block_fields`)
# to per-point columns: an array, or a tuple or dict of arrays.  A step that
# raises fails only the checks that read it (CheckContext._walk).


def _cyclic_gap(dw, nric, g) -> np.ndarray:
    """max |cyclic sum - its closed form| per point, of n⁵ components each."""
    cyc, rhs = ws.cyclic_identity(dw, nric, g)
    return _ptmax(cyc - rhs)


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
    direct = ws.divergence(f["ginv"], f["dw"])
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
    """(b, max |nabla Ric - b Ric|) per point, both 0 where Ricci vanishes."""
    ric = f["ric"]
    usable = _ptmax(ric) > _RICCI_FLOOR
    b, res = np.zeros(ric.shape[:2]), np.zeros(ric.shape[0])
    if np.any(usable):
        b[usable], res[usable] = _fit_recurrence(ric[usable], f["nric"][usable])
    return b, res


def _traceless_ricci(f: dict) -> np.ndarray:
    return ws.traceless_ricci(f["ric"], f["R"], f["g"])


_STEPS: "Dict[str, Callable[[CheckContext, dict], object]]" = {
    "scales": lambda ctx, f: {name: _ptmax(v) for name, v in f.items()},
    "t": lambda ctx, f: _ptmax(_t(ctx, f)),
    "nt": lambda ctx, f: _ptmax(_nt(ctx, f)),
    "R": lambda ctx, f: f["R"],
    "trace_identity": lambda ctx, f: _ptmax(
        f["w02"] - ctx.geo.dim / (ctx.geo.dim - 1.0) * _traceless_ricci(f)),
    "divergence": _divergence,
    "bianchi_identity": lambda ctx, f: per_slice(_cyclic_gap, f["dw"], f["nric"], f["g"]),
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

# check -> the steps its verdict reads besides "scales" and "R", where they are
# not the one step named after the check
_STEP_OF = {
    "divergence_formula": ("divergence",),
    "divergence_adjusted": ("divergence",),
    "wstar_divergence_free": ("divergence",),
    "krupka_oracle_match": ("krupka",),
    "krupka_printed_forms": ("krupka",),
    "field_equation_trace": ("fluid",),
    "dust_vacuum": ("fluid",),
    "pairing_flat_lambda_fluid": ("fluid",),
    "ricci_recurrent": ("recurrence",),
    "t_parallel": ("nt", "t"),
    "t_codazzi": ("t_codazzi", "nt"),
    "t_semisymmetric": ("t_semisymmetric", "t"),
}

# check -> the checks whose outcomes its verdict reads
_READS = {
    "quarter_rule": ("wstar_parallel",),
    "em_distribution": ("wstar_parallel",),
    "dust_vacuum": ("wstar_flat",),
    "pairing_codazzi_divergence": ("codazzi", "wstar_divergence_free"),
    "pairing_einstein_trace": ("einstein",),
    "pairing_parallel_semisymmetric": ("wstar_parallel", "t_semisymmetric"),
    "pairing_flat_parallel_t": ("wstar_flat", "constant_scalar_curvature", "t_parallel"),
    "pairing_flat_lambda_fluid": ("wstar_flat",),
    "pairing_semisymmetric_t": ("t_semisymmetric", "ricci_semisymmetric"),
}


def _steps_of(names: Iterable[str]) -> set:
    """The steps that the checks ``names``, and the checks they read, reduce to."""
    seen, todo = set(), list(names)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_READS.get(name, ()))
    steps = {step for name in seen for step in _STEP_OF.get(name, (name,))}
    return {"scales", "R"} | (steps & _STEPS.keys())


# --- identity checks ----------------------------------------------------------


def _check_trace_identity(ctx: CheckContext) -> CheckOutcome:
    res = ctx.reduced("trace_identity")
    return ctx.outcome(res, 1.0 + ctx.amax("R") * ctx.amax("g"))


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


def _check_divergence_adjusted(ctx: CheckContext) -> CheckOutcome:
    direct, _, sixth = ctx.reduced("divergence")
    return ctx.outcome(sixth, 1.0 + direct.max())


def _check_bianchi_identity(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("bianchi_identity"), 1.0 + ctx.amax("dw"))


def _check_semisymmetry_trace_identity(ctx: CheckContext) -> CheckOutcome:
    res = ctx.reduced("semisymmetry_trace_identity")
    scale = ctx.amax("r13") * (ctx.amax("w02") + ctx.amax("ric"))
    return ctx.outcome(res, scale)


def _check_krupka_oracle_match(ctx: CheckContext) -> CheckOutcome:
    w13, oracle, _ = ctx.reduced("krupka")
    return ctx.outcome(oracle, 1.0 + float(np.max(w13)))


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


def _check_field_equation_trace(ctx: CheckContext) -> CheckOutcome:
    skipped = len(ctx.fluid[2])
    if skipped == ctx.points.shape[0]:
        return ctx.na("no perfect-fluid decomposition at any sample point")
    gap = _trace_relation_gap(ctx)
    out = ctx.outcome(np.where(np.isnan(gap), 0.0, gap), 1.0 + ctx.amax("R"))
    if skipped:
        out.reason = f"{skipped} point(s) had no fluid form and were skipped"
    return out


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


def _check_ricci_flat(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("scales")["ric"], ctx.amax("rc"))


def _check_einstein(ctx: CheckContext) -> CheckOutcome:
    n = ctx.geo.dim
    scale = ctx.amax("ric") + ctx.amax("R") * ctx.amax("g") / n
    out = ctx.outcome(ctx.reduced("einstein"), scale)
    trace_res = ctx.amax("w02")
    out.reason = f"independent trace route residual {trace_res:.3e}"
    return out


def _check_constant_scalar(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("scales")["gradR"], ctx.amax("R"))


def _check_codazzi(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("codazzi"), ctx.amax("nric"))


def _check_ricci_recurrent(ctx: CheckContext) -> CheckOutcome:
    fit = ctx.recurrence
    if not fit.applicable:
        return ctx.na(fit.reason or "recurrence undefined")
    out = ctx.outcome(fit.point_residual, ctx.amax("nric"))
    # only a report that prints the reason pays for the displaced pass
    out.reason = lambda: f"recurrence 1-form closedness residual {fit.closedness_residual:.3e}"
    return out


def _check_ricci_semisymmetric(ctx: CheckContext) -> CheckOutcome:
    res = ctx.reduced("ricci_semisymmetric")
    return ctx.outcome(res, ctx.amax("r13") * ctx.amax("ric"))


def _check_wstar_flat(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("scales")["w04"], ctx.amax("rc"))


def _check_wstar_divergence_free(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("divergence")[0], ctx.amax("dw"))


def _check_wstar_parallel(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("scales")["dw"], ctx.amax("w04"))


def _check_wstar_semisymmetric(ctx: CheckContext) -> CheckOutcome:
    res = ctx.reduced("wstar_semisymmetric")
    return ctx.outcome(res, ctx.amax("r13") * ctx.amax("w04"))


def _check_quarter_rule(ctx: CheckContext) -> CheckOutcome:
    parallel = ctx.check("wstar_parallel")
    if parallel.status != "pass":
        return ctx.na(
            "modified curvature is not covariantly constant here "
            f"(residual {parallel.max_residual:.3e}); the quarter-trace rule "
            "only applies in that regime"
        )
    return ctx.outcome(ctx.reduced("quarter_rule"), 1.0 + ctx.amax("nric"))


def _check_t_parallel(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("nt"), ctx.amax("t"))


def _check_t_codazzi(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.reduced("t_codazzi"), ctx.amax("nt"))


def _check_t_semisymmetric(ctx: CheckContext) -> CheckOutcome:
    res = ctx.reduced("t_semisymmetric")
    return ctx.outcome(res, ctx.amax("r13") * ctx.amax("t"))


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


def _check_pairing_codazzi_divergence(ctx: CheckContext) -> CheckOutcome:
    return _pairing(
        ctx, _flag(ctx, "codazzi_ricci") == _flag(ctx, "wstar_divergence_free"),
        f"{_side(ctx, 'codazzi_ricci')}; {_side(ctx, 'wstar_divergence_free')}",
    )


def _trace_vanishes(ctx: CheckContext, tol: float) -> bool:
    """Does the W* trace vanish, scored as n/(n-1) times an Einstein residual of ``tol``?"""
    factor = ctx.geo.dim / (ctx.geo.dim - 1.0)
    return ctx.amax("w02") <= factor * tol


def _check_pairing_einstein_trace(ctx: CheckContext) -> CheckOutcome:
    ein = ctx.check("einstein")
    flag = ein.max_residual <= ein.tolerance
    trace_flag = _trace_vanishes(ctx, ein.tolerance)
    return _pairing(
        ctx, flag == trace_flag,
        f"einstein={flag} (residual {ein.max_residual:.3e}); "
        f"trace-of-modified-curvature={trace_flag} (residual {ctx.amax('w02'):.3e})",
    )


def _check_pairing_parallel_semisymmetric(ctx: CheckContext) -> CheckOutcome:
    return _pairing(
        ctx, not _flag(ctx, "wstar_parallel") or bool(_flag(ctx, "T_semisymmetric")),
        f"{_side(ctx, 'wstar_parallel')}; {_side(ctx, 'T_semisymmetric')}",
    )


def _check_pairing_flat_parallel_t(ctx: CheckContext) -> CheckOutcome:
    constant, parallel = _flag(ctx, "constant_scalar_curvature"), _flag(ctx, "T_parallel")
    return _pairing(
        ctx, not _flag(ctx, "wstar_flat") or (bool(constant) and bool(parallel)),
        f"{_side(ctx, 'wstar_flat')}; "
        f"constant_scalar_curvature={constant}; T_parallel={parallel}",
    )


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


def _check_pairing_semisymmetric_t(ctx: CheckContext) -> CheckOutcome:
    return _pairing(
        ctx, _flag(ctx, "T_semisymmetric") == _flag(ctx, "ricci_semisymmetric"),
        f"{_side(ctx, 'T_semisymmetric')}; {_side(ctx, 'ricci_semisymmetric')}",
    )


REGISTRY: "Dict[str, Callable[[CheckContext], CheckOutcome]]" = {
    # identities - must pass on every metric
    "trace_identity": _check_trace_identity,
    "divergence_formula": _check_divergence_formula,
    "divergence_adjusted": _check_divergence_adjusted,
    "bianchi_identity": _check_bianchi_identity,
    "semisymmetry_trace_identity": _check_semisymmetry_trace_identity,
    "krupka_oracle_match": _check_krupka_oracle_match,
    "krupka_printed_forms": _check_krupka_printed_forms,
    "field_equation_trace": _check_field_equation_trace,
    "weyl_divergence": _check_weyl_divergence,
    # properties of the particular space-time
    "ricci_flat": _check_ricci_flat,
    "einstein": _check_einstein,
    "constant_scalar_curvature": _check_constant_scalar,
    "codazzi": _check_codazzi,
    "ricci_recurrent": _check_ricci_recurrent,
    "ricci_semisymmetric": _check_ricci_semisymmetric,
    "wstar_flat": _check_wstar_flat,
    "wstar_divergence_free": _check_wstar_divergence_free,
    "wstar_parallel": _check_wstar_parallel,
    "wstar_semisymmetric": _check_wstar_semisymmetric,
    "quarter_rule": _check_quarter_rule,
    "t_parallel": _check_t_parallel,
    "t_codazzi": _check_t_codazzi,
    "t_semisymmetric": _check_t_semisymmetric,
    "em_distribution": _check_em_distribution,
    "dust_vacuum": _check_dust_vacuum,
    # theorem-consistency pairings, each side computed independently
    "pairing_codazzi_divergence": _check_pairing_codazzi_divergence,
    "pairing_einstein_trace": _check_pairing_einstein_trace,
    "pairing_parallel_semisymmetric": _check_pairing_parallel_semisymmetric,
    "pairing_flat_parallel_t": _check_pairing_flat_parallel_t,
    "pairing_flat_lambda_fluid": _check_pairing_flat_lambda_fluid,
    "pairing_semisymmetric_t": _check_pairing_semisymmetric_t,
}


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


@dataclass(frozen=True, eq=False)
class RecurrenceFit:
    applicable: bool
    b: Optional[np.ndarray]  # (P, n) fitted covector per usable point
    fit_residual: float
    reason: Optional[str] = None
    point_residual: Optional[np.ndarray] = None  # (P,), zero where Ricci vanishes
    closedness: Optional[Callable[[], float]] = field(default=None, repr=False)

    @cached_property
    def closedness_residual(self) -> Optional[float]:
        """max |d_mu b_nu - d_nu b_mu|, formed on first read (see
        :func:`recurrence_fit`); None where the fit does not apply."""
        return None if self.closedness is None else self.closedness()


def _fit_covector(ric: np.ndarray, nric: np.ndarray) -> np.ndarray:
    # least squares per point and slot: b_m = <nabla_m Ric, Ric> / <Ric, Ric>
    denom = np.einsum("pjk,pjk->p", ric, ric)
    return np.einsum("pjkm,pjk->pm", nric, ric) / denom[:, None]


def _fit_recurrence(ric: np.ndarray, nric: np.ndarray) -> tuple:
    """(b, max |nabla Ric - b Ric| per point) at the usable points."""
    b = _fit_covector(ric, nric)
    return b, _ptmax(nric - np.einsum("pjk,pm->pjkm", ric, b))


_RICCI_FLOOR = 1e-10  # max |Ric| at a point whose recurrence is fitted
_FD_STEP = 1e-4  # central-difference step of the closedness estimate


def recurrence_fit(ctx: CheckContext) -> RecurrenceFit:
    """Fit nabla_m R_{ij} = b_m R_{ij} and measure how closed the 1-form b is.

    The fit at the sample points is the context's ``recurrence`` step.
    Closedness of b is estimated by central finite differences of the fitted
    covector at displaced copies of each sample point, when
    ``closedness_residual`` is first read: only ``check`` prints it, so
    ``classify`` never runs this pass.  The copies go through the sample
    points' curvature pass (:meth:`wstar.jet.Jet.curvature`), and Ricci and
    ∇Ricci through :func:`wstar.jet.ricci_values`, one block at a time, each
    block reduced to b as it comes; like a check, the pass raises on a float
    fault.  A copy is displaced only along a coordinate the metric depends
    on: along any other, b is constant and its difference is exactly 0.
    Points where Ricci vanishes carry no information and are dropped; with
    no usable points the fit is reported as not applicable rather than as
    trivially recurrent.
    """

    usable = ctx.reduced("scales")["ric"] > _RICCI_FLOOR
    if not np.any(usable):
        return RecurrenceFit(False, None, 0.0, "Ricci tensor vanishes")
    b, point_residual = ctx.reduced("recurrence")
    b = b[usable]
    return RecurrenceFit(True, b, float(point_residual.max()), None, point_residual,
                         partial(_closedness, ctx.geo, ctx.points, usable, b))


def _closedness(geo: Geometry, points: np.ndarray, usable: np.ndarray,
                b: np.ndarray) -> float:
    """max |d_mu b_nu - d_nu b_mu| over the ``usable`` sample points, whose
    fitted covectors are ``b``, by central differences."""
    n, axes = geo.dim, geo.jet.axes
    base = points[usable]
    p_used, k = base.shape[0], len(axes)
    with _strict():
        shifts = _FD_STEP * np.eye(n)[axes]
        displaced = np.concatenate(
            [base + s for s in shifts] + [base - s for s in shifts]
        ).reshape(-1, n)
        bd = np.concatenate([
            _fit_covector(*ricci_values(ginv, by_symmetry(rc), nrc)[1:3])
            for _, ginv, _, rc, nrc in geo.jet.curvature(displaced)])
        plus = bd[: k * p_used].reshape(k, p_used, n)
        minus = bd[k * p_used :].reshape(k, p_used, n)
        grad_b = np.zeros((n, p_used, n))  # grad_b[nu, p, mu] = d_nu b_mu
        grad_b[axes] = (plus - minus) / (2.0 * _FD_STEP)
        curl = grad_b - grad_b.transpose(2, 1, 0)
        return _amax(curl)
