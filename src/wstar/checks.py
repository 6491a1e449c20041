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
values.  It reads every field from the metric's 3-jet
(:func:`wstar.jet.curvature_fields`): R_{ijkl} and ∇R_{ijkl} come per block
of points from the tapes of :class:`wstar.jet.Jet`, and Ricci, R, R^h_{jkl},
W* and its trace, T, and ∇ of Ricci, R, W* and T, are linear maps of those,
g and g^{ij}, so no symbolic curvature is built.  The context holds those
fields only; W*^h_{jkl} and ∇Weyl, each read by the checks of one result of
the paper, are formed by those checks one block of points at a time.  The
context also memoizes the check outcomes and the results that several
checks read (fluid decomposition, Ricci-recurrence fit, the per-point
Krupka residuals, the divergence of W* and its gap to the
Bianchi-consistent closed form).

:class:`CheckOutcome` is the one verdict record, from the registry to both
commands' output, and each verdict is computed in its registry function; one
that reads other checks' outcomes (the perfect-fluid results, the theorem
pairings) runs only those.  The ``classify`` flags and pairings are views:
:data:`FLAGS` and :data:`PAIRINGS` name the check behind each public name and
:func:`holds` reads its value, so every report of a run reads the same numbers.

Residuals built from a curvature commutator or from the cyclic sum have more
slots than their inputs (six for [nabla, nabla] W*), so they are built and
reduced one 64-point block at a time (:func:`_blocked`, over
:func:`wstar.backend.blocks`) and never exist for the whole sample.  So are
W*^h_{jkl} with the Krupka decomposition's residuals, ∇Weyl, and the max
|.| of a held field (``CheckContext.amax``, ∇W* in
``wstar_parallel``), whose |.| would be a whole-sample temporary (8 MiB for
∇W* at 1024 points).  The fluid decomposition is one batched
eigen-decomposition of every point's T, not a loop over points.

The semi-symmetry commutators R(X, Y)·X of W*, Ricci and T pick their route
from the sample's supports: the products x * R^s_{imn} whose two factors are
nonzero at some point are counted from the two masks, and below
``_SPARSE_SHARE`` of the dense count (Schwarzschild, de Sitter and FLRW keep
under 7%, ``perturbed_flat`` over half) a plan of only those products runs
block by block; otherwise ``geometry.ricci_commutator`` forms every product.
The sparse route keeps the dense route's bits: per slot it sums the products
in increasing s with elementwise multiply and add, as the dense ``einsum``
does, and subtracts the slot terms in slot order.  A skipped product is an
exact ±0, x ± 0 = x for finite x, and the max |.| per point erases the sign
of a zero.

The registry is ordered; running a subset or everything through one context is
deterministic for a fixed (metric, seed, points, tolerances) tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Dict, Optional, Union

import numpy as np

from .backend import blocks
from .geometry import Geometry, MetricSpec, ricci_commutator, workspace
from .jet import _raise_first, _weyl, curvature_fields
from .matter import FieldEquationConfig, _amax, decompose_fluids
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
    """Shared evaluated-field cache for one (metric, points, config) run.

    The first field asked for evaluates the fields the checks read, from
    the metric's 3-jet (:func:`wstar.jet.curvature_fields`); check outcomes
    and the multi-field results (``fluid``, ``recurrence``, ``krupka``,
    ``divergence``, ``divergence_adjusted_gap``) are computed on first use
    and kept for the run, so a check that reads another check's outcome, or
    a report that reads many, computes each at most once; so does a check
    that raises.
    """

    def __init__(self, metric: MetricSpec, points, cfg: FieldEquationConfig,
                 atol: float = 1e-9, rtol: float = 1e-6):
        self.metric = metric
        self.geo: Geometry = workspace(metric)
        self.points = np.asarray(points, dtype=float)
        self.cfg = cfg
        self.atol = atol
        self.rtol = rtol
        self._vals: Dict[str, np.ndarray] = {}
        self._amax: Dict[str, float] = {}
        self._outcomes: Dict[str, Union[CheckOutcome, Exception]] = {}

    def get(self, name: str) -> np.ndarray:
        """The values of field ``name`` (a key of :data:`wstar.jet.FIELDS`, or
        ``rc`` or ``nrc``), points first."""
        if not self._vals:
            self._vals = curvature_fields(self.geo, self.points, self.cfg)
        return self._vals[name]

    def amax(self, name: str) -> float:
        """max |field| over every point and component, computed once per name."""
        if name not in self._amax:
            self._amax[name] = float(np.max(_blocked_ptmax(lambda a: a, self.get(name))))
        return self._amax[name]

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
        """The named check's outcome, computed once per context (or its error, raised again)."""
        if name not in self._outcomes:
            try:
                out = REGISTRY[name](self)
                out.name = name
            except Exception as err:
                out = err
            self._outcomes[name] = out
        out = self._outcomes[name]
        if isinstance(out, Exception):
            raise out
        return out

    @cached_property
    def fluid(self) -> tuple:
        """(mu, p, failures): T decomposed at every point, NaN where it fails."""
        fluid = decompose_fluids(self.get("t"), self.get("g"), self.get("ginv"))
        return fluid.mu, fluid.p, tuple(e for e in fluid.errors if e is not None)

    @cached_property
    def recurrence(self) -> "RecurrenceFit":
        return recurrence_fit(self)

    @cached_property
    def krupka(self) -> np.ndarray:
        """Per point: max |W*^h_{jkl}| and the residuals of
        ``krupka_oracle_match`` and ``krupka_printed_forms``, one column each.

        W*^h_{jkl} is formed and its trace system solved one block of points
        at a time, once for both Krupka checks.
        """
        return _blocked(_krupka_block, *map(self.get, ("ginv", "w04", "w02", "ric", "R", "g")))

    @cached_property
    def divergence(self) -> np.ndarray:
        """g^{hi} ∇_h W*_{ijkl}: the direct route to the divergence of W*."""
        return ws.divergence(self.get("ginv"), self.get("dw"))

    @cached_property
    def divergence_adjusted_gap(self) -> np.ndarray:
        """max |.| per point of the direct divergence minus its closed form with
        the 1/6 the contracted Bianchi identity forces."""
        return _ptmax(self.divergence - _divergence_formula(self, 1.0 / 6.0))


def _ptmax(a: np.ndarray) -> np.ndarray:
    """Collapse all but the leading (point) axis with max |.|."""
    return np.max(np.abs(a.reshape(a.shape[0], -1)), axis=1)


def _blocked(form: Callable[..., np.ndarray], *arrays: np.ndarray) -> np.ndarray:
    """``form(*arrays)``, formed over blocks of points and concatenated.

    ``form`` is applied to the same slice of the point axis of every array
    (:func:`wstar.backend.blocks`), so what it forms on the way, with more
    slots than its inputs or its result, only ever exists for one block.
    """
    return np.concatenate([form(*(a[part] for a in arrays))
                           for part in blocks(arrays[0].shape[0])])


def _blocked_ptmax(residual: Callable[..., np.ndarray], *arrays: np.ndarray) -> np.ndarray:
    """``_ptmax(residual(*arrays))``, evaluated over blocks of points."""
    return _blocked(lambda *block: _ptmax(residual(*block)), *arrays)


# The sparse commutator costs about 3x the dense one per product it forms
# (4.4 against 1.5 ns per product and point, measured at 1024 points on a
# 2-CPU x86-64 machine), plus a fixed cost per block that matters for the
# 2048-product rank-2 commutators; below 1/8 of the dense products it is the
# faster route at either rank.
_SPARSE_SHARE = 0.125


def _support(a: np.ndarray) -> np.ndarray:
    """Components that are nonzero at some sample point.

    Two reductions over the point axis, so no whole-sample mask is formed.
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


def _commutator_ptmax(ctx: CheckContext, name: str, variance: str) -> np.ndarray:
    """max |[nabla, nabla] X| per point for the lower-index field ``name``."""
    x, r13 = ctx.get(name), ctx.get("r13")
    xm, rm = _support(x), _support(r13)
    if not _takes_sparse_route(xm, rm):
        return _blocked_ptmax(lambda x, r13: ricci_commutator(x, variance, r13), x, r13)
    plan = _commutator_plan(xm, rm)
    if not plan[0]:
        return np.zeros(x.shape[0])  # every product is 0 at every point
    return _blocked_ptmax(partial(_sparse_commutator, plan), x, r13)


def _traceless_ricci(ctx: CheckContext) -> np.ndarray:
    return ws.traceless_ricci(ctx.get("ric"), ctx.get("R"), ctx.get("g"))


def _divergence_formula(ctx: CheckContext, coeff: float) -> np.ndarray:
    return ws.divergence_closed_form(ctx.get("nric"), ctx.get("g"), ctx.get("gradR"), coeff)


def _trace_relation_gap(ctx: CheckContext) -> np.ndarray:
    """|R - (4L + k(mu - 3p))| per point; NaN where T has no fluid form."""
    mu, p, _ = ctx.fluid
    return np.abs(ctx.get("R") - (4.0 * ctx.cfg.lam + ctx.cfg.k * (mu - 3.0 * p)))


# --- identity checks ----------------------------------------------------------


def _check_trace_identity(ctx: CheckContext) -> CheckOutcome:
    n = ctx.geo.dim
    res = _ptmax(ctx.get("w02") - n / (n - 1.0) * _traceless_ricci(ctx))
    return ctx.outcome(res, 1.0 + ctx.amax("R") * ctx.amax("g"))


def _check_divergence_formula(ctx: CheckContext) -> CheckOutcome:
    direct = ctx.divergence
    res = _ptmax(direct - _divergence_formula(ctx, 1.0 / 3.0))
    adj = float(np.max(ctx.divergence_adjusted_gap))
    out = ctx.outcome(res, 1.0 + _ptmax(direct).max())
    if out.status == "fail":
        out.reason = (
            "circulated form carries 1/3 on the scalar-gradient term where the "
            "contracted Bianchi identity forces 1/6; the direct route is "
            f"authoritative (adjusted-coefficient gap {adj:.3e})"
        )
    return out


def _check_divergence_adjusted(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.divergence_adjusted_gap, 1.0 + _ptmax(ctx.divergence).max())


def _cyclic_gap(dw, nric, g) -> np.ndarray:
    cyc, rhs = ws.cyclic_identity(dw, nric, g)
    return cyc - rhs


def _check_bianchi_identity(ctx: CheckContext) -> CheckOutcome:
    res = _blocked_ptmax(_cyclic_gap, ctx.get("dw"), ctx.get("nric"), ctx.get("g"))
    return ctx.outcome(res, 1.0 + ctx.amax("dw"))


def _semisymmetry_trace_gap(w02, ric, r13) -> np.ndarray:
    lhs = ricci_commutator(w02, "ll", r13)
    rhs = (4.0 / 3.0) * ricci_commutator(ric, "ll", r13)
    return lhs - rhs


def _check_semisymmetry_trace_identity(ctx: CheckContext) -> CheckOutcome:
    res = _blocked_ptmax(
        _semisymmetry_trace_gap, ctx.get("w02"), ctx.get("ric"), ctx.get("r13")
    )
    scale = ctx.amax("r13") * (ctx.amax("w02") + ctx.amax("ric"))
    return ctx.outcome(res, scale)


def _krupka_gaps(w13, w02, c, d, e) -> np.ndarray:
    """Per point: the traces of B, the gaps to the closed forms and the
    reconstruction gap of :func:`wstar.krupka_parts`, one column each."""
    b, c, d, e, deltas = ws.krupka_parts(w13, (c, d, e))
    cc, cd, ce = ws.krupka_closed_forms(w02)
    gaps = [*ws.traces(b), c - cc, d - cd, e - ce, w13 - (b + deltas)]
    return np.stack([_ptmax(gap) for gap in gaps], axis=1)


def _check_krupka_oracle_match(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(ctx.krupka[:, 1], 1.0 + float(np.max(ctx.krupka[:, 0])))


def _printed_form_gaps(w13, ric, scal, g, c, d, e) -> np.ndarray:
    """Per point: the gaps of the circulated trace combinations and of the
    ±1/9 Ricci forms to the solved C, D, E, one column each."""
    combo_c, combo_d, combo_e = ws.trace_combos(w13)
    rho = ws.traceless_ricci(ric, scal, g)
    gaps = [combo_c - c, combo_d - d, combo_e - e, d - rho / 9.0, e + rho / 9.0]
    return np.stack([_ptmax(gap) for gap in gaps], axis=1)


def _krupka_block(ginv, w04, w02, ric, scal, g) -> np.ndarray:
    """The columns of :attr:`CheckContext.krupka` on one block of points."""
    w13 = _raise_first(ginv, w04)
    cde = ws.krupka_oracle(w13)
    return np.stack([_ptmax(w13), _ptmax(_krupka_gaps(w13, w02, *cde)),
                     _ptmax(_printed_form_gaps(w13, ric, scal, g, *cde))], axis=1)


def _check_krupka_printed_forms(ctx: CheckContext) -> CheckOutcome:
    out = ctx.outcome(ctx.krupka[:, 2], 1.0 + float(np.max(ctx.krupka[:, 0])))
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


def _weyl_divergence(ginv, nrc, g, nric, grad) -> np.ndarray:
    """g^{hi} ∇_h C_{ijkl} on one block, ∇Weyl's last two slots in W*'s order."""
    return ws.divergence(ginv, np.einsum("pijlkm->pijklm", _weyl(nrc, g, nric, grad)))


def _check_weyl_divergence(ctx: CheckContext) -> CheckOutcome:
    direct = _blocked(_weyl_divergence, *map(ctx.get, ("ginv", "nrc", "g", "nric", "gradR")))
    printed = 0.5 * _divergence_formula(ctx, -1.0 / 3.0)  # codazzi/2 + grad/6
    deviation = float(np.max(_ptmax(direct - printed)))
    codazzi = float(np.max(_ptmax(_divergence_formula(ctx, 0.0))))
    grad = ctx.amax("gradR")
    note = f"printed closed form deviates from the direct route by {deviation:.3e}"
    scale = 1.0 + ctx.amax("nric")
    if codazzi > ctx.tol(scale) or grad > ctx.tol(ctx.amax("R")):
        return ctx.na(
            "Ricci tensor is not Codazzi at the sample points, so the "
            "vanishing conclusion does not apply; " + note
        )
    return ctx.outcome(_ptmax(direct), scale, note)


# --- property checks ----------------------------------------------------------


def _check_ricci_flat(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(_ptmax(ctx.get("ric")), ctx.amax("rc"))


def _check_einstein(ctx: CheckContext) -> CheckOutcome:
    n = ctx.geo.dim
    scale = ctx.amax("ric") + ctx.amax("R") * ctx.amax("g") / n
    out = ctx.outcome(_ptmax(_traceless_ricci(ctx)), scale)
    trace_res = ctx.amax("w02")
    out.reason = f"independent trace route residual {trace_res:.3e}"
    return out


def _check_constant_scalar(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(_ptmax(ctx.get("gradR")[:, None]), ctx.amax("R"))


def _check_codazzi(ctx: CheckContext) -> CheckOutcome:
    res = _ptmax(ws.codazzi_defect(ctx.get("nric")))
    return ctx.outcome(res, ctx.amax("nric"))


def _check_ricci_recurrent(ctx: CheckContext) -> CheckOutcome:
    fit = ctx.recurrence
    if not fit.applicable:
        return ctx.na(fit.reason or "recurrence undefined")
    out = ctx.outcome(fit.point_residual, ctx.amax("nric"))
    out.reason = (
        f"recurrence 1-form closedness residual {fit.closedness_residual:.3e}"
    )
    return out


def _check_ricci_semisymmetric(ctx: CheckContext) -> CheckOutcome:
    res = _commutator_ptmax(ctx, "ric", "ll")
    return ctx.outcome(res, ctx.amax("r13") * ctx.amax("ric"))


def _check_wstar_flat(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(_ptmax(ctx.get("w04")), ctx.amax("rc"))


def _check_wstar_divergence_free(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(_ptmax(ctx.divergence), ctx.amax("dw"))


def _check_wstar_parallel(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(_blocked_ptmax(lambda dw: dw, ctx.get("dw")), ctx.amax("w04"))


def _check_wstar_semisymmetric(ctx: CheckContext) -> CheckOutcome:
    res = _commutator_ptmax(ctx, "w04", "llll")
    return ctx.outcome(res, ctx.amax("r13") * ctx.amax("w04"))


def _check_quarter_rule(ctx: CheckContext) -> CheckOutcome:
    parallel = ctx.check("wstar_parallel")
    if parallel.status != "pass":
        return ctx.na(
            "modified curvature is not covariantly constant here "
            f"(residual {parallel.max_residual:.3e}); the quarter-trace rule "
            "only applies in that regime"
        )
    n = ctx.geo.dim
    pred = np.einsum("pjk,pm->pjkm", ctx.get("g"), ctx.get("gradR")) / n
    return ctx.outcome(_ptmax(ctx.get("nric") - pred), 1.0 + ctx.amax("nric"))


def _check_t_parallel(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(_ptmax(ctx.get("nt")), ctx.amax("t"))


def _check_t_codazzi(ctx: CheckContext) -> CheckOutcome:
    return ctx.outcome(_ptmax(ws.codazzi_defect(ctx.get("nt"))), ctx.amax("nt"))


def _check_t_semisymmetric(ctx: CheckContext) -> CheckOutcome:
    res = _commutator_ptmax(ctx, "t", "ll")
    return ctx.outcome(res, ctx.amax("r13") * ctx.amax("t"))


def _check_em_distribution(ctx: CheckContext) -> CheckOutcome:
    """The reduced field equation R_{ij} = k T_{ij}: T parallel when W* is.

    Its trace reads R = +k T; the sign-reversed reading R = -k T is scored
    too, so either convention can be audited.
    """
    k, scal = ctx.cfg.k, ctx.get("R")
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
    return ctx.amax("w02") <= factor * tol * (1.0 + ctx.amax("g"))


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
    closedness_residual: Optional[float]
    reason: Optional[str] = None
    point_residual: Optional[np.ndarray] = None  # (P,), zero where Ricci vanishes


def _fit_covector(ric: np.ndarray, nric: np.ndarray) -> np.ndarray:
    # least squares per point and slot: b_m = <nabla_m Ric, Ric> / <Ric, Ric>
    denom = np.einsum("pjk,pjk->p", ric, ric)
    return np.einsum("pjkm,pjk->pm", nric, ric) / denom[:, None]


def _fit_recurrence(ric: np.ndarray, nric: np.ndarray) -> tuple:
    """(b, max |nabla Ric - b Ric| per point) at the usable points.

    The usable points' copies of Ricci and its derivative die on return, so
    they are not held through the displaced evaluation.
    """
    b = _fit_covector(ric, nric)
    return b, _ptmax(nric - np.einsum("pjk,pm->pjkm", ric, b))


_FD_STEP = 1e-4  # central-difference step of the closedness estimate


def recurrence_fit(ctx: CheckContext) -> RecurrenceFit:
    """Fit nabla_m R_{ij} = b_m R_{ij} and measure how closed the 1-form b is.

    Closedness of b is estimated by central finite differences of the fitted
    covector at displaced copies of each sample point.  A copy is displaced
    only along a coordinate the metric depends on: along any other, b is
    constant and its difference is exactly 0.  Points where Ricci vanishes
    carry no information and are dropped; with no usable points the fit is
    reported as not applicable rather than as trivially recurrent.
    """

    geo = ctx.geo
    usable = np.max(np.abs(ctx.get("ric")), axis=(1, 2)) > 1e-10
    if not np.any(usable):
        return RecurrenceFit(False, None, 0.0, None, "Ricci tensor vanishes")
    point_residual = np.zeros(ctx.points.shape[0])
    b, point_residual[usable] = _fit_recurrence(ctx.get("ric")[usable], ctx.get("nric")[usable])

    n, axes = geo.dim, geo.jet.axes
    base = ctx.points[usable]
    shifts = _FD_STEP * np.eye(n)[axes]
    displaced = np.concatenate(
        [base + s for s in shifts] + [base - s for s in shifts]
    ).reshape(-1, n)
    bd = _fit_covector(*geo.jet.ricci(displaced))
    p_used, k = base.shape[0], len(axes)
    plus = bd[: k * p_used].reshape(k, p_used, n)
    minus = bd[k * p_used :].reshape(k, p_used, n)
    grad_b = np.zeros((n, p_used, n))  # grad_b[nu, p, mu] = d_nu b_mu
    grad_b[axes] = (plus - minus) / (2.0 * _FD_STEP)
    curl = grad_b - grad_b.transpose(2, 1, 0)
    return RecurrenceFit(
        True, b, float(point_residual.max()), _amax(curl), None, point_residual
    )
