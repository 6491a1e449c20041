"""Metric-level entry points to the analysis, and the vector-field fits.

:func:`is_einstein`, :func:`fluid_relation_checks`, :func:`classify` and
:func:`pairing_checks` each build one :class:`wstar.checks.CheckContext` and
read it, so they report exactly the numbers of the ``check`` and ``classify``
commands; the Einstein trace cross-check and the fluid figures they return
are the library's own, and no command prints them.  :func:`conformal_fit`
and :func:`matter_inheritance_check` fit the conformal and
matter-inheritance factors of a vector field.  The field equations and the
perfect-fluid algebra live in :mod:`wstar.matter` and are re-exported here.

Tolerance semantics throughout: a condition "holds" when its residual is at
most ``atol + rtol * scale`` where ``scale`` is the magnitude of the dominant
ingredient of that condition (reported alongside the flag); functions that
take no ``atol``/``rtol`` use the defaults of :class:`wstar.checks.CheckContext`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .checks import (
    CheckContext,
    FLAGS,
    PAIRINGS,
    CheckOutcome,
    _trace_vanishes,
    classification,
    holds,
    pairings,
)
from .exprlib import to_text
from .geometry import Geometry, MetricSpec, TensorField, VectorFieldSpec, workspace
from .matter import (
    FieldEquationConfig,
    FluidDecomposition,
    FluidError,
    _amax,
    energy_momentum,
    perfect_fluid_decompose,
)

__all__ = [
    "FieldEquationConfig",
    "FluidDecomposition",
    "FluidError",
    "EinsteinCheck",
    "FluidRelationsReport",
    "ConformalFit",
    "InheritanceReport",
    "PairingResult",
    "energy_momentum",
    "perfect_fluid_decompose",
    "is_einstein",
    "fluid_relation_checks",
    "conformal_fit",
    "matter_inheritance_check",
    "classify",
    "pairing_checks",
]


@dataclass(frozen=True)
class EinsteinCheck:
    flag: bool
    residual: float
    trace_flag: bool
    trace_residual: float


def einstein_check(ctx: CheckContext) -> EinsteinCheck:
    """Is R_{jk} = (R/n) g_{jk}?  Cross-checked against the W* trace.

    The modified curvature's metric trace equals n/(n-1) times the deviation
    from the Einstein condition, so the two booleans must agree; both are
    scored against the run's ``einstein`` tolerance and returned.
    """
    out = ctx.check("einstein")
    trace_flag = _trace_vanishes(ctx, out.tolerance)
    return EinsteinCheck(holds(out), out.max_residual, trace_flag, ctx.amax("w02"))


def is_einstein(m: MetricSpec, points) -> EinsteinCheck:
    """:func:`einstein_check` at the points."""
    return einstein_check(CheckContext(m, points, FieldEquationConfig(), checks=("einstein",)))


@dataclass(frozen=True, eq=False)
class FluidRelationsReport:
    n_points: int
    n_decomposed: int
    mu: np.ndarray  # (P,), NaN where the decomposition failed
    p: np.ndarray
    trace_residual: float
    scalar_max: float
    failures: tuple
    wstar_flat: bool
    mu_plus_p_max: Optional[float]
    mu_minus_3p_spread: Optional[float]
    nabla_t_max: Optional[float]


def fluid_relations(ctx: CheckContext) -> FluidRelationsReport:
    """Decompose T at every sample point and test the trace relation.

    |R - (4L + k(mu - 3p))| must vanish wherever the decomposition succeeds:
    it is the metric trace of the field equations, not a special property,
    and its max is the run's ``field_equation_trace`` residual.
    When the modified curvature vanishes (the run's ``wstar_flat`` check) the
    fluid must behave as a cosmological constant (mu + p = 0, mu - 3p
    constant, T parallel); those extra figures are reported only in that
    regime.
    """

    mu, p, failures = ctx.fluid
    ok = ~np.isnan(mu)
    flat = ctx.check("wstar_flat").status == "pass"
    mu_plus_p = spread = nabla_t = None
    if flat:
        if np.any(ok):
            mu_plus_p = _amax(mu[ok] + p[ok])
            combo = mu[ok] - 3.0 * p[ok]
            spread = float(np.max(combo) - np.min(combo))
        nabla_t = ctx.amax("nt")
    return FluidRelationsReport(
        n_points=mu.shape[0],
        n_decomposed=int(np.sum(ok)),
        mu=mu,
        p=p,
        trace_residual=ctx.check("field_equation_trace").max_residual,
        scalar_max=ctx.amax("R"),
        failures=tuple(sorted(set(failures))),
        wstar_flat=flat,
        mu_plus_p_max=mu_plus_p,
        mu_minus_3p_spread=spread,
        nabla_t_max=nabla_t,
    )


def fluid_relation_checks(
    m: MetricSpec, cfg: FieldEquationConfig, points
) -> FluidRelationsReport:
    """:func:`fluid_relations` at the points."""
    return fluid_relations(CheckContext(m, points, cfg))


def classify(
    m: MetricSpec,
    cfg: FieldEquationConfig,
    points,
    atol: float = 1e-9,
    rtol: float = 1e-6,
) -> Dict[str, CheckOutcome]:
    """Every studied curvature/matter condition at the sample points.

    Public flag name -> the :class:`wstar.checks.CheckOutcome` it reads, from
    one context; see :func:`wstar.checks.classification` and ``holds``.
    """
    return classification(CheckContext(m, points, cfg, atol, rtol,
                                       checks=[name for _, name in FLAGS]))


@dataclass(frozen=True)
class PairingResult:
    name: str
    holds: Optional[bool]  # None when the pairing does not apply
    detail: str


def pairing_checks(
    m: MetricSpec,
    cfg: FieldEquationConfig,
    points,
    atol: float = 1e-9,
    rtol: float = 1e-6,
) -> tuple:
    """The theorem pairings, in report order; see :func:`wstar.checks.pairings`."""
    outcomes = pairings(CheckContext(m, points, cfg, atol, rtol,
                                   checks=[name for _, name in PAIRINGS]))
    return tuple(PairingResult(name, holds(out), out.reason)
                 for name, out in outcomes.items())


# --- conformal vector fields and matter inheritance ---------------------------


@dataclass(frozen=True, eq=False)
class ConformalFit:
    phi: np.ndarray  # (P,)
    residual: float


def _vector_key(xi: VectorFieldSpec) -> str:
    # the exact component text: a truncated repr lets two fields share a key
    return f"{xi.name}:" + ", ".join(to_text(c) for c in xi.components)


def _lie_metric(geo: Geometry, xi: VectorFieldSpec) -> TensorField:
    key = f"lie_metric[{_vector_key(xi)}]"
    return geo.cached(key, lambda: geo.lie_derivative_metric(xi))


def conformal_fit(xi: VectorFieldSpec, m: MetricSpec, points) -> ConformalFit:
    """Least-squares conformal factor: L_xi g = 2 phi g, residual reported."""

    geo = workspace(m)
    lie = _lie_metric(geo, xi)
    vals = geo.eval_fields({"L": lie, "g": geo.g, "ginv": geo.ginv}, points)
    phi = np.einsum("pij,pij->p", vals["ginv"], vals["L"]) / (2.0 * geo.dim)
    residual = _amax(vals["L"] - 2.0 * phi[:, None, None] * vals["g"])
    return ConformalFit(phi, residual)


@dataclass(frozen=True, eq=False)
class InheritanceReport:
    phi: np.ndarray
    conformal_residual: float
    phi_t: Optional[np.ndarray]
    inheritance_residual: float
    degenerate: bool
    equivalence: str  # "holds" | "not-applicable" | "violated"
    phi_gap: Optional[float]


def matter_inheritance_check(
    xi: VectorFieldSpec,
    m: MetricSpec,
    cfg: FieldEquationConfig,
    points,
) -> InheritanceReport:
    """Fit L_xi T = 2 phi_T T and compare against the metric conformal fit.

    When the modified curvature vanishes identically, a vector field is
    conformal exactly when it inherits the matter tensor with the same factor
    (and Killing exactly when the matter factor vanishes); the report scores
    that equivalence.  A vanishing T makes the matter side degenerate - any
    factor works - which is reported rather than scored.
    """

    geo = workspace(m)
    conf = conformal_fit(xi, m, points)
    t_field = energy_momentum(m, cfg)
    key = f"lie_T[{_vector_key(xi)},k={cfg.k!r},lam={cfg.lam!r}]"
    lie_t = geo.cached(key, lambda: geo.lie_derivative_sym2(xi, t_field))
    vals = geo.eval_fields({"t": t_field, "LT": lie_t, "g": geo.g}, points)
    t_sq = np.einsum("pij,pij->p", vals["t"], vals["t"])
    t_scale = 1.0 + _amax(vals["t"])
    if np.max(t_sq) <= (1e-12 * t_scale) ** 2 * vals["t"][0].size:
        return InheritanceReport(
            phi=conf.phi,
            conformal_residual=conf.residual,
            phi_t=None,
            inheritance_residual=_amax(vals["LT"]),
            degenerate=True,
            equivalence="not-applicable",
            phi_gap=None,
        )
    phi_t = np.einsum("pij,pij->p", vals["LT"], vals["t"]) / (2.0 * t_sq)
    residual = _amax(vals["LT"] - 2.0 * phi_t[:, None, None] * vals["t"])

    ctx = CheckContext(m, points, cfg, checks=("wstar_flat",))
    gap = _amax(conf.phi - phi_t)
    if ctx.check("wstar_flat").status != "pass":
        equivalence = "not-applicable"
    else:
        conf_ok = conf.residual <= ctx.tol(1.0 + _amax(vals["g"]))
        inh_ok = residual <= ctx.tol(t_scale)
        if conf_ok != inh_ok:
            equivalence = "violated"
        elif conf_ok and gap > ctx.tol(1.0 + _amax(conf.phi)):
            equivalence = "violated"
        else:
            equivalence = "holds"
    return InheritanceReport(
        phi=conf.phi,
        conformal_residual=conf.residual,
        phi_t=phi_t,
        inheritance_residual=residual,
        degenerate=False,
        equivalence=equivalence,
        phi_gap=gap,
    )
