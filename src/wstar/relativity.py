"""Metric-level entry points to the analysis, and the vector-field fits.

:func:`is_einstein`, :func:`fluid_relation_checks`, :func:`classify` and
:func:`pairing_checks` each build one :class:`wstar.checks.CheckContext` and
read it, so they report exactly the numbers of the ``check`` and ``classify``
commands.  :func:`conformal_fit` and :func:`matter_inheritance_check` fit the
conformal and matter-inheritance factors of a vector field.  The field
equations and the perfect-fluid algebra live in :mod:`wstar.matter` and are
re-exported here.

Tolerance semantics throughout: a condition "holds" when its residual is at
most ``atol + rtol * scale`` where ``scale`` is the magnitude of the dominant
ingredient of that condition (reported alongside the flag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .checks import (
    CheckContext,
    CheckOutcome,
    EinsteinCheck,
    FluidRelationsReport,
    PairingResult,
    einstein_check,
    fluid_relations,
)
from .exprlib import to_text
from .geometry import Geometry, MetricSpec, TensorField, VectorFieldSpec, workspace
from .matter import (
    FieldEquationConfig,
    FluidDecomposition,
    FluidError,
    _amax,
    energy_momentum,
    nabla_energy_momentum,
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
    "nabla_energy_momentum",
    "perfect_fluid_decompose",
    "is_einstein",
    "fluid_relation_checks",
    "conformal_fit",
    "matter_inheritance_check",
    "classify",
    "pairing_checks",
]


def is_einstein(m: MetricSpec, points) -> EinsteinCheck:
    """:func:`wstar.checks.einstein_check` at the points."""
    return einstein_check(CheckContext(m, points, FieldEquationConfig()))


def fluid_relation_checks(
    m: MetricSpec, cfg: FieldEquationConfig, points
) -> FluidRelationsReport:
    """:func:`wstar.checks.fluid_relations` at the points."""
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
    return CheckContext(m, points, cfg, atol, rtol).classification


def pairing_checks(
    m: MetricSpec,
    cfg: FieldEquationConfig,
    points,
    atol: float = 1e-9,
    rtol: float = 1e-6,
):
    """The theorem pairings; see :func:`wstar.checks.pairing_results`."""
    return CheckContext(m, points, cfg, atol, rtol).pairings


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

    flat = CheckContext(m, points, cfg).check("wstar_flat").status == "pass"
    gap = _amax(conf.phi - phi_t)
    if not flat:
        equivalence = "not-applicable"
    else:
        conf_ok = conf.residual <= 1e-8 * (1.0 + _amax(vals["g"]))
        inh_ok = residual <= 1e-8 * t_scale
        if conf_ok != inh_ok:
            equivalence = "violated"
        elif conf_ok and gap > 1e-6 * (1.0 + _amax(conf.phi)):
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
