"""Field equations and perfect fluids: the matter side of the analysis.

The energy-momentum tensor is built symbolically from the metric's curvature,

    T_{ij} = (1/k) (R_{ij} - (R/2) g_{ij} + L g_{ij}),

with coupling ``k`` and cosmological constant ``L`` supplied by a
:class:`FieldEquationConfig`.  :func:`perfect_fluid_decompose` reads density,
pressure and velocity off T at one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

import numpy as np

from .exprlib import const, mul
from .geometry import MetricSpec, PointTensor, TensorField, is_zero, term_sum, workspace

__all__ = [
    "FieldEquationConfig",
    "FluidDecomposition",
    "FluidError",
    "energy_momentum",
    "nabla_energy_momentum",
    "perfect_fluid_decompose",
]


def _amax(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


@dataclass(frozen=True)
class FieldEquationConfig:
    """Coupling constant and cosmological constant of the field equations."""

    k: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.k) and math.isfinite(self.lam)):
            raise ValueError(
                f"the field-equation constants must be finite (k={self.k!r}, lam={self.lam!r})"
            )
        if self.k == 0:
            raise ValueError("the gravitational coupling k must be nonzero")


# --- energy-momentum tensor ---------------------------------------------------


def energy_momentum(m: MetricSpec, cfg: FieldEquationConfig) -> TensorField:
    """Symbolic T_{ij} = (1/k)(R_{ij} - (R/2) g_{ij} + L g_{ij})."""

    geo = workspace(m)

    def build():
        n = geo.dim
        g, ric, scal = geo.g, geo.ricci, geo.scalar
        comps = np.empty((n, n), dtype=object)
        for i, j in product(range(n), repeat=2):
            terms = []
            if not is_zero(ric[i, j]):
                terms.append(ric[i, j])
            if not (is_zero(scal) or is_zero(g[i, j])):
                terms.append(mul(const(Fraction(-1, 2)), mul(scal, g[i, j])))
            if cfg.lam != 0.0 and not is_zero(g[i, j]):
                terms.append(mul(const(cfg.lam), g[i, j]))
            e = term_sum(terms)
            if cfg.k != 1.0 and not is_zero(e):
                e = mul(const(1.0 / cfg.k), e)
            comps[i, j] = e
        return TensorField("ll", comps, "EnergyMomentum")

    return geo.cached(f"energy_momentum[k={cfg.k!r},lam={cfg.lam!r}]", build)


def nabla_energy_momentum(m: MetricSpec, cfg: FieldEquationConfig) -> TensorField:
    geo = workspace(m)
    return geo.cached(
        f"nabla_energy_momentum[k={cfg.k!r},lam={cfg.lam!r}]",
        lambda: geo.covariant_derivative(energy_momentum(m, cfg)),
    )


# --- perfect fluids -----------------------------------------------------------


class FluidError(ValueError):
    """The tensor has no perfect-fluid form at the point."""


@dataclass(frozen=True, eq=False)
class FluidDecomposition:
    """T_{ij} = (mu + p) u_i u_j + p g_{ij} with unit timelike u."""

    mu: float
    p: float
    u: PointTensor
    residual: float
    w: Optional[float]
    degenerate: bool = False


def _timelike_direction(g: np.ndarray) -> np.ndarray:
    # the eigenvector of g with negative eigenvalue (signature -+++)
    evals, evecs = np.linalg.eigh(g)
    c = int(np.argmin(evals))
    if evals[c] >= 0:
        raise FluidError("metric has no timelike direction at the point")
    v = evecs[:, c] / np.sqrt(-evals[c])
    return -v if v[0] < 0 else v


def perfect_fluid_decompose(
    t: np.ndarray, g: np.ndarray, ginv: np.ndarray, point=None
) -> FluidDecomposition:
    """Eigen-decompose T^i_j and read off density, pressure and velocity.

    The unique timelike eigenvector (negative g-norm) is normalized to
    u_i u^i = -1; ``mu`` is minus its eigenvalue and ``p`` the mean of the
    spacelike ones.  ``residual`` adds the anisotropy of the spacelike
    eigenvalues to the reconstruction error of the perfect-fluid form.
    A tensor proportional to the metric has no preferred rest frame; it is
    reported with ``degenerate=True``, mu = -p and any unit timelike u.
    """

    t = np.asarray(t, dtype=float)
    scale = 1.0 + _amax(t)
    n = t.shape[0]

    trace = float(np.einsum("ij,ij->", ginv, t))
    p0 = trace / n
    if _amax(t - p0 * g) <= 1e-10 * scale:
        u_up = _timelike_direction(g)
        u = g @ u_up
        mu, p = -p0, p0
        w = p / mu if abs(mu) > 1e-10 else None
        residual = _amax(t - ((mu + p) * np.outer(u, u) + p * g))
        return FluidDecomposition(mu, p, PointTensor("l", u, point), residual, w, True)

    lam, vecs = np.linalg.eig(ginv @ t)
    if _amax(lam.imag) > 1e-8 * scale:
        raise FluidError("complex eigenvalues of T^i_j - not a perfect fluid")
    lam, vecs = lam.real, vecs.real
    norms = np.einsum("ic,ij,jc->c", vecs, g, vecs)
    if not np.any(norms < -1e-10):
        raise FluidError("no timelike eigenvector of T^i_j - not a perfect fluid")
    c = int(np.argmin(norms))
    mu = -float(lam[c])
    rest = [float(lam[a]) for a in range(n) if a != c]
    p = float(np.mean(rest))
    anisotropy = max(abs(x - p) for x in rest)
    u_up = vecs[:, c] / np.sqrt(-norms[c])
    if u_up[0] < 0:
        u_up = -u_up
    u = g @ u_up
    rec = _amax(t - ((mu + p) * np.outer(u, u) + p * g))
    w = p / mu if abs(mu) > 1e-10 else None
    return FluidDecomposition(mu, p, PointTensor("l", u, point), anisotropy + rec, w)
