"""Field equations and perfect fluids: the matter side of the analysis.

The energy-momentum tensor is built symbolically from the metric's curvature,

    T_{ij} = (1/k) (R_{ij} - (R/2) g_{ij} + L g_{ij}),

with coupling ``k`` and cosmological constant ``L`` supplied by a
:class:`FieldEquationConfig`.  :func:`decompose_fluids` reads density, pressure
and velocity off a stack of T values at once; :func:`perfect_fluid_decompose`
is its one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

import numpy as np

from .exprlib import const, mul, term_sum
from .geometry import MetricSpec, PointTensor, TensorField, workspace

__all__ = [
    "FieldEquationConfig",
    "FluidDecomposition",
    "FluidError",
    "FluidStack",
    "decompose_fluids",
    "energy_momentum",
    "energy_momentum_values",
    "perfect_fluid_decompose",
]


def _amax(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def _strict():
    """Float arithmetic that overflows, divides by zero or is invalid raises."""
    return np.errstate(divide="raise", over="raise", invalid="raise")


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
            terms = [ric[i, j], mul(const(Fraction(-1, 2)), mul(scal, g[i, j]))]
            if cfg.lam != 0.0:
                terms.append(mul(const(cfg.lam), g[i, j]))
            e = term_sum(terms)
            if cfg.k != 1.0:
                e = mul(const(1.0 / cfg.k), e)
            comps[i, j] = e
        return TensorField("ll", comps, "EnergyMomentum")

    return geo.cached(f"energy_momentum[k={cfg.k!r},lam={cfg.lam!r}]", build)


def energy_momentum_values(ric: np.ndarray, scal: np.ndarray, g: np.ndarray,
                           cfg: FieldEquationConfig) -> np.ndarray:
    """T_{ij} = (1/k)(R_{ij} - (R/2) g_{ij} + L g_{ij}) from values.

    Given ∇Ricci and ∇R, with the derivative slot last, it is ∇_m T_{ij}:
    ∇g = 0, so the L term drops.  It runs under the checks' float rule
    (:func:`_strict`) whoever forms T, a check step or ``compute``: a k small
    enough to overflow T raises ``FloatingPointError`` in place of an inf.
    """
    with _strict():
        t = ric - 0.5 * np.einsum("pij,p...->pij...", g, scal)
        if cfg.lam != 0.0 and t.ndim == 3:
            t = t + cfg.lam * g
        return t / cfg.k


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


_FAILURES = (
    "metric has no timelike direction at the point",
    "complex eigenvalues of T^i_j - not a perfect fluid",
    "no timelike eigenvector of T^i_j - not a perfect fluid",
)


@dataclass(frozen=True, eq=False)
class FluidStack:
    """Perfect-fluid readings of a (P, n, n) stack of T, NaN where one fails."""

    mu: np.ndarray  # (P,)
    p: np.ndarray  # (P,)
    u_up: np.ndarray  # (P, n) unit timelike velocity
    anisotropy: np.ndarray  # (P,) max |spacelike eigenvalue - p|, 0 if degenerate
    degenerate: np.ndarray  # (P,) T proportional to g
    errors: tuple  # per point: why T has no perfect-fluid form, or None


def decompose_fluids(t: np.ndarray, g: np.ndarray, ginv: np.ndarray) -> FluidStack:
    """Eigen-decompose T^i_j at every point of a stack at once.

    Each point takes the first branch that applies: T proportional to g
    (degenerate: any unit timelike u of g, failing where g has none), then
    complex eigenvalues (failing), then no timelike eigenvector (failing);
    what is left is read off as in :func:`perfect_fluid_decompose`.  Each
    branch runs as one batched ``eigh`` or ``eig`` over the points that
    reach it.
    """

    t = np.asarray(t, dtype=float)
    count, n = t.shape[:2]
    scale = 1.0 + np.max(np.abs(t), axis=(1, 2))
    p0 = np.einsum("pij,pij->p", ginv, t) / n
    degenerate = np.max(np.abs(t - p0[:, None, None] * g), axis=(1, 2)) <= 1e-10 * scale
    mu, p = np.full(count, np.nan), np.full(count, np.nan)
    u_up = np.full((count, n), np.nan)
    anisotropy = np.zeros(count)
    failure = np.full(count, -1)  # index into _FAILURES

    # T = p0 g: the eigenvector of g with negative eigenvalue (signature -+++)
    d = np.flatnonzero(degenerate)
    evals, evecs = np.linalg.eigh(g[d])
    c = np.argmin(evals, axis=1)
    lowest = evals[np.arange(d.size), c]
    spacelike = lowest >= 0
    failure[d[spacelike]] = 0
    ok = np.flatnonzero(~spacelike)
    u_up[d[ok]] = evecs[ok, :, c[ok]] / np.sqrt(-lowest[ok])[:, None]
    mu[d[ok]], p[d[ok]] = -p0[d[ok]], p0[d[ok]]

    # otherwise: the unique timelike eigenvector of T^i_j, normalized
    r = np.flatnonzero(~degenerate)
    lam, vecs = np.linalg.eig(ginv[r] @ t[r])
    complex_ = np.max(np.abs(lam.imag), axis=1) > 1e-8 * scale[r]
    lam, vecs = lam.real, vecs.real
    norms = np.einsum("pic,pij,pjc->pc", vecs, g[r], vecs)
    timelike = np.any(norms < -1e-10, axis=1)
    failure[r[complex_]] = 1
    failure[r[~complex_ & ~timelike]] = 2
    ok = np.flatnonzero(~complex_ & timelike)
    c = np.argmin(norms[ok], axis=1)
    rest = lam[ok][np.arange(n) != c[:, None]].reshape(ok.size, n - 1)
    mu[r[ok]] = -lam[ok, c]
    p[r[ok]] = np.mean(rest, axis=1)
    anisotropy[r[ok]] = np.max(np.abs(rest - p[r[ok], None]), axis=1)
    u_up[r[ok]] = vecs[ok, :, c] / np.sqrt(-norms[ok, c])[:, None]

    u_up = np.where(u_up[:, :1] < 0, -u_up, u_up)
    errors = tuple(_FAILURES[f] if f >= 0 else None for f in failure.tolist())
    return FluidStack(mu, p, u_up, anisotropy, degenerate, errors)


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
    This is the one-point case of :func:`decompose_fluids`.
    """

    t, g = np.asarray(t, dtype=float), np.asarray(g, dtype=float)
    fluid = decompose_fluids(t[None], g[None], np.asarray(ginv, dtype=float)[None])
    if fluid.errors[0] is not None:
        raise FluidError(fluid.errors[0])
    mu, p = float(fluid.mu[0]), float(fluid.p[0])
    u = g @ fluid.u_up[0]
    rec = _amax(t - ((mu + p) * np.outer(u, u) + p * g))
    w = p / mu if abs(mu) > 1e-10 else None
    return FluidDecomposition(
        mu, p, PointTensor("l", u, point), float(fluid.anisotropy[0]) + rec, w,
        bool(fluid.degenerate[0]),
    )
