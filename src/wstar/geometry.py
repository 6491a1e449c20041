"""Levi-Civita connection and curvature of a metric: symbolic fields, and the 3-jet route.

Conventions (signature −+++ throughout):

    Γ^h_{ij} = ½ g^{hs}(∂_i g_{sj} + ∂_j g_{si} − ∂_s g_{ij})
    R(U,V)Z  = ∇_U∇_V Z − ∇_V∇_U Z − ∇_[U,V] Z
    R^h_{jkl} = ∂_k Γ^h_{jl} − ∂_l Γ^h_{jk} + Γ^h_{ks}Γ^s_{jl} − Γ^h_{ls}Γ^s_{jk}
    R_{ijkl} = g_{ih} R^h_{jkl}          (field name "riemann04")
    R_{jk}   = R^h_{jhk},   R = g^{jk}R_{jk}

With these choices a round sphere has positive scalar curvature and the
de Sitter family satisfies R_{ijkl} = H²(g_{ik}g_{jl} − g_{il}g_{jk}).
Covariant derivatives append one trailing lower index.

A field that is one index operation on another is built by the symbolic
primitives ``lower_index``, ``contract`` and ``covariant_derivative`` of
:class:`Geometry`, not by a loop of its own: R_{ijkl} lowers slot 0 of
R^h_{jkl}, R_{jk} contracts its slots 0 and 2, and ∇R, ∇_m ξ^i and the ∇ of
every curvature field are covariant derivatives.  All component
expressions are simplified as they are built.  The builders write plain sums
of products and test no factor for zero: the expression constructors own
that rule (:func:`wstar.exprlib.mul` gives back :data:`wstar.exprlib.ZERO`
when a factor is it, and :func:`wstar.exprlib.term_sum` skips zero terms),
so a sparse metric keeps sparse fields.  :meth:`Geometry.eval_fields`
evaluates symbolic fields at sample points through compiled tapes and the
one numpy tape kernel (see :mod:`wstar.tape` / :mod:`wstar.backend`).

No command builds these fields: ``check``, ``classify`` and ``compute``
take the curvature from the metric's 3-jet (``geo.jet``, see
:mod:`wstar.jet`, which also holds the numeric covariant derivative).  The
symbolic fields stay as inputs of the vector-field fits and as the tests'
oracle.  One function here acts on values: :func:`ricci_commutator`, the
curvature action [∇_μ, ∇_ν] on a lower-index tensor, which the
semi-symmetry checks read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .exprlib import (
    Expr,
    const,
    differentiate,
    div,
    is_zero,
    mul,
    neg,
    simplify,
    term_sum,
)
from .tape import Tape, compile_tape

__all__ = [
    "MetricSpec",
    "TensorField",
    "PointTensor",
    "VectorFieldSpec",
    "Geometry",
    "workspace",
]

# --- specifications -----------------------------------------------------------


@dataclass(frozen=True)
class MetricSpec:
    """A metric: coordinates, symmetric component matrix, parameters, box."""

    name: str
    coords: tuple
    g: tuple  # dim × dim nested tuple of Expr, symmetric
    params: Mapping[str, float]
    domain: tuple  # (lo, hi) per coordinate

    @property
    def dim(self) -> int:
        return len(self.coords)

    @cached_property
    def geometry(self) -> "Geometry":
        """This metric's workspace, built on first use (see :func:`workspace`)."""
        return Geometry(self)

    def __post_init__(self):
        n = self.dim
        if len(self.g) != n or any(len(row) != n for row in self.g):
            raise ValueError("metric component matrix must be dim × dim")
        if len(self.domain) != n:
            raise ValueError("sampling domain needs one interval per coordinate")
        for i, j in product(range(n), repeat=2):
            if self.g[i][j] != self.g[j][i]:
                raise ValueError(f"metric components g[{i}][{j}] and g[{j}][{i}] differ")


@dataclass(frozen=True)
class VectorFieldSpec:
    """Contravariant vector field ξ^i given by component expressions."""

    name: str
    components: tuple  # dim Expr


class TensorField:
    """Dense array of component expressions plus an index variance signature.

    ``variance`` is a string over {'u', 'l'} (upper/lower), one letter per
    slot; rank-0 fields use the empty string and a 0-d component array.
    """

    def __init__(self, variance: str, comps: np.ndarray, label: str):
        if set(variance) - {"u", "l"}:
            raise ValueError("variance letters must be 'u' or 'l'")
        if comps.ndim != len(variance):
            raise ValueError("variance length must equal component rank")
        self.variance = variance
        self.comps = comps
        self.label = label

    @property
    def rank(self) -> int:
        return len(self.variance)

    @property
    def shape(self):
        return self.comps.shape

    def __getitem__(self, idx) -> Expr:
        return self.comps[idx]

    def expressions(self):
        return [self.comps[idx] for idx in np.ndindex(self.comps.shape)]

    def __repr__(self):
        return f"<TensorField {self.label} ({self.variance or 'scalar'})>"


@dataclass
class PointTensor:
    """Numeric tensor values at one point."""

    variance: str
    values: np.ndarray
    point: tuple


# --- the workspace ------------------------------------------------------------


def _determinant(mat) -> Expr:
    """Laplace expansion along the first row (symbolic, n ≤ 5); the empty
    matrix, the minor of a 1×1 matrix's entry, has determinant 1."""
    n = len(mat)
    if n == 0:
        return const(1)
    terms = []
    for j in range(n):
        entry = mat[0][j]
        if is_zero(entry):
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in mat[1:]]
        cof = mul(entry, _determinant(minor))
        terms.append(cof if j % 2 == 0 else neg(cof))
    return term_sum(terms)


class Geometry:
    """Per-metric workspace: lazily built symbolic fields and compiled tapes."""

    def __init__(self, metric: MetricSpec):
        self.metric = metric
        self.dim = metric.dim
        self._cache: dict = {}
        self._tapes: dict = {}  # tuple of TensorField (identity-hashed) -> Tape

    # --- generic caching -----------------------------------------------------

    def cached(self, name: str, builder):
        """Build-once registry for symbolic fields (used by other modules too)."""
        if name not in self._cache:
            self._cache[name] = builder()
        return self._cache[name]

    # --- base fields ---------------------------------------------------------

    @property
    def g(self) -> TensorField:
        def build():
            n = self.dim
            comps = np.empty((n, n), dtype=object)
            for i, j in product(range(n), repeat=2):
                # components may be built outside the constructors
                comps[i, j] = simplify(self.metric.g[i][j])
            return TensorField("ll", comps, "Metric")

        return self.cached("metric", build)

    @property
    def det(self) -> Expr:
        def build():
            mat = [[self.g[i, j] for j in range(self.dim)] for i in range(self.dim)]
            return _determinant(mat)

        return self.cached("det", build)

    @property
    def ginv(self) -> TensorField:
        def build():
            n = self.dim
            if n > 5:
                raise ValueError("symbolic inverse supported for dim <= 5 only")
            det = self.det
            mat = [[self.g[i, j] for j in range(n)] for i in range(n)]
            comps = np.empty((n, n), dtype=object)
            for i in range(n):
                for j in range(i, n):
                    # adjugate entry: cofactor of (j, i); g symmetric so adj is too
                    minor = [
                        [mat[r][c] for c in range(n) if c != j]
                        for r in range(n)
                        if r != i
                    ]
                    cof = _determinant(minor)
                    if (i + j) % 2 == 1:
                        cof = neg(cof)
                    entry = div(cof, det)
                    comps[i, j] = entry
                    comps[j, i] = entry
            return TensorField("uu", comps, "InverseMetric")

        return self.cached("inverse_metric", build)

    @property
    def christoffel(self) -> TensorField:
        def build():
            n = self.dim
            g, ginv = self.g, self.ginv
            dg = np.empty((n, n, n), dtype=object)  # dg[k, i, j] = ∂_k g_{ij}
            for k, i, j in product(range(n), repeat=3):
                dg[k, i, j] = differentiate(g[i, j], k)
            low = {(s, i, j): term_sum([dg[i, s, j], dg[j, s, i], neg(dg[s, i, j])])
                   for s in range(n) for i in range(n) for j in range(i, n)}  # 2 Γ_{s,ij}
            half = const(Fraction(1, 2))
            comps = np.empty((n, n, n), dtype=object)
            for h in range(n):
                for i in range(n):
                    for j in range(i, n):
                        total = term_sum(mul(ginv[h, s], low[s, i, j]) for s in range(n))
                        comps[h, i, j] = comps[h, j, i] = mul(half, total)
            return TensorField("ull", comps, "Christoffel")

        return self.cached("christoffel", build)

    @property
    def riemann13(self) -> TensorField:
        def build():
            n = self.dim
            gam = self.christoffel
            dgam = np.empty((n, n, n, n), dtype=object)  # dgam[k, h, i, j] = ∂_k Γ^h_{ij}
            for k, h, i, j in product(range(n), repeat=4):
                dgam[k, h, i, j] = differentiate(gam[h, i, j], k)
            comps = np.empty((n, n, n, n), dtype=object)
            for h, j, k, l in product(range(n), repeat=4):
                terms = [dgam[k, h, j, l], neg(dgam[l, h, j, k])]
                for s in range(n):
                    terms += [mul(gam[h, k, s], gam[s, j, l]),
                              neg(mul(gam[h, l, s], gam[s, j, k]))]
                comps[h, j, k, l] = term_sum(terms)
            return TensorField("ulll", comps, "Riemann13")

        return self.cached("riemann13", build)

    @property
    def riemann04(self) -> TensorField:
        return self.cached(
            "riemann04", lambda: _relabel(self.lower_index(self.riemann13, 0), "Riemann04")
        )

    @property
    def ricci(self) -> TensorField:
        return self.cached(
            "ricci", lambda: _relabel(self.contract(self.riemann13, 0, 2), "Ricci")
        )

    @property
    def scalar(self) -> Expr:
        def build():
            n = self.dim
            ginv, ric = self.ginv, self.ricci
            return term_sum(mul(ginv[j, k], ric[j, k]) for j, k in product(range(n), repeat=2))

        return self.cached("scalar_expr", build)

    @property
    def scalar_field(self) -> TensorField:
        def build():
            comps = np.empty((), dtype=object)
            comps[()] = self.scalar
            return TensorField("", comps, "ScalarCurvature")

        return self.cached("scalar", build)

    @property
    def grad_scalar(self) -> TensorField:
        return self.cached(
            "grad_scalar",
            lambda: _relabel(self.covariant_derivative(self.scalar_field), "GradScalar"),
        )

    @property
    def weyl(self) -> TensorField:
        """Conformal curvature: the totally trace-free part of the curvature."""

        def build():
            n = self.dim
            if n < 3:
                raise ValueError("conformal curvature needs dim >= 3")
            g, ric, rsc, r04 = self.g, self.ricci, self.scalar, self.riemann04
            c1 = const(Fraction(1, n - 2))
            c2 = const(Fraction(1, (n - 1) * (n - 2)))
            comps = np.empty((n, n, n, n), dtype=object)
            for i, j, k, l in product(range(n), repeat=4):
                ric_part = term_sum(
                    [
                        mul(g[i, k], ric[j, l]),
                        neg(mul(g[i, l], ric[j, k])),
                        mul(g[j, l], ric[i, k]),
                        neg(mul(g[j, k], ric[i, l])),
                    ]
                )
                gg_part = term_sum(
                    [mul(g[i, k], g[j, l]), neg(mul(g[i, l], g[j, k]))]
                )
                comps[i, j, k, l] = term_sum(
                    [r04[i, j, k, l], neg(mul(c1, ric_part)), mul(mul(c2, rsc), gg_part)])
            return TensorField("llll", comps, "Weyl")

        return self.cached("weyl", build)

    # --- derivatives ---------------------------------------------------------

    def covariant_derivative(self, t: TensorField) -> TensorField:
        """∇T with one new trailing lower index: (∇T)_{… m} = ∇_m T_{…}."""
        n = self.dim
        gam = self.christoffel
        comps = np.empty(t.shape + (n,), dtype=object)
        for idx in np.ndindex(t.shape):
            for m in range(n):
                terms = [differentiate(t.comps[idx], m)]
                for slot, var in enumerate(t.variance):
                    for s in range(n):
                        comp = t.comps[idx[:slot] + (s,) + idx[slot + 1 :]]
                        if var == "u":
                            terms.append(mul(gam[idx[slot], m, s], comp))
                        else:
                            terms.append(neg(mul(gam[s, m, idx[slot]], comp)))
                comps[idx + (m,)] = term_sum(terms)
        return TensorField(t.variance + "l", comps, f"Nabla[{t.label}]")

    @property
    def nabla_ricci(self) -> TensorField:
        return self.cached("nabla_ricci", lambda: self.covariant_derivative(self.ricci))

    # --- index algebra (symbolic) -------------------------------------------

    def raise_index(self, t: TensorField, pos: int) -> TensorField:
        return self._flip_index(t, pos, "l", self.ginv, "u")

    def lower_index(self, t: TensorField, pos: int) -> TensorField:
        return self._flip_index(t, pos, "u", self.g, "l")

    def _flip_index(self, t, pos, want, metric_field, new_letter):
        n = self.dim
        if t.variance[pos] != want:
            raise ValueError(
                f"variance mismatch: slot {pos} of {t.label} is '{t.variance[pos]}'"
            )
        comps = np.empty(t.shape, dtype=object)
        for idx in np.ndindex(t.shape):
            i = idx[pos]
            comps[idx] = term_sum(
                mul(metric_field[i, s], t.comps[idx[:pos] + (s,) + idx[pos + 1 :]])
                for s in range(n)
            )
        var = t.variance[:pos] + new_letter + t.variance[pos + 1 :]
        return TensorField(var, comps, t.label)

    def contract(self, t: TensorField, pos_a: int, pos_b: int):
        """Sum one upper slot against one lower slot; rank-0 results are Expr."""
        a, b = sorted((pos_a, pos_b))
        if a == b:
            raise ValueError("cannot contract a slot with itself")
        if {t.variance[a], t.variance[b]} != {"u", "l"}:
            raise ValueError("variance mismatch: contraction needs one upper and one lower slot")
        diagonal = np.diagonal(t.comps, axis1=a, axis2=b)  # the slots' common index last
        comps = np.empty(diagonal.shape[:-1], dtype=object)
        for idx in np.ndindex(comps.shape):
            comps[idx] = term_sum(diagonal[idx])
        var = "".join(v for s, v in enumerate(t.variance) if s not in (a, b))
        if not var:
            return comps[()]
        return TensorField(var, comps, t.label)

    # --- Lie derivatives ------------------------------------------------------

    def nabla_vector(self, xi: VectorFieldSpec) -> TensorField:
        """∇_m ξ^i as a (1,1) field (slot order: upper i, lower m), labelled
        ``Nabla[<name>]``: the covariant derivative of ξ as a "u" field."""
        comps = np.empty((self.dim,), dtype=object)
        comps[:] = xi.components
        return self.covariant_derivative(TensorField("u", comps, xi.name))

    def lie_derivative_metric(self, xi: VectorFieldSpec) -> TensorField:
        """(L_ξ g)_{ij} = ∇_i ξ_j + ∇_j ξ_i."""
        n = self.dim
        g = self.g
        dxi = self.nabla_vector(xi)
        comps = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(i, n):
                comps[i, j] = comps[j, i] = term_sum(
                    p for s in range(n)
                    for p in (mul(g[j, s], dxi[s, i]), mul(g[i, s], dxi[s, j])))
        return TensorField("ll", comps, f"Lie[{xi.name}]Metric")

    def lie_derivative_sym2(self, xi: VectorFieldSpec, t: TensorField) -> TensorField:
        """(L_ξ T)_{ij} = ξ^s ∇_s T_{ij} + T_{sj} ∇_i ξ^s + T_{is} ∇_j ξ^s."""
        if t.variance != "ll":
            raise ValueError("Lie derivative implemented for rank-2 lower tensors")
        n = self.dim
        dt = self.covariant_derivative(t)
        dxi = self.nabla_vector(xi)
        comps = np.empty((n, n), dtype=object)
        for i, j in product(range(n), repeat=2):
            comps[i, j] = term_sum(
                p for s in range(n)
                for p in (mul(xi.components[s], dt[i, j, s]), mul(t[s, j], dxi[s, i]),
                          mul(t[i, s], dxi[s, j])))
        return TensorField("ll", comps, f"Lie[{xi.name}]{t.label}")

    # --- numeric evaluation ---------------------------------------------------

    def _compile(self, exprs, labels=None) -> Tape:
        """A tape over the coordinates and parameters."""
        return compile_tape(exprs, self.dim, tuple(sorted(self.metric.params)), labels)

    @property
    def jet(self):
        """The metric's 3-jet and the curvature tapes over it (:class:`wstar.jet.Jet`)."""
        from .jet import Jet  # loaded on first use; it imports this module

        return self.cached("jet", lambda: Jet(self))

    def _tape_for(self, fields: Sequence[TensorField]) -> Tape:
        key = tuple(fields)
        tape = self._tapes.get(key)
        if tape is None:
            tape = self._tapes[key] = self._compile(
                [e for f in fields for e in f.expressions()]
            )
        return tape

    @cached_property
    def _det_tape(self) -> Tape:
        return self._compile([self.det])

    def eval_fields(self, fields: Mapping[str, TensorField], points):
        """Evaluate several fields on shared points with one tape.

        Returns a dict name → array of shape (P, *field shape).  Raises
        :class:`wstar.tape.TapeEvalError` if any point fails.
        """
        tape = self._tape_for(list(fields.values()))
        pts = np.asarray(points, dtype=np.float64)
        flat = tape.run(pts, dict(self.metric.params), coords=self.metric.coords)[0]
        out, offset = {}, 0
        for name, f in fields.items():
            size = int(np.prod(f.shape, dtype=int))
            out[name] = flat[:, offset:offset + size].reshape((pts.shape[0],) + f.shape)
            offset += size
        return out

    def eval_field(self, f: TensorField, points) -> np.ndarray:
        return self.eval_fields({f.label: f}, points)[f.label]

    def det_values(self, points) -> np.ndarray:
        """|det g| at points with failures mapped to 0 (for rejection sampling)."""
        pts = np.asarray(points, dtype=np.float64)
        vals, _, err, _ = self._det_tape.run(pts, dict(self.metric.params))
        out = np.abs(vals[:, 0])
        out[err >= 0] = 0.0
        return out


def _relabel(t: TensorField, label: str) -> TensorField:
    return TensorField(t.variance, t.comps, label)


# --- the curvature action on values ---------------------------------------


def ricci_commutator(t_vals: np.ndarray, variance: str, r13_vals: np.ndarray) -> np.ndarray:
    """[∇_μ, ∇_ν] applied to a lower-index tensor, via the curvature action.

    ``t_vals`` has shape (P, n, ..., n); the result appends two lower slots
    (μ, ν): out[..., μ, ν] = −Σ_slots R^s_{i_a μ ν} T_{… s …}.
    """
    if set(variance) != {"l"} and variance != "":
        raise ValueError("curvature commutator implemented for lower-index tensors")
    rank = len(variance)
    count, n = r13_vals.shape[:2]
    out = np.zeros(t_vals.shape + (n, n))
    for slot in range(rank):
        # one batched product over a contiguous copy of the moved X keeps the
        # bits of einsum over the strided axes and is faster (a 16-point
        # slice of W*: 1.75 against 2.0 ms on a 2-CPU x86-64 machine);
        # np.matmul would differ by an ulp
        moved = np.ascontiguousarray(np.moveaxis(t_vals, 1 + slot, -1))  # (P, ..., s)
        term = np.einsum("pms,psk->pmk", moved.reshape(count, -1, n),
                         r13_vals.reshape(count, n, -1))
        out -= np.moveaxis(term.reshape(moved.shape[:-1] + (n,) * 3), -3, 1 + slot)
    return out


def workspace(metric: MetricSpec) -> Geometry:
    """The Geometry cached on this MetricSpec object: the workspace, with its
    symbolic fields, tapes and expression nodes, lives as long as the metric
    does, and nothing needs clearing.
    """
    return metric.geometry
