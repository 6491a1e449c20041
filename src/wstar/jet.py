"""Curvature at sample points from the metric's 3-jet.

Every command reads its curvature here and builds no symbolic curvature:
``check`` and ``classify`` at their sample points, ``compute`` at its one
point.  :class:`Jet` holds a tape of the nonzero components of g, ∂g and
∂²g, whose tangent mode gives ∂³g, and one leaf tape over those values and
a numeric g^{ij} that gives Γ, R_{ijkl} by symmetry class and Ricci, with
the partials of the classes or of Ricci; :func:`curvature_fields` forms Γ
and the fields several checks read from R_{ijkl}, ∇R_{ijkl}, g and g^{ij},
one block of points at a time.
R_{ijkl} and ∇R_{ijkl} are held only as their symmetry classes; a reader of
W*^h_{jkl}, Weyl or ∇Weyl forms it from the held fields with
:func:`_raise_first` or :func:`_weyl`.  This is truncated-Taylor (jet)
evaluation (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM
2008, ch. 13).

A point is evaluated when g is non-singular there and its 3-jet is finite;
anywhere else :class:`Jet` raises an error that names the point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product

import numpy as np

from . import geometry, wstar as ws
from .backend import blocks
from .exprlib import const, coord, differentiate, mul, neg
from .geometry import Geometry, is_zero, term_sum
from .matter import FieldEquationConfig, energy_momentum_values
from .tape import Tape, TapeEvalError, point_text

__all__ = ["Jet", "FIELDS", "by_symmetry", "curvature_fields", "weyl_classes"]

_ZERO = const(0)


def _sym(i: int, j: int) -> tuple:
    return (i, j) if i <= j else (j, i)


class Jet:
    """Curvature at sample points from the metric's 3-jet.

    The jet tape outputs the nonzero components of g_{ij}, ∂_k g_{ij} and
    ∂_k ∂_l g_{ij} (i <= j, k <= l), labelled ``g[i][j]``, ``∂_r g[i][j]``
    and ``∂_r ∂_theta g[i][j]`` so that an evaluation error names the
    component; its tangent mode gives ∂³g of the nonzero ∂²g outputs.

    The leaf tape then takes as inputs the nonzero ∂g, the nonzero ∂²g and
    g^{ij} (evaluated numerically, component by component of g's pattern)
    rather than the coordinates.  It builds

        Γ_{s,ij} = ½(∂_i g_{sj} + ∂_j g_{si} − ∂_s g_{ij}),  Γ^h_{ij} = g^{hs} Γ_{s,ij},
        R_{ijkl} = ½(∂_j∂_k g_{il} + ∂_i∂_l g_{jk} − ∂_i∂_k g_{jl} − ∂_j∂_l g_{ik})
                   + Γ_{h,li} Γ^h_{jk} − Γ_{h,ki} Γ^h_{jl}

    (:attr:`Geometry.riemann04`'s convention) with the expression
    constructors, over one component per symmetry class of R_{ijkl}, and
    R_{jk} = g^{hi} R_{ijhk}; the classes and Ricci share their nodes.  A
    structurally zero input is the constant 0, so a sparse metric keeps a
    small leaf tape.  The leaf tape runs in the kernel's tangent mode with
    each input's partials seeded from the jet: ∂(∂g) = ∂²g, ∂(∂²g) = ∂³g
    and ∂g⁻¹ = −g⁻¹ ∂g g⁻¹, and the covariant derivative of R_{ijkl}
    follows from its partials and Γ, per symmetry class.  Everything past
    the jet tape is formed one block of points at a time
    (:func:`wstar.backend.blocks`).  :meth:`curvature` differentiates the
    classes; :meth:`ricci` differentiates Ricci alone, for the recurrence
    fit's displaced points.  Both take ∇ with :func:`_nabla_components`.
    """

    def __init__(self, geo: Geometry):
        self.geo = geo
        n, names, g = geo.dim, geo.metric.coords, geo.g
        exprs, labels, self._col = [], [], {}  # (derivatives, i, j) -> jet output

        def emit(key, e, label):
            if not is_zero(e):
                self._col[key] = len(exprs)
                exprs.append(e)
                labels.append(label)

        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        for i, j in pairs:
            emit(((), i, j), g[i, j], f"g[{i}][{j}]")
        first = {(k, i, j): differentiate(g[i, j], k) for k in range(n) for i, j in pairs}
        for (k, i, j), e in first.items():
            emit(((k,), i, j), e, f"∂_{names[k]} g[{i}][{j}]")
        for k in range(n):
            for l in range(k, n):
                for i, j in pairs:
                    emit(((k, l), i, j), differentiate(first[k, i, j], l),
                         f"∂_{names[k]} ∂_{names[l]} g[{i}][{j}]")
        self.tape = geo._compile(exprs, labels)

        zero = len(exprs)  # the column of 0 appended to the jet values

        def column(derivs, i, j):
            return self._col.get((tuple(sorted(derivs)), *_sym(i, j)), zero)

        self._g = np.array([[column((), i, j) for j in range(n)] for i in range(n)])
        self._dg = np.array([[[column((k,), i, j) for j in range(n)] for i in range(n)]
                             for k in range(n)])
        # the coordinates g depends on: every jet value is constant along the others
        self.axes = sorted({key[0][0] for key in self._col if len(key[0]) == 1})
        self._d1 = [c for key, c in self._col.items() if len(key[0]) == 1]
        self._d2 = [c for key, c in self._col.items() if len(key[0]) == 2]
        # the seeds of a ∂_k g_ij input: ∂_m ∂_k g_ij along each m
        self._d1_seeds = np.array([[column((derivs[0], m), i, j) for m in range(n)]
                                   for derivs, i, j in self._col if len(derivs) == 1],
                                  dtype=np.int64).reshape(-1, n)

        # g^{ij} can be nonzero only within a connected component of g's pattern
        part = list(range(n))
        for (derivs, i, j) in self._col:
            if not derivs:
                a, b = part[i], part[j]
                part = [a if p == b else p for p in part]
        self._components = [np.flatnonzero(np.array(part) == p) for p in sorted(set(part))]
        self._inv = [(a, b) for a, b in pairs if part[a] == part[b]]

    # --- the leaf tape ----------------------------------------------------

    @property
    def _leaf_tape(self) -> Tape:
        """Γ^h_{ij} (i <= j), then R_{ijkl} by symmetry class, then
        R_{jk} = g^{hi} R_{ijhk} (j <= k), over the leaf inputs: the nonzero
        ∂g, then the nonzero ∂²g, then g^{ab} (a <= b) within a component."""
        return self.geo.cached("jet_leaf_tape", self._compile_leaf_tape)

    def _compile_leaf_tape(self) -> Tape:
        n = self.geo.dim
        keys = [key for key in self._col if key[0]] + [("inv", *ab) for ab in self._inv]
        leaf = {key: coord(k) for k, key in enumerate(keys)}

        def dg(k, i, j):
            return leaf.get(((k,), *_sym(i, j)), _ZERO)

        def ddg(k, l, i, j):
            return leaf.get((_sym(k, l), *_sym(i, j)), _ZERO)

        def gi(a, b):
            return leaf.get(("inv", *_sym(a, b)), _ZERO)

        half = const(Fraction(1, 2))
        low, gam = {}, {}
        for s in range(n):
            for i in range(n):
                for j in range(i, n):
                    low[s, i, j] = low[s, j, i] = mul(half, term_sum(
                        [dg(i, s, j), dg(j, s, i), neg(dg(s, i, j))]))
        for h in range(n):
            for i in range(n):
                for j in range(i, n):
                    gam[h, i, j] = gam[h, j, i] = term_sum(  # a zero product is skipped
                        mul(gi(h, s), low[s, i, j]) for s in range(n))

        def riemann(i, j, k, l):
            terms = [mul(half, term_sum([ddg(j, k, i, l), ddg(i, l, j, k),
                                         neg(ddg(i, k, j, l)), neg(ddg(j, l, i, k))]))]
            for h in range(n):
                terms.append(mul(low[h, l, i], gam[h, j, k]))
                terms.append(neg(mul(low[h, k, i], gam[h, j, l])))
            return term_sum(terms)

        curv = [riemann(*c) for c in _riemann_classes(n)]
        full, index = curv + [neg(c) for c in curv] + [_ZERO], _riemann_index(n)
        ric = [term_sum(mul(gi(h, i), full[index[i, j, h, k]])
                        for h in range(n) for i in range(n))
               for j in range(n) for k in range(j, n)]
        gams = [gam[h, i, j] for h in range(n) for i in range(n) for j in range(i, n)]
        return geometry.compile_tape(gams + curv + ric, len(keys))

    # --- evaluation -------------------------------------------------------

    def _inverse(self, g: np.ndarray, points) -> np.ndarray:
        """g^{ij} at every point, inverted one component of g's pattern at a time.

        Raises ``numpy.linalg.LinAlgError`` naming the first point where g is
        singular.
        """
        ginv = np.zeros_like(g)
        for comp in self._components:
            sub = g[:, comp[:, None], comp]
            try:
                ginv[:, comp[:, None], comp] = np.linalg.inv(sub)
            except np.linalg.LinAlgError:
                p = int(np.argmax(np.linalg.det(sub) == 0))
                at = point_text(self.geo.metric.coords, points[p])
                raise np.linalg.LinAlgError(
                    f"the metric is singular at {at} (point #{p})") from None
        return ginv

    def _blocks(self, points, diff: range):
        """Run the leaf tape per block with the partials of its outputs ``diff``:
        yields (slice, g, g⁻¹, Γ^h_{ij}, the outputs ``diff``, their partials)."""
        geo, tape = self.geo, self._leaf_tape
        pts = np.asarray(points, dtype=np.float64).reshape(-1, geo.dim)
        count, n = pts.shape
        vals, d3, _, _ = self.tape.run(pts, dict(geo.metric.params), self._d2,
                                       coords=geo.metric.coords)
        jet = np.concatenate([vals, np.zeros((count, 1))], axis=1)
        g = jet[:, self._g]
        ginv = self._inverse(g, pts)
        a, b = (np.array(ix, dtype=np.int64) for ix in zip(*self._inv))
        for part in blocks(count):
            block, gi = jet[part], ginv[part]
            with np.errstate(all="ignore"):  # a seed that is not finite fails its point
                dginv = -(gi[:, None] @ block[:, self._dg] @ gi[:, None])  # [p, m, a, b]
            leaves = np.concatenate([block[:, self._d1], block[:, self._d2], gi[:, a, b]],
                                    axis=1)
            seeds = np.concatenate([block[:, self._d1_seeds], d3[part],
                                    dginv[:, :, a, b].transpose(0, 2, 1)], axis=1)
            try:  # the lanes are the coordinates; the leaves are jet values
                out, partials, _, _ = tape.run(leaves, None, diff, seeds, geo.metric.coords)
            except TapeEvalError as err:  # name the sample point
                p = part.start + err.point_index
                raise TapeEvalError(f"{err.message} in the curvature from the 3-jet", p,
                                    None, err.coordinate,
                                    at=point_text(geo.metric.coords, pts[p])) from None
            yield (part, g[part], gi, out[:, _gamma_index(n)],
                   out[:, diff.start:diff.stop], partials)

    def curvature(self, points):
        """Per block of points: (slice, g, g⁻¹, Γ^h_{ij}, R_{ijkl}, ∇_m R_{ijkl}),
        the last two by symmetry class (see :func:`by_symmetry`)."""
        n = self.geo.dim
        index = _class_index(n)
        for part, g, ginv, gam, rc, partials in self._blocks(points, _leaf_outputs(n)[0]):
            yield (part, g, ginv, gam, rc,
                   _nabla_components(by_symmetry(rc), partials, gam, index))

    def ricci(self, points) -> tuple:
        """(R_{jk}, ∇_m R_{jk}) at the points, differentiating the leaf tape's Ricci only."""
        n, count = self.geo.dim, len(points)
        ric, nric = np.empty((count, n, n)), np.empty((count, n, n, n))
        sym = _pair_index(n)
        for part, _, _, gam, pairs, partials in self._blocks(points, _leaf_outputs(n)[1]):
            ric[part] = pairs[:, sym]
            nric[part] = _nabla_components(ric[part], partials, gam, _pair_ij(n))[:, sym]
        return ric, nric


@cache
def _leaf_outputs(n: int) -> tuple:
    """The leaf tape's outputs of R_{ijkl} by symmetry class, and of R_{jk}."""
    pairs = _pair_ij(n).shape[1]
    ric = n * pairs + _class_index(n).shape[1]
    return range(n * pairs, ric), range(ric, ric + pairs)


def _riemann_classes(n: int) -> list:
    """One (i, j, k, l) per symmetry class of R_{ijkl}: i < j, k < l, (i, j) <= (k, l)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [p + q for a, p in enumerate(pairs) for q in pairs[a:]]


@cache
def _riemann_index(n: int) -> np.ndarray:
    """R_{ijkl} -> its column in [classes, −classes, 0] (see :func:`by_symmetry`)."""
    classes = {c: k for k, c in enumerate(_riemann_classes(n))}
    index = np.full((n,) * 4, 2 * len(classes), dtype=np.int64)
    for i, j, k, l in product(range(n), repeat=4):
        if i == j or k == l:
            continue
        sign = (1 if i < j else -1) * (1 if k < l else -1)
        p, q = _sym(i, j), _sym(k, l)
        col = classes[p + q if p <= q else q + p]
        index[i, j, k, l] = col if sign > 0 else len(classes) + col
    return index


@cache
def _pair_ij(n: int) -> np.ndarray:
    """The (i, j) with i <= j in row order, as two index arrays."""
    return np.array(np.triu_indices(n))


@cache
def _pair_index(n: int) -> np.ndarray:
    """X_{ij} of a symmetric X -> its column among the (i, j) with i <= j."""
    index = np.empty((n, n), dtype=np.int64)
    i, j = _pair_ij(n)
    index[i, j] = index[j, i] = np.arange(i.size)
    return index


@cache
def _gamma_index(n: int) -> np.ndarray:
    """Γ^h_{ij} -> its column among the (h, i <= j)."""
    return _pair_ij(n).shape[1] * np.arange(n)[:, None, None] + _pair_index(n)


@cache
def _class_index(n: int) -> np.ndarray:
    """The (i, j, k, l) of each symmetry class of R_{ijkl}, as four index arrays."""
    return np.array(_riemann_classes(n), dtype=np.int64).reshape(-1, 4).T


def by_symmetry(classes: np.ndarray) -> np.ndarray:
    """X_{ijkl} (and any trailing slots) at each point from its symmetry classes.

    ``classes[p, c, ...]`` holds class ``c`` of a tensor with the symmetries
    of R_{ijkl}: antisymmetric in (i, j) and in (k, l), symmetric under the
    swap of the two pairs.  Every other component is a copy, a negated copy
    or 0, so the symmetries hold exactly.
    """
    n = 1  # the dim whose R_{ijkl} has that many classes
    while _class_index(n).shape[1] < classes.shape[1]:
        n += 1
    zero = np.zeros(classes.shape[:1] + (1,) + classes.shape[2:])
    full = np.concatenate([classes, -classes, zero], axis=1)
    return full[:, _riemann_index(n)]


def weyl_classes(r: np.ndarray, g: np.ndarray, ric: np.ndarray,
                 scal: np.ndarray) -> np.ndarray:
    """The symmetry classes of C_{ijkl} (:attr:`Geometry.weyl`) from those of
    R_{ijkl} and the values of g, Ricci and R.

    Given the classes of ∇R_{ijkl}, and ∇Ricci and ∇R, with the derivative
    slot last, it gives those of ∇_m C_{ijkl}: ∇g = 0.
    """
    n = g.shape[-1]
    i, j, k, l = _class_index(n)
    tail = (slice(None), slice(None)) + (None,) * (ric.ndim - 3)
    ric_part = (g[:, i, k][tail] * ric[:, j, l] - g[:, i, l][tail] * ric[:, j, k]
                + g[:, j, l][tail] * ric[:, i, k] - g[:, j, k][tail] * ric[:, i, l])
    gg = g[:, i, k] * g[:, j, l] - g[:, i, l] * g[:, j, k]
    return r - ric_part / (n - 2) + gg[tail] * scal[:, None] / ((n - 1) * (n - 2))


def _nabla_components(x: np.ndarray, partials: np.ndarray, gam: np.ndarray,
                      index: np.ndarray) -> np.ndarray:
    """∇_m X of some components of a lower-index X from X, their partials and Γ.

    ``index`` holds one row of component indices per slot of X (column ``c``
    is component ``c``), ``partials[p, c, m]`` is ∂_m of component ``c`` and
    ``gam`` is Γ^h_{ij} at each point.  Per slot, Σ_s Γ^s_{m i} X_{… s …} is
    subtracted for those components only.
    """
    out = partials.copy()
    for slot, own in enumerate(index):
        rest = np.delete(index, slot, axis=0)
        moved = np.moveaxis(x, 1 + slot, -1)[(slice(None), *rest)]  # [p, c, s]
        out -= np.einsum("pcs,psmc->pcm", moved, gam[:, :, :, own])
    return out


# the fields CheckContext serves -> their number of slots after the point axis;
# every slot is lower except the first of gam (Γ^h_{ij}) and r13, and a
# derivative slot is last.
# R_{ijkl} and ∇_m R_{ijkl} are served as their symmetry classes, "rc" and "nrc"
FIELDS = {
    "g": 2, "ginv": 2, "gam": 3, "r13": 4, "ric": 2, "R": 0, "gradR": 1, "nric": 3,
    "w04": 4, "w02": 2, "dw": 5, "t": 2, "nt": 3,
}


def _raise_first(ginv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g^{hi} X_{i...}: the first slot of X raised, at each point."""
    return (ginv @ x.reshape(x.shape[0], x.shape[1], -1)).reshape(x.shape)


def _block_fields(g, ginv, gam, rc, nrc, cfg: FieldEquationConfig) -> dict:
    """The fields of :data:`FIELDS` on one block of points, and the symmetry
    classes ``rc`` and ``nrc`` they come from.

    Each field but Γ is a linear map of R_{ijkl}, g and g^{ij}, here given by the
    symmetry classes ``rc`` of R_{ijkl} (see :func:`by_symmetry`);
    since ∇g = 0, each ∇ field is its field's map applied to the classes
    ``nrc`` of ∇_m R_{ijkl} and to the ∇ of the fields it is made from.
    """
    r04, nr04 = by_symmetry(rc), by_symmetry(nrc)
    r13 = _raise_first(ginv, r04)
    ric = np.einsum("phjhl->pjl", r13)
    scal = np.einsum("pjk,pjk->p", ginv, ric)
    nric = np.einsum("phi,pijhlm->pjlm", ginv, nr04)
    grad = np.einsum("pjk,pjkm->pm", ginv, nric)
    w04 = ws.wstar_values(np.swapaxes(r04, 3, 4), g, ric)  # in wstar's index order
    return {
        "g": g, "ginv": ginv, "gam": gam, "r13": r13, "ric": ric, "R": scal,
        "gradR": grad, "nric": nric, "w04": w04,
        "w02": np.einsum("phjkh->pjk", _raise_first(ginv, w04)),
        "dw": ws.wstar_values(np.swapaxes(nr04, 3, 4), g, nric),
        "t": energy_momentum_values(ric, scal, g, cfg),
        "nt": energy_momentum_values(nric, grad, g, cfg),
        "rc": rc, "nrc": nrc,
    }


def _weyl(r, g, ric, scal) -> np.ndarray:
    """C_{ijkl}, or ∇_m C_{ijkl}, as :func:`weyl_classes` has it, every component."""
    return by_symmetry(weyl_classes(r, g, ric, scal))


def curvature_fields(geo: Geometry, points, cfg: FieldEquationConfig) -> dict:
    """Every field of :data:`FIELDS` at the points, and ``rc`` and ``nrc``,
    from the metric's 3-jet (:class:`Jet`).

    The fields are formed block by block, so ∇R_{ijkl} lives for one block
    only; its symmetry classes and R_{ijkl}'s (``nrc``, ``rc``) are kept.
    """
    n, count = geo.dim, np.shape(points)[0]
    shapes = {name: (n,) * slots for name, slots in FIELDS.items()}
    classes = _class_index(n).shape[1]
    shapes.update(rc=(classes,), nrc=(classes, n))
    vals = {name: np.empty((count,) + shape) for name, shape in shapes.items()}
    for part, *block in geo.jet.curvature(points):
        for name, v in _block_fields(*block, cfg).items():
            vals[name][part] = v
    return vals
