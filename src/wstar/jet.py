"""Curvature at sample points from the metric's 3-jet.

Every command reads its curvature here and builds no symbolic curvature:
``check`` and ``classify`` at their sample points, ``compute`` at its one
point.  :class:`Jet` holds a tape of the nonzero components of g, ∂g and
∂²g, whose tangent mode gives ∂³g, and one leaf tape over those values and
a numeric g^{ij} that gives Γ and R_{ijkl} by symmetry class, with the
partials of the classes.  :meth:`Jet.curvature` is the one pass over them,
and it runs the jet tape, g^{ij} and the leaf tape one block of points at
a time.  :func:`field_blocks` yields, per block, Γ and the fields several
checks read, formed from R_{ijkl}, ∇R_{ijkl}, g and g^{ij}; the checks
reduce each block to per-point columns before the next is formed
(:class:`wstar.checks.CheckContext`), and :func:`curvature_fields`
concatenates the blocks for ``compute`` and for tests.  T and ∇T are not
among the fields: they divide by the coupling k, so only their readers
form them, with :func:`wstar.matter.energy_momentum_values`.
The recurrence fit's displaced points go through the same pass, and Ricci
and ∇Ricci come from :func:`ricci_values` there as at the sample points.
R_{ijkl} and ∇R_{ijkl} come only as their symmetry classes; ∇R_{ijkl}
(n⁵ components per point) is expanded 16 points at a time inside
:func:`ricci_values`, and a reader of W*^h_{jkl}, Weyl or ∇Weyl forms it
from a block's fields with :func:`_raise_first` or :func:`_weyl`.  This is
truncated-Taylor (jet) evaluation (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).

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
from .tape import Tape, TapeEvalError, point_text

__all__ = ["Jet", "FIELDS", "SingularMetric", "by_symmetry", "curvature_fields",
           "field_blocks", "per_slice", "ricci_values", "slices", "weyl_classes"]

_ZERO = const(0)
_SLICE = 16


def slices(count: int) -> list:
    """The slices of a block of ``count`` points (:func:`wstar.backend.blocks`),
    in order: at most 16 points each.

    An array of n⁵ components or more per point takes 0.5 MiB per 64 points
    at n = 4, so every step that forms one runs a slice at a time: a step
    that reduces it to per-point columns through :func:`per_slice`, and
    :func:`ricci_values`, which writes ∇Ricci and ∇W* into whole-block
    arrays, over these slices directly.  Both live here rather than beside
    ``blocks`` because ``perfbench/run.py`` imports :mod:`wstar.backend`
    itself, and the peak RSS it reads for a command includes its own (see
    CHANGES.md)."""
    return [slice(start, min(start + _SLICE, count)) for start in range(0, count, _SLICE)]


def per_slice(reduce, *arrays: np.ndarray) -> np.ndarray:
    """``reduce(*arrays)`` per point, run one slice of the block at a time
    (:func:`slices`) and concatenated: for a step whose arrays have n⁵
    components or more per point."""
    return np.concatenate([reduce(*(a[part] for a in arrays))
                           for part in slices(arrays[0].shape[0])])


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
    constructors, over one component per symmetry class of R_{ijkl}.  A
    structurally zero input is the constant 0, so a sparse metric keeps a
    small leaf tape.  The leaf tape runs in the kernel's tangent mode with
    each input's partials seeded from the jet: ∂(∂g) = ∂²g, ∂(∂²g) = ∂³g
    and ∂g⁻¹ = −g⁻¹ ∂g g⁻¹, and the covariant derivative of R_{ijkl}
    follows from the partials of the classes and Γ, per symmetry class
    (:func:`_nabla_components`).  :meth:`curvature` runs every step, the
    jet tape included, one block of points at a time
    (:func:`wstar.backend.blocks`).
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
        """Γ^h_{ij} (i <= j), then R_{ijkl} by symmetry class, over the leaf
        inputs: the nonzero ∂g, then the nonzero ∂²g, then g^{ab} (a <= b)
        within a component."""
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
                    low[s, i, j] = low[s, j, i] = _product(half, term_sum(
                        [dg(i, s, j), dg(j, s, i), neg(dg(s, i, j))]))
        for h in range(n):
            for i in range(n):
                for j in range(i, n):
                    gam[h, i, j] = gam[h, j, i] = term_sum(  # a zero product is skipped
                        _product(gi(h, s), low[s, i, j]) for s in range(n))

        def riemann(i, j, k, l):
            terms = [_product(half, term_sum([ddg(j, k, i, l), ddg(i, l, j, k),
                                         neg(ddg(i, k, j, l)), neg(ddg(j, l, i, k))]))]
            for h in range(n):
                terms.append(_product(low[h, l, i], gam[h, j, k]))
                terms.append(neg(_product(low[h, k, i], gam[h, j, l])))
            return term_sum(terms)

        curv = [riemann(*c) for c in _riemann_classes(n)]
        gams = [gam[h, i, j] for h in range(n) for i in range(n) for j in range(i, n)]
        return geometry.compile_tape(gams + curv, len(keys))

    # --- evaluation -------------------------------------------------------

    def _inverse(self, g: np.ndarray, points, start: int) -> np.ndarray:
        """g^{ij} at a block of points, inverted one component of g's pattern
        at a time.

        Raises :class:`SingularMetric` naming the first point where g is
        singular, by its index in the sample: the block starts at ``start``.
        """
        ginv = np.zeros_like(g)
        for comp in self._components:
            sub = g[:, comp[:, None], comp]
            try:
                ginv[:, comp[:, None], comp] = np.linalg.inv(sub)
            except np.linalg.LinAlgError:
                p = int(np.argmax(np.linalg.det(sub) == 0))
                raise SingularMetric(start + p,
                                     point_text(self.geo.metric.coords, points[p])) from None
        return ginv

    def curvature(self, points):
        """Per block of points (:func:`wstar.backend.blocks`): (g, g⁻¹,
        Γ^h_{ij}, R_{ijkl}, ∇_m R_{ijkl}), the last two by symmetry class
        (see :func:`by_symmetry`).  The jet tape, g^{ij} and the leaf tape
        run one block at a time, each block in :meth:`_block`, so none of a
        block's intermediates (jet values, leaves, seeds, partials) outlives
        its yield: a caller that drops a block before asking for the next
        holds one block at a time.  An error names its point by its index in
        the sample."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, self.geo.dim)
        for part in blocks(len(pts)):
            yield self._block(pts, part)

    def _block(self, pts: np.ndarray, part: slice) -> tuple:
        """One block of :meth:`curvature`: the points ``pts[part]``."""
        geo, leaf = self.geo, self._leaf_tape
        n, coords, params = geo.dim, geo.metric.coords, dict(geo.metric.params)
        classes = range(n * _pair_ij(n).shape[1], leaf.n_outputs)
        a, b = (np.array(ix, dtype=np.int64) for ix in zip(*self._inv))
        try:
            vals, d3, _, _ = self.tape.run(pts[part], params, self._d2, coords=coords)
        except TapeEvalError as err:
            raise _in_sample(err, err.message, err.expr, part, pts, coords) from None
        jet = np.concatenate([vals, np.zeros((len(vals), 1))], axis=1)
        g = jet[:, self._g]
        gi = self._inverse(g, pts[part], part.start)
        with np.errstate(all="ignore"):  # a seed that is not finite fails its point
            dginv = -(gi[:, None] @ jet[:, self._dg] @ gi[:, None])  # [p, m, a, b]
        leaves = np.concatenate([jet[:, self._d1], jet[:, self._d2], gi[:, a, b]], axis=1)
        seeds = np.concatenate([jet[:, self._d1_seeds], d3,
                                dginv[:, :, a, b].transpose(0, 2, 1)], axis=1)
        try:  # the lanes are the coordinates; the leaves are jet values
            out, partials, _, _ = leaf.run(leaves, None, classes, seeds, coords)
        except TapeEvalError as err:
            raise _in_sample(err, f"{err.message} in the curvature from the 3-jet", None,
                             part, pts, coords) from None
        gam, rc = out[:, _gamma_index(n)], out[:, classes.start:]
        return g, gi, gam, rc, _nabla_components(by_symmetry(rc), partials, gam,
                                                 _class_index(n))


class SingularMetric(np.linalg.LinAlgError):
    """g is singular at the point ``point_index``, whose coordinates read ``at``."""

    def __init__(self, point_index: int, at: str):
        self.point_index = point_index
        super().__init__(f"the metric is singular at {at} (point #{point_index})")


def _located(err, index: int, at: str):
    """``err``, a :class:`TapeEvalError` or :class:`SingularMetric` of a
    curvature pass, naming instead the point ``index`` at ``at``."""
    if isinstance(err, SingularMetric):
        return SingularMetric(index, at)
    return TapeEvalError(err.message, index, err.expr, err.coordinate, err.label, at=at)


def _product(a, b):
    """``mul(a, b)``, with a structural zero returned before ``mul`` folds it
    through exact rationals: the leaf tape is built from mostly zero factors."""
    return _ZERO if is_zero(a) or is_zero(b) else mul(a, b)


def _in_sample(err: TapeEvalError, message: str, expr, part: slice, pts,
               coords) -> TapeEvalError:
    """``err`` of a run over the block ``part``, naming its point by its index
    in the sample ``pts``."""
    p = part.start + err.point_index
    return TapeEvalError(message, p, expr, err.coordinate, err.label,
                         at=point_text(coords, pts[p]))


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


# the fields of field_blocks and curvature_fields -> their number of slots
# after the point axis; every slot is lower except the first of gam (Γ^h_{ij})
# and r13, and a derivative slot is last.  R_{ijkl} and ∇_m R_{ijkl} are served
# as their symmetry classes, "rc" and "nrc".  T and ∇T are not fields: they
# divide by the coupling k, and their readers form them
# (wstar.matter.energy_momentum_values)
FIELDS = {
    "g": 2, "ginv": 2, "gam": 3, "r13": 4, "ric": 2, "R": 0, "gradR": 1, "nric": 3,
    "w04": 4, "w02": 2, "dw": 5,
}


def _raise_first(ginv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g^{hi} X_{i...}: the first slot of X raised, at each point."""
    return (ginv @ x.reshape(x.shape[0], x.shape[1], -1)).reshape(x.shape)


def ricci_values(ginv: np.ndarray, r04: np.ndarray, nrc: np.ndarray, g=None) -> tuple:
    """(R^h_{jkl}, R_{jk}, ∇_m R_{jk}, ∇_m W*_{ijkl} or None) at each point from
    g^{ij}, R_{ijkl} and the symmetry classes ``nrc`` of ∇_m R_{ijkl}: the one
    way both the sample's fields and the recurrence fit's displaced points
    form Ricci.

    ∇_m R_{ijkl} has n⁵ components per point, so it is expanded from its
    classes one slice of points at a time (:func:`slices`)
    and dropped after its slice.  Given g, each slice also forms ∇_m W*_{ijkl}
    (in wstar's index order) into one C-contiguous array.
    """
    count, n = nrc.shape[0], ginv.shape[-1]
    r13 = _raise_first(ginv, r04)
    nric = np.empty((count, n, n, n))
    dw = None if g is None else np.empty((count,) + (n,) * 5)
    for part in slices(count):
        nr04 = by_symmetry(nrc[part])
        nric[part] = np.einsum("phi,pijhlm->pjlm", ginv[part], nr04)
        if dw is not None:
            dw[part] = ws.wstar_values(np.swapaxes(nr04, 3, 4), g[part], nric[part])
    return r13, np.einsum("phjhl->pjl", r13), nric, dw


def _block_fields(g, ginv, gam, rc, nrc) -> dict:
    """The fields of :data:`FIELDS` on one block of points, and the symmetry
    classes ``rc`` and ``nrc`` they come from.

    Each field but Γ is a linear map of R_{ijkl}, g and g^{ij}, here given by the
    symmetry classes ``rc`` of R_{ijkl} (see :func:`by_symmetry`);
    since ∇g = 0, each ∇ field is its field's map applied to the classes
    ``nrc`` of ∇_m R_{ijkl} and to the ∇ of the fields it is made from.
    ∇_m R_{ijkl} itself is formed only a slice of points at a time, inside
    :func:`ricci_values`, which writes ∇W* (``dw``) as it goes.  T and ∇T
    divide by the coupling k, so the checks that read them form them from
    Ricci, R, their ∇ and g in their own steps, where a T that cannot be
    formed fails only those steps.
    """
    r04 = by_symmetry(rc)
    r13, ric, nric, dw = ricci_values(ginv, r04, nrc, g)
    w04 = ws.wstar_values(np.swapaxes(r04, 3, 4), g, ric)  # in wstar's index order
    return {
        "g": g, "ginv": ginv, "gam": gam, "r13": r13, "ric": ric,
        "R": np.einsum("pjk,pjk->p", ginv, ric),
        "gradR": np.einsum("pjk,pjkm->pm", ginv, nric), "nric": nric, "w04": w04,
        "w02": np.einsum("phjkh->pjk", _raise_first(ginv, w04)),
        "dw": dw, "rc": rc, "nrc": nrc,
    }


def _weyl(r, g, ric, scal) -> np.ndarray:
    """C_{ijkl}, or ∇_m C_{ijkl}, as :func:`weyl_classes` has it, every component."""
    return by_symmetry(weyl_classes(r, g, ric, scal))


def field_blocks(geo: Geometry, points):
    """Per block of points (:func:`wstar.backend.blocks`): the fields of
    :func:`_block_fields` there, from the metric's 3-jet (:class:`Jet`).

    Each field is C-contiguous: ``einsum`` picks its summation order from
    the strides, so a strided field could round differently.  ∇W* is formed
    C-contiguous and is not copied.  A block is dropped here before the
    next is formed, so a caller that drops its fields too before asking for
    the next holds one block at a time."""
    for block in geo.jet.curvature(points):
        yield {name: np.ascontiguousarray(v) for name, v in _block_fields(*block).items()}
        del block  # before the next block is formed


def curvature_fields(geo: Geometry, points) -> dict:
    """Every field of :data:`FIELDS` at the points, and ``rc`` and ``nrc``:
    :func:`field_blocks` concatenated, for ``compute``'s one point and for
    tests.  The checks reduce each block as it comes instead.  No field reads
    the coupling k; a caller that needs T or ∇T forms it from ``ric``, ``R``,
    ``nric``, ``gradR`` and ``g`` (:func:`wstar.matter.energy_momentum_values`)."""
    parts = list(field_blocks(geo, points))
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
