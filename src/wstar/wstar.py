"""The W*-curvature tensor: construction plus its identity suite.

Working index order: throughout this module the (0,4) curvature is read as

    R_{ijkl} := S_{ijlk}

where S is :attr:`wstar.geometry.Geometry.riemann04`.  In this order the
single trace gives g^{il}R_{ijkl} = +Ricci_{jk} and the contracted
differential Bianchi identity reads ∇_h R^h_{jkl} = ∇_l R_{jk} − ∇_k R_{jl}.

The tensor itself modifies the curvature by a metric–Ricci coupling chosen so
that exactly one effective trace survives:

    W*_{ijkl} = R_{ijkl} − 1/(n−1) [g_{jk} R_{il} − g_{jl} R_{ik}]

For n = 4 the surviving trace is g^{il}W*_{ijkl} = (4/3)(R_{jk} − (R/4)g_{jk}),
zero precisely on Einstein metrics.  The residual formulas below act on
evaluated field values: the divergence, the cyclic second-Bianchi analogue
and the trace decomposition, together with the closed-form expressions
circulated for them.  :mod:`wstar.checks` scores every identity with them;
where a closed form disagrees with an independent route, the independent
route is authoritative and the deviation is reported, not hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .exprlib import const, mul, neg, sub, term_sum
from .geometry import Geometry, MetricSpec, TensorField, workspace

__all__ = [
    "WStarBundle",
    "wstar_tensor",
    "wstar_values",
    "wstar_from_terms",
    "traceless_ricci",
    "codazzi_defect",
    "divergence",
    "divergence_closed_form",
    "cyclic_identity",
    "cyclic_from_terms",
    "wstar_divergence_direct",
    "wstar_divergence_formula",
    "wstar_bianchi_residual",
    "traces",
    "trace_combos",
    "krupka_oracle",
    "krupka_closed_forms",
    "krupka_parts",
]


# --- symbolic construction ----------------------------------------------------


def swapped_riemann(geo: Geometry) -> TensorField:
    """The (0,4) curvature in this module's index order (last two slots swapped).

    Components are shared with ``geo.riemann04``; only the index layout differs.
    """

    def build():
        s = geo.riemann04
        return TensorField("llll", s.comps.transpose(0, 1, 3, 2), "CurvatureSwapped")

    return geo.cached("riemann04_swapped", build)


def _wstar04(geo: Geometry) -> TensorField:
    def build():
        n = geo.dim
        if n < 2:
            raise ValueError("the curvature modification needs dim >= 2")
        g, ric = geo.g, geo.ricci
        r4 = swapped_riemann(geo)
        coeff = const(Fraction(1, n - 1))
        comps = np.empty((n, n, n, n), dtype=object)
        for i, j, k, l in product(range(n), repeat=4):
            correction = term_sum([mul(g[j, k], ric[i, l]), neg(mul(g[j, l], ric[i, k]))])
            comps[i, j, k, l] = sub(r4[i, j, k, l], mul(coeff, correction))
        return TensorField("llll", comps, "WStar04")

    return geo.cached("wstar04", build)


def _nabla_wstar04(geo: Geometry) -> TensorField:
    return geo.cached(
        "nabla_wstar04", lambda: geo.covariant_derivative(_wstar04(geo))
    )


@dataclass(frozen=True)
class WStarBundle:
    """The tensor in its three layouts: (0,4), (1,3) and the (0,2) trace."""

    wstar04: TensorField
    wstar13: TensorField
    wstar02: TensorField
    dim: int


def wstar_tensor(metric: MetricSpec) -> WStarBundle:
    """Build (once per metric) the tensor bundle for ``metric``."""
    geo = workspace(metric)

    def build():
        w04 = _wstar04(geo)
        w13 = geo.raise_index(w04, 0)
        w02 = geo.contract(w13, 0, 3)  # g^{il} W*_{ijkl}
        return WStarBundle(w04, w13, w02, geo.dim)

    return geo.cached("wstar_bundle", build)


# --- identity residuals on evaluated values -----------------------------------
#
# One implementation per formula, shared by the check registry and the
# metric-level helpers below.  Arrays carry the sample point on axis 0 and a
# derivative slot last: d[p, i, j, k, l, m] = ∇_m X_{ijkl}.


def wstar_values(r4: np.ndarray, g: np.ndarray, ric: np.ndarray) -> np.ndarray:
    """W*_{ijkl} = R_{ijkl} − 1/(n−1) [g_{jk} R_{il} − g_{jl} R_{ik}] from values.

    ``r4`` is the curvature in this module's index order.  Given ∇R_{ijkl}
    and ∇Ricci, with the derivative slot last, it is ∇_m W*_{ijkl}: ∇g = 0.
    In dim 1 the bracket is identically 0 (j = k = l) and is not divided.
    """
    gr = np.einsum("pjk,pil...->pijkl...", g, ric)  # g_jk R_il
    return wstar_from_terms(r4, gr, np.swapaxes(gr, 3, 4), g.shape[-1])


def wstar_from_terms(r: np.ndarray, gr: np.ndarray, rg: np.ndarray, n: int) -> np.ndarray:
    """W*_{ijkl} from its three terms at any set of components: R_{ijkl},
    g_{jk} R_{il} and g_{jl} R_{ik} (each with a derivative slot for ∇W*),
    in dim ``n``.  The one implementation of the bracket, so every route
    that gathers the terms rounds as :func:`wstar_values` does."""
    return r - (gr - rg) / max(n - 1, 1)


def traceless_ricci(ric: np.ndarray, scal: np.ndarray, g: np.ndarray) -> np.ndarray:
    """R_{jk} − (R/n) g_{jk}: zero exactly on Einstein metrics."""
    return ric - (scal[:, None, None] / g.shape[-1]) * g


def codazzi_defect(nabla: np.ndarray) -> np.ndarray:
    """∇_l X_{jk} − ∇_k X_{jl}: zero iff the (0,2) tensor X is Codazzi."""
    return nabla - np.einsum("pjlk->pjkl", nabla)


def divergence(ginv: np.ndarray, d: np.ndarray) -> np.ndarray:
    """g^{hi} ∇_h X_{ijkl} from the values of the rank-5 derivative."""
    return np.einsum("phi,pijklh->pjkl", ginv, d)


def divergence_closed_form(nric, g, grad_r, coeff: float) -> np.ndarray:
    """∇_l R_{jk} − ∇_k R_{jl} − c·[g_{jk}∇_l R − g_{jl}∇_k R].

    With c = 1/3 this is the circulated display for the divergence; the value
    consistent with the contracted Bianchi identity (∇^s R_{sl} = ½∇_l R) is
    c = 1/6, and only that choice matches the direct route on metrics with
    non-constant scalar curvature.  Both are exercised by the check suite.
    """
    gradient = np.einsum("pjk,pl->pjkl", g, grad_r) - np.einsum("pjl,pk->pjkl", g, grad_r)
    return codazzi_defect(nric) - coeff * gradient


def cyclic_identity(dw: np.ndarray, nric: np.ndarray, g: np.ndarray) -> tuple:
    """(cyclic sum, its closed form) for the cyclic derivative identity.

    The cyclic sum ∇_m W*_{ijkl} + ∇_k W*_{ijlm} + ∇_l W*_{ijmk} equals

        −1/3 [ g_{jk}(∇_m R_{il} − ∇_l R_{im})
             + g_{jl}(∇_k R_{im} − ∇_m R_{ik})
             + g_{jm}(∇_l R_{ik} − ∇_k R_{il}) ]

    identically, so the sum alone vanishes precisely when the Ricci tensor
    is Codazzi.
    """
    x = codazzi_defect(nric)  # x[p, i, a, b] = ∇_b R_ia − ∇_a R_ib
    return cyclic_from_terms(
        dw, np.einsum("pijlmk->pijklm", dw), np.einsum("pijmkl->pijklm", dw),
        np.einsum("pjk,pilm->pijklm", g, x), np.einsum("pjl,pimk->pijklm", g, x),
        np.einsum("pjm,pikl->pijklm", g, x))


def cyclic_from_terms(w_klm, w_lmk, w_mkl, g_jk, g_jl, g_jm) -> tuple:
    """(cyclic sum, its closed form) of :func:`cyclic_identity` from its six
    addends at any set of components: ∇_m W*_{ijkl}, ∇_k W*_{ijlm} and
    ∇_l W*_{ijmk}, then g_{jk} x_{ilm}, g_{jl} x_{imk} and g_{jm} x_{ikl}
    with x the Codazzi defect of Ricci.  The one implementation of both
    sums, so every route that gathers the addends rounds as that does."""
    return w_klm + w_lmk + w_mkl, (-1.0 / 3.0) * (g_jk + g_jl + g_jm)


def wstar_divergence_direct(bundle: WStarBundle, metric: MetricSpec, points) -> np.ndarray:
    """∇_h W*^h_{jkl} by covariant differentiation and metric trace.

    This is the ground-truth route: the rank-5 covariant derivative of the
    (0,4) field is evaluated and contracted with g^{hi} numerically.
    """
    geo = workspace(metric)
    vals = geo.eval_fields({"ginv": geo.ginv, "dw": _nabla_wstar04(geo)}, points)
    return divergence(vals["ginv"], vals["dw"])


def wstar_divergence_formula(
    metric: MetricSpec, points, scalar_coefficient: float = 1.0 / 3.0
) -> np.ndarray:
    """:func:`divergence_closed_form` evaluated at the points."""
    geo = workspace(metric)
    vals = geo.eval_fields(
        {"g": geo.g, "nric": geo.nabla_ricci, "gr": geo.grad_scalar}, points
    )
    return divergence_closed_form(vals["nric"], vals["g"], vals["gr"], scalar_coefficient)


def wstar_bianchi_residual(metric: MetricSpec, points) -> tuple:
    """(max |cyclic sum − closed form|, max |cyclic sum|) of :func:`cyclic_identity`.

    The first must be numerics-level on every metric; the second is zero
    precisely when the Ricci tensor is Codazzi.
    """
    geo = workspace(metric)
    vals = geo.eval_fields(
        {"dw": _nabla_wstar04(geo), "g": geo.g, "nric": geo.nabla_ricci}, points
    )
    cyc, rhs = cyclic_identity(vals["dw"], vals["nric"], vals["g"])
    return float(np.max(np.abs(cyc - rhs))), float(np.max(np.abs(cyc)))


# --- trace decomposition ------------------------------------------------------


def _trace_system_matrix(n: int) -> np.ndarray:
    """Matrix of the linear system tying (C, D, E) to the three traces.

    Writing the decomposition W*^i_{klm} = B^i_{klm} + δ^i_k C_{lm}
    + δ^i_l D_{km} + δ^i_m E_{kl} with B traceless, the traces over
    (i,k), (i,l), (i,m) give, for every index pair (a, b):

        T1_ab = n·C_ab + D_ab + E_ba
        T2_ab = C_ab + n·D_ab + E_ab
        T3_ab = C_ba + D_ab + n·E_ab
    """
    nn = n * n
    m = np.zeros((3 * nn, 3 * nn))

    def c_col(a, b):
        return a * n + b

    def d_col(a, b):
        return nn + a * n + b

    def e_col(a, b):
        return 2 * nn + a * n + b

    row = 0
    for a, b in product(range(n), repeat=2):
        m[row, c_col(a, b)] += n
        m[row, d_col(a, b)] += 1
        m[row, e_col(b, a)] += 1
        row += 1
    for a, b in product(range(n), repeat=2):
        m[row, c_col(a, b)] += 1
        m[row, d_col(a, b)] += n
        m[row, e_col(a, b)] += 1
        row += 1
    for a, b in product(range(n), repeat=2):
        m[row, c_col(b, a)] += 1
        m[row, d_col(a, b)] += 1
        m[row, e_col(a, b)] += n
        row += 1
    return m


_TRACE_MATRIX_4 = _trace_system_matrix(4)


def traces(w13_vals: np.ndarray):
    """T1_ab = W^t_{tab}, T2_ab = W^t_{atb}, T3_ab = W^t_{abt} (batched)."""
    t1 = np.einsum("pttab->pab", w13_vals)
    t2 = np.einsum("ptatb->pab", w13_vals)
    t3 = np.einsum("ptabt->pab", w13_vals)
    return t1, t2, t3


def krupka_oracle(w13_vals: np.ndarray):
    """Solve the trace system exactly for (C, D, E); the ground-truth values.

    ``w13_vals`` has shape (P, n, n, n, n); the tracelessness of the remainder
    B is imposed through the three trace equations, which determine C, D, E
    uniquely for n = 4.
    """
    p, n = w13_vals.shape[:2]
    if n != 4:
        raise ValueError("trace decomposition implemented for dim 4")
    t1, t2, t3 = traces(w13_vals)
    rhs = np.concatenate(
        [t1.reshape(p, -1), t2.reshape(p, -1), t3.reshape(p, -1)], axis=1
    )
    try:
        sol = np.linalg.solve(_TRACE_MATRIX_4, rhs.T).T
    except np.linalg.LinAlgError as err:  # pragma: no cover - fixed matrix
        raise np.linalg.LinAlgError(f"singular trace system: {err}") from None
    c = sol[:, : n * n].reshape(p, n, n)
    d = sol[:, n * n : 2 * n * n].reshape(p, n, n)
    e = sol[:, 2 * n * n :].reshape(p, n, n)
    return c, d, e


def krupka_closed_forms(w02_vals: np.ndarray):
    """Exact solution of the trace system in terms of the (0,2) contraction.

    The traces of the tensor evaluate to T1 = 0, T2 = −W*_{ab}, T3 = +W*_{ab}
    (W*_{ab} symmetric), and the unique solution is then

        C = 0,   D = −(1/3)·W*_{ab},   E = +(1/3)·W*_{ab}.
    """
    zero = np.zeros_like(w02_vals)
    return zero, -w02_vals / 3.0, w02_vals / 3.0


def trace_combos(w13_vals: np.ndarray):
    """The circulated fixed-weight trace combinations for (C, D, E).

    With T1, T2, T3 as in :func:`krupka_oracle`, these are

        C_ab = 1/33 [10·T1_ab − 2(T2_ab + T3_ba)]
        D_ab = 1/33 [−2(T1_ab + T3_ba) + 10·T2_ab]
        E_ab = 1/33 [10·T3_ab − 2(T1_ba + T2_ba)]

    They are compared against the linear-solve values; where they disagree
    the solve is authoritative.
    """
    t1, t2, t3 = traces(w13_vals)
    t1t = np.einsum("pab->pba", t1)
    t2t = np.einsum("pab->pba", t2)
    t3t = np.einsum("pab->pba", t3)
    c = (10.0 * t1 - 2.0 * (t2 + t3t)) / 33.0
    d = (-2.0 * (t1 + t3t) + 10.0 * t2) / 33.0
    e = (10.0 * t3 - 2.0 * (t1t + t2t)) / 33.0
    return c, d, e


def krupka_parts(w13_vals: np.ndarray, cde: tuple | None = None) -> tuple:
    """(B, C, D, E, δC + δD + δE): the trace decomposition at every point.

    C, D, E come from :func:`krupka_oracle`, or are ``cde`` when the caller
    has solved it already; the δ-terms are δ^i_k C_{lm} + δ^i_l D_{km}
    + δ^i_m E_{kl}, and B = W*^i_{klm} minus them is traceless by
    construction of the solve.
    """
    c, d, e = krupka_oracle(w13_vals) if cde is None else cde
    eye = np.eye(w13_vals.shape[1])
    deltas = (
        np.einsum("ik,plm->piklm", eye, c)
        + np.einsum("il,pkm->piklm", eye, d)
        + np.einsum("im,pkl->piklm", eye, e)
    )
    return w13_vals - deltas, c, d, e, deltas
