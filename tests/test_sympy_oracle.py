"""An independent curvature oracle: sympy against :func:`wstar.jet.curvature_fields`.

Nothing here goes through ``wstar``'s own symbolic layer or tape kernel: the
metric components are rebuilt as sympy expressions, and sympy differentiates
them.  On the three sparse catalog metrics sympy forms Γ, Riemann^h_{jkl},
Ricci and ∇Ricci itself (``Matrix.inv``, ``diff``, ``lambdify``).  On
``perturbed_flat`` a dense symbolic inverse takes minutes, so sympy only
differentiates g up to third order and the numpy code below forms g^{-1}, Γ,
the curvature and its derivative at each point.

Conventions are those of :mod:`wstar.geometry`: R^h_{jkl} = ∂_k Γ^h_{jl} −
∂_l Γ^h_{jk} + Γ^h_{ks}Γ^s_{jl} − Γ^h_{ls}Γ^s_{jk}, R_{jl} = R^h_{jhl}, and
the derivative slot of ∇Ricci is last.
"""

from functools import lru_cache

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from wstar.catalog import catalog_metric  # noqa: E402
from wstar.cli import sample_for  # noqa: E402
from wstar.geometry import workspace  # noqa: E402
from wstar.jet import curvature_fields  # noqa: E402

N = 4
POINTS = 8

_FUNCTIONS = {"sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan, "exp": sympy.exp,
              "ln": sympy.log, "sqrt": sympy.sqrt, "sinh": sympy.sinh, "cosh": sympy.cosh}
_BINARY = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
           "mul": lambda a, b: a * b, "div": lambda a, b: a / b}


def _number(value):
    if isinstance(value, float):
        return sympy.Float(value)
    return sympy.Rational(value.numerator, value.denominator)


def to_sympy(e, syms, params):
    """The sympy form of a ``wstar`` expression, parameters by value."""
    kind = e.kind
    if kind == "const":
        return _number(e.data)
    if kind == "coord":
        return syms[e.data]
    if kind == "param":
        return sympy.Float(params[e.data])
    args = [to_sympy(a, syms, params) for a in e.args]
    if kind == "neg":
        return -args[0]
    if kind in _FUNCTIONS:
        return _FUNCTIONS[kind](args[0])
    if kind in _BINARY:
        return _BINARY[kind](*args)
    assert kind == "pow", kind
    return args[0] ** _number(e.data)


def metric_matrix(metric):
    syms = sympy.symbols(metric.coords, real=True)
    g = sympy.Matrix(N, N, lambda i, j: to_sympy(metric.g[i][j], syms, metric.params))
    return syms, g


def evaluate(exprs, syms, pts) -> np.ndarray:
    """Values of a nested list of sympy expressions at each point, points first."""
    flat = list(sympy.flatten(exprs))
    fn = sympy.lambdify(syms, flat, "numpy")
    shape = np.shape(np.empty(np.shape(exprs), dtype=object))
    out = np.empty((pts.shape[0], len(flat)))
    for p, x in enumerate(pts):
        out[p] = np.asarray(fn(*x), dtype=float)
    return out.reshape((pts.shape[0],) + shape)


def symbolic_fields(metric, pts) -> dict:
    """g^{-1}, Riemann^h_{jkl}, Ricci and ∇Ricci, all formed by sympy."""
    x, g = metric_matrix(metric)
    ginv = g.inv()
    gam = [[[sum(ginv[h, s] * (sympy.diff(g[s, j], x[i]) + sympy.diff(g[s, i], x[j])
                               - sympy.diff(g[i, j], x[s])) for s in range(N)) / 2
             for j in range(N)] for i in range(N)] for h in range(N)]
    r13 = [[[[sympy.diff(gam[h][j][l], x[k]) - sympy.diff(gam[h][j][k], x[l])
              + sum(gam[h][k][s] * gam[s][j][l] - gam[h][l][s] * gam[s][j][k]
                    for s in range(N))
              for l in range(N)] for k in range(N)] for j in range(N)] for h in range(N)]
    ric = [[sum(r13[h][j][h][l] for h in range(N)) for l in range(N)] for j in range(N)]
    nric = [[[sympy.diff(ric[j][l], x[m])
              - sum(gam[s][m][j] * ric[s][l] + gam[s][m][l] * ric[j][s] for s in range(N))
              for m in range(N)] for l in range(N)] for j in range(N)]
    return {"ginv": evaluate(ginv.tolist(), x, pts), "r13": evaluate(r13, x, pts),
            "ric": evaluate(ric, x, pts), "nric": evaluate(nric, x, pts)}


def jet_fields(metric, pts) -> dict:
    """The same fields from sympy's partials of g up to third order, formed in numpy."""
    x, g = metric_matrix(metric)
    d1 = [[[sympy.diff(g[i, j], x[a]) for j in range(N)] for i in range(N)] for a in range(N)]
    d2 = [[[[sympy.diff(d1[a][i][j], x[b]) for j in range(N)] for i in range(N)]
           for b in range(N)] for a in range(N)]
    d3 = [[[[[sympy.diff(d2[a][b][i][j], x[c]) for j in range(N)] for i in range(N)]
            for c in range(N)] for b in range(N)] for a in range(N)]
    gv = evaluate(g.tolist(), x, pts)  # g[p, i, j]
    dg = evaluate(d1, x, pts)  # dg[p, a, i, j] = ∂_a g_ij
    ddg = evaluate(d2, x, pts)  # ddg[p, a, b, i, j] = ∂_b ∂_a g_ij
    dddg = evaluate(d3, x, pts)

    ginv = np.linalg.inv(gv)
    # ∂_a g^{-1} = -g^{-1} ∂_a g g^{-1}, and its derivative along b
    dginv = -np.einsum("phs,past,ptk->pahk", ginv, dg, ginv)
    ddginv = -(np.einsum("pbhs,past,ptk->pabhk", dginv, dg, ginv)
               + np.einsum("phs,pabst,ptk->pabhk", ginv, ddg, ginv)
               + np.einsum("phs,past,pbtk->pabhk", ginv, dg, dginv))

    def lower(d, *lead):
        """Γ_{s,ij} = ½(∂_i g_sj + ∂_j g_si − ∂_s g_ij) from a stack of partials of g."""
        ax = "".join(lead)
        return 0.5 * (np.einsum(f"p{ax}isj->p{ax}sij", d) + np.einsum(f"p{ax}jsi->p{ax}sij", d)
                      - np.einsum(f"p{ax}sij->p{ax}sij", d))

    low, dlow, ddlow = lower(dg), lower(ddg, "a"), lower(dddg, "a", "b")
    gam = np.einsum("phs,psij->phij", ginv, low)
    dgam = (np.einsum("pahs,psij->pahij", dginv, low)
            + np.einsum("phs,pasij->pahij", ginv, dlow))
    ddgam = (np.einsum("pabhs,psij->pabhij", ddginv, low)
             + np.einsum("pahs,pbsij->pabhij", dginv, dlow)
             + np.einsum("pbhs,pasij->pabhij", dginv, dlow)
             + np.einsum("phs,pabsij->pabhij", ginv, ddlow))

    def riemann(gam, dgam):
        return (np.einsum("pkhjl->phjkl", dgam) - np.einsum("plhjk->phjkl", dgam)
                + np.einsum("phks,psjl->phjkl", gam, gam)
                - np.einsum("phls,psjk->phjkl", gam, gam))

    r13 = riemann(gam, dgam)
    # ∂_m R^h_{jkl}: differentiate each term of riemann() along m
    dr13 = (np.einsum("pkmhjl->pmhjkl", ddgam) - np.einsum("plmhjk->pmhjkl", ddgam)
            + np.einsum("pmhks,psjl->pmhjkl", dgam, gam)
            + np.einsum("phks,pmsjl->pmhjkl", gam, dgam)
            - np.einsum("pmhls,psjk->pmhjkl", dgam, gam)
            - np.einsum("phls,pmsjk->pmhjkl", gam, dgam))
    ric = np.einsum("phjhl->pjl", r13)
    dric = np.einsum("pmhjhl->pjlm", dr13)
    nric = (dric - np.einsum("psmj,psl->pjlm", gam, ric)
            - np.einsum("psml,pjs->pjlm", gam, ric))
    return {"ginv": ginv, "r13": r13, "ric": ric, "nric": nric}


def sample(name):
    metric = catalog_metric(name)
    return metric, sample_for(workspace(metric), POINTS, 42)


@lru_cache(maxsize=None)
def oracle(name, route):
    metric, pts = sample(name)
    return route(metric, pts)


def assert_matches(name, route):
    metric, pts = sample(name)
    fields = curvature_fields(workspace(metric), pts)
    for field, want in oracle(name, route).items():
        got = fields[field]
        assert got.shape == want.shape, field
        scale = float(np.max(np.abs(want)))
        gap = float(np.max(np.abs(got - want)))
        assert gap <= 1e-11 * (1.0 + scale), (field, gap, scale)


@pytest.mark.parametrize("name", ["schwarzschild", "desitter_flat", "flrw_dust"])
def test_curvature_matches_sympy(name):
    assert_matches(name, symbolic_fields)


def test_dense_curvature_matches_sympy_partials_of_g():
    assert_matches("perturbed_flat", jet_fields)


def test_the_two_oracle_routes_agree():
    # the numpy route of the dense case, checked against sympy's own curvature
    full, jet = oracle("schwarzschild", symbolic_fields), oracle("schwarzschild", jet_fields)
    for field, want in full.items():
        gap = float(np.max(np.abs(jet[field] - want)))
        assert gap <= 1e-11 * (1.0 + float(np.max(np.abs(want)))), (field, gap)
