"""Acceptance gate: every published criterion at its stated tolerance.

Each test is one criterion (or one criterion x metric) so the verbose run
reads as a pass/fail line per requirement.  Two entries are strict expected
failures and document genuine deviations, re-verified here rather than
patched over:

* the circulated closed form for the divergence of the modified curvature
  tensor carries 1/3 on the scalar-gradient term where the contracted Bianchi
  identity forces 1/6, so the formula route disagrees with the direct route
  on the two catalog metrics with non-constant scalar curvature; and
* the claimed equivalence "Codazzi Ricci <=> divergence-free modified
  curvature" fails on the dust cosmology, whose divergence vanishes (it is
  proportional to the divergence of the conformal curvature, zero for any
  conformally flat metric) even though its Ricci tensor is not Codazzi.
"""

import json

import numpy as np
import pytest

from wstar import relativity as rel
from wstar import wstar as W
from wstar.catalog import catalog_metric
from wstar.cli import RunConfig, run_checks, sample_for
from wstar.exprlib import differentiate
from wstar.geometry import TensorField, ricci_commutator, workspace
from wstar.report import render_json

ALL = ("minkowski", "schwarzschild", "desitter_flat", "flrw_dust", "perturbed_flat")
CFG = rel.FieldEquationConfig()

NONCONSTANT_R_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="circulated divergence formula uses 1/3 on the scalar-gradient "
    "term; the contracted Bianchi identity forces 1/6, so the routes "
    "disagree wherever the scalar curvature is not constant",
)

DIVERGENCE_PAIRING_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="the dust cosmology is conformally flat, so its modified-curvature "
    "divergence vanishes although the Ricci tensor is not Codazzi; only "
    "the Codazzi => divergence-free direction survives",
)


def geo_for(name):
    return workspace(catalog_metric(name))


def pts(name, count=32, seed=42):
    return sample_for(geo_for(name), count, seed)


def amax(a) -> float:
    return float(np.max(np.abs(a)))


def fields(name, spec: dict, count=32):
    geo = geo_for(name)
    return geo.eval_fields(spec, pts(name, count))


def curvature_values(name, count=32):
    geo = geo_for(name)
    b = W.wstar_tensor(catalog_metric(name))
    return fields(
        name,
        {
            "g": geo.g,
            "ginv": geo.ginv,
            "ric": geo.ricci,
            "R": geo.scalar_field,
            "gradR": geo.grad_scalar,
            "nric": geo.nabla_ricci,
            "r13": geo.riemann13,
            "r4": W.swapped_riemann(geo),
            "w04": b.wstar04,
            "w13": b.wstar13,
            "w02": b.wstar02,
            "dw": W._nabla_wstar04(geo),
        },
        count,
    )


# --- criterion 1: identity suite, 32 seeded points on all five metrics -------


@pytest.mark.parametrize("name", ALL)
def test_1a_contraction_identity(name):
    v = curvature_values(name)
    residual = amax(
        v["w02"] - (4.0 / 3.0) * (v["ric"] - (v["R"][:, None, None] / 4.0) * v["g"])
    )
    assert residual <= 1e-9 * (1.0 + amax(v["R"]) * amax(v["g"]))


@pytest.mark.parametrize(
    "name",
    [
        "minkowski",
        "schwarzschild",
        "desitter_flat",
        pytest.param("flrw_dust", marks=NONCONSTANT_R_XFAIL),
        pytest.param("perturbed_flat", marks=NONCONSTANT_R_XFAIL),
    ],
)
def test_1b_divergence_routes_agree(name):
    m = catalog_metric(name)
    p = pts(name)
    direct = W.wstar_divergence_direct(W.wstar_tensor(m), m, p)
    formula = W.wstar_divergence_formula(m, p)  # circulated coefficient 1/3
    scale = 1.0 + amax(geo_for(name).eval_field(geo_for(name).nabla_ricci, p))
    assert amax(direct - formula) <= 1e-6 * scale


@pytest.mark.parametrize("name", ALL)
def test_1c_cyclic_identity(name):
    r1, _ = W.wstar_bianchi_residual(catalog_metric(name), pts(name))
    v = curvature_values(name)
    assert r1 <= 1e-6 * (1.0 + amax(v["dw"]))


@pytest.mark.parametrize("name", ALL)
def test_1d_commutator_contraction_identity(name):
    v = curvature_values(name)
    lhs = ricci_commutator(v["w02"], "ll", v["r13"])
    rhs = (4.0 / 3.0) * ricci_commutator(v["ric"], "ll", v["r13"])
    assert amax(lhs - rhs) <= 1e-7 * (1.0 + amax(rhs))


@pytest.mark.parametrize("name", ALL)
def test_1e_field_equation_trace(name):
    rep = rel.fluid_relation_checks(catalog_metric(name), CFG, pts(name))
    assert rep.n_decomposed > 0
    assert rep.trace_residual <= 1e-7 * (1.0 + rep.scalar_max)


@pytest.mark.parametrize("name", ALL)
def test_1f_trace_decomposition(name):
    v = curvature_values(name)
    w13 = v["w13"]
    c, d, e = W.krupka_oracle(w13)
    cc, cd, ce = W.krupka_closed_forms(v["w02"])
    assert amax(c - cc) <= 1e-8
    assert amax(d - cd) <= 1e-8
    assert amax(e - ce) <= 1e-8
    assert amax(cc) <= 1e-8  # closed form C = 0
    eye = np.eye(4)
    recon = (
        np.einsum("ik,plm->piklm", eye, c)
        + np.einsum("il,pkm->piklm", eye, d)
        + np.einsum("im,pkl->piklm", eye, e)
    )
    b = w13 - recon
    assert amax(w13 - (b + recon)) <= 1e-8
    for pattern in ("pttab->pab", "ptatb->pab", "ptabt->pab"):
        assert amax(np.einsum(pattern, b)) <= 1e-8


# --- criterion 2: theorem-consistency pairings --------------------------------


def pairings_for(name):
    return {
        p.name: p
        for p in rel.pairing_checks(catalog_metric(name), CFG, pts(name), 1e-9, 1e-6)
    }


@pytest.mark.parametrize(
    "name",
    [
        "minkowski",
        "schwarzschild",
        "desitter_flat",
        pytest.param("flrw_dust", marks=DIVERGENCE_PAIRING_XFAIL),
        "perturbed_flat",
    ],
)
def test_2_pairing_codazzi_iff_divergence_free(name):
    assert pairings_for(name)["codazzi_iff_divergence_free"].holds is True


@pytest.mark.parametrize("name", ALL)
def test_2_pairing_einstein_iff_trace_vanishes(name):
    assert pairings_for(name)["einstein_iff_trace_vanishes"].holds is True


@pytest.mark.parametrize("name", ALL)
def test_2_pairing_flat_implications(name):
    pairs = pairings_for(name)
    assert pairs["flat_implies_constant_scalar_and_parallel_t"].holds is True
    assert pairs["flat_implies_lambda_like_fluid"].holds in (True, None)


@pytest.mark.parametrize("name", ALL)
def test_2_pairing_t_semisymmetric_iff_ricci_semisymmetric(name):
    assert pairings_for(name)["t_semisymmetric_iff_ricci_semisymmetric"].holds is True


# --- criterion 3: catalog regressions -----------------------------------------


def test_3_minkowski_every_derived_tensor_vanishes():
    geo = geo_for("minkowski")
    m = catalog_metric("minkowski")
    b = W.wstar_tensor(m)
    vals = fields(
        "minkowski",
        {
            "christoffel": geo.christoffel,
            "riemann": geo.riemann04,
            "ricci": geo.ricci,
            "scalar": geo.scalar_field,
            "weyl": geo.weyl,
            "wstar": b.wstar04,
            "contraction": b.wstar02,
            "t": rel.energy_momentum(m, CFG),
        },
    )
    for label, v in vals.items():
        assert amax(v) <= 1e-12, label


def test_3_schwarzschild_vacuum_regressions():
    v = curvature_values("schwarzschild")
    assert amax(v["ric"]) <= 1e-8 * amax(v["r4"])
    assert amax(v["w04"] - v["r4"]) <= 1e-9  # W* equals the curvature in vacuum
    m = catalog_metric("schwarzschild")
    div = W.wstar_divergence_direct(W.wstar_tensor(m), m, pts("schwarzschild"))
    assert amax(div) <= 1e-8


def test_3_desitter_regressions():
    v = curvature_values("desitter_flat")
    assert amax(v["R"] - 12.0) <= 1e-6
    flags = rel.is_einstein(catalog_metric("desitter_flat"), pts("desitter_flat"))
    assert flags.flag is True
    assert amax(v["w02"]) <= 1e-9
    rep = rel.fluid_relation_checks(catalog_metric("desitter_flat"), CFG,
                                    pts("desitter_flat"))
    w = rep.p[~np.isnan(rep.p)] / rep.mu[~np.isnan(rep.mu)]
    assert amax(w - (-1.0)) <= 1e-6


def test_3_flrw_dust_friedmann_regression():
    m = catalog_metric("flrw_dust")
    geo = workspace(m)
    rng_pts = np.array(
        [[1.0, 0.2, -0.3, 0.5], [1.0, -0.6, 0.1, -0.2], [1.0, 0.0, 0.0, 0.0]]
    )
    vals = geo.eval_fields(
        {"g": geo.g, "ginv": geo.ginv, "t": rel.energy_momentum(m, CFG)}, rng_pts
    )
    for a in range(rng_pts.shape[0]):
        dec = rel.perfect_fluid_decompose(
            vals["t"][a], vals["g"][a], vals["ginv"][a], rng_pts[a]
        )
        assert abs(dec.p) <= 1e-5
        assert abs(dec.mu - 4.0 / 3.0) <= 1e-5


def test_3_perturbed_flat_regressions():
    flags = rel.is_einstein(catalog_metric("perturbed_flat"), pts("perturbed_flat"))
    assert flags.flag is False
    v = curvature_values("perturbed_flat")
    gap = amax(v["w04"] - np.einsum("pijkl->pklij", v["w04"]))
    assert gap > 1e-6  # the pair symmetry genuinely fails


# --- criterion 4: oracle equivalences -----------------------------------------


@pytest.mark.parametrize("name", ALL)
def test_4_symbolic_derivative_matches_finite_differences(name):
    m = catalog_metric(name)
    geo = geo_for(name)
    n = m.dim
    partials = TensorField(
        "lll",
        np.array(
            [[[differentiate(m.g[i][j], k) for k in range(n)] for j in range(n)]
             for i in range(n)],
            dtype=object,
        ),
        "MetricPartials",
    )
    p = pts(name, 8)
    sym = geo.eval_field(partials, p)
    h = 1e-5
    for k in range(n):
        shift = np.zeros(n)
        shift[k] = h
        fd = (geo.eval_field(geo.g, p + shift) - geo.eval_field(geo.g, p - shift)) / (
            2.0 * h
        )
        diff = np.abs(sym[..., k] - fd)
        bound = np.maximum(1e-6, 1e-5 * np.abs(sym[..., k]))
        assert np.all(diff <= bound)


def test_4_commutator_matches_brute_force_second_derivatives():
    geo = geo_for("perturbed_flat")
    p = pts("perturbed_flat", 8)
    second = geo.covariant_derivative(geo.nabla_ricci)
    vals = geo.eval_fields(
        {"dd": second, "ric": geo.ricci, "r13": geo.riemann13}, p
    )
    dd = vals["dd"]
    brute = np.einsum("pabnm->pabmn", dd) - dd
    via_curvature = ricci_commutator(vals["ric"], "ll", vals["r13"])
    assert amax(brute - via_curvature) <= 1e-6


@pytest.mark.parametrize("name", ALL)
def test_4_metric_inverse_roundtrip(name):
    v = fields(name, {"g": geo_for(name).g, "ginv": geo_for(name).ginv})
    eye = np.broadcast_to(np.eye(4), v["g"].shape)
    assert amax(np.einsum("pij,pjk->pik", v["g"], v["ginv"]) - eye) <= 1e-10


# --- criterion 5: determinism -------------------------------------------------


def test_5_byte_identical_json_reports():
    cfg = RunConfig(
        metric="flrw_dust",
        checks=("trace_identity", "einstein", "wstar_divergence_free"),
        points=8,
        timestamp=False,
    )
    first = render_json(run_checks(cfg))
    second = render_json(run_checks(cfg))
    assert first == second
    json.loads(first)  # and it is valid JSON
