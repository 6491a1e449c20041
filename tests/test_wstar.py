"""Tests for the W*-curvature tensor construction and its identity suite.

Index-order reminder: this module's (0,4) curvature swaps the last two slots
of ``geometry.riemann04``, so one metric trace gives +Ricci.  The closed-form
routes that circulate for the divergence and for the trace decomposition are
tested verbatim; on metrics with non-constant scalar curvature two of them
disagree with the independently computed ground truth, and those tests are
strict expected failures with the deviation documented.  Residuals that
the check registry scores are read from its outcomes (a
:class:`wstar.checks.CheckContext` over the same sample points), and the
conformal-curvature cross-check is rebuilt from the shared residual formulas
over :func:`wstar.jet.curvature_fields`.
"""

import numpy as np
import pytest

from wstar.catalog import catalog_metric
from wstar.checks import CheckContext
from wstar.cli import compute_at, sample_for
from wstar.geometry import ricci_commutator, workspace
from wstar.jet import _weyl, curvature_fields
from wstar.matter import FieldEquationConfig
from wstar import wstar as W

ALL = ("minkowski", "schwarzschild", "desitter_flat", "flrw_dust", "perturbed_flat")
CONSTANT_R = ("minkowski", "schwarzschild", "desitter_flat")


def geo_for(name):
    return workspace(catalog_metric(name))


def sample(name, count=8, seed=42):
    return sample_for(geo_for(name), count, seed)


def amax(a) -> float:
    return float(np.max(np.abs(a)))


def bundle(name):
    return W.wstar_tensor(catalog_metric(name))


def context(name, pts):
    return CheckContext(catalog_metric(name), pts, FieldEquationConfig())


def residual(name, check, pts):
    """The registry's max residual for ``check`` at the points."""
    return context(name, pts).check(check).max_residual


def weyl_divergence(name, pts):
    """(direct max, closed-form deviation, Codazzi max, max |grad R|).

    The circulated closed form is ½[∇_l R_{jk} − ∇_k R_{jl}] + 1/6
    [g_{jk}∇_l R − g_{jl}∇_k R]; the geometry stores C in the unswapped
    order, so its last two slots are swapped before the trace.  ∇C is formed
    from the classes of ∇R_{ijkl}, ∇Ricci and ∇R, as the check forms it.
    """
    v = curvature_fields(geo_for(name), pts)
    nweyl = _weyl(v["nrc"], v["g"], v["nric"], v["gradR"])
    direct = W.divergence(v["ginv"], np.einsum("pijlkm->pijklm", nweyl))
    printed = 0.5 * W.divergence_closed_form(v["nric"], v["g"], v["gradR"], -1.0 / 3.0)
    return (amax(direct), amax(direct - printed),
            amax(W.codazzi_defect(v["nric"])), amax(v["gradR"]))


class TestConstruction:
    def test_bundle_is_cached(self):
        m = catalog_metric("minkowski")
        assert W.wstar_tensor(m) is W.wstar_tensor(m)

    def test_contraction_returns_the_trace_field(self):
        # compute's wstar_contraction prints the trace g^{il} W*_{ijkl}
        m = catalog_metric("flrw_dust")
        pt = sample("flrw_dust", 1)
        want = geo_for("flrw_dust").eval_field(bundle("flrw_dust").wstar02, pt)[0]
        out = compute_at("wstar_contraction", m, pt[0], FieldEquationConfig())
        got = np.zeros_like(want)
        for line in out.splitlines():
            key, value = line.split(": ")
            got[tuple(int(i) for i in key.strip("()").split(","))] = float(value)
        assert amax(got - want) <= 1e-12 * (1.0 + amax(want))

    def test_minkowski_vanishes(self):
        geo = geo_for("minkowski")
        b = bundle("minkowski")
        pts = sample("minkowski", 4)
        for f in (b.wstar04, b.wstar13, b.wstar02):
            assert amax(geo.eval_field(f, pts)) == 0.0

    def test_swapped_index_order_traces_to_plus_ricci(self):
        geo = geo_for("flrw_dust")
        r4 = W.swapped_riemann(geo)
        pts = sample("flrw_dust", 5)
        vals = geo.eval_fields({"ginv": geo.ginv, "r4": r4, "ric": geo.ricci}, pts)
        tr = np.einsum("pil,pijkl->pjk", vals["ginv"], vals["r4"])
        assert amax(tr - vals["ric"]) <= 1e-9 * (1 + amax(vals["ric"]))

    @pytest.mark.parametrize("name", ["schwarzschild", "perturbed_flat"])
    def test_raised_form_invariant(self, name):
        geo = geo_for(name)
        b = bundle(name)
        pts = sample(name, 6)
        vals = geo.eval_fields(
            {"ginv": geo.ginv, "w04": b.wstar04, "w13": b.wstar13}, pts
        )
        raised = np.einsum("phi,pijkl->phjkl", vals["ginv"], vals["w04"])
        assert amax(raised - vals["w13"]) <= 1e-10 * (1 + amax(vals["w13"]))

    def test_ricci_flat_metric_leaves_curvature_unchanged(self):
        # with Ricci = 0 the modification term drops out entirely
        geo = geo_for("schwarzschild")
        b = bundle("schwarzschild")
        r4 = W.swapped_riemann(geo)
        pts = sample("schwarzschild", 6)
        vals = geo.eval_fields({"w04": b.wstar04, "r4": r4}, pts)
        assert amax(vals["w04"] - vals["r4"]) <= 1e-9 * (1 + amax(vals["r4"]))

    def test_generic_metric_has_no_pair_symmetry(self):
        geo = geo_for("perturbed_flat")
        b = bundle("perturbed_flat")
        pts = sample("perturbed_flat", 4)
        w04 = geo.eval_field(b.wstar04, pts)
        gap = amax(w04 - np.einsum("pklij->pijkl", w04))
        assert gap > 1e-6


class TestTraceIdentity:
    @pytest.mark.parametrize("name", ALL)
    def test_trace_identity_all_metrics(self, name):
        geo = geo_for(name)
        pts = sample(name, 8)
        vals = geo.eval_fields({"R": geo.scalar_field, "g": geo.g}, pts)
        scale = 1 + amax(vals["R"]) * amax(vals["g"])
        assert residual(name, "trace_identity", pts) <= 1e-9 * scale

    @pytest.mark.parametrize("name", ["minkowski", "desitter_flat"])
    def test_einstein_metrics_have_zero_trace(self, name):
        geo = geo_for(name)
        b = bundle(name)
        pts = sample(name, 6)
        assert amax(geo.eval_field(b.wstar02, pts)) <= 1e-9

    def test_dust_cosmology_frozen_trace_values(self):
        # a(t) = t^(2/3): Ric_tt = 1/6 and R = 1/3 at t = 2, so the trace's
        # tt entry is (4/3)(1/6 - (1/12)(-1)) = 1/3 and the xx entry is
        # (2/9) * 2^(1/3)
        geo = geo_for("flrw_dust")
        b = bundle("flrw_dust")
        point = np.array([[2.0, 0.3, -0.2, 0.7]])
        w02 = geo.eval_field(b.wstar02, point)[0]
        assert w02[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert w02[1, 1] == pytest.approx((2.0 / 9.0) * 2.0 ** (1.0 / 3.0), abs=1e-10)
        assert abs(w02[0, 1]) <= 1e-12

    def test_dust_cosmology_trace_matches_adjusted_ricci(self):
        geo = geo_for("flrw_dust")
        b = bundle("flrw_dust")
        pts = sample("flrw_dust", 8)
        vals = geo.eval_fields(
            {"w02": b.wstar02, "ric": geo.ricci, "R": geo.scalar_field, "g": geo.g},
            pts,
        )
        rhs = (4.0 / 3.0) * (
            vals["ric"] - 0.25 * vals["R"][:, None, None] * vals["g"]
        )
        assert amax(vals["w02"] - rhs) <= 1e-8


class TestDivergence:
    @pytest.mark.parametrize("name", ["minkowski", "schwarzschild"])
    def test_flat_and_vacuum_divergence_free(self, name):
        m = catalog_metric(name)
        pts = sample(name, 6)
        direct = W.wstar_divergence_direct(bundle(name), m, pts)
        formula = W.wstar_divergence_formula(m, pts)
        assert amax(direct) <= 1e-8
        assert amax(formula) <= 1e-8

    @pytest.mark.parametrize(
        "name",
        [
            "minkowski",
            "schwarzschild",
            "desitter_flat",
            pytest.param(
                "flrw_dust",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the circulated closed form carries 1/3 on the "
                    "scalar-gradient term; the contracted Bianchi identity "
                    "forces 1/6, so the form deviates wherever R is "
                    "non-constant (direct route is authoritative)",
                ),
            ),
            pytest.param(
                "perturbed_flat",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the circulated closed form carries 1/3 on the "
                    "scalar-gradient term; the contracted Bianchi identity "
                    "forces 1/6, so the form deviates wherever R is "
                    "non-constant (direct route is authoritative)",
                ),
            ),
        ],
    )
    def test_direct_agrees_with_circulated_formula(self, name):
        m = catalog_metric(name)
        pts = sample(name, 8)
        direct = W.wstar_divergence_direct(bundle(name), m, pts)
        formula = W.wstar_divergence_formula(m, pts)
        assert amax(direct - formula) <= 1e-6 * (1 + amax(direct))

    @pytest.mark.parametrize("name", ALL)
    def test_direct_agrees_with_adjusted_formula(self, name):
        m = catalog_metric(name)
        pts = sample(name, 8)
        direct = W.wstar_divergence_direct(bundle(name), m, pts)
        adjusted = W.wstar_divergence_formula(m, pts, scalar_coefficient=1.0 / 6.0)
        assert amax(direct - adjusted) <= 1e-6 * (1 + amax(direct))

    def test_generic_metric_is_not_divergence_free(self):
        m = catalog_metric("perturbed_flat")
        pts = sample("perturbed_flat", 6)
        assert amax(W.wstar_divergence_direct(bundle("perturbed_flat"), m, pts)) > 1e-3

    def test_divergence_is_trace_free(self):
        # g^{jk} (div W*)_{jkl} cancels identically, so a vanishing divergence
        # can never force the scalar curvature to be constant
        m = catalog_metric("perturbed_flat")
        geo = geo_for("perturbed_flat")
        pts = sample("perturbed_flat", 6)
        direct = W.wstar_divergence_direct(bundle("perturbed_flat"), m, pts)
        ginv = geo.eval_field(geo.ginv, pts)
        trace = np.einsum("pjk,pjkl->pl", ginv, direct)
        assert amax(trace) <= 1e-10 * (1 + amax(direct))

    def test_dust_cosmology_divergence_free_despite_non_codazzi_ricci(self):
        # conformally flat with non-constant R: the Codazzi residual is large,
        # yet the divergence vanishes (it equals twice the Weyl divergence in
        # dim 4).  A counterexample to "divergence-free implies Codazzi".
        m = catalog_metric("flrw_dust")
        pts = sample("flrw_dust", 6)
        direct = W.wstar_divergence_direct(bundle("flrw_dust"), m, pts)
        assert amax(direct) <= 1e-9
        assert residual("flrw_dust", "codazzi", pts) > 1e-3

    @pytest.mark.xfail(
        strict=True,
        reason="claimed behavior: non-Codazzi Ricci should make the "
        "divergence nonzero; in fact the divergence is trace-free, so this "
        "conformally flat metric is divergence-free while its Codazzi "
        "residual exceeds 1e-1 — only the converse implication holds",
    )
    def test_dust_cosmology_divergence_claimed_nonzero(self):
        m = catalog_metric("flrw_dust")
        pts = sample("flrw_dust", 6)
        assert amax(W.wstar_divergence_direct(bundle("flrw_dust"), m, pts)) > 1e-3

    @pytest.mark.parametrize("name", ["schwarzschild", "desitter_flat"])
    def test_codazzi_residual_vanishes(self, name):
        assert residual(name, "codazzi", sample(name, 6)) <= 1e-9

    def test_dust_cosmology_ricci_is_not_codazzi(self):
        pts = sample("flrw_dust", 6)
        assert residual("flrw_dust", "codazzi", pts) > 1e-3
        assert residual("flrw_dust", "constant_scalar_curvature", pts) > 1e-3


class TestWeylCrosscheck:
    @pytest.mark.parametrize(
        "name,tol",
        [("minkowski", 0.0), ("schwarzschild", 1e-8), ("desitter_flat", 1e-9)],
    )
    def test_divergence_free_cases(self, name, tol):
        direct_max, formula_deviation, _, _ = weyl_divergence(name, sample(name, 6))
        assert direct_max <= tol
        assert formula_deviation <= max(tol, 1e-12)

    def test_codazzi_implies_divergence_free(self):
        # premise residuals ~ 0 must force the direct divergence to ~ 0
        for name in CONSTANT_R:
            direct_max, _, codazzi_max, gradient_max = weyl_divergence(name, sample(name, 6))
            if codazzi_max <= 1e-8 and gradient_max <= 1e-8:
                assert direct_max <= 1e-8

    def test_dust_cosmology_formula_deviates_but_direct_vanishes(self):
        # conformally flat: the direct divergence is exactly zero, while the
        # circulated closed form picks up the non-constant scalar curvature
        direct_max, formula_deviation, codazzi_max, _ = weyl_divergence(
            "flrw_dust", sample("flrw_dust", 6)
        )
        assert direct_max <= 1e-9
        assert formula_deviation > 1e-3
        assert codazzi_max > 1e-3


def symmetry(name, count):
    """(max |∇W*|, quarter-trace outcome) from the registry."""
    ctx = context(name, sample(name, count))
    return ctx.check("wstar_parallel").max_residual, ctx.check("quarter_rule")


class TestSymmetry:
    def test_minkowski(self):
        res, quarter = symmetry("minkowski", 4)
        assert quarter.status == "pass"
        assert res == 0.0 and quarter.max_residual == 0.0

    def test_desitter_is_covariantly_constant(self):
        res, quarter = symmetry("desitter_flat", 6)
        assert res <= 1e-8
        assert quarter.status == "pass"
        assert quarter.max_residual <= 1e-8  # constancy forces the quarter-trace rule

    def test_dust_cosmology_is_not_symmetric(self):
        res, _ = symmetry("flrw_dust", 6)
        assert res > 1e-3


class TestBianchiType:
    @pytest.mark.parametrize("name", ALL)
    def test_cyclic_identity_holds_everywhere(self, name):
        geo = geo_for(name)
        pts = sample(name, 6)
        r1, _ = W.wstar_bianchi_residual(catalog_metric(name), pts)
        scale = 1 + amax(geo.eval_field(W._nabla_wstar04(geo), pts))
        assert r1 <= 1e-6 * scale

    def test_desitter_cyclic_sum_vanishes(self):
        _, r2 = W.wstar_bianchi_residual(
            catalog_metric("desitter_flat"), sample("desitter_flat", 6)
        )
        assert r2 <= 1e-8

    def test_cyclic_sum_tracks_codazzi(self):
        # vanishing cyclic sum <-> Codazzi Ricci tensor
        pts = sample("schwarzschild", 6)
        _, r2 = W.wstar_bianchi_residual(catalog_metric("schwarzschild"), pts)
        assert r2 <= 1e-8
        pts = sample("flrw_dust", 6)
        _, r2 = W.wstar_bianchi_residual(catalog_metric("flrw_dust"), pts)
        assert r2 > 1e-3
        assert residual("flrw_dust", "codazzi", pts) > 1e-3


def semisymmetry(name, pts):
    """([∇,∇] acting on W*, the trace-consistency residual) from the registry."""
    ctx = context(name, pts)
    return (ctx.check("wstar_semisymmetric").max_residual,
            ctx.check("semisymmetry_trace_identity").max_residual)


class TestSemisymmetry:
    def test_minkowski(self):
        ra, rb = semisymmetry("minkowski", sample("minkowski", 4))
        assert ra == 0.0 and rb == 0.0

    def test_desitter_is_semisymmetric(self):
        ra, _ = semisymmetry("desitter_flat", sample("desitter_flat", 6))
        assert ra <= 1e-8

    def test_generic_metrics_are_not_semisymmetric(self):
        for name in ("schwarzschild", "flrw_dust"):
            ra, _ = semisymmetry(name, sample(name, 6))
            assert ra > 1e-3

    @pytest.mark.parametrize("name", ALL)
    def test_trace_commutator_identity(self, name):
        geo = geo_for(name)
        pts = sample(name, 6)
        _, rb = semisymmetry(name, pts)
        vals = geo.eval_fields({"ric": geo.ricci, "r13": geo.riemann13}, pts)
        scale = 1 + amax(ricci_commutator(vals["ric"], "ll", vals["r13"]))
        assert rb <= 1e-7 * scale

    def test_commutator_against_brute_force_second_derivatives(self):
        # oracle: antisymmetrized double covariant derivative, built fully
        # symbolically, versus the algebraic curvature action used in the
        # residual functions
        name = "flrw_dust"
        geo = geo_for(name)
        b = bundle(name)
        second = geo.covariant_derivative(W._nabla_wstar04(geo))
        pts = sample(name, 3)
        vals = geo.eval_fields(
            {"dd": second, "w04": b.wstar04, "r13": geo.riemann13}, pts
        )
        dd = vals["dd"]  # dd[p, i, j, k, l, m, n] = nabla_n nabla_m W*_{ijkl}
        brute = np.einsum("pijklnm->pijklmn", dd) - dd
        algebraic = ricci_commutator(vals["w04"], "llll", vals["r13"])
        assert amax(brute - algebraic) <= 1e-8 * (1 + amax(brute))


class TestKrupka:
    def test_minkowski_all_zero(self):
        geo = geo_for("minkowski")
        b = bundle("minkowski")
        vals = geo.eval_field(b.wstar13, sample("minkowski", 4))
        c, d, e = W.krupka_oracle(vals)
        assert amax(c) == 0.0 and amax(d) == 0.0 and amax(e) == 0.0

    def test_vacuum_all_zero(self):
        geo = geo_for("schwarzschild")
        b = bundle("schwarzschild")
        vals = geo.eval_field(b.wstar13, sample("schwarzschild", 6))
        c, d, e = W.krupka_oracle(vals)
        for part in (c, d, e):
            assert amax(part) <= 1e-9

    @pytest.mark.parametrize("name", ALL)
    def test_closed_forms_match_linear_solve(self, name):
        geo = geo_for(name)
        b = bundle(name)
        pts = sample(name, 6)
        vals = geo.eval_fields({"w13": b.wstar13, "w02": b.wstar02}, pts)
        c, d, e = W.krupka_oracle(vals["w13"])
        cc, cd, ce = W.krupka_closed_forms(vals["w02"])
        for got, want in ((c, cc), (d, cd), (e, ce)):
            assert amax(got - want) <= 1e-8 * (1 + amax(want))

    @pytest.mark.parametrize("name", ALL)
    def test_reconstruction_and_tracelessness(self, name):
        geo = geo_for(name)
        b = bundle(name)
        pts = sample(name, 4)
        vals = geo.eval_field(b.wstar13, pts)
        b_part, c, d, e, deltas = W.krupka_parts(vals)
        eye = np.eye(4)
        # the δ-terms are δ^i_k C_lm + δ^i_l D_km + δ^i_m E_kl
        assert np.array_equal(deltas, np.einsum("ik,plm->piklm", eye, c)
                              + np.einsum("il,pkm->piklm", eye, d)
                              + np.einsum("im,pkl->piklm", eye, e))
        for k in range(vals.shape[0]):
            scale = 1 + amax(vals[k])
            assert amax(b_part[k] + deltas[k] - vals[k]) <= 1e-8 * scale
            assert max(amax(t) for t in W.traces(b_part[k : k + 1])) <= 1e-8 * scale

    @pytest.mark.parametrize(
        "name",
        [
            "minkowski",
            "schwarzschild",
            "desitter_flat",
            pytest.param(
                "flrw_dust",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the circulated 1/33-weight trace combinations do "
                    "not solve the trace system on non-Einstein metrics; the "
                    "linear solve is authoritative",
                ),
            ),
            pytest.param(
                "perturbed_flat",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the circulated 1/33-weight trace combinations do "
                    "not solve the trace system on non-Einstein metrics; the "
                    "linear solve is authoritative",
                ),
            ),
        ],
    )
    def test_circulated_combos_match_oracle(self, name):
        geo = geo_for(name)
        b = bundle(name)
        vals = geo.eval_field(b.wstar13, sample(name, 6))[:1]
        _, c, d, e, _ = W.krupka_parts(vals)
        combo_c, combo_d, combo_e = W.trace_combos(vals)
        scale = 1 + amax(vals)
        assert amax(combo_c - c) <= 1e-8 * scale
        assert amax(combo_d - d) <= 1e-8 * scale
        assert amax(combo_e - e) <= 1e-8 * scale

    @pytest.mark.parametrize(
        "name",
        [
            "minkowski",
            "schwarzschild",
            "desitter_flat",
            pytest.param(
                "flrw_dust",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the circulated simplification D = +(1/9)(Ric - "
                    "(R/4)g), E = -(1/9)(...) disagrees with the trace "
                    "system, whose solution is D = -(4/9)(...), E = +(4/9)"
                    "(...); the linear solve is authoritative",
                ),
            ),
            pytest.param(
                "perturbed_flat",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the circulated simplification D = +(1/9)(Ric - "
                    "(R/4)g), E = -(1/9)(...) disagrees with the trace "
                    "system, whose solution is D = -(4/9)(...), E = +(4/9)"
                    "(...); the linear solve is authoritative",
                ),
            ),
        ],
    )
    def test_circulated_ricci_forms_match_oracle(self, name):
        geo = geo_for(name)
        b = bundle(name)
        pts = sample(name, 6)
        vals = geo.eval_fields(
            {"w13": b.wstar13, "ric": geo.ricci, "R": geo.scalar_field, "g": geo.g},
            pts,
        )
        _, d, e = W.krupka_oracle(vals["w13"])
        rho = vals["ric"] - 0.25 * vals["R"][:, None, None] * vals["g"]
        scale = 1 + amax(rho)
        assert amax(d - rho / 9.0) <= 1e-8 * scale
        assert amax(e + rho / 9.0) <= 1e-8 * scale

    def test_oracle_requires_dim_4(self):
        with pytest.raises(ValueError, match="dim 4"):
            W.krupka_oracle(np.zeros((3, 3, 3, 3)))
