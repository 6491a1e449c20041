"""Tests for the matter/field-equation layer and the classification flags.

Independent oracles used here: the Friedmann equations for the dust
cosmology's density and pressure, hand-built perfect-fluid tensors (including
boosted, anisotropic, null and complex-eigenvalue cases) for the
eigen-decomposition, least-squares normal equations for the recurrence fit,
and closed-form Lie derivatives for the conformal/inheritance factors.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wstar import cli
from wstar.catalog import builtin_vector_fields, catalog_metric
from wstar.checks import CheckContext, classification, holds, recurrence_fit
from wstar.exprlib import coord, const, neg, parse
from wstar.geometry import VectorFieldSpec, workspace
from wstar import relativity as rel

ALL = ("minkowski", "schwarzschild", "desitter_flat", "flrw_dust", "perturbed_flat")
CFG = rel.FieldEquationConfig()

MINK_G = np.diag([-1.0, 1.0, 1.0, 1.0])
MINK_GINV = np.diag([-1.0, 1.0, 1.0, 1.0])


def geo_for(name):
    return workspace(catalog_metric(name))


def sample(name, count=8, seed=42):
    return cli.sample_for(geo_for(name), count, seed)


def context(name, count):
    return CheckContext(catalog_metric(name), sample(name, count), CFG)


def amax(a) -> float:
    return float(np.max(np.abs(a)))


class TestConfig:
    def test_defaults(self):
        assert CFG.k == 1.0 and CFG.lam == 0.0

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            rel.FieldEquationConfig(k=0.0)

    @pytest.mark.parametrize(
        "kw", [{"k": float("inf")}, {"k": float("nan")},
               {"lam": float("-inf")}, {"lam": float("nan")}],
    )
    def test_non_finite_constants_rejected(self, kw):
        with pytest.raises(ValueError, match="must be finite"):
            rel.FieldEquationConfig(**kw)


class TestEnergyMomentum:
    def test_field_is_cached_per_config(self):
        m = catalog_metric("minkowski")
        assert rel.energy_momentum(m, CFG) is rel.energy_momentum(m, CFG)
        other = rel.FieldEquationConfig(k=2.0)
        assert rel.energy_momentum(m, other) is not rel.energy_momentum(m, CFG)

    @pytest.mark.parametrize("name", ["minkowski", "schwarzschild"])
    def test_vacuum_solutions(self, name):
        geo = geo_for(name)
        t = geo.eval_field(rel.energy_momentum(catalog_metric(name), CFG), sample(name, 6))
        assert amax(t) <= 1e-8

    def test_desitter_is_a_cosmological_constant_source(self):
        geo = geo_for("desitter_flat")
        pts = sample("desitter_flat", 6)
        vals = geo.eval_fields(
            {"t": rel.energy_momentum(catalog_metric("desitter_flat"), CFG), "g": geo.g},
            pts,
        )
        assert amax(vals["t"] + 3.0 * vals["g"]) <= 1e-8

    def test_coupling_and_lambda_scaling(self):
        # flat space with k=2, L=0.5: T = (1/2)(0.5 g) = 0.25 g
        m = catalog_metric("minkowski")
        geo = geo_for("minkowski")
        cfg = rel.FieldEquationConfig(k=2.0, lam=0.5)
        pts = sample("minkowski", 4)
        vals = geo.eval_fields({"t": rel.energy_momentum(m, cfg), "g": geo.g}, pts)
        assert amax(vals["t"] - 0.25 * vals["g"]) <= 1e-12

    def test_symmetry(self):
        geo = geo_for("perturbed_flat")
        t = geo.eval_field(
            rel.energy_momentum(catalog_metric("perturbed_flat"), CFG),
            sample("perturbed_flat", 6),
        )
        assert amax(t - np.einsum("pij->pji", t)) <= 1e-12


class TestFluidDecomposition:
    def test_comoving_fluid_recovered(self):
        t = np.diag([2.0, 0.5, 0.5, 0.5])
        dec = rel.perfect_fluid_decompose(t, MINK_G, MINK_GINV)
        assert dec.mu == pytest.approx(2.0, abs=1e-12)
        assert dec.p == pytest.approx(0.5, abs=1e-12)
        assert dec.w == pytest.approx(0.25, abs=1e-12)
        assert dec.residual <= 1e-12
        assert not dec.degenerate
        assert np.allclose(dec.u.values, [-1.0, 0.0, 0.0, 0.0])

    def test_boosted_fluid_recovered(self):
        mu, p, beta = 1.5, 0.3, 0.7
        u_up = np.array([np.cosh(beta), np.sinh(beta), 0.0, 0.0])
        u = MINK_G @ u_up
        t = (mu + p) * np.outer(u, u) + p * MINK_G
        dec = rel.perfect_fluid_decompose(t, MINK_G, MINK_GINV)
        assert dec.mu == pytest.approx(mu, abs=1e-10)
        assert dec.p == pytest.approx(p, abs=1e-10)
        assert dec.residual <= 1e-10
        assert np.allclose(dec.u.values, u, atol=1e-10)

    def test_unit_velocity_invariant(self):
        t = np.diag([4.0, 1.0, 1.0, 1.0])
        dec = rel.perfect_fluid_decompose(t, MINK_G, MINK_GINV)
        norm = dec.u.values @ MINK_GINV @ dec.u.values
        assert norm == pytest.approx(-1.0, abs=1e-8)

    def test_anisotropy_shows_in_residual(self):
        t = np.diag([1.0, 0.1, 0.2, 0.3])
        dec = rel.perfect_fluid_decompose(t, MINK_G, MINK_GINV)
        assert dec.p == pytest.approx(0.2, abs=1e-12)
        assert dec.residual >= 0.1

    def test_metric_proportional_is_degenerate(self):
        dec = rel.perfect_fluid_decompose(-2.0 * MINK_G, MINK_G, MINK_GINV)
        assert dec.degenerate
        assert dec.mu == pytest.approx(2.0, abs=1e-12)
        assert dec.p == pytest.approx(-2.0, abs=1e-12)
        assert dec.w == pytest.approx(-1.0, abs=1e-12)
        norm = dec.u.values @ MINK_GINV @ dec.u.values
        assert norm == pytest.approx(-1.0, abs=1e-12)

    def test_zero_tensor_is_degenerate_without_w(self):
        dec = rel.perfect_fluid_decompose(np.zeros((4, 4)), MINK_G, MINK_GINV)
        assert dec.degenerate and dec.mu == 0.0 and dec.p == 0.0 and dec.w is None

    def test_null_dust_rejected(self):
        k = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(rel.FluidError, match="timelike"):
            rel.perfect_fluid_decompose(np.outer(k, k), MINK_G, MINK_GINV)

    def test_complex_eigenvalues_rejected(self):
        t = np.zeros((4, 4))
        t[0, 1] = t[1, 0] = 1.0
        with pytest.raises(rel.FluidError, match="complex"):
            rel.perfect_fluid_decompose(t, MINK_G, MINK_GINV)

    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.floats(0.1, 10.0),
        p=st.floats(-5.0, 5.0),
        vx=st.floats(-0.6, 0.6),
        vy=st.floats(-0.6, 0.6),
    )
    def test_round_trip_property(self, mu, p, vx, vy):
        # constructing T from (mu, p, u) and decomposing must return them
        if abs(mu + p) < 0.1:  # eigenvalue separation needed for a clean read
            return
        gamma = 1.0 / np.sqrt(1.0 - vx * vx - vy * vy)
        u_up = gamma * np.array([1.0, vx, vy, 0.0])
        u = MINK_G @ u_up
        t = (mu + p) * np.outer(u, u) + p * MINK_G
        dec = rel.perfect_fluid_decompose(t, MINK_G, MINK_GINV)
        assert dec.mu == pytest.approx(mu, rel=1e-8, abs=1e-8)
        assert dec.p == pytest.approx(p, rel=1e-8, abs=1e-8)
        assert np.allclose(dec.u.values, u, atol=1e-7)
        assert dec.residual <= 1e-7 * (1 + abs(mu) + abs(p))


class TestEinstein:
    @pytest.mark.parametrize(
        "name,expected", [("minkowski", True), ("desitter_flat", True), ("flrw_dust", False), ("perturbed_flat", False), ("schwarzschild", True)]
    )
    def test_flags(self, name, expected):
        chk = rel.is_einstein(catalog_metric(name), sample(name, 6))
        assert chk.flag is expected
        if expected:
            assert chk.residual <= 1e-9
        else:
            assert chk.residual > 1e-3

    @pytest.mark.parametrize("name", ALL)
    def test_trace_crosscheck_agrees(self, name):
        chk = rel.is_einstein(catalog_metric(name), sample(name, 6))
        assert chk.flag == chk.trace_flag


def readings(reason: str) -> list:
    """The two trace readings an em_distribution reason reports, as floats."""
    literal = reason.split("trace reads R = +kT with residual ")[1]
    return [float(literal.split(";")[0]),
            float(reason.split("sign-reversed reading residual ")[1])]


class TestEMDistribution:
    def test_minkowski(self):
        ctx = context("minkowski", 4)
        out = ctx.check("em_distribution")
        assert out.status == "pass"
        assert out.max_residual == 0.0 and out.tolerance == ctx.tol(1.0)
        assert out.reason == ("trace reads R = +kT with residual 0.000e+00; "
                              "sign-reversed reading residual 0.000e+00")

    def test_desitter_parallel_conclusion(self):
        ctx = context("desitter_flat", 6)
        out = ctx.check("em_distribution")
        assert out.status == "pass"
        assert out.max_residual <= 1e-8
        # scored against the trace of T = Ric/k, which is R = 12
        assert out.tolerance == pytest.approx(ctx.tol(1.0 + 12.0), rel=1e-12)
        # literal trace reads R = +kT; the sign-reversed reading differs by 2R
        literal, reversed_ = readings(out.reason)
        assert literal <= 1e-10
        assert reversed_ == pytest.approx(24.0, abs=1e-6)

    def test_vacuum_reports_zero_but_no_conclusion(self):
        ctx = context("schwarzschild", 6)
        out = ctx.check("em_distribution")
        assert out.status == "not-applicable"  # not symmetric
        assert out.max_residual == 0.0 and out.tolerance == ctx.tol(0.0)
        parallel = ctx.check("wstar_parallel").max_residual
        assert out.reason.startswith(
            f"modified curvature is not covariantly constant (residual {parallel:.3e}); ")
        assert max(readings(out.reason)) <= 1e-12

    def test_dust_cosmology_not_applicable(self):
        ctx = context("flrw_dust", 6)
        out = ctx.check("em_distribution")
        assert out.status == "not-applicable"
        assert out.max_residual == 0.0 and out.tolerance == ctx.tol(0.0)
        parallel = ctx.check("wstar_parallel").max_residual
        assert parallel > 1e-3
        assert f"(residual {parallel:.3e})" in out.reason


class TestRunTolerances:
    """The em_distribution and dust_vacuum premises follow the run's atol/rtol.

    With atol = 10 the dust cosmology counts as having parallel and vanishing
    modified curvature, so both premises hold and the conclusions are scored.
    """

    def test_cli_outcomes_follow_wstar_parallel(self, capsys):
        code = cli.main(["check", "--metric", "flrw_dust", "--points", "8",
                         "--atol", "10", "--checks",
                         "wstar_parallel,em_distribution,dust_vacuum",
                         "--no-timestamp"])
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert code == cli.EXIT_OK
        assert checks["wstar_parallel"]["status"] == "pass"
        em = checks["em_distribution"]
        assert em["status"] == "pass"
        assert em["max_residual"] == pytest.approx(4.41, abs=0.01)
        assert checks["dust_vacuum"]["status"] == "pass"

    def test_reports_agree_with_the_checks(self):
        ctx = CheckContext(catalog_metric("flrw_dust"), sample("flrw_dust", 8), CFG,
                           atol=10.0)
        assert ctx.check("wstar_parallel").status == "pass"
        assert ctx.check("wstar_flat").status == "pass"
        # em_distribution: |nabla T| = |nabla Ric| / |k| against the trace of T
        em = ctx.check("em_distribution")
        assert em.status == "pass"
        assert em.max_residual == ctx.amax("nric")
        assert em.tolerance == ctx.tol(1.0 + amax(ctx.scalar))
        assert readings(em.reason)[0] == 0.0
        # dust_vacuum: max|mu| against tol(1), the dust premise holding
        mu, p, _ = ctx.fluid
        dv = ctx.check("dust_vacuum")
        assert amax(p) <= ctx.tol(1.0 + amax(mu))
        assert dv.status == "pass"
        assert dv.max_residual == amax(mu) and dv.tolerance == ctx.tol(1.0)
        assert dv.reason == (f"max|mu| = {amax(mu):.3e} with dust and vanishing "
                             "modified curvature")


class TestRecurrence:
    @pytest.mark.parametrize("name", ["minkowski", "schwarzschild"])
    def test_vacuum_not_applicable(self, name):
        fit = recurrence_fit(context(name, 4))
        assert not fit.applicable
        assert "vanishes" in fit.reason

    def test_desitter_trivially_recurrent(self):
        fit = recurrence_fit(context("desitter_flat", 6))
        assert fit.applicable
        assert amax(fit.b) <= 1e-8
        assert fit.fit_residual <= 1e-8
        assert fit.closedness_residual <= 1e-6

    def test_dust_cosmology_not_recurrent_but_closed(self):
        fit = recurrence_fit(context("flrw_dust", 6))
        assert fit.applicable
        assert fit.fit_residual > 1e-3
        assert fit.closedness_residual <= 1e-6  # b = b(t) dt is closed anyway

    @pytest.mark.parametrize("name", ["flrw_dust", "perturbed_flat"])
    def test_fit_satisfies_normal_equations(self, name):
        # least-squares oracle: the residual must be Frobenius-orthogonal to
        # Ricci at every point and slot
        geo = geo_for(name)
        pts = sample(name, 6)
        vals = geo.eval_fields({"ric": geo.ricci, "nric": geo.nabla_ricci}, pts)
        fit = recurrence_fit(CheckContext(catalog_metric(name), pts, CFG))
        resid = vals["nric"] - np.einsum("pjk,pm->pjkm", vals["ric"], fit.b)
        ortho = np.einsum("pjkm,pjk->pm", resid, vals["ric"])
        scale = amax(vals["nric"]) * amax(vals["ric"])
        assert amax(ortho) <= 1e-10 * (1 + scale)


class TestFluidRelations:
    @pytest.mark.parametrize("name", ALL)
    def test_trace_relation_all_metrics(self, name):
        rep = rel.fluid_relation_checks(catalog_metric(name), CFG, sample(name, 8))
        assert rep.n_decomposed == rep.n_points == 8
        assert rep.trace_residual <= 1e-7 * (1 + rep.scalar_max)

    @pytest.mark.parametrize("k,lam", [(2.0, 0.5), (8.0 * np.pi, 0.0), (-1.0, 0.25)])
    def test_trace_relation_other_configs(self, k, lam):
        cfg = rel.FieldEquationConfig(k=k, lam=lam)
        for name in ("minkowski", "desitter_flat"):
            rep = rel.fluid_relation_checks(catalog_metric(name), cfg, sample(name, 4))
            assert rep.n_decomposed == rep.n_points
            assert rep.trace_residual <= 1e-8 * (1 + rep.scalar_max)

    def test_dust_cosmology_against_friedmann(self):
        # oracle: mu = 3 (a'/a)^2 and p = -(2 a''/a + (a'/a)^2) for a = t^(2/3)
        pts = sample("flrw_dust", 8)
        rep = rel.fluid_relation_checks(catalog_metric("flrw_dust"), CFG, pts)
        t = pts[:, 0]
        mu_pred = 3.0 * (2.0 / (3.0 * t)) ** 2
        assert amax(rep.mu - mu_pred) <= 1e-6
        assert amax(rep.p) <= 1e-10

    def test_dust_cosmology_at_unit_time(self):
        geo = geo_for("flrw_dust")
        m = catalog_metric("flrw_dust")
        point = np.array([1.0, 0.2, -0.4, 0.1])
        vals = geo.eval_fields(
            {"t": rel.energy_momentum(m, CFG), "g": geo.g, "ginv": geo.ginv},
            point[None, :],
        )
        dec = rel.perfect_fluid_decompose(vals["t"][0], vals["g"][0], vals["ginv"][0])
        assert dec.mu == pytest.approx(4.0 / 3.0, abs=1e-5)
        assert dec.p == pytest.approx(0.0, abs=1e-5)

    def test_desitter_lambda_like(self):
        geo = geo_for("desitter_flat")
        m = catalog_metric("desitter_flat")
        pts = sample("desitter_flat", 6)
        rep = rel.fluid_relation_checks(m, CFG, pts)
        assert rep.wstar_flat
        assert rep.mu_plus_p_max <= 1e-8
        assert rep.mu_minus_3p_spread <= 1e-8
        assert rep.nabla_t_max <= 1e-8
        vals = geo.eval_fields(
            {"t": rel.energy_momentum(m, CFG), "g": geo.g, "ginv": geo.ginv}, pts
        )
        dec = rel.perfect_fluid_decompose(vals["t"][0], vals["g"][0], vals["ginv"][0])
        assert dec.w == pytest.approx(-1.0, abs=1e-6)

    def test_flat_space_reports_flat_branch(self):
        rep = rel.fluid_relation_checks(catalog_metric("minkowski"), CFG, sample("minkowski", 4))
        assert rep.wstar_flat
        assert rep.mu_plus_p_max == 0.0
        assert rep.nabla_t_max == 0.0


class TestDustVacuum:
    def test_flat_space_holds(self):
        ctx = context("minkowski", 4)
        out = ctx.check("dust_vacuum")
        assert out.status == "pass"
        assert out.max_residual == 0.0 and out.tolerance == ctx.tol(1.0)
        assert out.reason == ("max|mu| = 0.000e+00 with dust and vanishing "
                              "modified curvature")

    def test_dust_without_flatness_not_applicable(self):
        ctx = context("flrw_dust", 6)
        out = ctx.check("dust_vacuum")
        assert out.status == "not-applicable"
        assert out.max_residual == 0.0 and out.tolerance == ctx.tol(0.0)
        # the pressure is negligible, so the only missing premise is flatness
        assert out.reason == "modified curvature does not vanish"

    def test_flat_without_dust_not_applicable(self):
        ctx = context("desitter_flat", 6)
        out = ctx.check("dust_vacuum")
        assert out.status == "not-applicable"
        assert out.max_residual == 0.0 and out.tolerance == ctx.tol(0.0)
        # de Sitter's fluid has p = -mu = -3; W* vanishes, so only dust fails
        _, p, _ = ctx.fluid
        assert amax(p) == pytest.approx(3.0, abs=1e-8)
        assert out.reason == f"pressure is not negligible (max|p| = {amax(p):.3e})"


class TestConformal:
    def test_static_killing_field(self):
        xi = builtin_vector_fields(catalog_metric("schwarzschild"))[0]
        assert xi.name == "coordinate_time"
        fit = rel.conformal_fit(xi, catalog_metric("schwarzschild"), sample("schwarzschild", 6))
        assert amax(fit.phi) <= 1e-12
        assert fit.residual <= 1e-10

    def test_euler_homothety_on_flat_space(self):
        xi = builtin_vector_fields(catalog_metric("minkowski"))[1]
        assert xi.name == "euler"
        fit = rel.conformal_fit(xi, catalog_metric("minkowski"), sample("minkowski", 4))
        assert amax(fit.phi - 1.0) <= 1e-12
        assert fit.residual <= 1e-12

    def test_zero_field(self):
        xi = VectorFieldSpec("zero", tuple(const(0) for _ in range(4)))
        fit = rel.conformal_fit(xi, catalog_metric("minkowski"), sample("minkowski", 4))
        assert amax(fit.phi) == 0.0 and fit.residual == 0.0

    def test_exponential_expansion_factor(self):
        # d/dt of e^{2t} spatial slices: trace fit gives phi = 3/4, and the
        # uncompensated tt component makes the residual exactly 2 phi
        fit = rel.conformal_fit(
            builtin_vector_fields(catalog_metric("desitter_flat"))[0],
            catalog_metric("desitter_flat"),
            sample("desitter_flat", 6),
        )
        assert amax(fit.phi - 0.75) <= 1e-10
        assert fit.residual == pytest.approx(1.5, abs=1e-8)

    def test_fields_with_a_long_shared_prefix_get_their_own_lie_derivative(self):
        # the components agree in their first few hundred characters, so a
        # cache key built from truncated text would hand b the field of a
        m = catalog_metric("minkowski")
        geo = workspace(m)
        prefix = " + ".join(["x*y*z"] * 30)
        zero = const(0)
        a = VectorFieldSpec("xi", (zero, zero, zero, parse(prefix + " + t", m.coords)))
        b = VectorFieldSpec("xi", (zero, zero, zero, parse(prefix + " + x", m.coords)))
        pts = sample("minkowski", 4)
        for xi, t_z in ((a, 1.0), (b, 0.0)):  # (L g)_{tz} = d_t xi^z
            cached = geo.eval_field(rel._lie_metric(geo, xi), pts)
            direct = geo.eval_field(geo.lie_derivative_metric(xi), pts)
            np.testing.assert_array_equal(cached, direct)
            assert np.all(cached[:, 0, 3] == t_z)


class TestInheritance:
    def test_flat_space_matter_side_degenerate(self):
        xi = builtin_vector_fields(catalog_metric("minkowski"))[1]
        rep = rel.matter_inheritance_check(xi, catalog_metric("minkowski"), CFG, sample("minkowski", 4))
        assert rep.degenerate
        assert rep.phi_t is None
        assert rep.inheritance_residual == 0.0
        assert rep.equivalence == "not-applicable"

    def test_desitter_killing_field_inherits(self):
        # xi = d_t - x d_x - y d_y - z d_z is Killing for the H=1 slicing;
        # with T = -3g both sides vanish and the factors agree at zero
        xi = VectorFieldSpec(
            "desitter_killing",
            (const(1), neg(coord(1)), neg(coord(2)), neg(coord(3))),
        )
        m = catalog_metric("desitter_flat")
        pts = sample("desitter_flat", 6)
        conf = rel.conformal_fit(xi, m, pts)
        assert amax(conf.phi) <= 1e-10
        assert conf.residual <= 1e-10
        rep = rel.matter_inheritance_check(xi, m, CFG, pts)
        assert not rep.degenerate
        assert rep.equivalence == "holds"
        assert rep.inheritance_residual <= 1e-10
        assert rep.phi_gap <= 1e-10

    def test_desitter_non_conformal_field_fails_both_sides(self):
        xi = builtin_vector_fields(catalog_metric("desitter_flat"))[0]
        rep = rel.matter_inheritance_check(
            xi, catalog_metric("desitter_flat"), CFG, sample("desitter_flat", 6)
        )
        assert rep.conformal_residual > 1e-3
        assert rep.inheritance_residual > 1e-3
        assert rep.equivalence == "holds"  # both sides fail together

    def test_dust_inherits_along_time_flow(self):
        # L_t T = (mu'/mu) T for comoving dust: phi_T = -1/t exactly, while
        # the metric fit fails badly - inheritance does not imply conformal
        # away from the vanishing-curvature-modification regime
        m = catalog_metric("flrw_dust")
        pts = sample("flrw_dust", 6)
        xi = builtin_vector_fields(m)[0]
        rep = rel.matter_inheritance_check(xi, m, CFG, pts)
        assert rep.inheritance_residual <= 1e-10
        assert amax(rep.phi_t + 1.0 / pts[:, 0]) <= 1e-8
        assert rep.conformal_residual > 1e-3
        assert rep.equivalence == "not-applicable"

    def test_euler_is_matter_collineation_of_dust(self):
        m = catalog_metric("flrw_dust")
        rep = rel.matter_inheritance_check(
            builtin_vector_fields(m)[1], m, CFG, sample("flrw_dust", 6)
        )
        assert rep.inheritance_residual <= 1e-10
        assert amax(rep.phi_t) <= 1e-10


EXPECTED_FLAGS = {
    "minkowski": {
        "ricci_flat": True, "einstein": True, "constant_scalar_curvature": True,
        "codazzi_ricci": True, "ricci_recurrent": None, "ricci_semisymmetric": True,
        "wstar_semisymmetric": True, "wstar_flat": True,
        "wstar_divergence_free": True, "wstar_parallel": True,
        "T_semisymmetric": True, "T_codazzi": True, "T_parallel": True,
    },
    "schwarzschild": {
        "ricci_flat": True, "einstein": True, "constant_scalar_curvature": True,
        "codazzi_ricci": True, "ricci_recurrent": None, "ricci_semisymmetric": True,
        "wstar_semisymmetric": False, "wstar_flat": False,
        "wstar_divergence_free": True, "wstar_parallel": False,
        "T_semisymmetric": True, "T_codazzi": True, "T_parallel": True,
    },
    "desitter_flat": {
        "ricci_flat": False, "einstein": True, "constant_scalar_curvature": True,
        "codazzi_ricci": True, "ricci_recurrent": True, "ricci_semisymmetric": True,
        "wstar_semisymmetric": True, "wstar_flat": True,
        "wstar_divergence_free": True, "wstar_parallel": True,
        "T_semisymmetric": True, "T_codazzi": True, "T_parallel": True,
    },
    "flrw_dust": {
        "ricci_flat": False, "einstein": False, "constant_scalar_curvature": False,
        "codazzi_ricci": False, "ricci_recurrent": False, "ricci_semisymmetric": False,
        "wstar_semisymmetric": False, "wstar_flat": False,
        "wstar_divergence_free": True, "wstar_parallel": False,
        "T_semisymmetric": False, "T_codazzi": False, "T_parallel": False,
    },
    "perturbed_flat": {
        "ricci_flat": False, "einstein": False, "constant_scalar_curvature": False,
        "codazzi_ricci": False, "ricci_recurrent": False, "ricci_semisymmetric": False,
        "wstar_semisymmetric": False, "wstar_flat": False,
        "wstar_divergence_free": False, "wstar_parallel": False,
        "T_semisymmetric": False, "T_codazzi": False, "T_parallel": False,
    },
}


class TestClassify:
    @pytest.mark.parametrize("name", ALL)
    def test_flag_table(self, name):
        flags = rel.classify(catalog_metric(name), CFG, sample(name, 8))
        got = {k: holds(out) for k, out in flags.items()}
        assert got == EXPECTED_FLAGS[name]

    def test_every_flag_carries_residual_and_threshold(self):
        flags = rel.classify(catalog_metric("flrw_dust"), CFG, sample("flrw_dust", 6))
        for out in flags.values():
            assert np.isfinite(out.max_residual) and out.tolerance > 0.0

    def test_recurrence_extras(self):
        fit = context("desitter_flat", 6).recurrence
        assert fit.b is not None
        assert amax(fit.b) <= 1e-8
        assert fit.closedness_residual <= 1e-6
        vac = context("schwarzschild", 6)
        assert vac.recurrence.b is None and vac.recurrence.closedness_residual is None
        assert holds(classification(vac)["ricci_recurrent"]) is None

    def test_flrw_divergence_free_counterexample_in_record(self):
        # the one honest disagreement: divergence-free without Codazzi Ricci
        flags = rel.classify(catalog_metric("flrw_dust"), CFG, sample("flrw_dust", 8))
        assert holds(flags["wstar_divergence_free"]) is True
        assert holds(flags["codazzi_ricci"]) is False


class TestPairings:
    NAMES = (
        "codazzi_iff_divergence_free",
        "einstein_iff_trace_vanishes",
        "parallel_implies_t_semisymmetric",
        "flat_implies_constant_scalar_and_parallel_t",
        "flat_implies_lambda_like_fluid",
        "t_semisymmetric_iff_ricci_semisymmetric",
    )

    @pytest.mark.parametrize("name", ALL)
    def test_names_and_details(self, name):
        pairs = rel.pairing_checks(catalog_metric(name), CFG, sample(name, 6))
        assert tuple(p.name for p in pairs) == self.NAMES
        for p in pairs:
            assert p.detail

    @pytest.mark.parametrize("name", ["minkowski", "schwarzschild", "desitter_flat", "perturbed_flat"])
    def test_all_pairings_hold_off_the_counterexample(self, name):
        for p in rel.pairing_checks(catalog_metric(name), CFG, sample(name, 6)):
            assert p.holds is True, p.detail

    def test_flrw_divergence_pairing_fails_honestly(self):
        pairs = {p.name: p for p in rel.pairing_checks(catalog_metric("flrw_dust"), CFG, sample("flrw_dust", 6))}
        assert pairs["codazzi_iff_divergence_free"].holds is False
        for name in self.NAMES[1:]:
            assert pairs[name].holds is True, pairs[name].detail

    @pytest.mark.parametrize("name", ALL)
    def test_codazzi_implies_divergence_free_direction(self, name):
        # the implication that does survive scrutiny
        flags = rel.classify(catalog_metric(name), CFG, sample(name, 6))
        if holds(flags["codazzi_ricci"]):
            assert holds(flags["wstar_divergence_free"]) is True

    def test_lambda_fluid_branch_uses_the_run_tolerances(self):
        # atol = 10 makes the dust cosmology's modified curvature count as
        # vanishing, so the fluid branch must score the real mu + p gap, and
        # against the same tolerance rule: a gap under atol is consistent
        m = catalog_metric("flrw_dust")
        pts = sample("flrw_dust", 8)
        assert holds(rel.classify(m, CFG, pts, atol=10.0)["wstar_flat"]) is True
        pairs = {p.name: p for p in rel.pairing_checks(m, CFG, pts, atol=10.0)}
        fluid = rel.fluid_relation_checks(m, CFG, pts)
        gap = amax(fluid.mu + fluid.p)
        assert gap > 1.0
        lam = pairs["flat_implies_lambda_like_fluid"]
        assert lam.holds is True
        assert lam.detail == f"max|mu + p| = {gap:.3e} over 8 points"
