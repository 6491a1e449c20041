"""Curvature of the catalog space-times checked against independent oracles.

The oracles here deliberately avoid the symbolic differentiation path:
central finite differences of *evaluated* fields reconstruct the connection,
the curvature and covariant derivatives, and `np.linalg` supplies the inverse
and determinant.  Closed-form reference values (Schwarzschild connection
components, de Sitter and dust-cosmology curvature) are frozen inline.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from wstar import exprlib
from wstar.catalog import builtin_vector_fields, catalog_metric
from wstar.exprlib import const, coord
from wstar.geometry import (
    Geometry,
    MetricSpec,
    TensorField,
    ricci_commutator,
    workspace,
)
from wstar.cli import sample_for
from wstar.metricfile import parse_metric_text
from wstar.sampling import DET_FLOOR


def geo_for(name: str) -> Geometry:
    return workspace(catalog_metric(name))


def sample(geo: Geometry, count: int = 6, seed: int = 42) -> np.ndarray:
    return sample_for(geo, count, seed)


def amax(a) -> float:
    return float(np.max(np.abs(a)))


def fd_partials(geo: Geometry, field, points: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference coordinate partials of an evaluated field.

    Returns shape (P, *field shape, n) with the derivative index trailing,
    matching the symbolic covariant-derivative slot order.
    """
    n = geo.dim
    cols = []
    for m in range(n):
        shift = np.zeros(n)
        shift[m] = h
        plus = geo.eval_field(field, points + shift)
        minus = geo.eval_field(field, points - shift)
        cols.append((plus - minus) / (2 * h))
    return np.stack(cols, axis=-1)


def christoffel_fd(geo: Geometry, points: np.ndarray) -> np.ndarray:
    """Connection from finite differences of the metric and np.linalg.inv."""
    gvals = geo.eval_field(geo.g, points)
    ginv = np.linalg.inv(gvals)
    dg = fd_partials(geo, geo.g, points)  # dg[p, a, b, m] = d_m g_ab
    # lower[p, s, i, j] = (d_i g_sj + d_j g_si - d_s g_ij) / 2
    lower = 0.5 * (np.einsum("psji->psij", dg) + dg - np.einsum("pijs->psij", dg))
    return np.einsum("phs,psij->phij", ginv, lower)


def riemann13_fd(geo: Geometry, points: np.ndarray) -> np.ndarray:
    """Curvature from finite differences of the (symbolically built) connection."""
    gam = geo.eval_field(geo.christoffel, points)
    dgam = fd_partials(geo, geo.christoffel, points)  # (p, h, i, j, m)
    grad_k = np.einsum("phjlk->phjkl", dgam)
    grad_l = dgam
    quad = np.einsum("phks,psjl->phjkl", gam, gam) - np.einsum(
        "phls,psjk->phjkl", gam, gam
    )
    return grad_k - grad_l + quad


def nabla_ricci_fd(geo: Geometry, points: np.ndarray) -> np.ndarray:
    ric = geo.eval_field(geo.ricci, points)
    dric = fd_partials(geo, geo.ricci, points)  # (p, j, k, m)
    gam = geo.eval_field(geo.christoffel, points)
    corr = np.einsum("psmj,psk->pjkm", gam, ric) + np.einsum(
        "psmk,pjs->pjkm", gam, ric
    )
    return dric - corr


# --- specification validation -------------------------------------------------


class TestSpecs:
    def test_metric_must_be_symmetric(self):
        one, t = const(1), coord(0)
        with pytest.raises(ValueError, match="differ"):
            MetricSpec("bad", ("t", "x"), ((one, t), (const(0), one)), {}, ((0, 1), (0, 1)))

    def test_domain_must_match_dim(self):
        one = const(1)
        with pytest.raises(ValueError, match="one interval"):
            MetricSpec("bad", ("t", "x"), ((one, one), (one, one)), {}, ((0, 1),))

    def test_tensorfield_variance_validation(self):
        comps = np.empty((2, 2), dtype=object)
        comps[:] = const(0)
        with pytest.raises(ValueError, match="'u' or 'l'"):
            TensorField("xy", comps, "bad")
        with pytest.raises(ValueError, match="rank"):
            TensorField("l", comps, "bad")

    def test_dim_bound(self):
        one = const(1)
        row = (one,) * 6
        spec = MetricSpec("big", tuple("abcdef"), (row,) * 6, {}, ((0, 1),) * 6)
        geo = Geometry(spec)  # the jet needs no symbolic inverse
        with pytest.raises(ValueError, match="dim <= 5"):
            geo.ginv


# --- metric algebra -----------------------------------------------------------


class TestMetricAlgebra:
    @pytest.mark.parametrize("name", ["schwarzschild", "perturbed_flat", "flrw_dust"])
    def test_inverse_against_linalg(self, name):
        geo = geo_for(name)
        pts = sample(geo, 8)
        gvals = geo.eval_field(geo.g, pts)
        ginv = geo.eval_field(geo.ginv, pts)
        assert amax(ginv - np.linalg.inv(gvals)) <= 1e-10 * (1 + amax(ginv))
        ident = np.einsum("pij,pjk->pik", gvals, ginv)
        assert amax(ident - np.eye(4)) <= 1e-10

    @pytest.mark.parametrize("name", ["schwarzschild", "perturbed_flat"])
    def test_determinant_against_linalg(self, name):
        geo = geo_for(name)
        pts = sample(geo, 8)
        gvals = geo.eval_field(geo.g, pts)
        expected = np.abs(np.linalg.det(gvals))
        got = geo.det_values(pts)
        assert amax(got - expected) <= 1e-10 * (1 + amax(expected))

    def test_lorentzian_signature_negative_det(self):
        for name in ("minkowski", "schwarzschild", "desitter_flat"):
            geo = geo_for(name)
            pts = sample(geo, 4)
            gvals = geo.eval_field(geo.g, pts)
            assert np.all(np.linalg.det(gvals) < 0)

    def test_one_dimensional_inverse_and_connection(self):
        # the cofactor of a 1×1 matrix is 1, so g^{00} = 1/x^2 and Γ^0_{00} = 1/x
        metric = parse_metric_text("coords = x\ndomain x = 0.5 .. 2\ng[0][0] = x^2\n", "line")
        geo = workspace(metric)
        pts = np.array([[0.7], [1.5]])
        vals = geo.eval_fields({"g": geo.g, "ginv": geo.ginv, "gam": geo.christoffel}, pts)
        assert amax(vals["ginv"][:, 0, 0] * vals["g"][:, 0, 0] - 1.0) <= 1e-15
        assert amax(vals["gam"][:, 0, 0, 0] - 1.0 / pts[:, 0]) <= 1e-15


# --- connection ---------------------------------------------------------------


class TestChristoffel:
    def test_schwarzschild_closed_forms(self):
        geo = geo_for("schwarzschild")
        r, theta = 4.0, 1.2
        gam = geo.eval_field(geo.christoffel, np.array([[0.0, r, theta, 0.3]]))[0]
        # t r theta phi = 0 1 2 3, M = 1
        assert gam[1, 0, 0] == pytest.approx(1.0 * (r - 2.0) / r**3)  # 0.03125
        assert gam[0, 0, 1] == pytest.approx(1.0 / (r * (r - 2.0)))  # 0.125
        assert gam[2, 1, 2] == pytest.approx(1.0 / r)
        assert gam[1, 2, 2] == pytest.approx(-(r - 2.0))
        assert gam[3, 2, 3] == pytest.approx(np.cos(theta) / np.sin(theta))
        assert gam[1, 3, 3] == pytest.approx(-(r - 2.0) * np.sin(theta) ** 2)

    @pytest.mark.parametrize("name", ["schwarzschild", "perturbed_flat", "desitter_flat"])
    def test_against_finite_differences(self, name):
        geo = geo_for(name)
        pts = sample(geo, 5)
        sym = geo.eval_field(geo.christoffel, pts)
        fd = christoffel_fd(geo, pts)
        assert amax(sym - fd) <= 1e-6 * (1 + amax(sym))

    def test_symmetric_lower_pair(self):
        geo = geo_for("perturbed_flat")
        pts = sample(geo, 5)
        gam = geo.eval_field(geo.christoffel, pts)
        assert amax(gam - gam.transpose(0, 1, 3, 2)) == 0.0


# --- curvature: frozen reference values ---------------------------------------


class TestKnownCurvature:
    def test_minkowski_everything_vanishes(self):
        geo = geo_for("minkowski")
        pts = sample(geo, 4)
        for fname in ("christoffel", "riemann04", "ricci", "weyl"):
            assert amax(geo.eval_field(getattr(geo, fname), pts)) == 0.0
        assert amax(geo.eval_field(geo.scalar_field, pts)) == 0.0

    def test_schwarzschild_is_ricci_flat_but_curved(self):
        geo = geo_for("schwarzschild")
        pts = sample(geo, 6)
        vals = geo.eval_fields(
            {"ric": geo.ricci, "R": geo.scalar_field, "riem": geo.riemann04}, pts
        )
        assert amax(vals["ric"]) <= 1e-10 * (1 + amax(vals["riem"]))
        assert amax(vals["R"]) <= 1e-10
        assert amax(vals["riem"]) > 1e-4  # genuinely curved

    def test_desitter_constant_curvature_form(self):
        geo = geo_for("desitter_flat")
        pts = sample(geo, 6)
        vals = geo.eval_fields(
            {"g": geo.g, "riem": geo.riemann04, "ric": geo.ricci, "R": geo.scalar_field},
            pts,
        )
        g = vals["g"]
        # H = 1: R_{ijkl} = g_ik g_jl - g_il g_jk, Ric = 3 g, R = 12
        expected = np.einsum("pik,pjl->pijkl", g, g) - np.einsum(
            "pil,pjk->pijkl", g, g
        )
        assert amax(vals["riem"] - expected) <= 1e-9 * (1 + amax(expected))
        assert amax(vals["ric"] - 3.0 * g) <= 1e-9
        assert amax(vals["R"] - 12.0) <= 1e-9

    def test_desitter_parameter_override(self):
        pts = sample(geo_for("desitter_flat"), 4)
        geo = workspace(dataclasses.replace(catalog_metric("desitter_flat"), params={"H": 2.0}))
        vals = geo.eval_field(geo.scalar_field, pts)
        assert amax(vals - 48.0) <= 1e-8  # 12 H^2

    def test_dust_cosmology_scalar_curvature(self):
        geo = geo_for("flrw_dust")
        pts = sample(geo, 8)
        r_vals = geo.eval_field(geo.scalar_field, pts)
        t = pts[:, 0]
        assert amax(r_vals - 4.0 / (3.0 * t**2)) <= 1e-9 * (1 + amax(r_vals))

    def test_desitter_and_dust_weyl_flat(self):
        for name in ("desitter_flat", "flrw_dust"):
            geo = geo_for(name)
            pts = sample(geo, 5)
            riem = geo.eval_field(geo.riemann04, pts)
            weyl = geo.eval_field(geo.weyl, pts)
            assert amax(weyl) <= 1e-9 * (1 + amax(riem))


# --- curvature: oracles and identities ----------------------------------------


class TestCurvatureIdentities:
    @pytest.mark.parametrize("name", ["schwarzschild", "perturbed_flat"])
    def test_riemann_against_finite_differences(self, name):
        geo = geo_for(name)
        pts = sample(geo, 5)
        sym = geo.eval_field(geo.riemann13, pts)
        fd = riemann13_fd(geo, pts)
        assert amax(sym - fd) <= 1e-5 * (1 + amax(sym))

    @pytest.mark.parametrize("name", ["schwarzschild", "desitter_flat", "perturbed_flat"])
    def test_index_symmetries(self, name):
        geo = geo_for(name)
        pts = sample(geo, 5)
        s = geo.eval_field(geo.riemann04, pts)
        tol = 1e-9 * (1 + amax(s))
        assert amax(s + np.einsum("pjikl->pijkl", s)) <= tol
        assert amax(s + np.einsum("pijlk->pijkl", s)) <= tol
        assert amax(s - np.einsum("pklij->pijkl", s)) <= tol

    @pytest.mark.parametrize("name", ["schwarzschild", "perturbed_flat"])
    def test_first_bianchi(self, name):
        geo = geo_for(name)
        pts = sample(geo, 5)
        s = geo.eval_field(geo.riemann04, pts)
        cyc = s + np.einsum("piklj->pijkl", s) + np.einsum("piljk->pijkl", s)
        assert amax(cyc) <= 1e-9 * (1 + amax(s))

    @pytest.mark.parametrize("name", ["schwarzschild", "flrw_dust", "perturbed_flat"])
    def test_second_bianchi(self, name):
        geo = geo_for(name)
        pts = sample(geo, 5)
        d = geo.eval_field(geo.covariant_derivative(geo.riemann04), pts)
        cyc = (
            d
            + np.einsum("pijlmk->pijklm", d)
            + np.einsum("pijmkl->pijklm", d)
        )
        assert amax(cyc) <= 1e-7 * (1 + amax(d))

    @pytest.mark.parametrize("name", ["schwarzschild", "desitter_flat", "perturbed_flat"])
    def test_ricci_traces(self, name):
        geo = geo_for(name)
        pts = sample(geo, 5)
        vals = geo.eval_fields(
            {"ginv": geo.ginv, "s": geo.riemann04, "ric": geo.ricci, "R": geo.scalar_field},
            pts,
        )
        # first-and-third trace gives the Ricci tensor with a plus sign
        tr = np.einsum("pik,pijkl->pjl", vals["ginv"], vals["s"])
        assert amax(tr - vals["ric"]) <= 1e-9 * (1 + amax(vals["ric"]))
        full = np.einsum("pjk,pjk->p", vals["ginv"], vals["ric"])
        assert amax(full - vals["R"]) <= 1e-9 * (1 + amax(vals["R"]))

    @pytest.mark.parametrize("name", ["flrw_dust", "perturbed_flat"])
    def test_contracted_second_bianchi_both_orderings(self, name):
        geo = geo_for(name)
        pts = sample(geo, 5)
        vals = geo.eval_fields(
            {"ginv": geo.ginv, "d": geo.covariant_derivative(geo.riemann04),
             "nric": geo.nabla_ricci},
            pts,
        )
        div = np.einsum("phi,pijklh->pjkl", vals["ginv"], vals["d"])
        n = vals["nric"]  # n[p, a, b, m] = nabla_m Ric_ab
        scale = 1 + amax(n)
        # slot order as built: divergence = nabla_k Ric_jl - nabla_l Ric_jk
        direct = np.einsum("pjlk->pjkl", n) - n
        assert amax(div - direct) <= 1e-8 * scale
        # with the last index pair of the curvature swapped the two
        # right-hand-side terms trade places
        div_swapped = np.einsum("phi,pijlkh->pjkl", vals["ginv"], vals["d"])
        assert amax(div_swapped - (n - np.einsum("pjlk->pjkl", n))) <= 1e-8 * scale

    @pytest.mark.parametrize("name", ["schwarzschild", "perturbed_flat"])
    def test_weyl_is_trace_free(self, name):
        geo = geo_for(name)
        pts = sample(geo, 5)
        vals = geo.eval_fields({"ginv": geo.ginv, "c": geo.weyl}, pts)
        scale = 1 + amax(vals["c"])
        assert amax(np.einsum("pik,pijkl->pjl", vals["ginv"], vals["c"])) <= 1e-9 * scale
        assert amax(np.einsum("pil,pijkl->pjk", vals["ginv"], vals["c"])) <= 1e-9 * scale
        assert amax(np.einsum("pij,pijkl->pkl", vals["ginv"], vals["c"])) <= 1e-9 * scale

    def test_weyl_shares_riemann_symmetries(self):
        geo = geo_for("perturbed_flat")
        pts = sample(geo, 4)
        c = geo.eval_field(geo.weyl, pts)
        tol = 1e-9 * (1 + amax(c))
        assert amax(c + np.einsum("pjikl->pijkl", c)) <= tol
        assert amax(c + np.einsum("pijlk->pijkl", c)) <= tol
        cyc = c + np.einsum("piklj->pijkl", c) + np.einsum("piljk->pijkl", c)
        assert amax(cyc) <= tol


# --- covariant derivative -----------------------------------------------------


class TestCovariantDerivative:
    @pytest.mark.parametrize("name", ["schwarzschild", "flrw_dust", "perturbed_flat"])
    def test_metric_compatibility(self, name):
        geo = geo_for(name)
        pts = sample(geo, 6)
        nab_g = geo.eval_field(geo.covariant_derivative(geo.g), pts)
        gam = geo.eval_field(geo.christoffel, pts)
        gvals = geo.eval_field(geo.g, pts)
        assert amax(nab_g) <= 1e-10 * (1 + amax(gam) * amax(gvals))

    @pytest.mark.parametrize("name", ["schwarzschild", "perturbed_flat"])
    def test_nabla_ricci_against_finite_differences(self, name):
        geo = geo_for(name)
        pts = sample(geo, 5)
        sym = geo.eval_field(geo.nabla_ricci, pts)
        fd = nabla_ricci_fd(geo, pts)
        assert amax(sym - fd) <= 1e-6 * (1 + amax(sym))

    def test_gradient_against_finite_differences(self):
        geo = geo_for("flrw_dust")
        pts = sample(geo, 6)
        sym = geo.eval_field(geo.grad_scalar, pts)
        fd = fd_partials(geo, geo.scalar_field, pts)
        assert amax(sym - fd) <= 1e-6 * (1 + amax(sym))
        # d_t (4 / (3 t^2)) = -8 / (3 t^3), spatial gradient zero
        t = pts[:, 0]
        assert amax(sym[:, 0] + 8.0 / (3.0 * t**3)) <= 1e-9 * (1 + amax(sym))
        assert amax(sym[:, 1:]) <= 1e-12

    def test_scalar_covariant_derivative_is_gradient(self):
        geo = geo_for("flrw_dust")
        pts = sample(geo, 4)
        a = geo.eval_field(geo.covariant_derivative(geo.scalar_field), pts)
        b = geo.eval_field(geo.grad_scalar, pts)
        assert amax(a - b) == 0.0

    def test_commutator_matches_curvature_action(self):
        # brute force: antisymmetrized double covariant derivative of the
        # Ricci tensor; algebraic: curvature acting slotwise.
        geo = geo_for("perturbed_flat")
        pts = sample(geo, 4)
        second = geo.covariant_derivative(geo.nabla_ricci)
        vals = geo.eval_fields(
            {"dd": second, "ric": geo.ricci, "r13": geo.riemann13}, pts
        )
        dd = vals["dd"]  # dd[p, j, k, m, n] = nabla_n nabla_m Ric_jk
        brute = np.einsum("pjknm->pjkmn", dd) - dd
        algebraic = ricci_commutator(vals["ric"], "ll", vals["r13"])
        assert amax(brute - algebraic) <= 1e-9 * (1 + amax(brute))

    def test_commutator_on_scalar_vanishes(self):
        geo = geo_for("perturbed_flat")
        pts = sample(geo, 4)
        vals = geo.eval_fields({"r": geo.scalar_field, "r13": geo.riemann13}, pts)
        out = ricci_commutator(vals["r"], "", vals["r13"])
        assert amax(out) == 0.0

    def test_commutator_rejects_upper_slots(self):
        with pytest.raises(ValueError, match="lower-index"):
            ricci_commutator(np.zeros((1, 4)), "u", np.zeros((1, 4, 4, 4, 4)))


# --- Lie derivatives ----------------------------------------------------------


class TestLieDerivatives:
    def test_static_time_flow_is_killing_for_schwarzschild(self):
        geo = geo_for("schwarzschild")
        d_t = builtin_vector_fields(geo.metric)[0]
        lie = geo.lie_derivative_metric(d_t)
        pts = sample(geo, 5)
        assert amax(geo.eval_field(lie, pts)) <= 1e-15

    def test_euler_field_is_homothety_of_flat_space(self):
        geo = geo_for("minkowski")
        euler = builtin_vector_fields(geo.metric)[1]
        lie = geo.lie_derivative_metric(euler)
        pts = sample(geo, 5)
        vals = geo.eval_fields({"lie": lie, "g": geo.g}, pts)
        assert amax(vals["lie"] - 2.0 * vals["g"]) <= 1e-12

    def test_euler_is_not_killing_for_schwarzschild(self):
        geo = geo_for("schwarzschild")
        euler = builtin_vector_fields(geo.metric)[1]
        lie = geo.lie_derivative_metric(euler)
        pts = sample(geo, 5)
        assert amax(geo.eval_field(lie, pts)) > 1e-2

    def test_sym2_lie_derivative_of_metric_matches(self):
        # on the metric itself the two Lie derivative routines must agree
        geo = geo_for("schwarzschild")
        euler = builtin_vector_fields(geo.metric)[1]
        a = geo.lie_derivative_metric(euler)
        b = geo.lie_derivative_sym2(euler, geo.g)
        pts = sample(geo, 4)
        vals = geo.eval_fields({"a": a, "b": b}, pts)
        assert amax(vals["a"] - vals["b"]) <= 1e-9 * (1 + amax(vals["a"]))

    def test_sym2_requires_lower_pair(self):
        geo = geo_for("minkowski")
        euler = builtin_vector_fields(geo.metric)[1]
        with pytest.raises(ValueError, match="rank-2 lower"):
            geo.lie_derivative_sym2(euler, geo.ginv)


# --- index algebra ------------------------------------------------------------


class TestIndexAlgebra:
    def test_symbolic_trace_of_riemann_is_ricci(self):
        geo = geo_for("flrw_dust")
        traced = geo.contract(geo.riemann13, 0, 2)
        pts = sample(geo, 4)
        vals = geo.eval_fields({"tr": traced, "ric": geo.ricci}, pts)
        assert amax(vals["tr"] - vals["ric"]) <= 1e-12 * (1 + amax(vals["ric"]))

    def test_symbolic_raise_then_contract_gives_scalar(self):
        geo = geo_for("flrw_dust")
        mixed = geo.raise_index(geo.ricci, 0)
        scalar = geo.contract(mixed, 0, 1)  # rank 0 -> Expr
        wrapped = np.empty((), dtype=object)
        wrapped[()] = scalar
        field = TensorField("", wrapped, "trace")
        pts = sample(geo, 4)
        vals = geo.eval_fields({"tr": field, "R": geo.scalar_field}, pts)
        assert amax(vals["tr"] - vals["R"]) <= 1e-10 * (1 + amax(vals["R"]))

    def test_symbolic_lower_riemann_first_slot(self):
        geo = geo_for("desitter_flat")
        lowered = geo.lower_index(geo.riemann13, 0)
        pts = sample(geo, 4)
        vals = geo.eval_fields({"low": lowered, "r04": geo.riemann04}, pts)
        assert amax(vals["low"] - vals["r04"]) <= 1e-10 * (1 + amax(vals["r04"]))

    def test_symbolic_variance_checks(self):
        geo = geo_for("minkowski")
        with pytest.raises(ValueError, match="variance mismatch"):
            geo.raise_index(geo.ginv, 0)
        with pytest.raises(ValueError, match="variance mismatch"):
            geo.contract(geo.g, 0, 1)
        with pytest.raises(ValueError, match="itself"):
            geo.contract(geo.riemann13, 1, 1)


# --- evaluation machinery -----------------------------------------------------


class TestEvaluation:
    def test_eval_fields_shapes(self):
        geo = geo_for("flrw_dust")
        pts = sample(geo, 7)
        vals = geo.eval_fields(
            {"g": geo.g, "gam": geo.christoffel, "R": geo.scalar_field}, pts
        )
        assert vals["g"].shape == (7, 4, 4)
        assert vals["gam"].shape == (7, 4, 4, 4)
        assert vals["R"].shape == (7,)

    def test_det_values_flag_evaluation_failure(self):
        geo = geo_for("schwarzschild")
        pts = np.array(
            [
                [0.0, 4.0, 1.0, 0.0],  # fine
                [0.0, 2.0, 1.0, 0.0],  # horizon: g_rr divides by zero
            ]
        )
        vals = geo.det_values(pts)
        assert vals[0] > 1.0
        assert vals[1] == 0.0

    def test_sampling_rejects_failing_points(self):
        m = catalog_metric("schwarzschild")
        bounds = list(m.domain)
        bounds[1] = (1.9, 2.1)  # straddles the horizon; most draws still fine
        geo = workspace(dataclasses.replace(m, domain=tuple(bounds)))
        pts = sample_for(geo, 10, seed=1)
        assert np.all(geo.det_values(pts) > DET_FLOOR)

    def test_workspace_is_cached_per_spec(self):
        spec = catalog_metric("minkowski")
        assert workspace(spec) is workspace(spec)


class TestLifetime:
    """A workspace and its expression nodes live as long as their metric."""

    @staticmethod
    def generated_metric(k: int) -> MetricSpec:
        a, b = 0.01 * (k + 1), 0.003 * (k + 2)
        text = "\n".join([
            "dim = 4",
            "coords = t, x, y, z",
            *(f"domain {c} = -0.5 .. 0.5" for c in "txyz"),
            f"g[0][0] = -1 + {a}*x^2",
            f"g[0][1] = {b}*y*z",
            f"g[1][1] = exp({b}*t)",
            f"g[2][2] = 1 + {a}*t*z",
            f"g[3][3] = 1 + {b}*sin(x)",
        ])
        return parse_metric_text(text, f"generated{k}")

    def test_intern_table_does_not_grow_with_the_number_of_metrics(self):
        sizes = []
        for k in range(4):
            geo = workspace(self.generated_metric(k))
            geo.eval_fields({"weyl": geo.weyl, "nric": geo.nabla_ricci}, sample(geo, 4))
            del geo
            # the collector does not see into numpy object arrays, so nodes on
            # derivative-memo cycles (exp, sin and cos) go one collection after
            # their fields
            gc.collect()
            gc.collect()
            sizes.append(len(exprlib._intern))
        assert max(sizes[1:]) <= sizes[0], sizes

    def test_polynomial_metric_goes_in_one_collection(self):
        # no node of a polynomial metric refers to itself through a memo, so
        # the first full collection after the metric is dropped frees them all
        gc.collect()
        before = len(exprlib._intern)
        m = parse_metric_text("\n".join([
            "dim = 4",
            "coords = t, x, y, z",
            *(f"domain {c} = -0.5 .. 0.5" for c in "txyz"),
            "g[0][0] = -1 + 0.01*x^2",
            "g[0][1] = 0.006*y*z",
            "g[1][1] = 1 + 0.006*t^2",
            "g[2][2] = 1 + 0.01*t*z",
            "g[3][3] = 1 + 0.006*x*y",
        ]), "polynomial")
        geo = workspace(m)
        geo.eval_fields({"weyl": geo.weyl, "nric": geo.nabla_ricci}, sample(geo, 4))
        assert len(exprlib._intern) > before
        del geo, m
        gc.collect()
        assert len(exprlib._intern) <= before

    def test_workspace_dies_with_its_metric(self):
        m = self.generated_metric(0)
        ref = weakref.ref(workspace(m))
        assert workspace(m) is ref()
        del m
        gc.collect()
        assert ref() is None
