"""Curvature from the metric's 3-jet (:mod:`wstar.jet`).

``check`` and ``classify`` build no symbolic curvature: the jet tape holds
g, ∂g and ∂²g, and one leaf tape over the jet values and a numeric g^{-1}
gives Γ, R_{ijkl} and Ricci.  These tests pin what that route promises
besides its values (``test_forward_derivatives.py`` and
``test_sympy_oracle.py`` check those): which symbolic fields a command
builds, which tapes it compiles, how an evaluation error names the metric
component and the point, the symmetries of the expanded curvature, and
where the recurrence fit evaluates.  The recurrence fit's own pass, which
differentiates the leaf tape's Ricci outputs, is compared here with the
full curvature pass and the symbolic Ricci and ∇Ricci.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from wstar import cli, geometry
from wstar.catalog import CATALOG_NAMES, catalog_metric
from wstar.checks import CheckContext, classification, pairings, recurrence_fit
from wstar.geometry import workspace
from wstar.jet import Jet, by_symmetry
from wstar.matter import FieldEquationConfig
from wstar.metricfile import load_metric, parse_metric_text
from wstar.tape import Tape, TapeEvalError

from test_forward_derivatives import _perturbation, perturbed_minkowski

CFG = FieldEquationConfig()


def metric_text(**components) -> str:
    g = {"g00": "-1", "g11": "1", "g22": "1", "g33": "1", **components}
    return "\n".join([
        "dim = 4", "coords = t, x, y, z",
        *(f"domain {c} = -1 .. 1" for c in "txyz"),
        *(f"g[{k[1]}][{k[2]}] = {v}" for k, v in g.items()),
    ])


SYMBOLIC_CURVATURE = ("inverse_metric", "christoffel", "riemann13", "riemann04", "ricci",
                      "scalar_expr", "weyl", "wstar04", "wstar_bundle")


@pytest.mark.parametrize("name", ["schwarzschild", "perturbed_flat"])
def test_commands_build_no_symbolic_curvature(name, monkeypatch, capsys):
    text = cli.catalog._TEXTS[name]
    metric = parse_metric_text(text, name)  # a fresh workspace, not the catalog's
    monkeypatch.setattr(cli, "load_metric", lambda source: metric)
    for command in (["check", "--checks", "all"], ["classify"]):
        cli.main(command + ["--metric", name, "--points", "8", "--no-timestamp"])
    capsys.readouterr()
    built = set(workspace(metric)._cache)
    assert "jet" in built
    assert not built & set(SYMBOLIC_CURVATURE), built
    assert not any(key.startswith(("energy_momentum", "nabla_")) for key in built), built


def test_check_and_classify_compile_one_leaf_tape(monkeypatch, capsys):
    text = cli.catalog._TEXTS["flrw_dust"]
    metric = parse_metric_text(text, "flrw_dust")  # a fresh workspace, not the catalog's
    monkeypatch.setattr(cli, "load_metric", lambda source: metric)
    compiled, seeded, where = [], [], ["curvature"]
    compile_tape, run, ricci = geometry.compile_tape, Tape.run, Jet.ricci

    def counting(*args, **kwargs):
        compiled.append(compile_tape(*args, **kwargs))
        return compiled[-1]

    def spy_run(self, points, params=None, diff=None, seeds=None, coords=None):
        if seeds is not None:  # a leaf tape run: its inputs are jet values
            seeded.append((where[-1], self))
        return run(self, points, params, diff, seeds, coords)

    def spy_ricci(self, points):
        where.append("ricci")
        try:
            return ricci(self, points)
        finally:
            where.pop()

    monkeypatch.setattr(geometry, "compile_tape", counting)
    monkeypatch.setattr(Tape, "run", spy_run)
    monkeypatch.setattr(Jet, "ricci", spy_ricci)
    for command in (["check", "--checks", "all"], ["classify"]):
        cli.main(command + ["--metric", "flrw_dust", "--points", "8", "--no-timestamp"])
    capsys.readouterr()
    geo = workspace(metric)
    assert len(compiled) == 3  # det g, the jet and the leaf tape
    assert compiled[1] is geo.jet.tape
    assert {place for place, _ in seeded} == {"curvature", "ricci"}
    assert {id(tape) for _, tape in seeded} == {id(compiled[2])}
    assert [key for key in geo._cache if "tape" in key] == ["jet_leaf_tape"]


def test_a_failed_derivative_is_named_with_its_point(tmp_path):
    # sqrt(x^2) has a finite value and no finite slope at x = 0
    path = tmp_path / "kinked.metric"
    path.write_text(metric_text(g11="1 + 0.1*sqrt(x^2)"))
    metric = load_metric(str(path))
    pts = np.array([[0.1, 0.3, 0.2, 0.3], [0.1, 0.0, 0.2, 0.3]])
    with pytest.raises(TapeEvalError) as info:
        CheckContext(metric, pts, CFG).get("ric")
    err = info.value
    assert (err.point_index, err.coordinate, err.label) == (1, "x", "∂_x ∂_x g[1][1]")
    assert str(err) == ("partial derivative along x is not finite for ∂_x ∂_x g[1][1]"
                        " in 'sqrt(x1^2)' at t=0.1, x=0, y=0.2, z=0.3 (point #1)")
    # the first jet output whose value fails there is ∂_x g = 0.1 x / sqrt(x^2)
    jet = workspace(metric).jet
    with pytest.raises(TapeEvalError, match=r"left the domain for ∂_x g\[1\]\[1\] .* x=0, "):
        jet.tape.run(pts, {}, coords=metric.coords)


def test_a_failed_curvature_partial_is_named_with_its_sample_point():
    # at x = 1e-110, ∂g^{11} = −2x / x^4 overflows while g, ∂g and ∂²g stay finite,
    # so the leaf tape fails, in the second block of points
    metric = parse_metric_text(metric_text(g11="x^2", g22="1 + x^2"), "steep")
    pts = np.tile([0.1, 0.5, 0.2, 0.3], (70, 1))
    pts[66, 1] = 1e-110
    with pytest.raises(TapeEvalError) as info:
        CheckContext(metric, pts, CFG).get("ric")
    assert (info.value.point_index, info.value.coordinate) == (66, "x")
    assert str(info.value).endswith("at t=0.1, x=1e-110, y=0.2, z=0.3 (point #66)")


def test_a_singular_metric_is_an_evaluation_error():
    metric = parse_metric_text(metric_text(g11="x^2"), "degenerate")
    pts = np.array([[0.1, 0.5, 0.2, 0.3], [0.1, 0.0, 0.2, 0.3]])
    with pytest.raises(np.linalg.LinAlgError, match=r"singular at t=0.1, x=0, .* \(point #1\)"):
        CheckContext(metric, pts, CFG).get("g")
    assert issubclass(np.linalg.LinAlgError, cli.EVAL_ERRORS)


def test_the_jet_keeps_only_nonzero_components():
    jet = workspace(catalog_metric("schwarzschild")).jet
    # g_00, g_11, g_22, g_33; ∂_r of each and ∂_θ g_33; the five second partials
    # along r and θ, and ∂_θ ∂_θ g_33
    assert jet.tape.labels[:4] == ("g[0][0]", "g[1][1]", "g[2][2]", "g[3][3]")
    assert jet.tape.n_outputs == 4 + 5 + 6
    assert jet.axes == [1, 2]
    assert workspace(catalog_metric("minkowski")).jet.axes == []


@pytest.mark.parametrize("n", [3, 4, 5])
def test_by_symmetry_has_the_curvature_symmetries_exactly(n):
    count = {3: 6, 4: 21, 5: 55}[n]
    x = by_symmetry(np.random.default_rng(n).standard_normal((3, count, 2)))
    assert x.shape == (3,) + (n,) * 4 + (2,)
    assert np.array_equal(x.swapaxes(1, 2), -x)
    assert np.array_equal(x.swapaxes(3, 4), -x)
    assert np.array_equal(x.transpose(0, 3, 4, 1, 2, 5), x)


def test_recurrence_displaces_only_along_the_coordinates_g_depends_on(monkeypatch):
    metric = catalog_metric("flrw_dust")
    ctx = CheckContext(metric, cli.sample_for(workspace(metric), 8, 42), CFG)
    seen = []
    ricci = Jet.ricci

    def spy(self, points):
        seen.append(np.asarray(points).copy())
        return ricci(self, points)

    monkeypatch.setattr(Jet, "ricci", spy)
    fit = recurrence_fit(ctx)
    (displaced,) = seen
    assert displaced.shape == (2 * 8, 4)  # t + h and t - h only
    assert np.array_equal(displaced[:, 1:], np.tile(ctx.points[:, 1:], (2, 1)))
    assert fit.applicable and fit.closedness_residual is not None


def assert_ricci_leaf_tape_agrees(metric, points):
    # the recurrence fit's own route (Jet.ricci, which differentiates the leaf
    # tape's Ricci outputs) against the full curvature pass and the symbolic fields
    geo = workspace(metric)
    pts = cli.sample_for(geo, points, 42)
    ctx = CheckContext(metric, pts, CFG)
    symbolic = geo.eval_fields({"ric": geo.ricci, "nric": geo.nabla_ricci}, pts)
    for got, name in zip(geo.jet.ricci(pts), ("ric", "nric")):
        for want in (ctx.get(name), symbolic[name]):
            assert got.shape == want.shape, name
            gap = float(np.max(np.abs(got - want)))
            assert gap <= 1e-10 * (1.0 + float(np.max(np.abs(want)))), (name, gap)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_ricci_leaf_tape_matches_the_other_routes_on_the_catalog(name):
    assert_ricci_leaf_tape_agrees(catalog_metric(name), 70)  # a full block and a tail


@given(terms=_perturbation)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_ricci_leaf_tape_matches_the_other_routes_on_generated_metrics(terms):
    assert_ricci_leaf_tape_agrees(parse_metric_text(perturbed_minkowski(terms), "generated"), 4)


def test_classify_forms_no_weyl_field():
    metric = catalog_metric("schwarzschild")
    ctx = CheckContext(metric, cli.sample_for(workspace(metric), 8, 42), CFG)
    classification(ctx)
    pairings(ctx)
    formed = {"w13", "weyl", "nweyl"}
    assert not formed & set(ctx._vals)
    assert "krupka" not in vars(ctx)
    # the two checks that read W*^h_{jkl} and ∇Weyl form them, and hold none
    for name in ("krupka_oracle_match", "weyl_divergence"):
        ctx.check(name)
    assert not formed & set(ctx._vals)
    w13 = np.einsum("phi,pijkl->phjkl", ctx.get("ginv"), ctx.get("w04"))
    assert np.allclose(ctx.krupka[:, 0], np.max(np.abs(w13), axis=(1, 2, 3, 4)),
                       rtol=1e-14, atol=0)
