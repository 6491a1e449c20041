"""Curvature from the metric's 3-jet (:mod:`wstar.jet`).

``check`` and ``classify`` build no symbolic curvature: the jet tape holds
g, ∂g and ∂²g, and one leaf tape over the jet values and a numeric g^{-1}
gives Γ and R_{ijkl} by symmetry class.  These tests pin what that route
promises besides its values (``test_forward_derivatives.py`` and
``test_sympy_oracle.py`` check those): which symbolic fields a command
builds, which tapes it compiles and how large the leaf tape is, how an
evaluation error names the metric component and the point, the symmetries
of the expanded curvature, and where the recurrence fit evaluates.  The
Ricci and ∇Ricci the recurrence fit reads at its displaced points are
compared here with the sample pass's fields and the symbolic ones.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from wstar import backend, checks, cli, geometry, jet
from wstar.catalog import CATALOG_NAMES, catalog_metric
from wstar.checks import CheckContext, recurrence_fit
from wstar.geometry import workspace
from wstar.exprlib import mul, parse
from wstar.jet import Jet, _class_index, by_symmetry, curvature_fields
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
    compiled, seeded, where = [], [], ["sample"]
    compile_tape, run, closedness = geometry.compile_tape, Tape.run, checks._closedness

    def counting(*args, **kwargs):
        compiled.append(compile_tape(*args, **kwargs))
        return compiled[-1]

    def spy_run(self, points, params=None, diff=None, seeds=None, coords=None):
        if seeds is not None:  # a leaf tape run: its inputs are jet values
            seeded.append((where[0], where[-1], self))
        return run(self, points, params, diff, seeds, coords)

    def spy_closedness(*args):  # the recurrence fit's displaced pass
        where.append("displaced")
        try:
            return closedness(*args)
        finally:
            where.pop()

    monkeypatch.setattr(geometry, "compile_tape", counting)
    monkeypatch.setattr(Tape, "run", spy_run)
    monkeypatch.setattr(checks, "_closedness", spy_closedness)
    for command in (["check", "--checks", "all"], ["classify"]):
        where[0] = command[0]
        cli.main(command + ["--metric", "flrw_dust", "--points", "8", "--no-timestamp"])
    capsys.readouterr()
    geo = workspace(metric)
    assert len(compiled) == 3  # det g, the jet and the leaf tape
    assert compiled[1] is geo.jet.tape
    # classify never prints the recurrence closedness, so it runs no displaced pass
    assert {(command, place) for command, place, _ in seeded} == {
        ("check", "check"), ("check", "displaced"), ("classify", "classify")}
    assert {id(tape) for *_, tape in seeded} == {id(compiled[2])}
    assert [key for key in geo._cache if "tape" in key] == ["jet_leaf_tape"]


@pytest.mark.parametrize("command,passes", [
    (["check", "--checks", "all"], ["sample", (2 * 8, 4)]),  # t + h and t - h
    (["classify"], ["sample"]),
])
def test_only_check_runs_the_curvature_pass_at_displaced_points(command, passes,
                                                                monkeypatch, capsys):
    # check prints the recurrence 1-form's closedness, which is formed at
    # displaced copies of the sample points; classify prints no such reason
    sample = cli.sample_for(workspace(catalog_metric("flrw_dust")), 8, 42)
    seen, curvature = [], Jet.curvature

    def spy(self, points):
        seen.append("sample" if np.array_equal(points, sample) else np.shape(points))
        return curvature(self, points)

    monkeypatch.setattr(Jet, "curvature", spy)
    cli.main(command + ["--metric", "flrw_dust", "--points", "8", "--no-timestamp"])
    capsys.readouterr()
    assert seen == passes


def test_a_failed_derivative_is_named_with_its_point(tmp_path):
    # sqrt(x^2) has a finite value and no finite slope at x = 0
    path = tmp_path / "kinked.metric"
    path.write_text(metric_text(g11="1 + 0.1*sqrt(x^2)"))
    metric = load_metric(str(path))
    pts = np.array([[0.1, 0.3, 0.2, 0.3], [0.1, 0.0, 0.2, 0.3]])
    with pytest.raises(TapeEvalError) as info:
        CheckContext(metric, pts, CFG).check("ricci_flat")
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
    ctx = CheckContext(metric, pts, CFG)
    with pytest.raises(TapeEvalError) as info:
        ctx.check("ricci_flat")
    assert (info.value.point_index, info.value.coordinate) == (66, "x")
    assert str(info.value).endswith("at t=0.1, x=1e-110, y=0.2, z=0.3 (point #66)")
    # the error is kept: every check that reads a step raises it again
    with pytest.raises(TapeEvalError) as again:
        ctx.check("t_semisymmetric")
    assert str(again.value) == str(info.value)


def test_a_failed_jet_component_in_a_later_block_is_named_with_its_sample_point():
    # the jet tape runs per block of 64 points: the error names the sample index
    metric = parse_metric_text(metric_text(g11="1 + 0.1*sqrt(x^2)"), "kinked")
    pts = np.tile([0.1, 0.3, 0.2, 0.3], (70, 1))
    pts[66, 1] = 0.0
    with pytest.raises(TapeEvalError) as info:
        CheckContext(metric, pts, CFG).check("ricci_flat")
    err = info.value
    assert (err.point_index, err.coordinate, err.label) == (66, "x", "∂_x ∂_x g[1][1]")
    assert str(err) == ("partial derivative along x is not finite for ∂_x ∂_x g[1][1]"
                        " in 'sqrt(x1^2)' at t=0.1, x=0, y=0.2, z=0.3 (point #66)")


def test_a_singular_metric_in_a_later_block_is_named_with_its_sample_point():
    metric = parse_metric_text(metric_text(g11="x^2"), "degenerate")
    pts = np.tile([0.1, 0.5, 0.2, 0.3], (70, 1))
    pts[66, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"singular at t=0.1, x=0, y=0.2, z=0.3 \(point #66\)$"):
        CheckContext(metric, pts, CFG).check("ricci_flat")


def test_a_singular_metric_is_an_evaluation_error():
    metric = parse_metric_text(metric_text(g11="x^2"), "degenerate")
    pts = np.array([[0.1, 0.5, 0.2, 0.3], [0.1, 0.0, 0.2, 0.3]])
    with pytest.raises(np.linalg.LinAlgError, match=r"singular at t=0.1, x=0, .* \(point #1\)"):
        CheckContext(metric, pts, CFG).check("ricci_flat")
    assert issubclass(np.linalg.LinAlgError, cli.EVAL_ERRORS)


def test_a_singular_displaced_copy_is_named_with_its_sample_point(monkeypatch):
    # x^3 vanishes at the copy x - 1 of a point at x = 1: points #66 and #68,
    # in the second block of sample points; the first in sample order is named
    metric = parse_metric_text(metric_text(g22="x^3"), "cusp")
    pts = np.tile([0.1, 0.5, 0.2, 0.3], (70, 1))
    pts[[66, 68], 1] = 1.0
    monkeypatch.setattr(checks, "_FD_STEP", 1.0)
    fit = recurrence_fit(CheckContext(metric, pts, CFG))
    with pytest.raises(np.linalg.LinAlgError, match=(
            r"^the metric is singular at x - 1 from t=0.1, x=1, y=0.2, z=0.3 \(point #66\)$")):
        fit.closedness_residual


def test_the_jet_keeps_only_nonzero_components():
    jet = workspace(catalog_metric("schwarzschild")).jet
    # g_00, g_11, g_22, g_33; ∂_r of each and ∂_θ g_33; the five second partials
    # along r and θ, and ∂_θ ∂_θ g_33
    assert jet.tape.labels[:4] == ("g[0][0]", "g[1][1]", "g[2][2]", "g[3][3]")
    assert jet.tape.n_outputs == 4 + 5 + 6
    assert jet.axes == [1, 2]
    assert workspace(catalog_metric("minkowski")).jet.axes == []


# the leaf tape's instructions per catalog metric
LEAF_INSTRUCTIONS = {"minkowski": 1, "schwarzschild": 80, "desitter_flat": 45, "flrw_dust": 45,
                     "perturbed_flat": 697}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_the_leaf_tape_outputs_gamma_and_the_curvature_classes_only(name):
    geo = workspace(catalog_metric(name))
    tape, n = geo.jet._leaf_tape, geo.dim
    assert tape.n_outputs == n * n * (n + 1) // 2 + _class_index(n).shape[1]
    assert tape.n_instructions == LEAF_INSTRUCTIONS[name]


def assert_leaf_tape_skips_only_zero_products(geo):
    # a product with a structural zero is 0 before exprlib.mul folds it:
    # the tape is the one built with mul for every product
    def program(tape):
        return [tape.code, tape.a, tape.b, tape.cval, tape.outputs]

    skipping = program(geo.jet._compile_leaf_tape())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jet, "_product", mul)
        folding = program(geo.jet._compile_leaf_tape())
    for got, want in zip(skipping, folding):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_the_leaf_tape_skips_only_zero_products_on_the_catalog(name):
    assert_leaf_tape_skips_only_zero_products(workspace(catalog_metric(name)))


@given(terms=_perturbation)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_leaf_tape_skips_only_zero_products_on_generated_metrics(terms):
    metric = parse_metric_text(perturbed_minkowski(terms), "generated")
    assert_leaf_tape_skips_only_zero_products(workspace(metric))


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
    ctx.reduced("scales"), ctx.reduced("recurrence")  # the pass over the sample points
    seen = []
    curvature = Jet.curvature

    def spy(self, points):
        seen.append(np.asarray(points).copy())
        return curvature(self, points)

    monkeypatch.setattr(Jet, "curvature", spy)
    fit = recurrence_fit(ctx)
    assert fit.applicable and not seen  # the closedness is formed on first read
    assert fit.closedness_residual is not None
    (displaced,) = seen
    assert displaced.shape == (2 * 8, 4)  # t + h and t - h only
    # each point's copies in a row: the first copy that fails is the first in sample order
    assert np.array_equal(displaced[:, 1:], np.repeat(ctx.points[:, 1:], 2, axis=0))
    t, h = ctx.points[:, 0], checks._FD_STEP
    assert np.array_equal(displaced[:, 0], np.stack([t + h, t - h], axis=1).ravel())


def assert_ricci_leaf_tape_agrees(metric, points):
    # the Ricci and ∇Ricci the recurrence fit reads at its displaced points,
    # against the sample pass's fields and the symbolic fields there
    geo = workspace(metric)
    ctx = CheckContext(metric, cli.sample_for(geo, points, 42), CFG)
    ctx.reduced("scales"), ctx.reduced("recurrence")  # the pass over the sample points
    displaced, formed = [], []
    curvature, ricci = Jet.curvature, checks.ricci_values

    def spy_curvature(self, pts):
        displaced.append(np.asarray(pts).copy())
        return curvature(self, pts)

    def spy_ricci(*args):
        formed.append(ricci(*args))
        return formed[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Jet, "curvature", spy_curvature)
        patch.setattr(checks, "ricci_values", spy_ricci)
        fit = recurrence_fit(ctx)
        fit.closedness_residual  # the displaced pass
    if not fit.applicable:  # Ricci vanishes: no point is displaced
        assert fit.reason == "Ricci tensor vanishes" and not displaced and not formed
        return
    pts = np.concatenate(displaced)  # one pass per block of sample points
    fields = curvature_fields(geo, pts)
    symbolic = geo.eval_fields({"ric": geo.ricci, "nric": geo.nabla_ricci}, pts)
    for k, name in ((1, "ric"), (2, "nric")):
        got = np.concatenate([parts[k] for parts in formed])
        assert np.array_equal(got.view(np.int64), fields[name].view(np.int64)), name
        want = symbolic[name]
        assert got.shape == want.shape, name
        gap = float(np.max(np.abs(got - want)))
        assert gap <= 1e-10 * (1.0 + float(np.max(np.abs(want)))), (name, gap)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_ricci_leaf_tape_matches_the_other_routes_on_the_catalog(name):
    # 70 sample points: the displaced points span full blocks and a tail
    assert_ricci_leaf_tape_agrees(catalog_metric(name), 70)


@given(terms=_perturbation)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_ricci_leaf_tape_matches_the_other_routes_on_generated_metrics(terms):
    assert_ricci_leaf_tape_agrees(parse_metric_text(perturbed_minkowski(terms), "generated"), 4)


def test_classify_forms_no_weyl_field(monkeypatch, capsys):
    formed = []

    def spy(name, real):
        def forming(*args):
            formed.append(name)
            return real(*args)

        return forming

    for name in ("_raise_first", "_weyl"):  # W*^h_{jkl}; Weyl and ∇Weyl
        monkeypatch.setattr(checks, name, spy(name, getattr(checks, name)))
    cli.main(["classify", "--metric", "schwarzschild", "--points", "8", "--no-timestamp"])
    capsys.readouterr()
    assert not formed
    # the two checks that read W*^h_{jkl} and ∇Weyl form them per block, and hold none
    metric = catalog_metric("schwarzschild")
    ctx = CheckContext(metric, cli.sample_for(workspace(metric), 70, 42), CFG,
                       checks=("krupka_oracle_match", "weyl_divergence"))
    for name in ("krupka_oracle_match", "weyl_divergence"):
        ctx.check(name)
    # a 64-point block of four 16-point slices, then a 6-point block: W*^h_{jkl}
    # is formed per block, ∇Weyl per slice
    assert formed == ["_raise_first"] + ["_weyl"] * 4 + ["_raise_first", "_weyl"]
    fields = curvature_fields(ctx.geo, ctx.points)
    w13 = np.einsum("phi,pijkl->phjkl", fields["ginv"], fields["w04"])
    assert np.allclose(ctx.reduced("krupka")[0], np.max(np.abs(w13), axis=(1, 2, 3, 4)),
                       rtol=1e-14, atol=0)


def jet_tape_calls(geo, pts, monkeypatch):
    """The points of every jet-tape block of one curvature pass."""
    tape, calls, run = geo.jet.tape, [], Tape.run

    def spy(self, points, params=None, diff=None, seeds=None, coords=None):
        if self is tape:
            calls.append(points)
        return run(self, points, params, diff, seeds, coords)

    with monkeypatch.context() as patch:
        patch.setattr(Tape, "run", spy)
        list(geo.jet.curvature(pts))
    return tape, calls


def assert_same_tangents(got, want):
    (_, partials, err, lane), (_, all_partials, all_err, all_lane) = got, want
    assert np.array_equal(partials.view(np.int64), all_partials.view(np.int64))
    assert np.array_equal(err, all_err) and np.array_equal(lane, all_lane)


# the groups of each catalog metric's jet tape, and those the curvature pass
# runs the chain rule of: it reads the partials of ∂²g only
JET_GROUPS = {"minkowski": (1, 0), "schwarzschild": (25, 24), "desitter_flat": (8, 8),
              "flrw_dust": (7, 5), "perturbed_flat": (8, 1)}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_the_chain_rule_skips_only_groups_no_read_partial_needs(name, monkeypatch):
    # with every output differentiated every group is needed, so nothing is
    # skipped: each subset of the jet tape's outputs must read the same bits from it
    geo = workspace(catalog_metric(name))
    jet, params = geo.jet, dict(geo.metric.params)
    tape, calls = jet_tape_calls(geo, cli.sample_for(geo, 70, 42), monkeypatch)
    assert len(calls) == 2
    assert all(tape.activity(geo.dim, tape.outputs, False)[2])
    for points in calls:
        every = tape.run(points, params, range(tape.n_outputs))
        for outputs in (jet._d2, jet._d1):
            got = tape.run(points, params, outputs)
            partials = every[1][:, outputs]
            assert_same_tangents(got, (None, partials, every[2], every[3]))
    active = tape.activity(geo.dim, tape.outputs[np.asarray(jet._d2, dtype=np.int64)], False)[2]
    assert (len(active), sum(active)) == JET_GROUPS[name]


def test_a_skipped_chain_rule_keeps_a_failing_point():
    # sqrt at 0 has an infinite slope along x: the second point fails, lane 0
    names = ("x", "y")
    tape = geometry.compile_tape([parse(e, names) for e in ("sqrt(x) * y", "y * y", "x + y")],
                                 2)
    pts = np.array([[0.5, 2.0], [0.0, 3.0], [0.25, 1.0]])
    every = tape.run(pts, None, range(3))
    assert every[2].tolist() == [-1, every[2][1], -1] and every[2][1] >= 0
    assert every[3].tolist() == [-1, 0, -1]
    for outputs in (range(0, 1), range(0, 2)):
        got = tape.run(pts, None, outputs)
        partials = every[1][:, outputs.start:outputs.stop]
        assert_same_tangents(got, (None, partials, every[2], every[3]))
    # without the sqrt among the read outputs its slope is skipped, and no point fails
    assert tape.run(pts, None, range(1, 3))[2].tolist() == [-1, -1, -1]


def test_the_activity_analysis_runs_once_per_key(monkeypatch):
    metric = parse_metric_text(cli.catalog._TEXTS["flrw_dust"], "flrw_dust")  # a fresh tape
    geo = workspace(metric)
    keys, real = [], backend._activity

    def counted(reg, groups, lanes, diff_idx, seeded):
        keys.append((lanes, diff_idx.tobytes(), seeded))
        return real(reg, groups, lanes, diff_idx, seeded)

    monkeypatch.setattr(backend, "_activity", counted)
    ctx = CheckContext(metric, cli.sample_for(geo, 130, 42), CFG)  # three blocks
    # the curvature pass over the sample points, then, for the closedness in
    # the reason, over the displaced points: eight blocks, each running the
    # jet tape and the leaf tape
    ctx.check("ricci_recurrent").reason
    tapes = (geo.jet.tape, geo.jet._leaf_tape)
    assert len(keys) == len(set(keys)) == sum(len(t._activities) for t in tapes) == 2
    for tape in tapes:
        for (lanes, diff, seeded), (idle, needed, active) in tape._activities.items():
            fresh = real(*tape.schedule, lanes, np.frombuffer(diff, dtype=np.int64), seeded)
            assert [None if a is None else a.tolist() for a in idle] == [
                None if a is None else a.tolist() for a in fresh[0]]
            assert np.array_equal(needed, fresh[1]) and active == fresh[2]
