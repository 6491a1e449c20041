"""Curvature from the metric's 3-jet, against the symbolic fields.

``check`` and ``classify`` read every field from the metric's 3-jet: the jet
tape gives g, ∂g and ∂²g, its tangent mode ∂³g, and a leaf tape over those
values and a numeric g^{-1} gives Γ and R_{ijkl} with their partials (see
:class:`wstar.jet.Jet`).  The symbolic fields (``geo.ricci``, the W*
bundle, ``geo.weyl``, ``energy_momentum``, and the covariant derivatives
``grad_scalar``, ``nabla_ricci``, ``_nabla_wstar04`` and those of Weyl and
T) are the oracle: on every catalog metric and on
generated perturbations of Minkowski space each field of
:func:`wstar.jet.curvature_fields`, R_{ijkl} from its symmetry classes
``rc``, and W*^h_{jkl}, Weyl and ∇Weyl as the checks form them from those
fields, agree within
1e-10·(1 + max|X|).  The kernel tests pin the tangent mode itself: its value
lanes are bit-identical to value mode, unit seeds reproduce the unseeded
partials bit for bit, every opcode's chain rule matches the symbolic
derivative, and a partial that is not finite where its value is (``sqrt`` at
0) fails its point with the coordinate named.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wstar import backend, wstar as ws
from wstar.catalog import CATALOG_NAMES, catalog_metric
from wstar.cli import main, sample_for
from wstar.exprlib import differentiate, parse
from wstar.geometry import workspace
from wstar.jet import FIELDS, _raise_first, _weyl, by_symmetry, curvature_fields
from wstar.matter import FieldEquationConfig, energy_momentum, energy_momentum_values
from wstar.metricfile import parse_metric_text
from wstar.tape import TapeEvalError, compile_tape

from test_exprlib import PARAMS, expressions, smooth_expressions

COORDS = ("t", "x", "y", "z")
CFG = FieldEquationConfig()

def nabla_weyl(geo):
    return geo.cached("nabla_weyl", lambda: geo.covariant_derivative(geo.weyl))


def nabla_energy_momentum(m, geo):
    """∇T at the default configuration, under the cache key of that configuration."""
    return geo.cached(f"nabla_energy_momentum[k={CFG.k!r},lam={CFG.lam!r}]",
                      lambda: geo.covariant_derivative(energy_momentum(m, CFG)))


# context name -> the symbolic field of the same values
SYMBOLIC = {
    "g": lambda m, geo: geo.g,
    "ginv": lambda m, geo: geo.ginv,
    "gam": lambda m, geo: geo.christoffel,
    "r13": lambda m, geo: geo.riemann13,
    "ric": lambda m, geo: geo.ricci,
    "R": lambda m, geo: geo.scalar_field,
    "w04": lambda m, geo: ws.wstar_tensor(m).wstar04,
    "w13": lambda m, geo: ws.wstar_tensor(m).wstar13,
    "w02": lambda m, geo: ws.wstar_tensor(m).wstar02,
    "weyl": lambda m, geo: geo.weyl,
    "t": lambda m, geo: energy_momentum(m, CFG),
    "gradR": lambda m, geo: geo.grad_scalar,
    "nric": lambda m, geo: geo.nabla_ricci,
    "dw": lambda m, geo: ws._nabla_wstar04(geo),
    "nweyl": lambda m, geo: nabla_weyl(geo),
    "nt": lambda m, geo: nabla_energy_momentum(m, geo),
}


# fields curvature_fields does not give -> how the checks that read them form them
FORMED = {
    "w13": lambda get: _raise_first(get("ginv"), get("w04")),
    "weyl": lambda get: _weyl(get("rc"), get("g"), get("ric"), get("R")),
    "nweyl": lambda get: _weyl(get("nrc"), get("g"), get("nric"), get("gradR")),
    "t": lambda get: energy_momentum_values(get("ric"), get("R"), get("g"), CFG),
    "nt": lambda get: energy_momentum_values(get("nric"), get("gradR"), get("g"), CFG),
}


def test_every_served_field_has_an_oracle():
    assert set(SYMBOLIC) == set(FIELDS) | set(FORMED)
    assert not set(FIELDS) & set(FORMED)


def assert_routes_agree(metric, points):
    geo = workspace(metric)
    pts = sample_for(geo, points, 42)
    vals = curvature_fields(geo, pts)
    fields = {n: f(metric, geo) for n, f in SYMBOLIC.items()}
    symbolic = geo.eval_fields({**fields, "rc": geo.riemann04}, pts)
    for name, want in symbolic.items():
        # R_{ijkl} is served by its symmetry classes
        got = (by_symmetry(vals[name]) if name == "rc" else
               FORMED[name](vals.get) if name in FORMED else vals[name])
        assert got.shape == want.shape, name
        gap = float(np.max(np.abs(got - want)))
        assert gap <= 1e-10 * (1.0 + float(np.max(np.abs(want)))), (name, gap)


@pytest.mark.parametrize("metric", CATALOG_NAMES)
def test_forward_matches_symbolic_on_the_catalog(metric):
    assert_routes_agree(catalog_metric(metric), 8)


# a perturbation term: a small coefficient times a monomial or an exponential
_term = st.one_of(
    st.tuples(st.sampled_from(COORDS), st.integers(1, 2),
              st.sampled_from(COORDS), st.integers(0, 1)).map(
        lambda c: f"{c[0]}^{c[1]}*{c[2]}^{c[3]}"),
    st.tuples(st.sampled_from(["", "-"]), st.sampled_from(COORDS)).map(
        lambda c: f"(exp({c[0]}{c[1]}) - 1)"),
)
_perturbation = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([0.02, 0.05]), _term),
    min_size=1, max_size=3, unique_by=lambda e: (min(e[:2]), max(e[:2])),
)


def perturbed_minkowski(terms) -> str:
    entries = {(i, i): ["-1" if i == 0 else "1"] for i in range(4)}
    for i, j, eps, term in terms:
        entries.setdefault((min(i, j), max(i, j)), []).append(f"{eps}*{term}")
    return "\n".join([
        "dim = 4",
        "coords = " + ", ".join(COORDS),
        *(f"domain {c} = -0.5 .. 0.5" for c in COORDS),
        *(f"g[{i}][{j}] = " + " + ".join(parts) for (i, j), parts in sorted(entries.items())),
    ])


@given(terms=_perturbation)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_forward_matches_symbolic_on_generated_metrics(terms):
    metric = parse_metric_text(perturbed_minkowski(terms), "generated")
    assert_routes_agree(metric, 4)
    del metric  # its workspace and nodes go with it


def union_tape(name):
    """One tape of every symbolic field the checks read, with Γ."""
    metric = catalog_metric(name)
    geo = workspace(metric)
    fields = [SYMBOLIC[n](metric, geo) for n in ("g", "ginv", "ric", "R", "r13",
                                                   "w04", "w13", "w02", "t")]
    return geo, geo._tape_for(fields + [geo.riemann04, geo.christoffel])


@pytest.mark.parametrize("metric", CATALOG_NAMES)
def test_value_lanes_equal_value_mode(metric):
    geo, tape = union_tape(metric)
    pts = sample_for(geo, 70, 42)  # a full chunk and a tail
    pvec = tape.param_vector(dict(geo.metric.params))
    vals, err = backend.run_tape(tape.code, tape.a, tape.b, tape.cval, pts, pvec, tape.outputs)
    diff = tape.outputs[: tape.n_outputs // 2]
    tvals, partials, terr, _ = backend.run(tape.schedule, pts, pvec, tape.outputs, diff,
                                           activity=tape.activity(4, diff, False))
    assert np.array_equal(tvals.view(np.int64), vals.view(np.int64))
    assert np.array_equal(terr, err)
    assert partials.shape == (70, diff.shape[0], 4)


@pytest.mark.parametrize("metric", CATALOG_NAMES)
def test_unit_seeds_reproduce_the_coordinate_partials(metric):
    geo, tape = union_tape(metric)
    pts = sample_for(geo, 70, 42)
    params = dict(geo.metric.params)
    diff = np.arange(tape.n_outputs)
    want = tape.run(pts, params, diff)
    got = tape.run(pts, params, diff, np.broadcast_to(np.eye(4), (70, 4, 4)))
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def tangents(src, pts, params=None):
    """(values, partials, err, lane) of one expression's tape."""
    tape = compile_tape([parse(src, COORDS, PARAMS)], 4, PARAMS)
    return tape.run(np.asarray(pts, dtype=float), params or {"M": 1.0, "H": 0.5}, [0])


OPCODE_SOURCES = [
    "-t", "t + x", "t - x", "t * x", "t / x", "sin(t)", "cos(t)", "tan(t)",
    "exp(t)", "ln(t)", "sqrt(t)", "sinh(t)", "cosh(t)", "t^3", "t^(-2)",
    "t^(2/3)", "M * t * x", "sqrt(H) * y",
]


@pytest.mark.parametrize("src", OPCODE_SOURCES)
def test_each_chain_rule_matches_the_symbolic_derivative(src):
    pts = np.random.default_rng(7).uniform(0.2, 1.2, size=(5, 4))
    params = {"M": 1.0, "H": 0.5}
    e = parse(src, COORDS, PARAMS)
    want = compile_tape([differentiate(e, k) for k in range(4)], 4, PARAMS).run(
        pts, params, coords=())[0]
    _, partials, err, _ = tangents(src, pts, params)
    assert np.all(err == -1)
    np.testing.assert_allclose(partials[:, 0, :], want, rtol=1e-13, atol=1e-15)


@given(e=smooth_expressions(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_tangents_match_symbolic_derivatives(e, seed):
    pts = np.random.default_rng(seed).uniform(-2, 2, size=(6, 4))
    tape = compile_tape([e], 4)
    want, _, werr, _ = compile_tape([differentiate(e, k) for k in range(4)], 4).run(pts)
    _, partials, err, _ = tape.run(pts, diff=[0])
    ok = (err == -1) & (werr == -1)
    got, want = partials[ok, 0, :], want[ok]
    assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))


@given(e=expressions(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_tangent_mode_fails_no_later_than_value_mode(e, seed):
    # a point that fails in value mode fails in tangent mode at the same or an
    # earlier instruction (a partial can fail where the value does not); where
    # tangent mode succeeds the values are those of value mode, bit for bit
    tape = compile_tape([e], 4, PARAMS)
    pts = np.random.default_rng(seed).uniform(-2, 2, size=(8, 4))
    pts[0] = 0.0
    params = {"M": 1.0, "H": 0.5}
    vals, _, err, _ = tape.run(pts, params)
    tvals, _, terr, _ = tape.run(pts, params, [0])
    failed = err >= 0
    assert np.all(terr[failed] >= 0) and np.all(terr[failed] <= err[failed])
    ok = terr == -1
    assert np.array_equal(tvals[ok].view(np.int64), vals[ok].view(np.int64))


class TestNonFinitePartials:
    def test_sqrt_at_zero_flags_the_point(self):
        pts = [[0.0, 1.0, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0]]
        vals, partials, err, lane = tangents("sqrt(t)", pts)
        tape = compile_tape([parse("sqrt(t)", COORDS)], 4)
        plain, _, plain_err, _ = tape.run(np.array(pts))
        assert plain[0, 0] == 0.0 and plain_err[0] == -1  # the value is fine
        assert err[0] >= 0 and lane[0] == 0
        assert np.isnan(vals[0, 0]) and np.all(np.isnan(partials[0]))
        assert err[1] == -1 and lane[1] == -1
        assert partials[1, 0, 0] == pytest.approx(0.5 / np.sqrt(0.5))

    def test_error_names_the_expression_and_the_coordinate(self):
        tape = compile_tape([parse("x * sqrt(y)", COORDS)], 4)
        pts = np.array([[0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.0, 0.4]])
        with pytest.raises(TapeEvalError) as info:
            tape.run(pts, {}, [0], coords=COORDS)
        assert info.value.point_index == 1
        assert info.value.coordinate == "y"
        assert info.value.expr.kind == "sqrt"
        assert "along y" in str(info.value) and "sqrt(x2)" in str(info.value)

    def test_value_failure_has_no_coordinate(self):
        tape = compile_tape([parse("ln(t)", COORDS)], 4)
        with pytest.raises(TapeEvalError) as info:
            tape.run(np.zeros((1, 4)), {}, [0], coords=COORDS)
        assert info.value.coordinate is None
        assert "left the domain" in str(info.value)

    def test_only_partials_of_differentiated_outputs_count(self):
        # sqrt(t) is an output, but only x is differentiated
        tape = compile_tape([parse("sqrt(t)", COORDS), parse("x", COORDS)], 4)
        _, partials, err, _ = tape.run(np.zeros((1, 4)), diff=[1])
        assert err[0] == -1
        assert partials[0, 0].tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_parameter_only_subexpressions_have_zero_partials(self):
        # sqrt(H) at H = 0 has no finite slope, but it depends on no coordinate
        _, partials, err, _ = tangents("sqrt(H) * y + x", [[0.1, 0.2, 0.3, 0.4]],
                                       {"M": 1.0, "H": 0.0})
        assert err[0] == -1
        assert partials[0, 0].tolist() == [0.0, 1.0, 0.0, 0.0]


# x*y - y*x is 0 at every point without being folded away, so its square
# root has a finite value and no finite partial along x or y anywhere; its
# symbolic derivative folds to 0, so Γ and the curvature carry its value
SQRT_OF_ZERO = "\n".join([
    "dim = 4",
    "coords = t, x, y, z",
    "g[0][0] = -1",
    "g[1][1] = (1 + sqrt(x*y - y*x)) * (1 + 0.1*t^2)",
    "g[2][2] = 1",
    "g[3][3] = 1",
])


def test_commands_report_a_failed_partial(tmp_path, capsys):
    path = tmp_path / "sqrt0.metric"
    path.write_text(SQRT_OF_ZERO)
    assert main(["classify", "--metric", str(path), "--points", "4", "--no-timestamp"]) == 3
    err = capsys.readouterr().err
    assert "partial derivative along x is not finite" in err
    assert "sqrt(" in err and "(point #0)" in err
