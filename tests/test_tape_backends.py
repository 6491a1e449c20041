"""Tape compilation and kernel tests.

The tree-walking evaluator in `exprlib` is the oracle for the tape kernel,
both for the values and for which instruction a point fails at.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wstar import backend
from wstar.catalog import catalog_metric
from wstar.exprlib import EvalDomainError, Point, evaluate, parse
from wstar.geometry import workspace
from wstar.tape import Tape, TapeEvalError, compile_tape

from test_exprlib import PARAMS, expressions, smooth_expressions

KERNELS = [(backend.BACKEND, backend.run_tape)]

COORDS = ("t", "x", "y", "z")


def run_with(kernel, tape, pts, params):
    pvec = tape.param_vector(params)
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    return kernel(tape.code, tape.a, tape.b, tape.cval, pts, pvec, tape.outputs)


def tree_walk_rows(exprs, pts, params):
    """Reference values via the tree-walking evaluator; NaN where it raises."""
    rows = np.full((len(pts), len(exprs)), np.nan)
    ok = np.ones(len(pts), dtype=bool)
    for p, row in enumerate(pts):
        pt = Point(tuple(row), params)
        for j, e in enumerate(exprs):
            try:
                rows[p, j] = evaluate(e, pt)
            except EvalDomainError:
                ok[p] = False
    return rows, ok


def oracle_evaluates(node, pt) -> bool:
    """Does the tree-walking evaluator give a finite value (it raises if not)?"""
    try:
        evaluate(node, pt)
    except EvalDomainError:
        return False
    return True


FIELD_SOURCES = [
    "t^2 * sin(x) + exp(-y^2)",
    "sqrt(t^2 + x^2 + 1) / (2 + cos(z))",
    "t^(2/3) + M * sinh(x) - H * y",
    "ln(2 + t^2) * tan(x / 4)",
    "(1 + t^2)^(-1) - x * y * z",
]


@pytest.fixture(scope="module")
def field_tape():
    exprs = [parse(src, COORDS, PARAMS) for src in FIELD_SOURCES]
    return exprs, compile_tape(exprs, 4, PARAMS)


@pytest.fixture(scope="module")
def sample_points():
    rng = np.random.default_rng(20260823)
    return rng.uniform(-1.5, 1.5, size=(40, 4))


class TestCompile:
    def test_shared_subexpressions_emitted_once(self):
        # t^2 appears in both components but occupies one instruction
        exprs = [parse("t^2 + x", COORDS), parse("t^2 * y", COORDS)]
        tape = compile_tape(exprs, 4)
        pow_instrs = [i for i, op in enumerate(tape.code) if op == 16]
        assert len(pow_instrs) == 1

    def test_output_count(self, field_tape):
        _, tape = field_tape
        assert tape.n_outputs == len(FIELD_SOURCES)
        assert tape.n_instructions >= tape.n_outputs

    def test_unknown_parameter_rejected(self):
        e = parse("M * t", COORDS, ("M",))
        with pytest.raises(ValueError):
            compile_tape([e], 4, param_names=())

    def test_coordinate_out_of_range(self):
        e = parse("y", COORDS)
        with pytest.raises(ValueError):
            compile_tape([e], 2)


class TestKernels:
    @pytest.mark.parametrize("name,kernel", KERNELS, ids=[k[0] for k in KERNELS])
    def test_matches_tree_walk(self, name, kernel, field_tape, sample_points):
        exprs, tape = field_tape
        params = {"M": 1.0, "H": 0.5}
        vals, err = run_with(kernel, tape, sample_points, params)
        want, ok = tree_walk_rows(exprs, sample_points, params)
        assert np.all(err[ok] == -1)
        assert vals[ok] == pytest.approx(want[ok], rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("name,kernel", KERNELS, ids=[k[0] for k in KERNELS])
    def test_domain_failure_flags_point_not_batch(self, name, kernel):
        # ln(t) fails only at the non-positive t values
        tape = compile_tape([parse("ln(t)", COORDS)], 4)
        pts = np.zeros((3, 4))
        pts[:, 0] = [2.0, -1.0, 3.0]
        vals, err = run_with(kernel, tape, pts, {})
        assert err[0] == -1 and err[2] == -1
        assert err[1] >= 0
        assert np.isnan(vals[1, 0])
        assert vals[0, 0] == pytest.approx(np.log(2.0))
        # the failing instruction maps back to the ln node
        assert tape.nodes[int(err[1])].kind == "ln"

    @pytest.mark.parametrize("name,kernel", KERNELS, ids=[k[0] for k in KERNELS])
    def test_division_by_zero_flagged(self, name, kernel):
        tape = compile_tape([parse("1 / t", COORDS)], 4)
        pts = np.zeros((1, 4))
        vals, err = run_with(kernel, tape, pts, {})
        assert err[0] >= 0
        assert tape.nodes[int(err[0])].kind == "div"

    @given(e=expressions(), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_first_failing_instruction_matches_oracle(self, e, seed):
        # err[p] must be the first tape instruction that the tree-walking
        # evaluator cannot evaluate at that point
        tape = compile_tape([e], 4, PARAMS)
        pts = np.random.default_rng(seed).uniform(-2, 2, size=(8, 4))
        pts[0] = 0.0  # zeros reach division-by-zero and log/power domain edges
        params = {"M": 1.0, "H": 0.5}
        _, _, err, _ = tape.run(pts, params)
        for p in np.flatnonzero(err >= 0):
            pt, first = Point(tuple(pts[p]), params), int(err[p])
            assert all(oracle_evaluates(tape.nodes[i], pt) for i in range(first))
            assert not oracle_evaluates(tape.nodes[first], pt)

    @given(e=smooth_expressions())
    @settings(max_examples=60, deadline=None)
    def test_tape_matches_tree_walk_on_random_smooth(self, e):
        tape = compile_tape([e], 4)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.5, 1.5, size=(6, 4))
        vals, _, err, _ = tape.run(pts)
        want, ok = tree_walk_rows([e], pts, {})
        assume(ok.all() and np.all(np.abs(want) < 1e12))
        assert np.all(err == -1)
        assert vals == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestTapeApi:
    def test_run_with_coords_raises_with_context(self):
        tape = compile_tape([parse("sqrt(t)", COORDS)], 4)
        pts = np.zeros((2, 4))
        pts[1, 0] = -4.0
        with pytest.raises(TapeEvalError) as err:
            tape.run(pts, coords=())
        assert err.value.point_index == 1
        assert err.value.expr.kind == "sqrt"

    def test_missing_parameter(self):
        tape = compile_tape([parse("M * t", COORDS, PARAMS)], 4, PARAMS)
        with pytest.raises(TapeEvalError):
            tape.run(np.zeros((1, 4)), {"M": 1.0})

    def test_bad_point_shape(self):
        tape = compile_tape([parse("t", COORDS)], 4)
        with pytest.raises(ValueError):
            tape.run(np.zeros((3, 2)))

    def test_empty_output_list(self):
        tape = compile_tape([], 4)
        vals, _, err, _ = tape.run(np.zeros((3, 4)))
        assert vals.shape == (3, 0)
        assert np.all(err == -1)

    def test_value_mode_calls_run_tape_looked_up_per_call(self, monkeypatch):
        # perfbench/tracer.py counts the value-mode kernel by wrapping
        # backend.run_tape in place; tangent mode does not go through it
        calls, real = [], backend.run_tape

        def counted(*args):
            calls.append(len(args))
            return real(*args)

        monkeypatch.setattr(backend, "run_tape", counted)
        pts = np.array([[0.0, 4.0, 1.2, 0.5], [1.0, 6.0, 0.4, 2.0]])
        workspace(catalog_metric("schwarzschild")).det_values(pts)
        assert calls == [7]
        compile_tape([parse("t * sqrt(x)", COORDS)], 4).run(pts, diff=[0])
        assert calls == [7]


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 130, 1024])
def test_blocks_cover_each_point_once(count):
    parts = backend.blocks(count)
    assert all(part.step is None and 0 < part.stop - part.start <= 64 for part in parts)
    assert [i for part in parts for i in range(part.start, part.stop)] == list(range(count))
    assert (parts == []) == (count == 0)


class TestBackendSelection:
    def test_backend_reported(self):
        assert backend.BACKEND == "python"
