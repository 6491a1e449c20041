"""The semi-symmetry commutators skip products that are 0 at every point.

``checks._commutator_ptmax`` forms max |[nabla, nabla] X| per point of a
block either densely (``geometry.ricci_commutator``, the reference) or from
a plan of only the products whose two factors have support in the block.
The route is chosen from the share of such products, once per distinct
pair of support masks in a run; whichever is taken, the per-point maxima
must carry the same bits as the dense route's over the whole sample.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wstar import checks
from wstar.catalog import CATALOG_NAMES, catalog_metric
from wstar.checks import CheckContext
from wstar.cli import sample_for
from wstar.geometry import ricci_commutator, workspace
from wstar.jet import curvature_fields
from wstar.matter import FieldEquationConfig
from wstar.metricfile import parse_metric_text

from test_forward_derivatives import _perturbation, perturbed_minkowski

# field -> its variance and the step whose column is max |[nabla, nabla] X|
FIELDS = {"w04": ("llll", "wstar_semisymmetric"), "ric": ("ll", "ricci_semisymmetric"),
          "t": ("ll", "t_semisymmetric")}


def context(metric, points):
    return CheckContext(metric, sample_for(workspace(metric), points, 42), FieldEquationConfig())


def dense_ptmax(x, r13):
    return checks._ptmax(ricci_commutator(x, "l" * (x.ndim - 1), r13))


def sparse_ptmax(x, r13):
    plan = checks._commutator_plan(checks._support(x), checks._support(r13))
    if not plan[0]:
        return np.zeros(x.shape[0])
    return checks._ptmax(checks._sparse_commutator(plan, x, r13))


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def assert_routes_agree(ctx):
    # the whole sample at once, by either route, against the context's
    # columns, which take each block's route from that block's supports
    v = curvature_fields(ctx.geo, ctx.points, ctx.cfg)
    for name, (_, step) in FIELDS.items():
        want = dense_ptmax(v[name], v["r13"])
        assert_same_bits(sparse_ptmax(v[name], v["r13"]), want)
        assert_same_bits(ctx.reduced(step), want)


@pytest.mark.parametrize("metric", CATALOG_NAMES)
def test_sparse_route_matches_dense_on_the_catalog(metric):
    # 130 points: two full blocks and a 2-point tail
    assert_routes_agree(context(catalog_metric(metric), 130))


@given(terms=_perturbation)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sparse_route_matches_dense_on_generated_metrics(terms):
    metric = parse_metric_text(perturbed_minkowski(terms), "generated")
    assert_routes_agree(context(metric, 70))
    del metric  # its workspace and nodes go with it


@given(seed=st.integers(0, 2**32 - 1), rank=st.sampled_from([2, 4]),
       points=st.sampled_from([1, 65]), share=st.sampled_from([0.05, 0.3, 1.0]))
@settings(max_examples=20, deadline=None)
def test_sparse_route_matches_dense_on_arbitrary_supports(seed, rank, points, share):
    rng = np.random.default_rng(seed)

    def supported(shape):  # normal values on a support shared by every point
        return np.where(rng.random(shape[1:]) < share, rng.standard_normal(shape), 0.0)

    x, r13 = supported((points,) + (4,) * rank), supported((points, 4, 4, 4, 4))
    assert_same_bits(sparse_ptmax(x, r13), dense_ptmax(x, r13))


def strided_commutator(x, r13):
    """``ricci_commutator`` as one einsum over the strided, moved X: the form
    the goldens were first recorded with."""
    out = np.zeros(x.shape + r13.shape[-2:])
    for slot in range(x.ndim - 1):
        term = np.einsum("p...s,psimn->p...imn", np.moveaxis(x, 1 + slot, -1), r13)
        out -= np.moveaxis(term, -3, 1 + slot)
    return out


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 4, 5]),
       rank=st.sampled_from([1, 2, 4]), points=st.sampled_from([1, 16, 64]))
@settings(max_examples=20, deadline=None)
def test_the_batched_product_keeps_the_bits_of_the_strided_einsum(seed, n, rank, points):
    # the dense route multiplies a contiguous copy of the moved X, as a
    # (points, n^(rank-1), n) by (points, n, n^3) product; np.matmul would
    # round differently by an ulp
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((points,) + (n,) * rank)
    r13 = rng.standard_normal((points,) + (n,) * 4)
    assert_same_bits(ricci_commutator(x, "l" * rank, r13), strided_commutator(x, r13))


def test_minkowski_has_no_products():
    ctx = context(catalog_metric("minkowski"), 130)
    v = curvature_fields(ctx.geo, ctx.points, ctx.cfg)
    rm = checks._support(v["r13"])
    for name in FIELDS:
        xm = checks._support(v[name])
        assert checks._takes_sparse_route(xm, rm)
        assert checks._commutator_plan(xm, rm)[0] == 0
    for _, step in FIELDS.values():
        assert_same_bits(ctx.reduced(step), np.zeros(130))
    out = ctx.check("wstar_semisymmetric")
    assert out.max_residual == 0.0
    assert np.array_equal(out.worst_point, ctx.points[0])


@pytest.mark.parametrize("metric,sparse", [
    ("schwarzschild", True),
    ("desitter_flat", True),
    ("flrw_dust", True),
    ("perturbed_flat", False),
])
def test_route_follows_the_observed_support(metric, sparse):
    ctx = context(catalog_metric(metric), 8)
    v = curvature_fields(ctx.geo, ctx.points, ctx.cfg)
    rm = checks._support(v["r13"])
    for name in FIELDS:
        assert checks._takes_sparse_route(checks._support(v[name]), rm) is sparse, name


def test_a_plan_is_made_once_per_pair_of_masks(monkeypatch):
    # 1024 points are 16 blocks; the structural zeros, and so the masks,
    # are the same in every block (and Ricci and T share theirs)
    made, real = [], checks._commutator_plan

    def counted(xm, rm):
        made.append((xm.tobytes(), rm.tobytes()))
        return real(xm, rm)

    monkeypatch.setattr(checks, "_commutator_plan", counted)
    ctx = context(catalog_metric("schwarzschild"), 1024)
    for _, step in FIELDS.values():
        ctx.reduced(step)
    assert made and len(made) == len(set(made)) <= len(FIELDS)
