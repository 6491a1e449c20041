"""W* and ∇W* are formed on their supports, and the cyclic identity of ∇W*
is read on the union support of its addends.

``jet._block_fields`` gathers the terms of W*_{ijkl} and ∇_m W*_{ijkl}
only where one of them can be nonzero in the block, and holds ∇W* as a
``jet.Compact``; the ``bianchi_identity`` step sums the cyclic identity on
its support plan, and the ``divergence`` step makes ∇W* dense one 16-point
slice at a time.  Each must carry the bits of the dense formula kept here
(``wstar_values`` on ``by_symmetry``, ``cyclic_identity``, the block
einsum of ``divergence``): ``float.hex`` equal, up to the sign of an exact
zero, which every reader erases (a sum with a nonzero term, or |.|).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wstar import checks, jet
from wstar import wstar as ws
from wstar.catalog import CATALOG_NAMES, catalog_metric
from wstar.checks import CheckContext
from wstar.cli import sample_for
from wstar.geometry import workspace
from wstar.jet import by_symmetry, field_blocks
from wstar.matter import FieldEquationConfig
from wstar.metricfile import parse_metric_text

from test_forward_derivatives import _perturbation, perturbed_minkowski


def hexes(a: np.ndarray) -> list:
    """The ``float.hex`` of every value, an exact zero's sign dropped (x + 0.0)."""
    return [x.hex() for x in (np.asarray(a, dtype=float) + 0.0).ravel().tolist()]


def assert_same_bits(got, want, what=""):
    assert np.shape(got) == np.shape(want), what
    assert hexes(got) == hexes(want), what


def dense_wstar(classes, g, ric):
    """W*_{ijkl} (or ∇W* from the classes of ∇R and ∇Ricci), every component."""
    return ws.wstar_values(np.swapaxes(by_symmetry(classes), 3, 4), g, ric)


def dense_gap(dw, nric, g):
    cyc, rhs = ws.cyclic_identity(dw, nric, g)
    return checks._ptmax(cyc - rhs)


def support_gap(dw, nric, g):
    """The bianchi_identity step on one block, with plans of its own."""
    return checks._bianchi(SimpleNamespace(plans={}), {"dw": dw, "nric": nric, "g": g})


def assert_blocks_keep_the_dense_bits(metric, points):
    geo = workspace(metric)
    for block in geo.jet.curvature(sample_for(geo, points, 42)):
        g, ginv, _, rc, nrc = block
        f = jet._block_fields(*block)
        dw = dense_wstar(nrc, g, f["nric"])
        assert_same_bits(f["w04"], dense_wstar(rc, g, f["ric"]), "w04")
        assert_same_bits(f["dw"].dense(), dw, "dw")
        assert_same_bits(checks._ptmax(f["dw"].cols), checks._ptmax(dw), "max |dw|")
        assert_same_bits(support_gap(f["dw"], f["nric"], g), dense_gap(dw, f["nric"], g),
                         "cyclic gap")
        assert_same_bits(checks._wstar_divergence(ginv, f["dw"]), ws.divergence(ginv, dw),
                         "divergence")


@pytest.mark.parametrize("metric", CATALOG_NAMES)
def test_the_support_route_keeps_the_dense_bits_on_the_catalog(metric):
    # 130 points: two full blocks and a 2-point tail
    assert_blocks_keep_the_dense_bits(catalog_metric(metric), 130)


@given(terms=_perturbation)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_support_route_keeps_the_dense_bits_on_generated_metrics(terms):
    metric = parse_metric_text(perturbed_minkowski(terms), "generated")
    assert_blocks_keep_the_dense_bits(metric, 70)
    del metric  # its workspace and nodes go with it


@given(seed=st.integers(0, 2**32 - 1), points=st.sampled_from([1, 16, 65]),
       share=st.sampled_from([0.0, 0.05, 0.3, 1.0]), derivative=st.booleans())
@settings(max_examples=30, deadline=None)
def test_the_support_route_keeps_the_dense_bits_on_arbitrary_supports(
        seed, points, share, derivative):
    # normal values on a support shared by every point; at share 1.0 the
    # 1024 components of ∇W* are formed over several 16-point slices
    rng = np.random.default_rng(seed)

    def supported(*shape):
        shape = (points,) + shape
        return np.where(rng.random(shape[1:]) < share, rng.standard_normal(shape), 0.0)

    tail = (4,) if derivative else ()
    classes, g, ric = supported(21, *tail), supported(4, 4), supported(4, 4, *tail)
    got = jet._wstar_on_support({}, classes, g, ric)
    want = dense_wstar(classes, g, ric)
    assert_same_bits(got.dense(), want)
    assert np.all(want.reshape(points, -1)[:, ~got.support().ravel()] == 0)
    if derivative:
        assert_same_bits(support_gap(got, ric, g), dense_gap(want, ric, g))


def test_minkowski_forms_nothing():
    geo = workspace(catalog_metric("minkowski"))
    f = next(field_blocks(geo, sample_for(geo, 8, 42)))
    assert f["dw"].cols.shape == (8, 1) and not f["dw"].support().any()
    assert_same_bits(support_gap(f["dw"], f["nric"], f["g"]), np.zeros(8))


@pytest.mark.parametrize("metric", ["schwarzschild", "flrw_dust"])
def test_the_wide_metrics_form_a_small_share_of_dw(metric):
    geo = workspace(catalog_metric(metric))
    f = next(field_blocks(geo, sample_for(geo, 64, 42)))
    assert f["dw"].cols.shape[1] - 1 <= 0.2 * 4**5


def test_a_plan_is_made_once_per_tuple_of_masks_in_a_walk(monkeypatch):
    # 1024 points are 16 blocks, whose structural zeros, and so masks, are
    # the same: a walk builds one plan each for W*, ∇W* and the cyclic sum.
    # The plans live with the walk, so a second walk builds its own
    made = []

    def counted(name, real):
        def build(*masks):
            made.append((name, tuple(m.tobytes() for m in masks)))
            return real(*masks)
        return build

    monkeypatch.setattr(jet, "_wstar_plan", counted("wstar", jet._wstar_plan))
    monkeypatch.setattr(checks, "_cyclic_plan", counted("cyclic", checks._cyclic_plan))
    m = catalog_metric("schwarzschild")
    points = sample_for(workspace(m), 1024, 42)
    for walk in (1, 2):
        CheckContext(m, points, FieldEquationConfig(),
                     checks=["bianchi_identity"]).check("bianchi_identity")
        assert len(made) == 3 * walk
    assert len(set(made)) == 3
    assert sorted(name for name, _ in made[:3]) == ["cyclic", "wstar", "wstar"]
