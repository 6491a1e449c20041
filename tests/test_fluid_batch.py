"""The batched perfect-fluid decomposition against a per-point reference.

``reference_decompose`` is the one-point decomposition as it was before the
batched core existed, kept here as the oracle: the batch must give the same
mu and p bit for bit, the same failure messages in point order, and let a
LAPACK error through just as the per-point loop did.
"""

import numpy as np
import pytest

from wstar.catalog import catalog_metric
from wstar import checks
from wstar.checks import CheckContext
from wstar.matter import FieldEquationConfig, FluidError, decompose_fluids

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def _amax(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def _timelike_direction(g):
    evals, evecs = np.linalg.eigh(g)
    c = int(np.argmin(evals))
    if evals[c] >= 0:
        raise FluidError("metric has no timelike direction at the point")
    v = evecs[:, c] / np.sqrt(-evals[c])
    return -v if v[0] < 0 else v


def reference_decompose(t, g, ginv):
    """(mu, p) at one point, by the per-point branch sequence."""
    scale = 1.0 + _amax(t)
    n = t.shape[0]
    trace = float(np.einsum("ij,ij->", ginv, t))
    p0 = trace / n
    if _amax(t - p0 * g) <= 1e-10 * scale:
        _timelike_direction(g)
        return -p0, p0
    lam, vecs = np.linalg.eig(ginv @ t)
    if _amax(lam.imag) > 1e-8 * scale:
        raise FluidError("complex eigenvalues of T^i_j - not a perfect fluid")
    lam, vecs = lam.real, vecs.real
    norms = np.einsum("ic,ij,jc->c", vecs, g, vecs)
    if not np.any(norms < -1e-10):
        raise FluidError("no timelike eigenvector of T^i_j - not a perfect fluid")
    c = int(np.argmin(norms))
    return -float(lam[c]), float(np.mean([float(lam[a]) for a in range(n) if a != c]))


def reference_loop(t, g, ginv):
    mu, p = np.full(t.shape[0], np.nan), np.full(t.shape[0], np.nan)
    failures = []
    for a in range(t.shape[0]):
        try:
            mu[a], p[a] = reference_decompose(t[a], g[a], ginv[a])
        except FluidError as err:
            failures.append(str(err))
    return mu, p, failures


def fluid(rng):
    """A perfect fluid on a random Lorentzian metric g = A^T eta A, and g."""
    a = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    g = a.T @ ETA @ a
    w = np.array([1.0, *rng.uniform(-0.5, 0.5, 3)])  # timelike for eta
    u_up = np.linalg.solve(a, w / np.sqrt(-(w @ ETA @ w)))
    u = g @ u_up
    mu, p = rng.uniform(0.1, 5.0), rng.uniform(-1.0, 1.0)
    return (mu + p) * np.outer(u, u) + p * g, g


def stack(rng, copies=3):
    """(t, g, ginv) rows covering every branch, in shuffled order."""
    rows = []
    for _ in range(copies):
        t, g = fluid(rng)
        k = np.array([1.0, 1.0, 0.0, 0.0])
        odd = np.zeros((4, 4))
        odd[0, 1] = odd[1, 0] = 1.0
        rows += [
            (t, g),                                           # regular fluid
            (np.diag([2.0, 0.5, 0.5, 0.5]), ETA),             # comoving fluid
            (rng.uniform(-3.0, 3.0) * g, g),                  # T proportional to g
            (np.zeros((4, 4)), g),                            # T = 0
            (rng.uniform(0.5, 2.0) * np.eye(4), np.eye(4)),   # no timelike direction
            (odd, ETA),                                       # complex eigenvalues
            (np.outer(k, k), ETA),                            # null dust
        ]
    order = rng.permutation(len(rows))
    t = np.array([rows[i][0] for i in order])
    g = np.array([rows[i][1] for i in order])
    return t, g, np.linalg.inv(g)


def assert_matches_reference(t, g, ginv):
    mu, p, failures = reference_loop(t, g, ginv)
    got = decompose_fluids(t, g, ginv)
    assert np.array_equal(got.mu.view(np.int64), mu.view(np.int64))
    assert np.array_equal(got.p.view(np.int64), p.view(np.int64))
    assert [e for e in got.errors if e is not None] == failures
    return failures


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shuffled_stack_matches_reference(seed):
    t, g, ginv = stack(np.random.default_rng(seed))
    failures = assert_matches_reference(t, g, ginv)
    assert set(failures) == {
        "metric has no timelike direction at the point",
        "complex eigenvalues of T^i_j - not a perfect fluid",
        "no timelike eigenvector of T^i_j - not a perfect fluid",
    }


def test_each_single_point_matches_reference():
    t, g, ginv = stack(np.random.default_rng(4), copies=1)
    for a in range(t.shape[0]):
        assert_matches_reference(t[a:a + 1], g[a:a + 1], ginv[a:a + 1])


def all_failing(count=5):
    t = np.zeros((count, 4, 4))
    t[:, 0, 1] = t[:, 1, 0] = 1.0
    g = np.repeat(ETA[None], count, axis=0)
    return t, g, g.copy()


def test_all_failing_stack_matches_reference():
    failures = assert_matches_reference(*all_failing())
    assert len(failures) == 5


def test_all_failing_stack_makes_field_equation_trace_not_applicable(monkeypatch):
    t, g, ginv = all_failing()
    block = dict(t=t, g=g, ginv=ginv, R=np.zeros(5))  # one block of field values
    monkeypatch.setattr(checks, "field_blocks", lambda geo, points, cfg: iter([block]))
    ctx = CheckContext(catalog_metric("minkowski"), np.zeros((5, 4)), FieldEquationConfig(),
                       checks=("field_equation_trace",))
    out = ctx.check("field_equation_trace")
    assert out.status == "not-applicable"
    assert out.reason == "no perfect-fluid decomposition at any sample point"


def test_linalg_error_propagates_as_in_the_loop():
    t, g, ginv = stack(np.random.default_rng(5), copies=1)
    t[2] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as loop_err:
        reference_loop(t, g, ginv)
    with pytest.raises(np.linalg.LinAlgError) as batch_err:
        decompose_fluids(t, g, ginv)
    assert str(batch_err.value) == str(loop_err.value)
