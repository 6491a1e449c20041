"""Ricci-recurrent families that nobody chose by hand.

Two families are Ricci-recurrent, ∇_m R_jk = b_m R_jk, for every member,
with a 1-form b known in closed form:

* a surface ⊕ flat product, g = diag(-1, e^f, e^f, 1) with f(x, y) a
  generated polynomial on [0.2, 1]².  Ricci is K g on the surface and 0
  elsewhere, K = -½ e^(-f) Δf, so b = d log|K| = d log|R|, with R = 2K;
* a pp-wave, g_uu = H = x² + y² + ε P(u, x, y), g_uv = 1 and a flat
  transverse part.  Ricci is null, R_uu = -½ ΔH and every other component
  0, so b = d log|ΔH|.

On every member ``ricci_recurrent`` must pass with the margin of
``test_verdict_margins.py``, the printed closedness of b (its curl, from the
Ricci identity) must be at most 1e-12, and the fitted b must match the
closed form within 1e-8 relative.  The derivatives of the closed forms come
from ``numpy.polynomial``, not from wstar.
"""

import re

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as poly

from wstar.checks import CheckContext
from wstar.cli import sample_for
from wstar.geometry import workspace
from wstar.matter import FieldEquationConfig
from wstar.metricfile import parse_metric_text

from test_verdict_margins import margin_faults

# twenty members per family, 24 sample points each: under 3 s in all
FAMILY = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
POINTS = 24

# c (x^2 + y^2) plus up to three monomials of degree 2 or 3 with |a| <= 0.1:
# a monomial's Laplacian is at most 6 on the unit square, so Δf >= 4c - 1.8 > 0
_surface = st.tuples(
    st.integers(5, 15).map(lambda k: k / 10),
    st.lists(st.tuples(st.sampled_from([(1, 1), (3, 0), (0, 3), (2, 1), (1, 2)]),
                       st.integers(-10, 10).map(lambda k: k / 100)),
             max_size=3, unique_by=lambda term: term[0]),
)
# ε P(u, x, y): one to three monomials of degree 3 or 4, with coefficients
# 0.01 to 0.05 and Laplacians 2u, 2u, 6x, 2x and 2u² that cannot cancel, so
# ΔH = 4 + ε ΔP >= 4 - 0.9 on the unit cube and b is not identically 0
_wave = st.lists(
    st.tuples(st.sampled_from([(1, 2, 0), (1, 0, 2), (0, 3, 0), (0, 1, 2), (2, 0, 2)]),
              st.integers(1, 5).map(lambda k: k / 100)),
    min_size=1, max_size=3, unique_by=lambda term: term[0],
)


def _coefficients(terms, shape) -> np.ndarray:
    c = np.zeros(shape)
    for powers, a in terms:
        c[powers] += a
    return c


def _text(c: np.ndarray, names: tuple) -> str:
    """The polynomial with coefficient array ``c`` over ``names``, as metric text."""
    monomials = []
    for powers in zip(*np.nonzero(c)):
        factors = [f"{name}^{p}" for name, p in zip(names, powers) if p]
        monomials.append("*".join([repr(float(c[powers]))] + factors))
    return " + ".join(monomials) or "0"


def _recurrence(text: str, seed: int) -> tuple:
    """(the ricci_recurrent outcome, the fit, the sample points) of one member."""
    metric = parse_metric_text(text, "member")
    ctx = CheckContext(metric, sample_for(workspace(metric), POINTS, seed),
                       FieldEquationConfig(), checks=("ricci_recurrent",))
    return ctx.check("ricci_recurrent"), ctx.recurrence, ctx.points


def _assert_recurrent(out, fit, want: np.ndarray):
    entry = {"name": out.name, "status": out.status, "max_residual": out.max_residual,
             "tolerance": out.tolerance, "reason": out.reason}
    assert out.status == "pass" and not margin_faults(entry), entry
    (printed,) = re.fullmatch(r"recurrence 1-form closedness residual (\S+)", out.reason).groups()
    assert float(printed) <= 1e-12, out.reason
    assert fit.b.shape == want.shape  # every point is usable: Ricci vanishes nowhere
    gap = float(np.max(np.abs(fit.b - want)))
    assert gap <= 1e-8 * float(np.max(np.abs(want))), gap


@given(member=_surface, seed=st.integers(0, 2**16))
@FAMILY
def test_surface_times_flat_is_recurrent_with_b_the_gradient_of_log_r(member, seed):
    scale, terms = member
    f = _coefficients(terms, (4, 4))
    f[2, 0] += scale
    f[0, 2] += scale
    text = "\n".join([
        "dim = 4", "coords = t, x, y, z", "domain t = -1 .. 1", "domain x = 0.2 .. 1",
        "domain y = 0.2 .. 1", "domain z = -1 .. 1",
        "g[0][0] = -1", f"g[1][1] = exp({_text(f, ('x', 'y'))})",
        f"g[2][2] = exp({_text(f, ('x', 'y'))})", "g[3][3] = 1"])
    out, fit, pts = _recurrence(text, seed)
    x, y = pts[:, 1], pts[:, 2]
    lap = (np.pad(poly.polyder(f, 2, axis=0), ((0, 2), (0, 0)))
           + np.pad(poly.polyder(f, 2, axis=1), ((0, 0), (0, 2))))
    lap_value = poly.polyval2d(x, y, lap)
    want = np.zeros_like(pts)
    for axis, col in ((0, 1), (1, 2)):  # d log|K| = -df + d(Δf)/Δf
        want[:, col] = (poly.polyval2d(x, y, poly.polyder(lap, axis=axis)) / lap_value
                        - poly.polyval2d(x, y, poly.polyder(f, axis=axis)))
    _assert_recurrent(out, fit, want)


@given(member=_wave, seed=st.integers(0, 2**16))
@FAMILY
def test_pp_wave_is_recurrent_with_b_the_gradient_of_log_lap_h(member, seed):
    h = _coefficients(member, (4, 4, 4))
    h[0, 2, 0] += 1.0
    h[0, 0, 2] += 1.0
    text = "\n".join([
        "dim = 4", "coords = u, v, x, y", "domain u = -1 .. 1", "domain v = -1 .. 1",
        "domain x = -1 .. 1", "domain y = -1 .. 1",
        f"g[0][0] = {_text(h, ('u', 'x', 'y'))}", "g[0][1] = 1",
        "g[2][2] = 1", "g[3][3] = 1"])
    out, fit, pts = _recurrence(text, seed)
    u, x, y = pts[:, 0], pts[:, 2], pts[:, 3]
    lap = (np.pad(poly.polyder(h, 2, axis=1), ((0, 0), (0, 2), (0, 0)))
           + np.pad(poly.polyder(h, 2, axis=2), ((0, 0), (0, 0), (0, 2))))
    lap_value = poly.polyval3d(u, x, y, lap)
    want = np.zeros_like(pts)
    for axis, col in ((0, 0), (1, 2), (2, 3)):  # d log|ΔH|
        want[:, col] = poly.polyval3d(u, x, y, poly.polyder(lap, axis=axis)) / lap_value
    _assert_recurrent(out, fit, want)
