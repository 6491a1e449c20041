"""The check algebra works over blocks of sample points.

Residuals built from a curvature commutator or the cyclic sum are reduced
block by block, so these tests pin what the blocking must not change: the
reports at a point count that spans several blocks, the blocked maxima
themselves, and the memory a check may allocate on a wide sample.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from wstar import checks
from wstar.catalog import catalog_metric
from wstar.checks import REGISTRY, CheckContext
from wstar.cli import main, sample_for
from wstar.geometry import ricci_commutator, workspace
from wstar.matter import FieldEquationConfig

# sha256 of the --no-timestamp stdout and the exit code at 130 points: two
# full 64-point blocks and a 2-point tail.  First recorded from the
# whole-sample computation before the check algebra was blocked; recorded
# again when the covariant derivatives moved to the kernel's tangent mode,
# where the whole-sample computation (one block of 130) gave the same bytes,
# and when the fields moved to the metric's 3-jet, which rounds differently.
MULTI_BLOCK = {
    ("check", "minkowski"):
        ("ea0c149c2f0c5807a86e02e452dea1cede06f422e4a184ad4abff112899bdd81", 0),
    ("check", "schwarzschild"):
        ("0e27d47f62b5adb81867e34bd0a8f2d46f670632e9cbdeec1f35fbaf1ec85f08", 1),
    ("check", "desitter_flat"):
        ("c27e8725ae648e04d24cf3b9b22286264d08472f1cda689bcb0677465ead74ac", 1),
    ("check", "flrw_dust"):
        ("f8723f6164b4e67ee3e1b4a9905c2002097f610efcee48d8b29467474ea2dcd1", 1),
    ("classify", "minkowski"):
        ("68b4a1a4807481e28030fe3f7aea48a47ca1a9074365aa90e1c57c99c8ccbc36", 0),
    ("classify", "schwarzschild"):
        ("4f17bf8459475c9aa99e65024367909e123e741515d882ac232e1d7059d25138", 0),
    ("classify", "desitter_flat"):
        ("05a6064ea0441de153d1258be2ea2cd80d91b91cc16cba0eced0501a9c290530", 0),
    ("classify", "flrw_dust"):
        ("d7906ef21d303cf0ce7ecb096b6d88a88bdac0da4ab2cdfb3c1b44480d493b42", 1),
}


@pytest.mark.parametrize("command,metric", sorted(MULTI_BLOCK))
def test_multi_block_output_is_pinned(command, metric, capsys):
    args = [command, "--metric", metric, "--points", "130", "--no-timestamp"]
    if command == "check":
        args += ["--checks", "all"]
    code = main(args)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (digest, code) == MULTI_BLOCK[command, metric]


def context(metric, points):
    m = catalog_metric(metric)
    return CheckContext(m, sample_for(workspace(m), points, 42), FieldEquationConfig())


@pytest.mark.parametrize("points", [1, 63, 64, 65, 130])
def test_blocked_ptmax_matches_whole_sample(points):
    ctx = context("schwarzschild", points)
    w04, r13 = ctx.get("w04"), ctx.get("r13")
    whole = checks._ptmax(ricci_commutator(w04, "llll", r13))
    blocked = checks._blocked_ptmax(lambda w, r: ricci_commutator(w, "llll", r), w04, r13)
    assert blocked.shape == (points,)
    assert np.array_equal(blocked.view(np.int64), whole.view(np.int64))


def test_no_check_allocates_whole_sample_rank6_arrays():
    # the (P, 4, 4, 4, 4, 4, 4) commutator of W* took +96 MiB at 1024 points
    # and the cyclic sum +32 MiB; blocked, no check needs more than 4 MiB.
    # W*^h_{jkl}, ∇Weyl and the Krupka C, D, E are formed per block and
    # dropped, so what the checks leave held is small next to the fields
    # (11 MiB when those three were held for the whole sample)
    ctx = context("schwarzschild", 1024)
    ctx.get("g")  # every field
    peaks = {}
    tracemalloc.start()
    try:
        for name in REGISTRY:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ctx.check(name)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        held = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    over = {name: round(mib, 1) for name, mib in peaks.items() if mib > 4.0}
    assert not over, f"tracemalloc peaks above 4 MiB: {over}"
    assert held <= 2.0, f"the checks left {held:.1f} MiB held besides the fields"
