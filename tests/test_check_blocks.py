"""The check algebra works over blocks of sample points.

Every field is reduced to per-point columns one block of points at a time,
so these tests pin what the blocking must not change: the reports at a
point count that spans several blocks, the columns themselves against the
whole sample at once, and the memory a check may allocate and the context
may hold on a wide sample.
"""

import contextlib
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wstar import checks, cli
from wstar.catalog import CATALOG_NAMES, catalog_metric
from wstar.checks import REGISTRY, CheckContext
from wstar.cli import main, sample_for
from wstar.geometry import ricci_commutator, workspace
from wstar.jet import curvature_fields, field_blocks
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


def context(metric, points, **kwargs):
    m = catalog_metric(metric)
    return CheckContext(m, sample_for(workspace(m), points, 42), FieldEquationConfig(),
                        **kwargs)


def assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    if got.dtype == object:
        assert got.tolist() == want.tolist(), what
    else:
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), what


@pytest.mark.parametrize("points", [1, 63, 64, 65, 130])
def test_blocked_ptmax_matches_whole_sample(points):
    ctx = context("schwarzschild", points)
    v = curvature_fields(ctx.geo, ctx.points)
    whole = checks._ptmax(ricci_commutator(v["w04"], "llll", v["r13"]))
    assert ctx.reduced("wstar_semisymmetric").shape == (points,)
    assert_same_bits(ctx.reduced("wstar_semisymmetric"), whole, points)


@pytest.mark.parametrize("metric", CATALOG_NAMES)
def test_every_step_streams_the_bits_of_one_whole_sample_block(metric):
    # each step reduced block by block, against the same step given the
    # whole sample's fields as one block: the blocking moves no bit
    ctx = context(metric, 130)
    parts = list(field_blocks(ctx.geo, ctx.points))
    whole = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    for step, reduce in checks._STEPS.items():
        streamed, at_once = ctx.reduced(step), reduce(ctx, whole)
        if isinstance(streamed, dict):
            assert streamed.keys() == at_once.keys()
            streamed, at_once = list(streamed.values()), list(at_once.values())
        elif not isinstance(streamed, tuple):
            streamed, at_once = [streamed], [at_once]
        for got, want in zip(streamed, at_once):
            assert_same_bits(got, want, step)


# the walk's tracemalloc peak at 1024 points, per metric: 2.53, 2.13 and 3.02
# MiB; 3.00, 2.94 and 4.06 with two blocks' fields alive at every boundary
# and every column held twice while the blocks' parts were concatenated
WALK_CAP = {"schwarzschild": 2.75, "flrw_dust": 2.5, "perturbed_flat": 3.5}


@pytest.mark.parametrize("metric", sorted(WALK_CAP))
def test_no_check_allocates_whole_sample_rank6_arrays(metric):
    # a whole-sample (P, 4, 4, 4, 4, 4, 4) commutator of W* takes 96 MiB at
    # 1024 points, and the fields 15 MiB.  Every field lives for one block of
    # points, and every array of n^5 components or more per point (∇R_ijkl,
    # ∇W*, the cyclic sum, ∇Weyl) for one 16-point slice of it; a block's
    # fields are dropped before the next block is formed, and each column is
    # written in place into one array of the sample's length.  The walk over
    # the blocks, which the first check starts, peaks under WALK_CAP; every
    # check after it reads columns; and the context keeps only per-point columns
    ctx = context(metric, 1024)
    ctx.geo.jet._leaf_tape  # the workspace's tapes, compiled once per metric
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
    walk = peaks.pop(next(iter(REGISTRY)))
    assert walk <= WALK_CAP[metric], f"the walk over the blocks peaks at {walk:.2f} MiB"
    over = {name: round(mib, 2) for name, mib in peaks.items() if mib > 1.0}
    assert not over, f"tracemalloc peaks above 1 MiB: {over}"
    assert held <= 1.0, f"the context holds {held:.2f} MiB after every check"


def test_a_step_that_raises_keeps_no_block():
    # T overflows at k = 1e-308, so the steps that form it keep their error
    # in place of their columns; the error's frames held the first block's
    # fields (1.39 MiB held after every check, against 0.47 at k = 1)
    m = catalog_metric("flrw_dust")
    ctx = CheckContext(m, sample_for(workspace(m), 1024, 42), FieldEquationConfig(k=1e-308))
    ctx.geo.jet._leaf_tape
    tracemalloc.start()
    try:
        for name in REGISTRY:
            with contextlib.suppress(FloatingPointError):
                ctx.check(name)
        held = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    assert isinstance(ctx._columns["t"], FloatingPointError)
    assert held <= 1.0, f"the context holds {held:.2f} MiB after every check"


def test_a_wide_check_holds_its_columns_once_and_one_block():
    # at 4096 points flrw_dust's columns take 1.51 MiB.  The walk peaks 1.72
    # MiB above them (1.66 at 64 points, one block: the block term), where
    # joining the blocks' parts held every column twice (2.77)
    ctx = context("flrw_dust", 4096)
    ctx.geo.jet._leaf_tape
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ctx.check(next(iter(REGISTRY)))
        held, walk = (mib / 2**20 for mib in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert walk - held <= 2.0, f"the walk peaks {walk - held:.2f} MiB above {held:.2f} MiB"


@pytest.mark.parametrize("metric", CATALOG_NAMES)
def test_the_streamed_closedness_keeps_the_bits_of_one_whole_sample_pass(metric):
    # the closedness is the curl of the recurrence 1-form from the Ricci
    # identity, reduced block by block: it keeps the bits of the same
    # projection over the whole sample's fields at once, and matches
    # [nabla_l, nabla_m] R_jk (geometry.ricci_commutator) projected onto Ric
    ctx = context(metric, 130)
    fit = ctx.recurrence
    if not fit.applicable:  # Ricci vanishes: there is no closedness
        assert fit.closedness_residual is None
        return
    v = curvature_fields(ctx.geo, ctx.points)
    usable = checks._ptmax(v["ric"]) > checks._RICCI_FLOOR
    ric, r13 = v["ric"][usable], v["r13"][usable]
    curl = checks._curl(ric, r13)
    assert fit.closedness_residual.hex() == float(np.max(np.abs(curl))).hex()
    projected = (np.einsum("pjklm,pjk->plm", ricci_commutator(ric, "ll", r13), ric)
                 / np.einsum("pjk,pjk->p", ric, ric)[:, None, None])
    scale = float(np.max(np.abs(projected)))
    assert float(np.max(np.abs(curl - projected))) <= 1e-12 * scale
    column = ctx.reduced("recurrence")[2]
    assert np.all(column[~usable] == 0.0)
    assert np.all(np.abs(column[usable] - np.max(np.abs(projected), axis=(1, 2)))
                  <= 1e-12 * scale)


def test_the_context_holds_no_field_of_the_whole_sample():
    ctx = context("flrw_dust", 130)
    for name in REGISTRY:
        ctx.check(name)
    shapes = {}
    for step, columns in ctx._columns.items():
        if isinstance(columns, dict):
            columns = tuple(columns.values())
        elif not isinstance(columns, tuple):
            columns = (columns,)
        shapes[step] = {np.shape(c) for c in columns}
    # one number per point, and the recurrence covector b, one per point and slot
    assert shapes.pop("recurrence") == {(130, 4), (130,)}
    assert all(s == {(130,)} for s in shapes.values()), shapes


# Starts ``python -m wstar.cli`` with the given arguments and prints its exit
# code, its peak RSS in KiB and its stderr.  On Linux a child's ru_maxrss
# counts the resident set of the process it was forked from, so the run is
# started from this small process and not from the test process.
PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "wstar.cli", *sys.argv[1:]],
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
err = child.stderr.read()
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, repr(err))
"""


def peak_run(command, metric, points) -> tuple:
    """(exit code, peak RSS in MiB, stderr) of one ``wstar.cli`` process."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, *command, "--metric", metric, "--points", str(points),
         "--no-timestamp"], env=env, capture_output=True, text=True, check=True).stdout
    code, kib, err = out.split(maxsplit=2)
    return int(code), int(kib) / 1024, err.strip()


@pytest.mark.parametrize("command", [["check", "--checks", "all"], ["classify"]])
def test_a_4096_point_run_peaks_under_50_mib(command):
    # no field is held for the whole sample, so a wide run peaks near a
    # narrow one: 34-35 MiB at 32 points, 36 MiB here; with the fields held
    # it takes 111 and 106 MiB
    code, peak, err = peak_run(command, "flrw_dust", 4096)
    assert (code, err) == (1, "b''")
    assert peak <= 50.0, f"{command[0]} at 4096 points peaked at {peak:.1f} MiB"


@pytest.mark.parametrize("command,exit_code", [(["check", "--checks", "all"], 1),
                                               (["classify"], 0)])
def test_a_wide_run_on_a_metric_of_every_coordinate_peaks_under_45_mib(command, exit_code):
    # perturbed_flat depends on all four coordinates, so the recurrence fit
    # displaces 8 copies of each of the 1024 points; they run one block at a
    # time too: 36-37 MiB, against 49 MiB with their 3-jet held for all of them
    code, peak, err = peak_run(command, "perturbed_flat", 1024)
    assert (code, err) == (exit_code, "b''")
    assert peak <= 45.0, f"{command[0]} at 1024 points peaked at {peak:.1f} MiB"
