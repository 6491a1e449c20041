"""Every verdict of ``check --checks all`` is far from its tolerance.

The goldens pin the bytes of the catalog metrics at one seed; this pins how
far each verdict is from flipping, at every seed CI's "Verdicts across
seeds" step runs (1–10, 32 points) and at seed 1 on the benchmark's wide
sample (1024 points).  For every applicable check that is not a theorem
pairing, a pass has residual at most ``PASS_RATIO`` of its tolerance and a
fail at least ``FAIL_RATIO`` times it, so a check that drifts toward its
tolerance fails here long before its verdict flips.  Every status must equal
the hand-written table in ``perfbench/expected.py``.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from wstar.checks import PAIRINGS
from wstar.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "expected", Path(__file__).parents[1] / "perfbench" / "expected.py")
expected = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(expected)

EXPECTED = expected.expected_table()
PAIRING_CHECKS = {check for _, check in PAIRINGS}
PASS_RATIO = 1e-3
FAIL_RATIO = 1e2
RUNS = [(seed, 32) for seed in range(1, 11)] + [(1, 1024)]


def check_report(metric: str, seed: int, points: int) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["check", "--metric", metric, "--points", str(points), "--seed", str(seed),
              "--checks", "all", "--no-timestamp"])
    return json.loads(out.getvalue())["checks"]


def margin_faults(entry: dict) -> list:
    """What is wrong with one check entry's margin, as text (empty if nothing)."""
    name, status = entry["name"], entry["status"]
    if name in PAIRING_CHECKS or status == "not-applicable":
        return []
    if entry["max_residual"] is None:
        return [f"{name} could not be evaluated: {entry.get('reason')}"]
    ratio = entry["max_residual"] / entry["tolerance"]
    if status == "pass" and ratio > PASS_RATIO:
        return [f"{name} passes at {ratio:.2e} of its tolerance (bound {PASS_RATIO:g})"]
    if status == "fail" and ratio < FAIL_RATIO:
        return [f"{name} fails at {ratio:.2e} times its tolerance (bound {FAIL_RATIO:g})"]
    return []


@pytest.mark.parametrize("seed,points", RUNS)
@pytest.mark.parametrize("metric", expected.METRICS)
def test_verdicts_are_far_from_their_tolerance(metric, seed, points):
    entries = check_report(metric, seed, points)
    want = EXPECTED[metric]["checks"]
    faults = [f"{e['name']} is {e['status']}, expected {want[e['name']]}"
              for e in entries if e["status"] != want[e["name"]]]
    faults += [fault for e in entries for fault in margin_faults(e)]
    assert [e["name"] for e in entries] == list(want)
    assert not faults, f"{metric}, seed {seed}, {points} points: " + "; ".join(faults)
