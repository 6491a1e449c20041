"""Every verdict of ``check --checks all`` and ``classify`` holds at every seed,
and every check's verdict is far from its tolerance.

The goldens pin the bytes of the catalog metrics at one seed; this pins the
verdicts at seeds 1–10 (32 points) and at seed 1 on the benchmark's wide
sample (1024 points).  Every check status, classify flag and pairing, and
both commands' exit codes, must equal the hand-written table in
``perfbench/expected.py``, and each classify pairing must hold exactly when
the check it is read from passes (:data:`wstar.checks.PAIRINGS`).  For every
applicable check that is not a theorem pairing, a pass has residual at most
``PASS_RATIO`` of its tolerance and a fail at least ``FAIL_RATIO`` times it,
so a check that drifts toward its tolerance fails here long before its
verdict flips.
"""

import contextlib
import importlib.util
import io
import json
from functools import cache
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
HOLDS = {"pass": True, "fail": False, "not-applicable": None}


@cache
def run(command: str, metric: str, seed: int, points: int) -> tuple:
    """(the JSON report, the exit code) of one ``--no-timestamp`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--metric", metric, "--points", str(points), "--seed",
                     str(seed), "--no-timestamp"]
                    + (["--checks", "all"] if command == "check" else []))
    return json.loads(out.getvalue()), code


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
    rep, code = run("check", metric, seed, points)
    entries, want = rep["checks"], EXPECTED[metric]["checks"]
    faults = [f"{e['name']} is {e['status']}, expected {want[e['name']]}"
              for e in entries if e["status"] != want[e["name"]]]
    faults += [fault for e in entries for fault in margin_faults(e)]
    assert [e["name"] for e in entries] == list(want)
    assert not faults, f"{metric}, seed {seed}, {points} points: " + "; ".join(faults)
    assert code == EXPECTED[metric]["check_exit"]


@pytest.mark.parametrize("seed,points", RUNS)
@pytest.mark.parametrize("metric", expected.METRICS)
def test_classify_agrees_with_the_table_and_with_check(metric, seed, points):
    rep, code = run("classify", metric, seed, points)
    want = EXPECTED[metric]
    pairs = {p["name"]: p["holds"] for p in rep["pairings"]}
    assert (rep["flags"], pairs, code) == (want["flags"], want["pairings"],
                                           want["classify_exit"])
    status = {e["name"]: e["status"] for e in run("check", metric, seed, points)[0]["checks"]}
    split = [f"pairing {name} is {pairs[name]}, check {check} is {status[check]}"
             for name, check in PAIRINGS if pairs[name] != HOLDS[status[check]]]
    assert not split, f"{metric}, seed {seed}, {points} points: " + "; ".join(split)
