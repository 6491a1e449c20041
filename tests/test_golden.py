"""Golden outputs: ``check --checks all`` and ``classify`` stay byte-identical.

The files under ``tests/golden/`` are the ``--no-timestamp`` JSON reports of
both commands on every catalog metric (32 points; ``perturbed_flat`` at 8 to
bound the suite's run time), together with the exit codes.  Any change to a
residual, a scale, a threshold, a verdict or the report layout shows up here
as a byte difference.

``tests/golden_1024/`` holds the same pins at 1024 points on
``schwarzschild`` and ``flrw_dust``, the benchmark's wide sample, where the
check algebra runs over sixteen blocks and the sparse curvature commutator
takes over from the dense one.

The ``*_table.txt`` files pin the ``--format table`` output of both commands
on every catalog metric at 32 points, with their exit codes in
``exit_codes_table.json``.
"""

import json
from pathlib import Path

import pytest

from wstar.catalog import CATALOG_NAMES
from wstar.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
POINTS = {"perturbed_flat": 8}
WIDE = Path(__file__).parent / "golden_1024"
WIDE_EXIT_CODES = json.loads((WIDE / "exit_codes.json").read_text())
TABLE_EXIT_CODES = json.loads((GOLDEN / "exit_codes_table.json").read_text())


def argv(command, metric, points=None):
    points = points or POINTS.get(metric, 32)
    args = [command, "--metric", metric, "--points", str(points), "--no-timestamp"]
    if command == "check":
        args += ["--checks", "all"]
    return args


@pytest.mark.parametrize("metric", CATALOG_NAMES)
@pytest.mark.parametrize("command", ["check", "classify"])
def test_output_matches_golden(command, metric, capsys):
    stem = f"{command}_{metric}"
    code = main(argv(command, metric))
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.json").read_text()
    assert code == EXIT_CODES[stem]


@pytest.mark.parametrize("metric", ["schwarzschild", "flrw_dust"])
@pytest.mark.parametrize("command", ["check", "classify"])
def test_wide_output_matches_golden(command, metric, capsys):
    stem = f"{command}_{metric}"
    code = main(argv(command, metric, 1024))
    assert capsys.readouterr().out == (WIDE / f"{stem}.json").read_text()
    assert code == WIDE_EXIT_CODES[stem]


@pytest.mark.parametrize("metric", CATALOG_NAMES)
@pytest.mark.parametrize("command", ["check", "classify"])
def test_table_matches_golden(command, metric, capsys):
    stem = f"{command}_{metric}"
    code = main(argv(command, metric, 32) + ["--format", "table"])
    assert capsys.readouterr().out == (GOLDEN / f"{stem}_table.txt").read_text()
    assert code == TABLE_EXIT_CODES[stem]
