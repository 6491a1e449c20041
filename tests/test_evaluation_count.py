"""One analysis layer: every command evaluates each tape once per point set.

``check --checks all`` and ``classify`` read one
:class:`wstar.checks.CheckContext`, which takes each tape's values and, for
the covariant derivatives, its partials from one evaluation, in one walk
over the blocks of points; the classification flags and the theorem
pairings are views over its check outcomes.  The sampler tests a block of
candidates with one det g evaluation.  These guards count the kernel calls,
the walks and the check-function runs of one command, the det g
evaluations of one sample, and the trace-system solves and W* divergences
of one context.

Each check computes its own outcome from the context: a check run alone
reports the same entry, byte for byte, as in ``--checks all``, and runs only
the checks whose outcomes it reads.
"""

import contextlib
import io
import json
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from wstar import checks
from wstar.catalog import CATALOG_NAMES, catalog_metric
from wstar.checks import CheckContext
from wstar.cli import RunConfig, classify_payload, main, run_checks, sample_for
from wstar.geometry import workspace
from wstar.matter import FieldEquationConfig
from wstar.tape import Tape


@pytest.fixture
def evaluations(monkeypatch):
    """Counter of (tape, point array) pairs passed to ``Tape.run``: value
    and tangent mode each count as one evaluation."""
    seen = Counter()

    real = Tape.run

    def counted(self, points, *args, **kwargs):
        pts = np.ascontiguousarray(points, dtype=np.float64)
        seen[(id(self), pts.shape, pts.tobytes())] += 1
        return real(self, points, *args, **kwargs)

    monkeypatch.setattr(Tape, "run", counted)
    return seen


@pytest.fixture
def check_runs(monkeypatch):
    """Counter of ``REGISTRY`` function runs, by check name."""
    runs = Counter()

    def counting(name, real):
        def counted(ctx):
            runs[name] += 1
            return real(ctx)

        return counted

    for name, fn in list(checks.REGISTRY.items()):
        monkeypatch.setitem(checks.REGISTRY, name, counting(name, fn))
    return runs


@pytest.mark.parametrize("command", [run_checks, classify_payload])
def test_one_evaluation_per_tape_and_point_set(command, evaluations, check_runs):
    command(RunConfig(metric="flrw_dust", timestamp=False))
    assert evaluations
    repeated = {key[:2]: n for key, n in evaluations.items() if n > 1}
    assert not repeated
    assert check_runs
    assert max(check_runs.values()) == 1


def test_sampler_evaluates_det_once_per_block(evaluations):
    geo = workspace(catalog_metric("schwarzschild"))
    sample_for(geo, 1024, 42)
    det = id(geo._det_tape)
    assert sum(n for key, n in evaluations.items() if key[0] == det) == 1


# the checks whose verdict reads other checks' outcomes, with those checks
READS = {
    "em_distribution": {"wstar_parallel"},
    "dust_vacuum": {"wstar_flat"},
    "pairing_codazzi_divergence": {"codazzi", "wstar_divergence_free"},
    "pairing_einstein_trace": {"einstein"},
    "pairing_parallel_semisymmetric": {"wstar_parallel", "t_semisymmetric"},
    "pairing_flat_parallel_t": {"wstar_flat", "constant_scalar_curvature", "t_parallel"},
    "pairing_flat_lambda_fluid": {"wstar_flat"},
    "pairing_semisymmetric_t": {"t_semisymmetric", "ricci_semisymmetric"},
}


@pytest.fixture
def walks(monkeypatch):
    """The point counts of every walk over the blocks of field values."""
    seen, real = [], checks.field_blocks

    def counted(geo, points):
        seen.append(len(points))
        return real(geo, points)

    monkeypatch.setattr(checks, "field_blocks", counted)
    return seen


@pytest.mark.parametrize("name", checks.REGISTRY)
def test_a_check_alone_walks_the_blocks_once(name, walks):
    # the steps a check needs, and those of the checks it reads, are known
    # before the walk (checks._STEP_OF, checks._READS): none needs a second one
    run_checks(RunConfig(metric="flrw_dust", checks=(name,), points=8, timestamp=False))
    assert walks == [8]


def test_all_checks_and_classify_walk_the_blocks_once(walks):
    run_checks(RunConfig(metric="flrw_dust", points=70, timestamp=False))
    classify_payload(RunConfig(metric="flrw_dust", points=70, timestamp=False))
    assert walks == [70, 70]


@pytest.mark.parametrize("name", READS)
def test_a_check_runs_only_what_it_reads(name, check_runs):
    run_checks(RunConfig(metric="flrw_dust", checks=(name,), points=8, timestamp=False))
    assert set(check_runs) == READS[name] | {name}
    assert max(check_runs.values()) == 1


def check_entries(metric: str, names: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["check", "--metric", metric, "--points", "8", "--checks", names,
              "--no-timestamp"])
    return {c["name"]: json.dumps(c) for c in json.loads(out.getvalue())["checks"]}


@lru_cache(maxsize=None)
def all_entries(metric: str) -> dict:
    return check_entries(metric, "all")


@pytest.mark.parametrize("metric", CATALOG_NAMES)
@pytest.mark.parametrize("name", READS)
def test_a_check_alone_reports_its_entry_in_all(name, metric):
    assert check_entries(metric, name) == {name: all_entries(metric)[name]}


def counting(monkeypatch, name):
    """Record the arguments of every call to ``wstar.wstar.<name>`` from the checks."""
    calls, fn = [], getattr(checks.ws, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(checks.ws, name, spy)
    return calls


def context(metric, points, **kwargs):
    m = catalog_metric(metric)
    return CheckContext(m, sample_for(workspace(m), points, 42), FieldEquationConfig(),
                        **kwargs)


def test_krupka_trace_system_is_solved_once_per_block(monkeypatch):
    calls = counting(monkeypatch, "krupka_oracle")
    ctx = context("flrw_dust", 130)
    for name in ("krupka_oracle_match", "krupka_printed_forms"):
        ctx.check(name)
    assert [w13.shape[0] for (w13,) in calls] == [64, 64, 2]


def test_divergence_of_wstar_is_formed_once(monkeypatch):
    direct = counting(monkeypatch, "divergence")
    forms = counting(monkeypatch, "divergence_closed_form")
    names = ("divergence_formula", "divergence_adjusted", "wstar_divergence_free")
    ctx = context("flrw_dust", 8, checks=names)
    for name in names:
        ctx.check(name)
    assert len(direct) == 1
    assert sorted(coeff for *_, coeff in forms) == [1.0 / 6.0, 1.0 / 3.0]
