"""One analysis layer: every command evaluates each tape once per point set.

``check --checks all`` and ``classify`` read one
:class:`wstar.checks.CheckContext`, which takes each tape's values and, for
the covariant derivatives, its partials from one evaluation; the classification flags and the theorem
pairings are views over its check outcomes.  The sampler tests a block of
candidates with one det g evaluation.  These guards count the kernel calls
and the classification builds of one command, and the det g evaluations of
one sample.
"""

from collections import Counter

import numpy as np
import pytest

from wstar import checks
from wstar.catalog import catalog_metric
from wstar.cli import RunConfig, classify_payload, run_checks, sample_for
from wstar.geometry import workspace
from wstar.tape import Tape


@pytest.fixture
def evaluations(monkeypatch):
    """Counter of (tape, point array) pairs passed to ``Tape.evaluate`` or
    ``Tape.evaluate_tangents``: either mode counts as one evaluation."""
    seen = Counter()

    def counting(real):
        def counted(self, points, *args, **kwargs):
            pts = np.ascontiguousarray(points, dtype=np.float64)
            seen[(id(self), pts.shape, pts.tobytes())] += 1
            return real(self, points, *args, **kwargs)

        return counted

    for name in ("evaluate", "evaluate_tangents"):
        monkeypatch.setattr(Tape, name, counting(getattr(Tape, name)))
    return seen


@pytest.fixture
def classifications(monkeypatch):
    """Contexts for which the classification record was built."""
    built = []
    real = checks.classification

    def counted(ctx):
        built.append(ctx)
        return real(ctx)

    monkeypatch.setattr(checks, "classification", counted)
    return built


@pytest.mark.parametrize("command", [run_checks, classify_payload])
def test_one_evaluation_per_tape_and_point_set(command, evaluations, classifications):
    command(RunConfig(metric="flrw_dust", timestamp=False))
    assert evaluations
    repeated = {key[:2]: n for key, n in evaluations.items() if n > 1}
    assert not repeated
    assert len(classifications) == 1


def test_sampler_evaluates_det_once_per_block(evaluations):
    geo = workspace(catalog_metric("schwarzschild"))
    sample_for(geo, 1024, 42)
    det = id(geo._det_tape)
    assert sum(n for key, n in evaluations.items() if key[0] == det) == 1
