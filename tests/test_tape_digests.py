"""The compiled expression DAG is pinned for every catalog metric.

For each metric one union tape is compiled over the fields of
``CheckContext._GROUPS``, in order, with the default field-equation
configuration, plus the metric determinant.  The sha256 of its
``code/a/b/cval/outputs`` arrays must match ``tests/golden/tape_digests.json``.
A change to the symbolic layer that adds, drops or reorders a single node
shows up here, before it reaches a residual.

Regenerate the file (only for a change that is meant to move the DAG) with::

    PYTHONPATH=src python tests/test_tape_digests.py > tests/golden/tape_digests.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from wstar.catalog import CATALOG_NAMES, catalog_metric
from wstar.checks import CheckContext
from wstar.matter import FieldEquationConfig

DIGESTS = Path(__file__).parent / "golden" / "tape_digests.json"


def union_tape_digest(name: str) -> str:
    metric = catalog_metric(name)  # shared with test_golden: fields are cached
    ctx = CheckContext(metric, [], FieldEquationConfig())
    names = [n for group in CheckContext._GROUPS for n in group]
    exprs = [e for f in ctx._fields(names).values() for e in f.expressions()]
    tape = ctx.geo._compile(exprs + [ctx.geo.det])
    h = hashlib.sha256()
    for arr in (tape.code, tape.a, tape.b, tape.cval, tape.outputs):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("metric", CATALOG_NAMES)
def test_union_tape_matches_golden_digest(metric):
    assert union_tape_digest(metric) == json.loads(DIGESTS.read_text())[metric]


if __name__ == "__main__":
    print(json.dumps({m: union_tape_digest(m) for m in CATALOG_NAMES}, indent=2))
