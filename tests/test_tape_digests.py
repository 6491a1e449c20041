"""The compiled expression DAG is pinned for every catalog metric.

For each metric one union tape is compiled over the fields listed in
``UNION_FIELDS``, in order, with the default field-equation configuration,
plus the metric determinant.  The list is written out here rather than read
from ``CheckContext``: its names and order are those of the evaluation
groups the pins were recorded with (the symbolic covariant derivatives
included), so the digests stay byte-identical when the check layer
regroups its fields or takes its derivatives another way.  A second tape, keyed
``lie:<metric>``, covers the Lie-derivative fields: L_ξ g and L_ξ T for both
built-in vector fields, in order, with T at the default configuration.  The
sha256 of each tape's ``code/a/b/cval/outputs`` arrays must match
``tests/golden/tape_digests.json``.  A change to the symbolic layer that adds, drops or reorders a single node
shows up here, before it reaches a residual.

Regenerate the file (only for a change that is meant to move the DAG) with::

    PYTHONPATH=src python tests/test_tape_digests.py > tests/golden/tape_digests.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from wstar import wstar as ws
from wstar.catalog import CATALOG_NAMES, builtin_vector_fields, catalog_metric
from wstar.geometry import workspace
from wstar.matter import FieldEquationConfig, energy_momentum

from test_forward_derivatives import nabla_energy_momentum, nabla_weyl

DIGESTS = Path(__file__).parent / "golden" / "tape_digests.json"


# (name, field of a metric at the default configuration), in tape order
UNION_FIELDS = (
    ("g", lambda m, geo: geo.g),
    ("ginv", lambda m, geo: geo.ginv),
    ("ric", lambda m, geo: geo.ricci),
    ("R", lambda m, geo: geo.scalar_field),
    ("gradR", lambda m, geo: geo.grad_scalar),
    ("nric", lambda m, geo: geo.nabla_ricci),
    ("r13", lambda m, geo: geo.riemann13),
    ("r4", lambda m, geo: ws.swapped_riemann(geo)),
    ("w04", lambda m, geo: ws.wstar_tensor(m).wstar04),
    ("w13", lambda m, geo: ws.wstar_tensor(m).wstar13),
    ("w02", lambda m, geo: ws.wstar_tensor(m).wstar02),
    ("dw", lambda m, geo: ws._nabla_wstar04(geo)),
    ("weyl", lambda m, geo: geo.weyl),
    ("nweyl", lambda m, geo: nabla_weyl(geo)),
    ("t", lambda m, geo: energy_momentum(m, FieldEquationConfig())),
    ("nt", lambda m, geo: nabla_energy_momentum(m, geo)),
)


def union_tape_digest(name: str) -> str:
    metric = catalog_metric(name)  # shared with test_golden: fields are cached
    geo = workspace(metric)
    exprs = [e for _, field in UNION_FIELDS for e in field(metric, geo).expressions()]
    return _digest(geo._compile(exprs + [geo.det]))


def lie_tape_digest(name: str) -> str:
    metric = catalog_metric(name)
    geo = workspace(metric)
    t = energy_momentum(metric, FieldEquationConfig())
    fields = []
    for xi in builtin_vector_fields(metric):
        fields += [geo.lie_derivative_metric(xi), geo.lie_derivative_sym2(xi, t)]
    return _digest(geo._compile([e for f in fields for e in f.expressions()]))


def _digest(tape) -> str:
    h = hashlib.sha256()
    for arr in (tape.code, tape.a, tape.b, tape.cval, tape.outputs):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("metric", CATALOG_NAMES)
def test_union_tape_matches_golden_digest(metric):
    assert union_tape_digest(metric) == json.loads(DIGESTS.read_text())[metric]


@pytest.mark.parametrize("metric", CATALOG_NAMES)
def test_lie_derivative_tape_matches_golden_digest(metric):
    assert lie_tape_digest(metric) == json.loads(DIGESTS.read_text())[f"lie:{metric}"]


if __name__ == "__main__":
    digests = {m: union_tape_digest(m) for m in CATALOG_NAMES}
    digests.update({f"lie:{m}": lie_tape_digest(m) for m in CATALOG_NAMES})
    print(json.dumps(digests, indent=2))
