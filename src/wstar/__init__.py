"""Symbolic-numeric tensor calculus for W*-curvature analysis of 4D space-times.

The package differentiates a user-supplied metric symbolically (exact
rational coefficients) up to its 3-jet, forms every curvature object from
that jet at deterministic sample points through compiled expression tapes,
and checks identities, space-time properties, and theorem-consistency
pairings against independent numerical oracles.

Entry points:

* :mod:`wstar.exprlib` - scalar expression algebra (parse, differentiate).
* :mod:`wstar.geometry` - metric -> connection -> curvature pipeline.
* :mod:`wstar.jet` - the curvature from the metric's 3-jet, for every command.
* :mod:`wstar.wstar` - the modified curvature tensor and its identities.
* :mod:`wstar.matter` - field equations and perfect-fluid algebra.
* :mod:`wstar.checks` - the check registry over one evaluated-field context.
* :mod:`wstar.relativity` - matter content, classification, pairings.
* :mod:`wstar.cli` - the ``wstar`` command (checks, compute, classify).
"""

from .catalog import CATALOG_NAMES, catalog_metric
from .geometry import MetricSpec, workspace
from .metricfile import load_metric as load_metric_file
from .relativity import FieldEquationConfig, classify, pairing_checks
from .wstar import wstar_tensor

__version__ = "0.1.0"

__all__ = [
    "CATALOG_NAMES",
    "FieldEquationConfig",
    "MetricSpec",
    "catalog_metric",
    "classify",
    "load_metric_file",
    "pairing_checks",
    "wstar_tensor",
    "workspace",
    "__version__",
]
