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

from importlib import import_module

# public name -> (module that defines it, its name there).  ``import wstar``
# loads no submodule and not numpy: each name is imported on first use
# (PEP 562), so a command process loads only the modules it runs.
_EXPORTS = {
    "CATALOG_NAMES": ("catalog", "CATALOG_NAMES"),
    "FieldEquationConfig": ("matter", "FieldEquationConfig"),
    "MetricSpec": ("geometry", "MetricSpec"),
    "catalog_metric": ("catalog", "catalog_metric"),
    "classify": ("relativity", "classify"),
    "load_metric_file": ("metricfile", "load_metric"),
    "pairing_checks": ("relativity", "pairing_checks"),
    "wstar_tensor": ("wstar", "wstar_tensor"),
    "workspace": ("geometry", "workspace"),
}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), attr)
    globals()[name] = value  # later lookups skip this hook
    return value
