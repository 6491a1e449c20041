"""Verdicts do not depend on the units: g and c·g give the same statuses.

A constant rescaling g ↦ c·g (c > 0) is a change of units.  It leaves the
Christoffel symbols, R^h_{jkl} and R_{jk} unchanged, and every condition the
checks score is a tensor equation that either holds for both metrics or
for neither.  So each catalog metric's text, with every ``g[i][j]`` scaled
by c, must give every check the status it has at c = 1.  This is a
metamorphic relation (Chen et al., "Metamorphic Testing: A Review of
Challenges and Opportunities", ACM CSUR 51(1), 2018): it needs no expected
value, only the unscaled run.
"""

import json
import re

import pytest

from wstar.catalog import CATALOG_NAMES, _TEXTS
from wstar.cli import main

SCALES = ("1e-2", "1e2", "1e6", "1e8")

# (metric, c) -> why a check changes status there
KNOWN = {
    ("desitter_flat", "1e6"): (
        "where W* vanishes, wstar_parallel and wstar_semisymmetric score a "
        "round-off residual of O(c) terms against the bare atol (1.06e-9 and "
        "2.3e-9 against 1e-9 here), and quarter_rule and em_distribution "
        "read wstar_parallel"),
    ("desitter_flat", "1e8"): (
        "ricci_flat scores max|R_jk| (weight 0 in c) against a scale of weight 1, "
        "max|R_ijkl| (7.49 against 623); where W* vanishes, wstar_parallel and "
        "wstar_semisymmetric score round-off of O(c) terms against the bare atol "
        "(7.9e-8 and 7.2e-8 against 1e-9), and quarter_rule and em_distribution "
        "read wstar_parallel; dust_vacuum scores max|p| (weight -1) against the "
        "bare atol + rtol (3.0e-8 reads as dust)"),
    ("flrw_dust", "1e8"): (
        "ricci_flat scores max|R_jk| (weight 0 in c) against a scale of weight 1, "
        "max|R_ijkl| (1.48 against 127)"),
    ("perturbed_flat", "1e8"): (
        "ricci_flat and wstar_divergence_free score a residual of weight 0 in c "
        "against a scale of weight 1, max|R_ijkl| and max|nabla W*| (0.199 against "
        "10.0, 7.7e-3 against 0.51); constant_scalar_curvature scores max|grad R| "
        "(weight -1) against the bare atol (3.4e-10 against 1e-9); and "
        "pairing_codazzi_divergence reads wstar_divergence_free"),
}


def statuses(metric, capsys):
    main(["check", "--checks", "all", "--metric", metric, "--points", "8", "--no-timestamp"])
    return {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}


def scaled_text(name, c):
    text, count = re.subn(r"^(g\[\d+\]\[\d+\]) = (.*)$", rf"\1 = {c}*(\2)", _TEXTS[name],
                          flags=re.M)
    assert count == text.count("g[")  # every component, and nothing else
    return text


@pytest.mark.parametrize("name,c", [
    pytest.param(name, c, marks=pytest.mark.xfail(strict=True, reason=KNOWN[name, c]))
    if (name, c) in KNOWN else (name, c)
    for name in CATALOG_NAMES for c in SCALES])
def test_every_check_keeps_its_status_when_g_is_scaled(name, c, tmp_path, capsys):
    path = tmp_path / f"{name}.metric"
    path.write_text(scaled_text(name, c))
    want = statuses(name, capsys)
    got = statuses(str(path), capsys)
    assert {check: got[check] for check in want if got[check] != want[check]} == {}
