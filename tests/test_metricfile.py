"""Tests for the line-oriented metric file format."""

import re
from pathlib import Path

import pytest

from wstar.exprlib import UNARY_FUNCTIONS, Point, const, evaluate
from wstar.metricfile import MetricFileError, load_metric, parse_metric_text

GOOD = """\
# exterior metric
dim = 4
coords = t, r, theta, phi
param M = 1.0
domain t = 0 .. 10
domain r = 3.0 .. 20.0    # keep away from the horizon
domain theta = 0.3 .. 2.8
domain phi = 0 .. 6.28
g[0][0] = -(1 - 2*M/r)
g[1][1] = 1/(1 - 2*M/r)
g[2][2] = r^2
g[3][3] = r^2 * sin(theta)^2
"""


class TestParseGood:
    def test_basic_fields(self):
        spec = parse_metric_text(GOOD, "exterior")
        assert spec.name == "exterior"
        assert spec.coords == ("t", "r", "theta", "phi")
        assert spec.dim == 4
        assert spec.params == {"M": 1.0}
        assert spec.domain[1] == (3.0, 20.0)

    def test_component_values(self):
        spec = parse_metric_text(GOOD, "exterior")
        p = Point((0.0, 4.0, 1.5707963267948966, 0.0), {"M": 1.0})
        assert evaluate(spec.g[0][0], p) == pytest.approx(-0.5)
        assert evaluate(spec.g[1][1], p) == pytest.approx(2.0)
        assert evaluate(spec.g[2][2], p) == pytest.approx(16.0)

    def test_unset_components_are_zero(self):
        spec = parse_metric_text(GOOD, "exterior")
        assert spec.g[0][1] == const(0)
        assert spec.g[2][3] == const(0)

    def test_dim_defaults_to_coordinate_count(self):
        spec = parse_metric_text("coords = u, v\ng[0][0] = 1\ng[1][1] = 1\n", "m")
        assert spec.dim == 2

    def test_domain_defaults_to_unit_interval(self):
        spec = parse_metric_text("coords = u, v\ng[0][0] = 1\ng[1][1] = 1\n", "m")
        assert spec.domain == ((0.0, 1.0), (0.0, 1.0))

    def test_symmetric_entry_stored_once(self):
        text = "coords = u, v\ng[0][1] = u*v\ng[0][0] = 1\ng[1][1] = 1\n"
        spec = parse_metric_text(text, "m")
        assert spec.g[0][1] is spec.g[1][0]

    def test_equal_respecification_allowed(self):
        text = "coords = u, v\ng[0][1] = u*v\ng[1][0] = u*v\ng[0][0] = 1\ng[1][1] = 1\n"
        spec = parse_metric_text(text, "m")
        p = Point((2.0, 3.0), {})
        assert evaluate(spec.g[1][0], p) == 6.0

    def test_g_lines_may_precede_coords(self):
        text = "g[0][0] = -1\ng[1][1] = 1\ncoords = t, x\n"
        spec = parse_metric_text(text, "m")
        assert evaluate(spec.g[0][0], Point((0.0, 0.0), {})) == -1.0


class TestParseErrors:
    def check(self, text, fragment, line):
        with pytest.raises(MetricFileError) as err:
            parse_metric_text(text, "m")
        assert fragment in str(err.value)
        assert err.value.line == line

    def test_missing_coords(self):
        # reported at end of input
        self.check("dim = 2\n", "missing coords", 2)

    def test_dim_coords_mismatch(self):
        self.check("dim = 3\ncoords = u, v\n", "2 coordinates", 1)

    def test_bad_dim(self):
        self.check("dim = two\ncoords = u, v\n", "not an integer", 1)

    def test_duplicate_dim(self):
        self.check("dim = 2\ndim = 2\ncoords = u, v\n", "duplicate dim", 2)

    def test_bad_coordinate_name(self):
        self.check("coords = u, 2v\n", "bad coordinate name", 1)

    def test_repeated_coordinate(self):
        self.check("coords = u, u\n", "repeated coordinate", 1)

    def test_param_shadows_coordinate(self):
        self.check("coords = u, v\nparam u = 1.0\n", "shadows a coordinate", 1)

    def test_bad_param_value(self):
        self.check("coords = u\nparam a = one\n", "not a number", 2)

    @pytest.mark.parametrize("line", [
        "param a = nan",
        "param a = inf",
        "param a = -inf",
        "param a = 1e400",
        "domain u = -inf .. 0",
        "domain u = 0 .. inf",
        "domain u = nan .. 1",
        "domain u = 0 .. nan",
        "g[0][0] = 1e400*u",
        "g[0][0] = u^1e400",
    ])
    def test_non_finite_number(self, line):
        self.check(f"coords = u\n{line}\ng[0][0] = 1\n", "must be finite", 2)

    def test_domain_unknown_coordinate(self):
        self.check("coords = u\ndomain w = 0 .. 1\ng[0][0] = 1\n", "unknown coordinate", 2)

    def test_domain_wrong_order(self):
        self.check("coords = u\ndomain u = 2 .. 1\n", "below upper", 2)

    def test_domain_missing_separator(self):
        self.check("coords = u\ndomain u = 0 - 1\n", "lo .. hi", 2)

    def test_index_out_of_range(self):
        self.check("coords = u, v\ng[0][2] = 1\n", "out of range", 2)

    def test_bad_expression_reports_line(self):
        self.check("coords = u, v\ng[0][0] = 1 +\n", "bad expression", 2)

    def test_unknown_name_in_expression(self):
        self.check("coords = u, v\ng[0][0] = q\n", "bad expression", 2)

    def test_symmetric_conflict_cites_both_lines(self):
        text = "coords = u, v\ng[0][1] = u\ng[1][0] = v\n"
        with pytest.raises(MetricFileError) as err:
            parse_metric_text(text, "m")
        assert "conflicts with line 2" in str(err.value)
        assert err.value.line == 3

    def test_unrecognized_line(self):
        self.check("coords = u\nsize = 3\n", "unrecognized", 2)


class TestLoadMetric:
    def test_name_comes_from_file_stem(self, tmp_path):
        path = tmp_path / "toy_metric.txt"
        path.write_text("coords = u, v\ng[0][0] = -1\ng[1][1] = 1\n")
        spec = load_metric(path)
        assert spec.name == "toy_metric"
        assert spec.dim == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(MetricFileError, match="cannot read"):
            load_metric(tmp_path / "nope.txt")


def test_readme_lists_the_parser_functions():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"the functions\s+`([^`]+)`", readme)
    assert listed is not None
    assert tuple(listed.group(1).split()) == UNARY_FUNCTIONS
