"""Command-line interface: config validation, check runs, output formats."""

import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wstar import checks, cli
from wstar.catalog import CATALOG_NAMES
from wstar.checks import REGISTRY
from wstar.cli import (
    EXIT_CHECK_FAILED,
    EXIT_EVAL,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_USAGE,
    EvalError,
    RunConfig,
    UsageError,
    compute_at,
    load_metric,
    main,
    parse_point,
    run_checks,
)
from wstar.relativity import FieldEquationConfig
from wstar.report import render_json, render_table
from wstar.tape import TapeEvalError


def report_for(metric, checks=("all",), points=8, **kw):
    return run_checks(RunConfig(metric=metric, checks=checks, points=points,
                                timestamp=False, **kw))


def by_name(report):
    return {c.name: c for c in report.checks}


MINK_FILE = """
coords = t, x, y, z
domain t = -1 .. 1
domain x = -1 .. 1
domain y = -1 .. 1
domain z = -1 .. 1
g[0][0] = -1
g[1][1] = 1
g[2][2] = 1
g[3][3] = 1
"""


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(metric="minkowski")
        assert cfg.points == 32 and cfg.seed == 42
        assert cfg.rtol == 1e-6 and cfg.atol == 1e-9
        assert cfg.k == 1.0 and cfg.lam == 0.0
        assert cfg.fmt == "json" and cfg.timestamp

    @pytest.mark.parametrize(
        "kw,msg",
        [
            ({"points": 0}, "at least 1"),
            ({"points": -3}, "at least 1"),
            ({"rtol": 0.0}, "rtol"),
            ({"rtol": -1e-9}, "rtol"),
            ({"atol": 0.0}, "atol"),
            ({"fmt": "yaml"}, "format"),
            ({"k": 0.0}, "nonzero"),
            ({"checks": ("einstein", "bogus")}, "bogus"),
            ({"rtol": float("inf")}, "--rtol must be finite"),
            ({"rtol": float("nan")}, "--rtol must be finite"),
            ({"atol": float("inf")}, "--atol must be finite"),
            ({"atol": float("nan")}, "--atol must be finite"),
            ({"k": float("inf")}, "--k must be finite"),
            ({"k": float("-inf")}, "--k must be finite"),
            ({"k": float("nan")}, "--k must be finite"),
            ({"lam": float("inf")}, "--lambda must be finite"),
            ({"lam": float("nan")}, "--lambda must be finite"),
            ({"checks": ("einstein", "codazzi", "einstein")}, "'einstein' given twice"),
        ],
    )
    def test_rejects_bad_values(self, kw, msg):
        with pytest.raises(UsageError, match=msg):
            RunConfig(metric="minkowski", **kw)

    def test_all_plus_named_is_fine(self):
        RunConfig(metric="minkowski", checks=("all",))
        RunConfig(metric="minkowski", checks=("einstein", "codazzi"))


class TestLoadMetric:
    def test_catalog_names(self):
        for name in ("minkowski", "schwarzschild", "flrw_dust"):
            assert load_metric(name).name == name

    def test_from_file(self, tmp_path):
        path = tmp_path / "flat.metric"
        path.write_text(MINK_FILE)
        m = load_metric(str(path))
        assert m.coords == ("t", "x", "y", "z")
        assert m.dim == 4

    def test_unknown_source(self):
        with pytest.raises(UsageError, match="neither a catalog name"):
            load_metric("no_such_metric")


class TestRegistry:
    def test_core_check_names_present(self):
        for name in (
            "ricci_flat", "einstein", "codazzi", "wstar_divergence_free",
            "wstar_flat", "trace_identity", "bianchi_identity",
        ):
            assert name in REGISTRY

    def test_all_checks_run_on_minkowski(self):
        rep = report_for("minkowski", points=4)
        assert [c.name for c in rep.checks] == list(REGISTRY)

    def test_the_checks_keep_their_report_order(self):
        # each check registers itself where it is declared
        assert list(REGISTRY) == [
            "trace_identity", "divergence_formula", "divergence_adjusted", "bianchi_identity",
            "semisymmetry_trace_identity", "krupka_oracle_match", "krupka_printed_forms",
            "field_equation_trace", "weyl_divergence", "ricci_flat", "einstein",
            "constant_scalar_curvature", "codazzi", "ricci_recurrent", "ricci_semisymmetric",
            "wstar_flat", "wstar_divergence_free", "wstar_parallel", "wstar_semisymmetric",
            "quarter_rule", "t_parallel", "t_codazzi", "t_semisymmetric", "em_distribution",
            "dust_vacuum", "pairing_codazzi_divergence", "pairing_einstein_trace",
            "pairing_parallel_semisymmetric", "pairing_flat_parallel_t",
            "pairing_flat_lambda_fluid", "pairing_semisymmetric_t",
        ]

    def test_every_declared_step_and_read_exists(self):
        # the planner walks for what a check declares: a misspelt step would
        # be reduced by no walk, and a misspelt read would stop the planner
        assert checks._DECLARED.keys() == REGISTRY.keys()
        for name, (steps, reads) in checks._DECLARED.items():
            assert set(steps) <= checks._STEPS.keys(), name
            assert set(reads) <= REGISTRY.keys(), name


class TestRunChecks:
    def test_minkowski_everything_passes_tightly(self):
        rep = report_for("minkowski")
        for c in rep.checks:
            assert c.status in ("pass", "not-applicable"), c.name
            assert c.max_residual <= 1e-12, c.name
        assert by_name(rep)["ricci_recurrent"].status == "not-applicable"
        assert not rep.failed

    def test_schwarzschild_vacuum_checks_pass(self):
        rep = report_for(
            "schwarzschild",
            checks=("ricci_flat", "wstar_divergence_free", "codazzi"),
        )
        assert [c.status for c in rep.checks] == ["pass"] * 3
        assert not rep.failed

    def test_dust_cosmology_is_not_einstein(self):
        rep = report_for("flrw_dust", checks=("einstein",))
        c = rep.checks[0]
        assert c.status == "fail"
        assert c.max_residual > 1e-3
        assert rep.failed

    def test_dust_cosmology_divergence_counterexample(self):
        # divergence vanishes even though the Ricci tensor is not Codazzi:
        # the direct check passes, the circulated closed form and the
        # equivalence pairing fail honestly
        rep = report_for("flrw_dust")
        checks = by_name(rep)
        assert checks["wstar_divergence_free"].status == "pass"
        assert checks["divergence_adjusted"].status == "pass"
        assert checks["codazzi"].status == "fail"
        assert checks["divergence_formula"].status == "fail"
        assert "1/6" in checks["divergence_formula"].reason
        assert checks["pairing_codazzi_divergence"].status == "fail"

    def test_generic_metric_fails_divergence_free(self):
        rep = report_for("perturbed_flat", checks=("wstar_divergence_free",),
                         points=4)
        assert rep.checks[0].status == "fail"
        assert rep.checks[0].max_residual > 1e-3

    def test_identities_pass_on_every_catalog_metric(self):
        identities = (
            "trace_identity", "divergence_adjusted", "bianchi_identity",
            "semisymmetry_trace_identity", "krupka_oracle_match",
            "field_equation_trace",
        )
        for name in ("minkowski", "schwarzschild", "desitter_flat",
                     "flrw_dust", "perturbed_flat"):
            rep = report_for(name, checks=identities, points=4)
            for c in rep.checks:
                assert c.status == "pass", (name, c.name, c.max_residual)

    def test_worst_point_is_a_sampled_point(self):
        rep = report_for("flrw_dust", checks=("einstein",))
        c = rep.checks[0]
        assert c.worst_point is not None and len(c.worst_point) == 4
        m = load_metric("flrw_dust")
        for v, (lo, hi) in zip(c.worst_point, m.domain):
            assert lo <= v <= hi

    def test_status_matches_residual_tolerance_comparison(self):
        for metric in ("desitter_flat", "flrw_dust"):
            for c in report_for(metric).checks:
                if c.status == "pass":
                    assert c.max_residual <= c.tolerance
                elif c.status == "fail":
                    assert c.max_residual > c.tolerance

    def test_deterministic_output(self):
        cfg = RunConfig(metric="desitter_flat", points=6, timestamp=False)
        a = render_json(run_checks(cfg))
        b = render_json(run_checks(cfg))
        assert a == b

    def test_seed_changes_sample(self):
        a = report_for("flrw_dust", checks=("einstein",), seed=1)
        b = report_for("flrw_dust", checks=("einstein",), seed=2)
        assert not np.array_equal(a.checks[0].worst_point, b.checks[0].worst_point)


class TestJsonShape:
    def test_schema_keys_and_order(self):
        rep = report_for("schwarzschild", checks=("ricci_flat", "einstein"))
        data = json.loads(render_json(rep))
        assert list(data) == [
            "metric", "seed", "points", "tolerances", "k", "lambda", "checks",
        ]
        assert data["metric"] == "schwarzschild"
        assert data["tolerances"] == {"atol": 1e-9, "rtol": 1e-6}
        for entry in data["checks"]:
            assert set(entry) <= {
                "name", "status", "max_residual", "tolerance",
                "worst_point", "reason",
            }
            assert isinstance(entry["max_residual"], float)
            assert entry["worst_point"] is None or len(entry["worst_point"]) == 4

    def test_timestamp_key_only_when_enabled(self):
        cfg = RunConfig(metric="minkowski", checks=("trace_identity",),
                        points=2)
        data = json.loads(render_json(run_checks(cfg)))
        assert "timestamp" in data
        cfg2 = RunConfig(metric="minkowski", checks=("trace_identity",),
                         points=2, timestamp=False)
        data2 = json.loads(render_json(run_checks(cfg2)))
        assert "timestamp" not in data2

    def test_reason_key_present_only_with_reason(self):
        rep = report_for("flrw_dust", checks=("divergence_formula", "codazzi"))
        data = json.loads(render_json(rep))
        entries = {e["name"]: e for e in data["checks"]}
        assert "reason" in entries["divergence_formula"]
        assert "reason" not in entries["codazzi"]


class TestTableFormat:
    def test_contains_rows_and_notes(self):
        rep = report_for("flrw_dust", checks=("einstein", "divergence_formula"))
        text = render_table(rep)
        assert "metric: flrw_dust" in text
        assert "einstein" in text and "fail" in text
        assert "note [divergence_formula]:" in text

    def test_worst_point_uses_coordinate_names(self):
        rep = report_for("schwarzschild", checks=("ricci_flat",))
        assert "r=" in render_table(rep) and "theta=" in render_table(rep)


class TestEvaluationErrors:
    @pytest.fixture
    def broken(self, monkeypatch):
        def fail(ctx):
            raise TapeEvalError("evaluation left the domain", 2, None)

        monkeypatch.setitem(REGISTRY, "trace_identity", fail)

    def test_json_stays_strict(self, broken, capsys):
        code = main(["check", "--metric", "minkowski", "--points", "4",
                     "--no-timestamp"])

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        data = json.loads(capsys.readouterr().out, parse_constant=refuse)
        entry = {c["name"]: c for c in data["checks"]}["trace_identity"]
        assert code == EXIT_CHECK_FAILED
        assert entry["status"] == "fail"
        assert entry["max_residual"] is None
        assert entry["reason"].startswith("evaluation error: evaluation left the domain")

    def test_table_prints_a_placeholder(self, broken):
        rep = report_for("minkowski", checks=("trace_identity",), points=4)
        row = next(line for line in render_table(rep).splitlines()
                   if line.startswith("trace_identity"))
        assert row.split()[1:3] == ["fail", "-"]

    def test_a_raising_check_runs_once_for_all_its_readers(self, monkeypatch, capsys):
        runs = []

        def fail(ctx):
            runs.append(ctx)
            raise TapeEvalError("evaluation left the domain", 2, None)

        monkeypatch.setitem(REGISTRY, "wstar_flat", fail)
        code = main(["check", "--metric", "minkowski", "--points", "4",
                     "--no-timestamp"])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_CHECK_FAILED
        assert len(runs) == 1
        errors = [c["name"] for c in data["checks"]
                  if c.get("reason", "").startswith("evaluation error: ")]
        assert errors == ["wstar_flat", "dust_vacuum", "pairing_flat_parallel_t",
                          "pairing_flat_lambda_fluid"]
        assert all(c["status"] == "fail" and c["max_residual"] is None
                   for c in data["checks"] if c["name"] in errors)
        assert main(["classify", "--metric", "minkowski", "--points", "4",
                     "--no-timestamp"]) == EXIT_EVAL

    def test_an_overflowing_coupling_is_an_evaluation_error(self, capsys):
        # T = G/k overflows at k = 1e-308: no inf may reach the report
        args = ["--metric", "flrw_dust", "--points", "4", "--k", "1e-308", "--no-timestamp"]
        assert main(["check", "--checks", "all", *args]) == EXIT_CHECK_FAILED
        out = capsys.readouterr()

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        data = json.loads(out.out, parse_constant=refuse)
        assert out.err == ""
        failed = [c for c in data["checks"]
                  if c.get("reason") == "evaluation error: overflow encountered in divide"]
        assert failed and all(c["status"] == "fail" and c["max_residual"] is None
                              for c in failed)
        assert main(["classify", *args]) == EXIT_EVAL
        assert capsys.readouterr().err == "evaluation error: overflow encountered in divide\n"

    def test_a_coupling_error_fails_only_the_checks_that_read_t_or_k(self, capsys):
        # T and ∇T divide by k; every other field, and every check that reads
        # none of T, ∇T and k, comes out as at k = 1
        args = ["--metric", "flrw_dust", "--points", "4", "--no-timestamp"]
        reports = {}
        for k in ("1", "1e-308"):
            assert main(["check", "--checks", "all", *args, "--k", k]) == EXIT_CHECK_FAILED
            out = capsys.readouterr()
            assert out.err == ""
            reports[k] = {c["name"]: c for c in json.loads(out.out)["checks"]}
        changed = [name for name in REGISTRY if reports["1"][name] != reports["1e-308"][name]]
        assert changed == ["field_equation_trace", "t_parallel", "t_codazzi", "t_semisymmetric",
                           "em_distribution", "dust_vacuum", "pairing_parallel_semisymmetric",
                           "pairing_flat_parallel_t", "pairing_semisymmetric_t"]
        for name in changed:
            entry = reports["1e-308"][name]
            assert (entry["status"], entry["max_residual"], entry["reason"]) == (
                "fail", None, "evaluation error: overflow encountered in divide"), name

    def test_check_and_classify_agree_on_a_metric_near_the_edge_of_its_domain(
            self, tmp_path, capsys):
        # g_yy = sqrt(x) on 0.5 <= x <= 1 is evaluated at the sample points
        # only: the recurrence closedness comes from the Ricci identity there,
        # so no copy of a point beyond x = 0 is formed, and check and classify
        # read the same ricci_recurrent outcome
        path = tmp_path / "warped.metric"
        path.write_text("\n".join([
            "dim = 4", "coords = t, x, y, z", "domain t = -1 .. 1", "domain x = 0.5 .. 1",
            "domain y = -1 .. 1", "domain z = -1 .. 1",
            "g[0][0] = -1", "g[1][1] = 1", "g[2][2] = sqrt(x)", "g[3][3] = 1"]))
        args = ["--metric", str(path), "--points", "4", "--no-timestamp"]
        assert main(["check", "--checks", "ricci_recurrent,einstein", *args]) == EXIT_CHECK_FAILED
        recurrent, einstein = json.loads(capsys.readouterr().out)["checks"]
        assert recurrent["status"] == "pass" and recurrent["max_residual"] is not None
        assert recurrent["reason"].startswith("recurrence 1-form closedness residual ")
        assert einstein["max_residual"] is not None
        assert main(["classify", *args]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["flags"]["ricci_recurrent"] is True

    def test_a_float_fault_in_the_recurrence_step_is_an_evaluation_error(self, monkeypatch,
                                                                         capsys):
        # the recurrence step runs in the walk, under the checks' errstate: its
        # fault fails ricci_recurrent alone in check, and classify, which reads
        # that flag, exits with the evaluation error
        args = ["--metric", "flrw_dust", "--points", "4", "--no-timestamp"]
        runs = {}
        for fault in (False, True):
            if fault:
                real = checks._STEPS["recurrence"]

                def overflowing(ctx, f):
                    np.multiply(np.float64(1e308), 10.0)  # raises under the errstate only
                    return real(ctx, f)

                monkeypatch.setitem(checks._STEPS, "recurrence", overflowing)
            code = main(["check", "--checks", "all", *args])
            report = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
            runs[fault] = code, report, main(["classify", *args]), capsys.readouterr()
        code, report, classify, printed = runs[True]
        assert code == EXIT_CHECK_FAILED
        assert report.pop("ricci_recurrent") == {
            "name": "ricci_recurrent", "status": "fail", "max_residual": None,
            "tolerance": 1e-9, "worst_point": None,
            "reason": "evaluation error: overflow encountered in multiply"}
        runs[False][1].pop("ricci_recurrent")
        assert report == runs[False][1]
        assert (classify, printed.out) == (EXIT_EVAL, "")
        assert printed.err == "evaluation error: overflow encountered in multiply\n"

    def test_a_residual_that_is_not_finite_is_an_evaluation_error(self, monkeypatch, capsys):
        monkeypatch.setitem(REGISTRY, "einstein",
                            lambda ctx: ctx.outcome(np.full(len(ctx.points), np.inf), 0.0))
        args = ["--metric", "minkowski", "--points", "4", "--no-timestamp"]
        assert main(["check", "--checks", "einstein", *args]) == EXIT_CHECK_FAILED
        entry = json.loads(capsys.readouterr().out)["checks"][0]
        assert entry["reason"] == "evaluation error: the residual of einstein is inf"


    @pytest.mark.parametrize("error", [ZeroDivisionError("float division by zero"),
                                       np.linalg.LinAlgError("Singular matrix")])
    def test_classify_and_check_agree_on_what_an_evaluation_error_is(
            self, error, monkeypatch, capsys):
        def fail(ctx):
            raise error

        monkeypatch.setitem(REGISTRY, "einstein", fail)
        args = ["--metric", "minkowski", "--points", "4", "--no-timestamp"]
        assert main(["classify", *args]) == EXIT_EVAL
        assert capsys.readouterr().err == f"evaluation error: {error}\n"
        assert main(["check", "--checks", "einstein", *args]) == EXIT_CHECK_FAILED
        entry = json.loads(capsys.readouterr().out)["checks"][0]
        assert entry["reason"] == f"evaluation error: {error}"


class TestParsePoint:
    def setup_method(self):
        self.m = load_metric("schwarzschild")

    def test_full_point(self):
        p = parse_point("t=1,r=4,theta=1.2,phi=0.5", self.m)
        assert np.allclose(p, [1.0, 4.0, 1.2, 0.5])

    def test_order_does_not_matter(self):
        p = parse_point("phi=0.5,t=1,theta=1.2,r=4", self.m)
        assert np.allclose(p, [1.0, 4.0, 1.2, 0.5])

    @pytest.mark.parametrize(
        "at,msg",
        [
            ("t=1,r=4,theta=1.2", "missing coordinate"),
            ("t=1,r=4,theta=1.2,phi=0.5,t=2", "twice"),
            ("t=1,r=4,theta=1.2,phi=abc", "non-numeric"),
            ("t=1,r=4,theta=1.2,q=0", "unknown coordinate"),
            ("t;1", "name=value"),
            ("t=nan,r=4,theta=1.2,phi=0.5", "coordinate 't' must be finite"),
            ("t=1,r=inf,theta=1.2,phi=0.5", "coordinate 'r' must be finite"),
        ],
    )
    def test_usage_errors(self, at, msg):
        with pytest.raises(UsageError, match=msg):
            parse_point(at, self.m)

    def test_out_of_domain_is_an_eval_error(self):
        with pytest.raises(EvalError, match="outside the metric domain"):
            parse_point("t=1,r=2.5,theta=1.2,phi=0.5", self.m)


class TestComputeAt:
    CFG = FieldEquationConfig()

    def test_flat_curvature_prints_zero_banner(self):
        m = load_metric("minkowski")
        out = compute_at("riemann", m, np.zeros(4), self.CFG)
        assert out == "all components zero"

    def test_scalar_curvature_value(self):
        m = load_metric("desitter_flat")
        out = compute_at("scalar", m, np.array([0.1, 0.2, 0.3, 0.1]), self.CFG)
        assert abs(float(out) - 12.0) <= 1e-8

    def test_schwarzschild_metric_entries(self):
        m = load_metric("schwarzschild")
        out = compute_at("metric", m, np.array([1.0, 4.0, 1.2, 0.5]), self.CFG)
        lines = dict(l.split(": ") for l in out.splitlines())
        assert float(lines["(0,0)"]) == pytest.approx(-0.5)
        assert float(lines["(1,1)"]) == pytest.approx(2.0)
        assert float(lines["(2,2)"]) == pytest.approx(16.0)
        assert "(0,1)" not in lines  # zero entries are not listed

    def test_vacuum_contraction_is_numerically_zero(self):
        m = load_metric("schwarzschild")
        out = compute_at(
            "wstar_contraction", m, np.array([1.0, 4.0, 1.2, 0.5]), self.CFG
        )
        if out != "all components zero":
            for line in out.splitlines():
                assert abs(float(line.split(": ")[1])) <= 1e-9

    def test_krupka_parts_on_flat_space(self):
        m = load_metric("minkowski")
        out = compute_at("krupka", m, np.zeros(4), self.CFG)
        assert out.splitlines() == [
            "B: all components zero",
            "C: all components zero",
            "D: all components zero",
            "E: all components zero",
        ]

    def test_energy_momentum_with_cosmological_constant(self):
        # vacuum + lambda: T = (lam/k) g, so the tt entry is -lam/k
        m = load_metric("minkowski")
        cfg = FieldEquationConfig(k=2.0, lam=0.5)
        out = compute_at("energy_momentum", m, np.zeros(4), cfg)
        lines = dict(l.split(": ") for l in out.splitlines())
        assert float(lines["(0,0)"]) == pytest.approx(-0.25)
        assert float(lines["(1,1)"]) == pytest.approx(0.25)

    def test_lexicographic_entry_order(self):
        m = load_metric("schwarzschild")
        out = compute_at("riemann", m, np.array([1.0, 4.0, 1.2, 0.5]), self.CFG)
        keys = [l.split(": ")[0] for l in out.splitlines()]
        assert keys == sorted(keys)

    # a point of each metric where T = G/k overflows at k = 1e-308
    OVERFLOW_AT = {"desitter_flat": "t=0.1,x=0.2,y=0.3,z=0.1",
                   "flrw_dust": "t=1,x=0.1,y=0.2,z=0.3"}

    @pytest.mark.parametrize("metric", OVERFLOW_AT)
    @pytest.mark.parametrize("tensor", [t for t in cli._TENSOR_NAMES if t != "energy_momentum"])
    def test_a_tensor_without_t_does_not_read_the_coupling(self, tensor, metric, capsys):
        args = ["compute", "--metric", metric, "--tensor", tensor,
                "--at", self.OVERFLOW_AT[metric]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*args, "--k", "1"]) == EXIT_OK
            want = capsys.readouterr()
            assert main([*args, "--k", "1e-308"]) == EXIT_OK
            got = capsys.readouterr()
        assert (got.out, got.err) == (want.out, "")

    def test_an_overflowing_t_is_an_evaluation_error(self, capsys):
        # T divides by k under the checks' float rule, so compute, like
        # classify, exits 3 with one line where T overflows
        at = self.OVERFLOW_AT["desitter_flat"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["compute", "--metric", "desitter_flat", "--tensor", "energy_momentum",
                         "--k", "1e-308", "--at", at])
        out = capsys.readouterr()
        assert (code, out.out) == (EXIT_EVAL, "")
        assert out.err == "evaluation error: overflow encountered in divide\n"


class TestMainEndToEnd:
    def test_catalog_list(self, capsys):
        assert main(["catalog", "list"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("minkowski", "schwarzschild", "desitter_flat",
                     "flrw_dust", "perturbed_flat"):
            assert name in out

    def test_check_minkowski_all_pass(self, capsys):
        code = main(["check", "--metric", "minkowski", "--points", "8",
                     "--no-timestamp"])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert all(c["status"] != "fail" for c in data["checks"])
        assert all(c["max_residual"] <= 1e-12 for c in data["checks"])

    def test_check_failure_exit_code(self, capsys):
        code = main(["check", "--metric", "flrw_dust", "--checks", "einstein",
                     "--points", "6", "--no-timestamp"])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_CHECK_FAILED
        assert data["checks"][0]["status"] == "fail"

    def test_check_table_format(self, capsys):
        code = main(["check", "--metric", "schwarzschild", "--checks",
                     "ricci_flat,codazzi", "--points", "4", "--format",
                     "table", "--no-timestamp"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "ricci_flat" in out and "pass" in out

    def test_check_metric_file(self, tmp_path, capsys):
        path = tmp_path / "flat.metric"
        path.write_text(MINK_FILE)
        code = main(["check", "--metric", str(path), "--checks",
                     "trace_identity,ricci_flat", "--points", "4",
                     "--no-timestamp"])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert all(c["status"] == "pass" for c in data["checks"])

    def test_metric_file_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.metric"
        path.write_text("coords = t, x\ng[0][0] = -(1\n")
        code = main(["check", "--metric", str(path)])
        assert code == EXIT_USAGE
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "classify"])
    @pytest.mark.parametrize("text,dim", [
        ("coords = t, x\ng[0][0] = -1\ng[1][1] = t^2 + x^2\n", 2),
        ("coords = t, x, y\ng[0][0] = -1\ng[1][1] = t^2 + x^2\ng[2][2] = t^2\n", 3),
    ])
    def test_metric_of_other_dim_is_refused(self, command, text, dim, tmp_path,
                                            capsys, monkeypatch):
        # the checks use four-dimensional constants; refused before sampling
        path = tmp_path / f"dim{dim}.metric"
        path.write_text(text)
        monkeypatch.setattr(cli, "sample_for", None)  # must not be reached
        assert main([command, "--metric", str(path), "--points", "4"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: metric 'dim{dim}' has dim {dim}; check and classify need dim 4"]

    @pytest.mark.parametrize("text,at", [
        ("coords = th, ph\ndomain th = 0.3 .. 2.8\ndomain ph = 0 .. 6\n"
         "g[0][0] = 1\ng[1][1] = sin(th)^2\n", "th=1,ph=0.5"),
        ("coords = t, x, y\ndomain t = 0.5 .. 2\ndomain x = -1 .. 1\ndomain y = -1 .. 1\n"
         "g[0][0] = -1\ng[1][1] = t^2\ng[2][2] = t^2 + x^2\n", "t=1,x=0.2,y=0.3"),
    ], ids=["sphere2", "dim3"])
    def test_compute_accepts_a_metric_of_other_dim(self, text, at, tmp_path, capsys):
        # compute reads the 3-jet fields, which hold in any dim; only
        # Weyl (dim >= 3) and the trace decomposition (dim 4) refuse
        path = tmp_path / "metric.txt"
        path.write_text(text)
        dim = text.count("domain")
        for tensor in ("metric", "christoffel", "riemann", "ricci", "scalar", "wstar",
                       "energy_momentum", "weyl", "krupka"):
            code = main(["compute", "--metric", str(path), "--tensor", tensor, "--at", at])
            out, err = capsys.readouterr()
            if tensor == "krupka" or (tensor == "weyl" and dim < 3):
                assert (code, out) == (EXIT_USAGE, ""), tensor
                want = "dim 4" if tensor == "krupka" else "conformal curvature needs dim >= 3"
                assert want in err, (tensor, err)
            else:
                assert (code, err) == (EXIT_OK, ""), (tensor, err)
                assert out.strip(), tensor

    def test_unknown_metric_is_usage_error(self, capsys):
        assert main(["check", "--metric", "nope"]) == EXIT_USAGE
        assert "neither a catalog name" in capsys.readouterr().err

    def test_unknown_check_is_usage_error(self, capsys):
        code = main(["check", "--metric", "minkowski", "--checks", "nope"])
        assert code == EXIT_USAGE
        assert "unknown check" in capsys.readouterr().err

    def test_bad_points_is_usage_error(self, capsys):
        code = main(["check", "--metric", "minkowski", "--points", "0"])
        assert code == EXIT_USAGE

    def test_infinite_atol_is_usage_error(self, capsys):
        # an infinite tolerance would pass ricci_flat on de Sitter
        code = main(["check", "--metric", "desitter_flat", "--points", "4",
                     "--atol", "inf", "--format", "table", "--no-timestamp",
                     "--checks", "ricci_flat"])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert out == "" and "--atol must be finite" in err

    def test_compute_infinite_coupling_is_usage_error(self, capsys):
        # T = (1/k)(...) would print "all components zero"
        code = main(["compute", "--metric", "desitter_flat", "--tensor",
                     "energy_momentum", "--at", "t=0.1,x=0.2,y=0.3,z=0.1",
                     "--k", "inf"])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert out == "" and "must be finite" in err

    def test_bad_tensor_choice_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--metric", "minkowski", "--tensor", "nope",
                  "--at", "t=0,x=0,y=0,z=0"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_subcommand_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_compute_zero_banner(self, capsys):
        code = main(["compute", "--metric", "minkowski", "--tensor", "riemann",
                     "--at", "t=1,x=0.5,y=0.2,z=0.1"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "all components zero"

    def test_compute_scalar(self, capsys):
        code = main(["compute", "--metric", "desitter_flat", "--tensor",
                     "scalar", "--at", "t=0.1,x=0.2,y=0.3,z=0.1"])
        assert code == EXIT_OK
        assert abs(float(capsys.readouterr().out) - 12.0) <= 1e-8

    def test_compute_out_of_domain(self, capsys):
        code = main(["compute", "--metric", "schwarzschild", "--tensor",
                     "ricci", "--at", "t=1,r=1,theta=1.2,phi=0.5"])
        assert code == EXIT_EVAL
        assert "outside the metric domain" in capsys.readouterr().err

    def test_classify_clean_metric(self, capsys):
        code = main(["classify", "--metric", "desitter_flat", "--points", "6",
                     "--no-timestamp"])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert data["flags"]["einstein"] is True
        assert data["flags"]["ricci_flat"] is False
        assert all(p["holds"] is not False for p in data["pairings"])

    def test_classify_flags_divergence_counterexample(self, capsys):
        code = main(["classify", "--metric", "flrw_dust", "--points", "6",
                     "--no-timestamp", "--format", "table"])
        out = capsys.readouterr().out
        assert code == EXIT_CHECK_FAILED
        assert "VIOLATED" in out
        assert "codazzi_iff_divergence_free" in out

    def test_classify_json_shape(self, capsys):
        main(["classify", "--metric", "minkowski", "--points", "4",
              "--no-timestamp"])
        data = json.loads(capsys.readouterr().out)
        assert list(data)[:6] == ["metric", "seed", "points", "tolerances",
                                  "k", "lambda"]
        assert set(data["flags"]) == set(data["residuals"])
        assert len(data["pairings"]) == 6

    @pytest.mark.parametrize("metric", CATALOG_NAMES)
    def test_check_and_classify_open_with_the_same_header(self, metric, capsys):
        args = ["--metric", metric, "--points", "4", "--seed", "3", "--atol", "1e-8",
                "--rtol", "1e-5", "--k", "2", "--lambda", "0.5", "--no-timestamp"]
        heads = {}
        for cmd in ("check", "classify"):
            main([cmd, *args])
            heads[cmd] = list(json.loads(capsys.readouterr().out).items())[:6]
        assert heads["check"] == heads["classify"]
        assert [key for key, _ in heads["check"]] == [
            "metric", "seed", "points", "tolerances", "k", "lambda"]
        assert heads["check"][3] == ("tolerances", {"atol": 1e-8, "rtol": 1e-5})

        def table_head(cmd):
            main([cmd, *args, "--format", "table"])
            first = capsys.readouterr().out.splitlines()[0]
            fields = dict(item.split(": ") for item in first.split("   "))
            return {key: fields[key] for key in ("metric", "points", "seed")}

        assert table_head("check") == table_head("classify") == {
            "metric": metric, "points": "4", "seed": "3"}

    def test_byte_identical_reruns(self, capsys):
        args = ["check", "--metric", "desitter_flat", "--checks",
                "trace_identity,einstein", "--points", "6", "--no-timestamp"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


class TestNegativeFlagValues:
    """``--k -1e-3`` parses as ``--k=-1e-3``: same stdout, stderr and exit code.

    argparse alone takes a negative value in exponent form, or ``-inf`` and
    ``-nan``, after a space for an option and exits 2.
    """

    VALUES = ("-1e-3", "-inf", "-nan")
    RUN_FLAGS = ("--k", "--lambda", "--rtol", "--atol")

    @staticmethod
    def both_forms(capsys, argv, flag, value):
        spaced = main(argv + [flag, value]), capsys.readouterr()
        joined = main(argv + [f"{flag}={value}"]), capsys.readouterr()
        assert spaced == joined
        code, (out, err) = spaced
        if value == "-1e-3" and flag in ("--k", "--lambda"):
            assert code != EXIT_USAGE and out
        else:
            assert code == EXIT_USAGE and out == ""
            assert ("must be finite" if value != "-1e-3" else "must be positive") in err

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("flag", RUN_FLAGS)
    def test_check(self, capsys, flag, value):
        argv = ["check", "--metric", "desitter_flat", "--points", "4",
                "--checks", "einstein,field_equation_trace", "--no-timestamp"]
        self.both_forms(capsys, argv, flag, value)

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("flag", RUN_FLAGS)
    def test_classify(self, capsys, flag, value):
        argv = ["classify", "--metric", "desitter_flat", "--points", "4",
                "--no-timestamp"]
        self.both_forms(capsys, argv, flag, value)

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("flag", ("--k", "--lambda"))
    def test_compute(self, capsys, flag, value):
        argv = ["compute", "--metric", "desitter_flat", "--tensor",
                "energy_momentum", "--at", "t=0.1,x=0.2,y=0.3,z=0.1"]
        self.both_forms(capsys, argv, flag, value)


class TestAbbreviatedNegativeFlagValues:
    """An unambiguous prefix of a float flag takes a spaced negative value as
    the whole flag does after "=", judged among the command's own flags."""

    @staticmethod
    def same_as_whole_flag(capsys, argv, prefix, flag, value="-1e-3"):
        spaced = main(argv + [prefix, value]), capsys.readouterr()
        whole = main(argv + [f"{flag}={value}"]), capsys.readouterr()
        assert spaced == whole
        return spaced

    @pytest.mark.parametrize("prefix,flag", [
        ("--at", "--atol"), ("--r", "--rtol"), ("--lam", "--lambda")])
    def test_check(self, capsys, prefix, flag):
        argv = ["check", "--metric", "desitter_flat", "--points", "4",
                "--checks", "einstein,field_equation_trace", "--no-timestamp"]
        self.same_as_whole_flag(capsys, argv, prefix, flag)

    @pytest.mark.parametrize("prefix,flag", [
        ("--at", "--atol"), ("--l", "--lambda")])
    def test_classify(self, capsys, prefix, flag):
        argv = ["classify", "--metric", "desitter_flat", "--points", "4",
                "--no-timestamp"]
        self.same_as_whole_flag(capsys, argv, prefix, flag)

    def test_compute(self, capsys):
        argv = ["compute", "--metric", "desitter_flat", "--tensor",
                "energy_momentum", "--at", "t=0.1,x=0.2,y=0.3,z=0.1"]
        code, (out, _) = self.same_as_whole_flag(capsys, argv, "--lam", "--lambda")
        assert code == EXIT_OK and out

    def test_compute_point_flag_is_not_atol(self, capsys):
        argv = ["compute", "--metric", "desitter_flat", "--tensor",
                "energy_momentum", "--at", "-1e-3"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "argument --at: expected one argument" in capsys.readouterr().err


class TestProcessEntry:
    """``python -m wstar.cli`` runs ``console_entry``: same bytes as ``main``."""

    @staticmethod
    def spawn(args, **kw):
        env = dict(os.environ)
        # block-buffered stdout, so a missing flush before os._exit loses output
        env.pop("PYTHONUNBUFFERED", None)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.Popen([sys.executable, "-m", "wstar.cli", *args],
                                env=env, stderr=subprocess.DEVNULL, **kw)

    CASES = {
        EXIT_OK: ["check", "--metric", "minkowski", "--points", "4",
                  "--no-timestamp"],
        EXIT_CHECK_FAILED: ["check", "--metric", "flrw_dust", "--points", "4",
                            "--no-timestamp"],
        EXIT_USAGE: ["check", "--metric", "nope"],
        EXIT_EVAL: ["compute", "--metric", "schwarzschild", "--tensor",
                    "ricci", "--at", "t=1,r=1,theta=1.2,phi=0.5"],
    }

    def test_same_stdout_and_exit_code_as_main(self, capsys):
        # all processes start first, so they overlap the in-process runs
        procs = {code: self.spawn(args, stdout=subprocess.PIPE)
                 for code, args in self.CASES.items()}
        try:
            for code, args in self.CASES.items():
                collecting = gc.isenabled()
                assert main(args) == code
                assert gc.isenabled() == collecting
                out = capsys.readouterr().out
                stdout, _ = procs[code].communicate(timeout=120)
                assert procs[code].returncode == code
                assert stdout == out.encode()
        finally:
            for proc in procs.values():
                proc.kill()
                proc.communicate()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_a_nonzero_exit(self):
        # a short output fails at the final flush
        with open("/dev/full", "wb") as full, \
                self.spawn(["catalog", "list"], stdout=full) as proc:
            assert proc.wait(timeout=60) == EXIT_OUTPUT

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_of_a_report_is_not_a_failed_check(self):
        # a report longer than the stream buffer fails inside print()
        with open("/dev/full", "wb") as full, \
                self.spawn(self.CASES[EXIT_OK], stdout=full) as proc:
            assert proc.wait(timeout=120) == EXIT_OUTPUT
