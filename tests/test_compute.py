"""``compute`` reads every tensor from the metric's 3-jet, as ``check`` does.

Each ``--tensor`` is compared with the symbolic field of the same name
(:mod:`wstar.geometry`, :func:`wstar.wstar.wstar_tensor`,
:func:`wstar.matter.energy_momentum`) on the catalog metrics and on metric
files of dim 1, 2, 3 and 5.  Where the symbolic field refuses a dim, the
command exits 2 with the same message.  The other tests pin the one
evaluation rule: a point is evaluated when g is non-singular there and its
3-jet is finite, else the command exits 3 naming the point, whatever the
tensor.
"""

import warnings

import numpy as np
import pytest

from wstar import catalog, cli, matter, wstar as ws
from wstar.cli import EXIT_EVAL, EXIT_OK, EXIT_USAGE, _TENSOR_NAMES, main
from wstar.geometry import Geometry
from wstar.metricfile import parse_metric_text

CFG = matter.FieldEquationConfig()

# a fixed in-domain point per catalog metric
CATALOG_POINTS = {
    "minkowski": "t=0.1,x=0.2,y=0.3,z=0.1",
    "schwarzschild": "t=1,r=4,theta=1.2,phi=0.5",
    "desitter_flat": "t=0.1,x=0.2,y=0.3,z=0.1",
    "flrw_dust": "t=1,x=0.2,y=0.3,z=0.1",
    "perturbed_flat": "t=0.1,x=0.2,y=0.3,z=0.1",
}

# metric files of other dims, each with a point in its domain
FILES = {
    "dim1": ("coords = x\ndomain x = 0.5 .. 2\ng[0][0] = x^2\n", "x=1.5"),
    "dim2": ("coords = th, ph\ndomain th = 0.3 .. 2.8\ndomain ph = 0 .. 6\n"
             "g[0][0] = 1\ng[1][1] = sin(th)^2\n", "th=1,ph=0.5"),
    "dim3": ("coords = t, x, y\ndomain t = 0.5 .. 2\ndomain x = -1 .. 1\n"
             "domain y = -1 .. 1\ng[0][0] = -1\ng[1][1] = t^2\ng[2][2] = t^2 + x^2\n",
             "t=1,x=0.2,y=0.3"),
    "dim5": ("coords = t, x, y, z, w\n" + "".join(f"domain {c} = -0.5 .. 0.5\n" for c in "txyzw")
             + "g[0][0] = -1\ng[0][1] = 0.1*y\ng[1][1] = 1 + t^2\ng[2][2] = exp(x)\n"
             "g[3][3] = 1 + x*y\ng[4][4] = 1 + 0.1*t*z\n", "t=0.1,x=0.2,y=0.3,z=0.1,w=0.4"),
}


def symbolic(tensor: str, metric, point: np.ndarray) -> list:
    """[(label, values)] of the symbolic field at the point; raises the
    symbolic route's ``ValueError`` where the tensor is not defined."""
    geo = metric.geometry
    if tensor == "krupka":
        w13 = geo.eval_field(ws.wstar_tensor(metric).wstar13, point[None])
        return list(zip("BCDE", (part[0] for part in ws.krupka_parts(w13))))
    field = {
        "metric": lambda: geo.g,
        "inverse": lambda: geo.ginv,
        "christoffel": lambda: geo.christoffel,
        "riemann": lambda: geo.riemann04,
        "ricci": lambda: geo.ricci,
        "scalar": lambda: geo.scalar_field,
        "weyl": lambda: geo.weyl,
        "wstar": lambda: ws.wstar_tensor(metric).wstar04,
        "wstar_contraction": lambda: ws.wstar_tensor(metric).wstar02,
        "energy_momentum": lambda: matter.energy_momentum(metric, CFG),
    }[tensor]()
    return [("", geo.eval_field(field, point[None])[0])]


def read(text: str, parts: list) -> list:
    """The values ``compute`` printed, in the shapes of ``parts``."""
    got = {label: np.zeros_like(want) for label, want in parts}
    for line in text.splitlines():
        key, _, value = line.rpartition(": ")
        label, _, index = (key or line).partition("(")
        if value == "all components zero" or line == "all components zero":
            continue
        if not index:  # a scalar prints its value alone
            got[""][()] = float(line)
            continue
        got[label][tuple(int(i) for i in index.rstrip(")").split(","))] = float(value)
    return [(label, got[label]) for label, _ in parts]


def metric_file(tmp_path, text: str) -> str:
    path = tmp_path / "metric.txt"
    path.write_text(text)
    return str(path)


def assert_compute_matches_symbolic(source: str, at: str, capsys):
    metric = cli.load_metric(source)
    point = cli.parse_point(at, metric)
    for tensor in _TENSOR_NAMES:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["compute", "--metric", source, "--tensor", tensor, "--at", at])
        out, err = capsys.readouterr()
        try:
            want = symbolic(tensor, metric, point)
        except ValueError as refusal:
            assert (code, out) == (EXIT_USAGE, ""), tensor
            assert err == f"error: {refusal}\n", tensor
            continue
        assert (code, err) == (EXIT_OK, ""), (tensor, err)
        for (label, w), (_, g) in zip(want, read(out, want)):
            gap = float(np.max(np.abs(g - w)))
            assert gap <= 1e-12 * (1.0 + float(np.max(np.abs(w)))), (tensor, label, gap)


@pytest.mark.parametrize("name", catalog.CATALOG_NAMES)
def test_every_tensor_matches_the_symbolic_field_on_the_catalog(name, capsys):
    assert_compute_matches_symbolic(name, CATALOG_POINTS[name], capsys)


@pytest.mark.parametrize("name", FILES)
def test_every_tensor_matches_the_symbolic_field_in_other_dims(name, tmp_path, capsys):
    text, at = FILES[name]
    assert_compute_matches_symbolic(metric_file(tmp_path, text), at, capsys)


def test_dim_one_prints_or_refuses_as_the_symbolic_fields_do(tmp_path, capsys):
    text, at = FILES["dim1"]
    source = metric_file(tmp_path, text)
    refusals = {"weyl": "conformal curvature needs dim >= 3",
                **dict.fromkeys(("wstar", "wstar_contraction", "krupka"),
                                "the curvature modification needs dim >= 2")}
    for tensor in _TENSOR_NAMES:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["compute", "--metric", source, "--tensor", tensor, "--at", at])
        out, err = capsys.readouterr()
        if tensor in refusals:
            assert (code, out, err) == (EXIT_USAGE, "", f"error: {refusals[tensor]}\n")
        else:
            assert (code, err) == (EXIT_OK, ""), (tensor, err)


def test_dim_six_is_computed_from_the_jet(tmp_path, capsys):
    # da^2 + a^2 (db^2 + ... + df^2): R = -(5 * 4) / a^2
    text = ("coords = a, b, c, d, e, f\ndomain a = 1 .. 3\ng[0][0] = 1\n"
            + "".join(f"g[{i}][{i}] = a^2\n" for i in range(1, 6)))
    source = metric_file(tmp_path, text)
    for a in (1.5, 2.0, 3.0):
        code = main(["compute", "--metric", source, "--tensor", "scalar",
                     "--at", f"a={a},b=0,c=0,d=0,e=0,f=0"])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, "")
        assert float(out) == pytest.approx(-20.0 / a**2, rel=1e-14)
    for tensor in _TENSOR_NAMES:  # the trace decomposition alone is for dim 4
        code = main(["compute", "--metric", source, "--tensor", tensor,
                     "--at", "a=2,b=0,c=0,d=0,e=0,f=0"])
        out, err = capsys.readouterr()
        if tensor == "krupka":
            assert (code, out, err) == (
                EXIT_USAGE, "", "error: trace decomposition implemented for dim 4\n")
        else:
            assert (code, err) == (EXIT_OK, ""), (tensor, err)


@pytest.mark.parametrize("tensor", ["metric", "christoffel", "riemann", "wstar"])
def test_a_singular_metric_exits_3_naming_the_point(tensor, tmp_path, capsys):
    source = metric_file(tmp_path, "coords = t, x\ndomain t = -1 .. 1\ndomain x = 0.5 .. 2\n"
                                   "g[0][0] = -1\ng[1][1] = x - x\n")
    code = main(["compute", "--metric", source, "--tensor", tensor, "--at", "t=0,x=1"])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_EVAL, "")
    assert err == "evaluation error: the metric is singular at t=0, x=1 (point #0)\n"


@pytest.mark.parametrize("tensor", ["metric", "christoffel", "scalar"])
def test_a_third_derivative_that_is_not_finite_exits_3(tensor, tmp_path, capsys):
    # ∂³(x^(5/2)) = (15/8) x^(-1/2) is not finite at x = 0
    source = metric_file(tmp_path, "coords = t, x\ndomain t = -1 .. 1\ndomain x = 0 .. 2\n"
                                   "g[0][0] = -1\ng[1][1] = 1 + x^(5/2)\n")
    code = main(["compute", "--metric", source, "--tensor", tensor, "--at", "t=0,x=0"])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_EVAL, "")
    assert err.startswith("evaluation error: partial derivative along x is not finite")
    assert err.endswith(" at t=0, x=0 (point #0)\n")


@pytest.mark.parametrize("name", catalog.CATALOG_NAMES)
def test_compute_reaches_no_symbolic_curvature(name, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("compute reached a symbolic curvature field")

    for attr in ("ginv", "christoffel", "riemann13", "weyl"):
        monkeypatch.setattr(Geometry, attr, property(refuse))
    monkeypatch.setattr(ws, "wstar_tensor", refuse)
    monkeypatch.setattr(matter, "energy_momentum", refuse)
    metric = parse_metric_text(catalog._TEXTS[name], name)  # a fresh workspace
    monkeypatch.setattr(cli, "load_metric", lambda source: metric)
    for tensor in _TENSOR_NAMES:
        code = main(["compute", "--metric", name, "--tensor", tensor,
                     "--at", CATALOG_POINTS[name]])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, ""), (tensor, err)
        assert out.strip(), tensor
