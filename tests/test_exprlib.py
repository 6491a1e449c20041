"""Tests for the scalar expression layer: parsing, printing, calculus, evaluation.

Oracles used here are written independently of the library internals:
a plain recursive evaluator (`oracle_eval`) and a finite-difference
derivative with Ridders' extrapolation (`fd_derivative`).
"""

import gc
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wstar import exprlib as ex
from wstar.exprlib import (
    EvalDomainError,
    Expr,
    ParseError,
    Point,
    add,
    const,
    coord,
    cos,
    differentiate,
    div,
    evaluate,
    exp,
    ln,
    mul,
    neg,
    node_count,
    parse,
    power,
    simplify,
    sin,
    sqrt,
    sub,
    to_text,
)

COORDS = ("t", "x", "y", "z")
PARAMS = ("M", "H")


def unshared(e):
    """A tree copy of ``e`` made of new nodes: not interned, nothing memoized."""
    return Expr(e.kind, tuple(unshared(c) for c in e.args), e.data)


def reference_mul(a, b):
    """The product fold with no shortcut for ``exprlib.ZERO``: every pair of
    factors goes through the constant arithmetic.  ``mul`` must return the
    same node wherever neither factor is ``ZERO``."""
    ca, cb = ex._const_data(a, b)
    if ca is not None and cb is not None and ex._finite(ca * cb):
        return const(ca * cb)
    if ca == 0 or cb == 0:
        return const(0)
    if ca == 1:
        return b
    if cb == 1:
        return a
    if ca == -1:
        return neg(b)
    if cb == -1:
        return neg(a)
    return ex._mk("mul", (a, b))


# --- independent oracles ------------------------------------------------------


def oracle_eval(e, coords, params):
    """Plain recursive evaluator, written separately from the library's."""
    k = e.kind
    if k == "const":
        return float(e.data)
    if k == "coord":
        return float(coords[e.data])
    if k == "param":
        return float(params[e.data])
    if k == "pow":
        base = oracle_eval(e.args[0], coords, params)
        q = e.data
        if isinstance(q, Fraction) and q.denominator == 1:
            return float(base ** q.numerator)
        return float(base ** float(q))
    vals = [oracle_eval(a, coords, params) for a in e.args]
    if k == "neg":
        return -vals[0]
    if k == "add":
        return vals[0] + vals[1]
    if k == "sub":
        return vals[0] - vals[1]
    if k == "mul":
        return vals[0] * vals[1]
    if k == "div":
        return vals[0] / vals[1]
    fn = {"ln": math.log}.get(k) or getattr(math, k)
    return fn(vals[0])


def fd_derivative(e, point, index, h=2.0**-7, steps=21):
    """Ridders' extrapolation of central differences along one coordinate.

    Central differences at the steps h, h/2, h/4, ... are extrapolated to
    step zero in a Neville tableau (Ridders, Adv. Eng. Software 4(2), 1982).
    The entry that agrees best with its two parents, relative to
    max(1, |entry|), is returned: a smooth expression is resolved at the
    large steps, a fast-oscillating one only at the small ones.
    """

    def central(step):
        up = list(point.coords)
        dn = list(point.coords)
        up[index] += step
        dn[index] -= step
        fu = evaluate(e, Point(tuple(up), point.params))
        fd = evaluate(e, Point(tuple(dn), point.params))
        return (fu - fd) / (2 * step)

    best, best_err = None, math.inf
    prev = [central(h)]
    for _ in range(1, steps):
        h /= 2
        row = [central(h)]
        for j, above in enumerate(prev, 1):
            fac = 4.0**j
            row.append((fac * row[j - 1] - above) / (fac - 1))
            err = max(abs(row[j] - row[j - 1]), abs(row[j] - above))
            err /= max(1.0, abs(row[j]))
            if err < best_err:
                best, best_err = row[j], err
        prev = row
    return best


def P(*coords, **params):
    return Point(tuple(float(c) for c in coords), params)


# --- parsing ------------------------------------------------------------------


class TestParse:
    def test_precedence_and_associativity(self):
        e = parse("1 + 2*3 - 4/8", COORDS)
        assert evaluate(e, P(0, 0, 0, 0)) == pytest.approx(6.5)

    def test_left_associative_subtraction(self):
        e = parse("10 - 4 - 3", COORDS)
        assert evaluate(e, P(0, 0, 0, 0)) == 3.0

    def test_left_associative_division(self):
        e = parse("16 / 4 / 2", COORDS)
        assert evaluate(e, P(0, 0, 0, 0)) == 2.0

    def test_rational_exponent_without_parens(self):
        # t^2/3 is t^(2/3): rational literals are recognized in exponent position
        e = parse("t^2/3", COORDS)
        assert e.kind == "pow"
        assert e.data == Fraction(2, 3)
        assert isinstance(e.data, Fraction)
        assert e.args[0] == coord(0)

    def test_rational_exponent_with_parens(self):
        assert parse("t^(2/3)", COORDS) == parse("t^2/3", COORDS)

    def test_negative_rational_exponent(self):
        e = parse("t^(-1/2)", COORDS)
        assert e.data == Fraction(-1, 2)

    def test_exponent_rational_only_for_integer_pair(self):
        # t^2/x stays a quotient: the divisor is not an integer literal
        e = parse("t^2/x", COORDS)
        assert e.kind == "div"
        assert e.args[0].kind == "pow"

    def test_slash_outside_exponent_is_division(self):
        # division, folded exactly: not the rational exponent of a power
        assert parse("1/2", COORDS) is const(Fraction(1, 2))

    def test_unary_minus_binds_looser_than_power(self):
        e = parse("-t^2", COORDS)
        assert e.kind == "neg"
        assert e.args[0].kind == "pow"
        assert evaluate(e, P(3, 0, 0, 0)) == -9.0

    def test_integer_literals_are_exact(self):
        e = parse("7", COORDS)
        assert isinstance(e.data, Fraction)

    def test_decimal_literals_are_floats(self):
        assert isinstance(parse("0.05", COORDS).data, float)
        assert isinstance(parse("2e-3", COORDS).data, float)
        assert parse("2e-3", COORDS).data == 2e-3

    def test_function_call(self):
        e = parse("sin(x) * cos(y)", COORDS)
        assert evaluate(e, P(0, 0.5, 0.25, 0)) == pytest.approx(math.sin(0.5) * math.cos(0.25))

    def test_parameters_resolve(self):
        e = parse("1 - 2*M/r", ("t", "r"), ("M",))
        assert evaluate(e, Point((0.0, 4.0), {"M": 1.0})) == pytest.approx(0.5)

    def test_nested_parens(self):
        e = parse("((t + 1) * (t - 1))", COORDS)
        assert evaluate(e, P(3, 0, 0, 0)) == 8.0

    # --- errors ---

    def test_unknown_identifier_offset(self):
        with pytest.raises(ParseError) as err:
            parse("sin(q)", COORDS)
        assert err.value.offset == 4

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("bogus(t)", COORDS)

    def test_symbolic_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("t^x", COORDS)

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            parse("t +", COORDS)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(t", COORDS)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("t )", COORDS)

    def test_bad_character(self):
        with pytest.raises(ParseError) as err:
            parse("t + $", COORDS)
        assert err.value.offset == 4

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse("", COORDS)

    @pytest.mark.parametrize("src, offset", [("1e400*x", 0), ("x^1e400", 2), ("x^(-1e400)", 4)])
    def test_overflowing_literal_rejected_at_its_offset(self, src, offset):
        # the literal would read as inf: a factor and an exponent alike
        with pytest.raises(ParseError, match="must be finite") as err:
            parse(src, COORDS)
        assert err.value.offset == offset

    @pytest.mark.parametrize("src, offset", [("1 + 1e-400*x", 4), ("x^1e-400", 2),
                                             ("x^(-0.5e-400)", 4), ("1 + .1E-999", 4)])
    def test_underflowing_literal_rejected_at_its_offset(self, src, offset):
        # a nonzero literal that would read as 0.0 changes the metric silently
        with pytest.raises(ParseError, match="underflows to 0.0") as err:
            parse(src, COORDS)
        assert err.value.offset == offset

    @pytest.mark.parametrize("src", ["0.0e-400*x", "0e5 + x", "00.000*x", "5e-324*x"])
    def test_a_zero_or_subnormal_literal_is_kept(self, src):
        parse(src, COORDS)

    def test_zero_denominator_exponent(self):
        with pytest.raises(ParseError):
            parse("t^(1/0)", COORDS)


# --- evaluation ---------------------------------------------------------------


class TestEvaluate:
    def test_schwarzschild_style_factor(self):
        e = parse("(1 - 2/r)^(-1)", ("t", "r"))
        assert evaluate(e, Point((0.0, 4.0), {})) == 2.0

    def test_matches_oracle_on_fixed_forms(self):
        cases = [
            "t^2 * sin(x) + exp(-y) / (1 + z^2)",
            "sqrt(t^2 + 1) - ln(x^2 + 3)",
            "sinh(t) * cosh(x) - tan(y)",
            "t^(2/3) + M * x",
        ]
        pt = P(1.3, 0.7, -0.4, 2.1, M=1.5, H=0.5)
        for src in cases:
            e = parse(src, COORDS, PARAMS)
            got = evaluate(e, pt)
            want = oracle_eval(e, pt.coords, pt.params)
            assert got == pytest.approx(want, rel=1e-12), src

    def test_division_by_zero(self):
        e = parse("1 / t", COORDS)
        with pytest.raises(EvalDomainError) as err:
            evaluate(e, P(0, 0, 0, 0))
        assert "division by zero" in str(err.value)
        assert err.value.expr.kind == "div"

    def test_log_of_negative(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("ln(t)", COORDS), P(-1, 0, 0, 0))

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("sqrt(t)", COORDS), P(-4, 0, 0, 0))

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("t^(-2)", COORDS), P(0, 0, 0, 0))

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("t^(1/2)", COORDS), P(-1, 0, 0, 0))

    def test_negative_base_integer_exponent_ok(self):
        assert evaluate(parse("t^3", COORDS), P(-2, 0, 0, 0)) == -8.0

    def test_missing_parameter(self):
        e = parse("M * t", COORDS, PARAMS)
        with pytest.raises(EvalDomainError):
            evaluate(e, P(1, 0, 0, 0))

    def test_overflow_reported_as_domain_error(self):
        e = parse("exp(exp(t))", COORDS)
        with pytest.raises(EvalDomainError):
            evaluate(e, P(100, 0, 0, 0))


# --- differentiation ----------------------------------------------------------


class TestDifferentiate:
    def test_power_rule_fractional(self):
        # d/dt t^(4/3) = (4/3) t^(1/3); at t=8 this is 8/3
        e = parse("t^(4/3)", COORDS)
        d = differentiate(e, 0)
        assert evaluate(d, P(8, 0, 0, 0)) == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_schwarzschild_radial_derivative(self):
        # d/dr (1 - 2M/r) = 2M/r^2; at r=4, M=1 this is 1/8
        e = parse("1 - 2*M/r", ("t", "r"), ("M",))
        d = differentiate(e, 1)
        assert evaluate(d, Point((0.0, 4.0), {"M": 1.0})) == pytest.approx(0.125, rel=1e-12)

    def test_product_rule(self):
        e = parse("t^2 * sin(t)", COORDS)
        d = differentiate(e, 0)
        t = 1.1
        want = 2 * t * math.sin(t) + t * t * math.cos(t)
        assert evaluate(d, P(t, 0, 0, 0)) == pytest.approx(want, rel=1e-12)

    def test_quotient_rule(self):
        e = parse("sin(t) / (1 + t^2)", COORDS)
        d = differentiate(e, 0)
        t = 0.8
        want = (math.cos(t) * (1 + t * t) - math.sin(t) * 2 * t) / (1 + t * t) ** 2
        assert evaluate(d, P(t, 0, 0, 0)) == pytest.approx(want, rel=1e-12)

    def test_chain_rule_through_functions(self):
        e = parse("exp(sin(2*t))", COORDS)
        d = differentiate(e, 0)
        t = 0.4
        want = math.exp(math.sin(2 * t)) * math.cos(2 * t) * 2
        assert evaluate(d, P(t, 0, 0, 0)) == pytest.approx(want, rel=1e-12)

    def test_log_sqrt_tan(self):
        e = parse("ln(t) + sqrt(t) + tan(t)", COORDS)
        d = differentiate(e, 0)
        t = 0.9
        want = 1 / t + 0.5 / math.sqrt(t) + 1 / math.cos(t) ** 2
        assert evaluate(d, P(t, 0, 0, 0)) == pytest.approx(want, rel=1e-12)

    def test_hyperbolic(self):
        e = parse("sinh(t) * cosh(t)", COORDS)
        d = differentiate(e, 0)
        t = 0.6
        want = math.cosh(t) ** 2 + math.sinh(t) ** 2
        assert evaluate(d, P(t, 0, 0, 0)) == pytest.approx(want, rel=1e-12)

    def test_other_coordinate_is_constant(self):
        e = parse("t^2 * x", COORDS)
        assert differentiate(e, 2) == const(0)

    def test_parameters_are_constants(self):
        e = parse("M * t", COORDS, PARAMS)
        d = differentiate(e, 0)
        assert evaluate(d, P(5, 0, 0, 0, M=2.5)) == 2.5

    def test_matches_finite_differences_on_fixed_forms(self):
        cases = [
            "t^3 - 2*t*x + sin(x*y)",
            "exp(-t^2) * cos(x)",
            "sqrt(1 + t^2 + x^2)",
            "t^(2/3) * x^2",
        ]
        pt = P(1.7, 0.6, -0.9, 0.3)
        for src in cases:
            e = parse(src, COORDS)
            for i in range(2):
                want = fd_derivative(e, pt, i)
                got = evaluate(differentiate(e, i), pt)
                assert got == pytest.approx(want, rel=1e-6, abs=1e-8), (src, i)


# --- simplification -----------------------------------------------------------


class TestSimplify:
    def test_constant_folding_is_exact(self):
        s = simplify(parse("2/4 + 1/4", COORDS))
        assert s.kind == "const"
        assert s.data == Fraction(3, 4)
        assert isinstance(s.data, Fraction)

    def test_fold_nested_arithmetic(self):
        assert simplify(parse("2 + 3*4", COORDS)) == const(14)

    def test_identity_rules(self):
        t = coord(0)
        assert simplify(parse("t + 0", COORDS)) == t
        assert simplify(parse("t * 1", COORDS)) == t
        assert simplify(parse("t^1", COORDS)) == t
        assert simplify(parse("t^0", COORDS)) == const(1)
        assert simplify(parse("0 * ln(t)", COORDS)) == const(0)
        assert simplify(parse("t / 1", COORDS)) == t
        assert simplify(parse("0 - t", COORDS)) == neg(t)

    def test_double_negation(self):
        assert simplify(parse("--t", COORDS)) == coord(0)

    def test_self_subtraction_cancels(self):
        assert simplify(parse("sin(t) - sin(t)", COORDS)) == const(0)

    def test_perfect_square_root_stays_exact(self):
        s = simplify(parse("sqrt(9)", COORDS))
        assert s.data == Fraction(3)
        assert isinstance(s.data, Fraction)

    def test_irrational_folds_to_float(self):
        s = simplify(parse("sqrt(2)", COORDS))
        assert isinstance(s.data, float)
        assert s.data == pytest.approx(math.sqrt(2))

    def test_function_of_constant(self):
        assert simplify(parse("cos(0)", COORDS)) == const(1)
        assert simplify(parse("ln(1)", COORDS)) == const(0)

    def test_domain_breaking_folds_are_kept(self):
        # 1/0 and ln(-1) must survive so evaluation reports the error
        s = simplify(parse("1/0", COORDS))
        assert s.kind == "div"
        s = simplify(parse("ln(0 - 1)", COORDS))
        assert s.kind == "ln"

    def test_overflowing_folds_are_kept(self):
        # no finite constant to fold to; the printed text must parse back
        big, tiny = const(1e308), const(5e-324)
        for e in (add(big, big), sub(neg(big), big), mul(big, big), div(const(2), tiny)):
            assert e.kind != "const"
            assert parse(to_text(e), COORDS) is e

    def test_mul_by_minus_one_becomes_negation(self):
        s = simplify(parse("(0 - 1) * t", COORDS))
        assert s == neg(coord(0))


# --- printing -----------------------------------------------------------------


class TestPrinting:
    def test_rational_exponent_rendering(self):
        e = parse("t^2/3 + x*y", COORDS)
        assert to_text(e) == "x0^(2/3) + x1 * x2"

    def test_parens_preserve_structure(self):
        src = "(t + x) * y - t / (x * y)"
        e = parse(src, COORDS)
        assert parse(to_text(e), ("x0", "x1", "x2", "x3")) == e

    def test_negative_exponent_rendering(self):
        e = parse("t^(-2)", COORDS)
        assert to_text(e) == "x0^(-2)"


# --- hypothesis strategies ----------------------------------------------------

finite = st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False, width=64
)
small_rational = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


_CONSTRUCTORS = {f.__name__: f for f in (add, sub, mul, div, neg, sin, cos, exp,
                                          ln, sqrt, ex.tan, ex.sinh, ex.cosh)}


@st.composite
def expressions(draw, depth=3, raw=False):
    """Random expression trees over four coordinates and two parameters.

    The constructors return simplified nodes; with ``raw`` the inner nodes are
    built with ``Expr(...)`` directly, so they are neither interned nor
    simplified (``1 * x``, ``x^1``, ``--x`` stay as drawn).
    """

    def node(kind, *args, data=None):
        if raw:
            return Expr(kind, args, data)
        if kind == "pow":
            return power(*args, data)
        return _CONSTRUCTORS[kind](*args)

    if depth == 0:
        leaf = draw(st.integers(0, 3))
        if leaf == 0:
            return const(draw(st.one_of(small_rational, finite)))
        if leaf == 1:
            return coord(draw(st.integers(0, 3)))
        if leaf == 2:
            return ex.param(draw(st.sampled_from(PARAMS)))
        return const(draw(st.integers(-3, 3)))
    op = draw(st.integers(0, 7))
    if op <= 3:
        a = draw(expressions(depth=depth - 1, raw=raw))
        b = draw(expressions(depth=depth - 1, raw=raw))
        return node(["add", "sub", "mul", "div"][op], a, b)
    if op == 4:
        return node("neg", draw(expressions(depth=depth - 1, raw=raw)))
    if op == 5:
        exponent = draw(
            st.one_of(st.integers(-3, 3), st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(-1, 2)]))
        )
        base = draw(expressions(depth=depth - 1, raw=raw))
        return node("pow", base, data=Fraction(exponent))
    fn = draw(st.sampled_from(["sin", "cos", "exp", "ln", "sqrt", "tan", "sinh", "cosh"]))
    return node(fn, draw(expressions(depth=depth - 1, raw=raw)))


@st.composite
def smooth_expressions(draw, depth=3):
    """Expression trees that are differentiable everywhere (no ln/sqrt/tan/div)."""
    if depth == 0:
        leaf = draw(st.integers(0, 2))
        if leaf == 0:
            return const(draw(st.floats(min_value=-2, max_value=2, allow_nan=False)))
        if leaf == 1:
            return coord(draw(st.integers(0, 3)))
        return const(draw(st.integers(-2, 2)))
    op = draw(st.integers(0, 5))
    if op <= 2:
        a = draw(smooth_expressions(depth=depth - 1))
        b = draw(smooth_expressions(depth=depth - 1))
        return [add, sub, mul][op](a, b)
    if op == 3:
        return power(draw(smooth_expressions(depth=depth - 1)), draw(st.integers(1, 3)))
    fn = draw(st.sampled_from([sin, cos, ex.sinh]))
    return fn(draw(smooth_expressions(depth=depth - 1)))


points = st.tuples(finite, finite, finite, finite).map(
    lambda c: Point(c, {"M": 1.0, "H": 0.5})
)


def try_eval(e, pt):
    try:
        return evaluate(e, pt)
    except EvalDomainError:
        return None


# --- properties ---------------------------------------------------------------


class TestProperties:
    @given(e=expressions(), pt=points)
    @settings(max_examples=150, deadline=None)
    def test_evaluate_matches_independent_oracle(self, e, pt):
        """Library evaluation agrees with a plain recursive evaluator."""
        got = try_eval(e, pt)
        assume(got is not None)
        try:
            want = oracle_eval(e, pt.coords, pt.params)
        except (ValueError, OverflowError, ZeroDivisionError):
            assume(False)
        assume(isinstance(want, float) and math.isfinite(want))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @given(e=expressions())
    @settings(max_examples=150, deadline=None)
    def test_print_parse_round_trip(self, e):
        """Printed text re-parses to the same expression up to simplification."""
        back = parse(to_text(e), ("x0", "x1", "x2", "x3"), PARAMS)
        assert simplify(back) == simplify(e)

    def test_power_before_division_round_trips(self):
        # "x^1 / 2" must not re-parse as the rational exponent x^(1/2);
        # the printer parenthesizes the numerator to keep the division
        # (raw nodes: the constructors would fold x^1 and x^0 away)
        x = coord(0)
        for e in (
            Expr("div", (Expr("pow", (x,), Fraction(1)), const(2))),
            Expr("div", (Expr("pow", (x,), Fraction(0)), Expr("pow", (const(0),), Fraction(0)))),
            div(mul(x, power(coord(1), 2)), const(3)),
        ):
            assert parse(to_text(e), ("x0", "x1")) is simplify(e)

    @given(e=expressions(raw=True), pt=points)
    @settings(max_examples=150, deadline=None)
    def test_simplify_preserves_value(self, e, pt):
        """Wherever the original evaluates, the simplified form agrees."""
        got = try_eval(e, pt)
        assume(got is not None)
        s = simplify(e)
        assert evaluate(s, pt) == pytest.approx(got, rel=1e-9, abs=1e-12)

    @given(e=expressions(raw=True))
    @settings(max_examples=150, deadline=None)
    def test_simplify_idempotent(self, e):
        s1 = simplify(e)
        assert simplify(unshared(s1)) is s1

    @given(e=expressions(raw=True))
    @settings(max_examples=150, deadline=None)
    def test_simplify_never_grows(self, e):
        assert node_count(simplify(e)) <= node_count(e)

    @given(e=expressions())
    @settings(max_examples=150, deadline=None)
    def test_constructor_output_is_an_interned_fixed_point(self, e):
        """The constructors only return simplified nodes."""
        assert simplify(unshared(e)) is e

    @given(a=st.one_of(st.just(ex.ZERO), expressions(depth=2)),
           b=st.one_of(st.just(ex.ZERO), expressions(depth=2)))
    # the one pair where the two differ: the reference folds 0 * 0.5 to the
    # float 0.0
    @example(a=ex.ZERO, b=const(0.5))
    @settings(max_examples=150, deadline=None)
    def test_mul_gives_the_held_zero_else_the_reference_fold(self, a, b):
        got = mul(a, b)
        if a is ex.ZERO or b is ex.ZERO:
            assert got is ex.ZERO
        else:
            assert got is reference_mul(a, b)

    @given(e=smooth_expressions(), pt=points, idx=st.integers(0, 3))
    # fast oscillation: d/dx3 is 4939.7 here, and one central difference at
    # h = 1e-5 is off by 3
    @example(e=sin(power(power(coord(3), 2), 3)), pt=P(0, 0, 0, 4, M=1.0, H=0.5), idx=3)
    @settings(max_examples=100, deadline=None)
    def test_derivative_matches_finite_differences(self, e, pt, idx):
        """Symbolic derivatives agree with a finite-difference oracle."""
        v = try_eval(e, pt)
        assume(v is not None and abs(v) < 1e6)
        d = differentiate(e, idx)
        got = try_eval(d, pt)
        assume(got is not None and abs(got) < 1e6)
        try:
            want = fd_derivative(e, pt, idx)
        except EvalDomainError:
            assume(False)
        assert got == pytest.approx(want, rel=2e-4, abs=2e-4)

    @given(e=expressions(), pt=points, idx=st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_derivative_linearity(self, e, pt, idx):
        """d(3e)/dx = 3 de/dx at any point where both sides evaluate."""
        tripled = mul(const(3), e)
        da = try_eval(differentiate(tripled, idx), pt)
        db = try_eval(differentiate(e, idx), pt)
        assume(da is not None and db is not None and abs(db) < 1e12)
        assert da == pytest.approx(3 * db, rel=1e-9, abs=1e-12)


# --- structural details -------------------------------------------------------


class TestStructure:
    def test_interning_shares_nodes(self):
        a = parse("sin(t) + sin(t)", COORDS)
        assert a.args[0] is a.args[1]

    def test_structural_equality_across_caches(self):
        a = parse("t^2 + x", COORDS)
        b = unshared(a)
        assert b is not a and b.args[0] is not a.args[0]
        assert a == b
        assert hash(a) == hash(b)

    def test_memos_are_kept_on_the_node(self):
        e = parse("sin(t) * x", COORDS)
        assert differentiate(e, 0) is differentiate(e, 0)
        assert e._derivatives[0] is differentiate(e, 0)

    def test_unused_nodes_leave_the_intern_table(self):
        e = parse("sin(t + 0.123456789) * x^3", COORDS)
        differentiate(e, 1)
        ref = weakref.ref(e)
        size = len(ex._intern)
        del e
        gc.collect()
        assert ref() is None
        assert len(ex._intern) < size
        # a rebuilt node is a new one, equal to the one that died
        again = parse("sin(t + 0.123456789) * x^3", COORDS)
        assert again._derivatives is None

    def test_exact_and_float_constants_differ(self):
        assert const(Fraction(1, 2)) != const(0.5)

    def test_immutability(self):
        e = parse("t", COORDS)
        with pytest.raises(AttributeError):
            e.kind = "const"

    def test_node_count(self):
        assert node_count(parse("t + x*y", COORDS)) == 5
