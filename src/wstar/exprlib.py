"""Symbolic scalar expressions: immutable trees, parsing, calculus, evaluation.

Expressions are formed over a fixed coordinate list (referenced by position) and
named scalar parameters.  Rational constants stay exact (`fractions.Fraction`)
through construction and differentiation; conversion to floating point happens
only at evaluation time (or when a transcendental function of a constant is
folded).

Grammar accepted by :func:`parse` (whitespace insensitive, left associative)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' exponent)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')'
    exponent := signed_number | '(' signed_number ')'
    signed_number := ['+'|'-'] (int ['/' int] | decimal)
    number := decimal            # e.g. 2, 0.05, 6.28, 1e-3
    ident  := [A-Za-z_][A-Za-z0-9_]*

Precedence: '^' binds tighter than unary minus, which binds tighter than
'*'/'/', which bind tighter than '+'/'-'.  Exponents are numeric literals;
rational literals ``a/b`` are recognized in exponent position only (elsewhere
``/`` is division, and exact constant folding preserves the rational value).

The constructors (:func:`add`, :func:`mul`, :func:`power`, ...) fold
constants and prune identities before they intern, so an expression built
with them alone is already simplified.  Nodes are hash-consed into a weak
table, so equal subexpressions share one object (and one tape instruction),
and each node keeps its own :func:`differentiate` results: a node and its
memos live as long as their last user (Filliâtre & Conchon, "Type-safe
modular hash-consing", 2006).  Nothing needs clearing.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

__all__ = [
    "Expr",
    "Point",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "const",
    "coord",
    "param",
    "neg",
    "sin",
    "cos",
    "tan",
    "exp",
    "ln",
    "sqrt",
    "sinh",
    "cosh",
    "add",
    "sub",
    "mul",
    "div",
    "power",
    "parse",
    "evaluate",
    "differentiate",
    "simplify",
    "to_text",
    "node_count",
]

UNARY_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "sinh", "cosh")
_UNARY = ("neg",) + UNARY_FUNCTIONS
_BINARY = ("add", "sub", "mul", "div")

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax or resolution error; carries the character offset into the source."""

    def __init__(self, message: str, source: str, offset: int):
        self.offset = offset
        self.source = source
        super().__init__(f"{message} (offset {offset})")


class EvalDomainError(ExprError):
    """Evaluation left the domain; carries the offending subexpression."""

    def __init__(self, message: str, expr: "Expr", point: "Point"):
        self.expr = expr
        self.point = point
        super().__init__(f"{message} in '{to_text(expr, max_len=80)}' at {point}")


_set = object.__setattr__  # writes past Expr's immutability guard


class Expr:
    """Immutable expression node.

    ``kind`` is one of ``const`` / ``coord`` / ``param``, a unary tag
    (``neg`` or a function name), a binary tag (``add``/``sub``/``mul``/``div``),
    or ``pow`` (child base, constant exponent in ``data``).
    ``data`` holds the constant value (Fraction or float), coordinate index,
    parameter name, or power exponent.

    The private slot ``_derivatives`` memoizes :func:`differentiate`
    (coordinate index -> result).  A node built with ``Expr(...)`` directly is
    neither interned nor simplified; :func:`simplify` turns it into one that is.
    """

    __slots__ = ("kind", "args", "data", "_derivatives", "__weakref__")

    def __init__(self, kind: str, args: tuple = (), data=None):
        _set(self, "kind", kind)
        _set(self, "args", args)
        _set(self, "data", data)
        _set(self, "_derivatives", None)

    def __setattr__(self, name, value):
        raise AttributeError("Expr is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        # iterative structural comparison (trees can be deep)
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.kind != b.kind or len(a.args) != len(b.args):
                return False
            da, db = a.data, b.data
            if da != db or type(da) is not type(db):
                return False
            stack.extend(zip(a.args, b.args))
        return True

    def __hash__(self):
        return hash((self.kind, None if self.args else self.data, len(self.args)))

    def __repr__(self):
        return f"<expr {to_text(self, max_len=120)}>"


@dataclass(frozen=True)
class Point:
    """Evaluation point: coordinate values plus parameter values."""

    coords: tuple
    params: Mapping[str, float] = field(default_factory=dict)

    def __str__(self):
        parts = ", ".join(f"{c:.6g}" for c in self.coords)
        if self.params:
            parts += "; " + ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"({parts})"


# --- interning constructors ---------------------------------------------------
#
# Every constructor folds constants and prunes identities before it interns:
# one rewrite step over children that are already normal, so a tree built with
# the constructors alone is in normal form.  Folds that would leave the domain
# (``1/0``, ``ln(-1)``) keep the node, so evaluation reports the error.

# (kind, data type, data, child ids) -> live node; the type keeps 1/2 and 0.5
# apart, a child id stays valid while its parent is alive, and an entry goes
# when its node does
_intern = weakref.WeakValueDictionary()


def _mk(kind: str, args: tuple = (), data=None) -> Expr:
    key = (kind, type(data), data, tuple(id(a) for a in args))
    node = _intern.get(key)
    if node is None:
        node = _intern[key] = Expr(kind, args, data)
    return node


def _finite(value) -> bool:
    """False for float arithmetic that overflowed: that node is kept, like 1/0."""
    return not isinstance(value, float) or math.isfinite(value)


def _const_data(a: Expr, b: Expr):
    """The constant values of two operands, None for a non-constant."""
    return (a.data if a.kind == "const" else None,
            b.data if b.kind == "const" else None)


def const(value) -> Expr:
    """Exact rational constant for int/Fraction input, float constant otherwise."""
    if isinstance(value, bool):
        raise TypeError("bool is not a numeric constant")
    if isinstance(value, int):
        value = Fraction(value)
    elif not isinstance(value, (Fraction, float)):
        raise TypeError(f"unsupported constant type {type(value).__name__}")
    return _mk("const", (), value)


def coord(index: int) -> Expr:
    if index < 0:
        raise ValueError("coordinate index must be non-negative")
    return _mk("coord", (), index)


def param(name: str) -> Expr:
    return _mk("param", (), name)


def neg(e: Expr) -> Expr:
    if e.kind == "const":
        return const(-e.data)
    if e.kind == "neg":
        return e.args[0]
    return _mk("neg", (e,))


def _unary_factory(tag):
    def f(e: Expr) -> Expr:
        if e.kind == "const":
            folded = _fold_function(tag, e.data)
            if folded is not None:
                return const(folded)
        return _mk(tag, (e,))

    f.__name__ = tag
    f.__doc__ = f"Apply {tag} to an expression."
    return f


sin = _unary_factory("sin")
cos = _unary_factory("cos")
tan = _unary_factory("tan")
exp = _unary_factory("exp")
ln = _unary_factory("ln")
sqrt = _unary_factory("sqrt")
sinh = _unary_factory("sinh")
cosh = _unary_factory("cosh")


def add(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_data(a, b)
    if ca is not None and cb is not None and _finite(ca + cb):
        return const(ca + cb)
    if ca == 0:
        return b
    if cb == 0:
        return a
    return _mk("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if a is b:
        return const(_ZERO)
    ca, cb = _const_data(a, b)
    if ca is not None and cb is not None and _finite(ca - cb):
        return const(ca - cb)
    if cb == 0:
        return a
    if ca == 0:
        return neg(b)
    return _mk("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_data(a, b)
    if ca is not None and cb is not None and _finite(ca * cb):
        return const(ca * cb)
    if ca == 0 or cb == 0:
        return const(_ZERO)
    if ca == 1:
        return b
    if cb == 1:
        return a
    if ca == -1:
        return neg(b)
    if cb == -1:
        return neg(a)
    return _mk("mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_data(a, b)
    if cb is not None and cb != 0:
        if ca is not None and _finite(ca / cb):
            return const(ca / cb)
        if cb == 1:
            return a
        if cb == -1:
            return neg(a)
    if ca == 0 and cb != 0:
        return const(_ZERO)
    return _mk("div", (a, b))


def power(base: Expr, exponent) -> Expr:
    """Power with a constant (rational or float) exponent.

    Float exponents of integral value are normalized to exact integers, so
    ``x^2.0`` behaves like ``x^2`` (defined for negative bases).
    """
    if isinstance(exponent, bool):
        raise TypeError("bool is not a numeric exponent")
    if isinstance(exponent, int):
        exponent = Fraction(exponent)
    elif isinstance(exponent, float):
        if math.isfinite(exponent) and exponent.is_integer() and abs(exponent) < 2**53:
            exponent = Fraction(int(exponent))
    elif not isinstance(exponent, Fraction):
        raise TypeError("exponent must be a numeric constant")
    if exponent == 1:
        return base
    if exponent == 0:
        return const(_ONE)
    if base.kind == "const":
        folded = _fold_pow(base.data, exponent)
        if folded is not None:
            return const(folded)
    return _mk("pow", (base,), exponent)


# --- traversal helpers --------------------------------------------------------


def _postorder(*roots: Expr) -> list:
    """Unique nodes of the DAG under ``roots``, children before parents.

    Iterative depth-first walk over the roots in order, children left to
    right; a node shared by several roots is listed once, where the first
    root that reaches it puts it.
    """
    seen = set()
    order = []
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for c in node.args:
            if id(c) not in seen:
                stack.append((c, False))
    return order


def node_count(e: Expr) -> int:
    """Number of nodes counting the expression as a tree (shared subtrees recount)."""
    counts: dict = {}
    for node in _postorder(e):
        counts[id(node)] = 1 + sum(counts[id(c)] for c in node.args)
    return counts[id(e)]


# --- evaluation ---------------------------------------------------------------

_MATH_FN = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "sinh": math.sinh,
    "cosh": math.cosh,
}


def evaluate(e: Expr, point: Point) -> float:
    """Evaluate at a point; raises :class:`EvalDomainError` outside the domain."""
    vals: dict = {}
    for node in _postorder(e):
        kind = node.kind
        if kind == "const":
            v = float(node.data)
        elif kind == "coord":
            i = node.data
            if i >= len(point.coords):
                raise EvalDomainError(f"coordinate index {i} out of range", node, point)
            v = float(point.coords[i])
        elif kind == "param":
            try:
                v = float(point.params[node.data])
            except KeyError:
                raise EvalDomainError(f"missing parameter '{node.data}'", node, point) from None
        elif kind == "neg":
            v = -vals[id(node.args[0])]
        elif kind in _MATH_FN:
            x = vals[id(node.args[0])]
            if kind == "ln" and x <= 0.0:
                raise EvalDomainError("log of non-positive value", node, point)
            if kind == "sqrt" and x < 0.0:
                raise EvalDomainError("square root of negative value", node, point)
            try:
                v = _MATH_FN[kind](x)
            except (ValueError, OverflowError):
                raise EvalDomainError(f"{kind} overflow or domain error", node, point) from None
        elif kind == "add":
            v = vals[id(node.args[0])] + vals[id(node.args[1])]
        elif kind == "sub":
            v = vals[id(node.args[0])] - vals[id(node.args[1])]
        elif kind == "mul":
            v = vals[id(node.args[0])] * vals[id(node.args[1])]
        elif kind == "div":
            den = vals[id(node.args[1])]
            if den == 0.0:
                raise EvalDomainError("division by zero", node, point)
            v = vals[id(node.args[0])] / den
        elif kind == "pow":
            base = vals[id(node.args[0])]
            q = node.data
            if isinstance(q, Fraction) and q.denominator == 1:
                n = q.numerator
                if base == 0.0 and n < 0:
                    raise EvalDomainError("zero raised to negative power", node, point)
                try:
                    v = base**n
                except OverflowError:
                    raise EvalDomainError("power overflow", node, point) from None
            else:
                fe = float(q)
                if base < 0.0:
                    raise EvalDomainError("negative base with fractional exponent", node, point)
                if base == 0.0 and fe < 0.0:
                    raise EvalDomainError("zero raised to negative power", node, point)
                try:
                    v = base**fe
                except (OverflowError, ZeroDivisionError):
                    raise EvalDomainError("power overflow", node, point) from None
        else:  # pragma: no cover - constructors prevent this
            raise ExprError(f"unknown node kind '{kind}'")
        if not math.isfinite(v):
            raise EvalDomainError("non-finite value", node, point)
        vals[id(node)] = v
    return vals[id(e)]


# --- differentiation ----------------------------------------------------------


def differentiate(e: Expr, index: int) -> Expr:
    """Partial derivative with respect to the coordinate at ``index`` (simplified)."""
    d: dict = {}
    seen: set = set()
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            memo = node._derivatives
            if memo is not None and index in memo:
                d[id(node)] = memo[index]
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for c in node.args:
                stack.append((c, False))
            continue
        kind = node.kind
        if kind == "const" or kind == "param":
            res = const(_ZERO)
        elif kind == "coord":
            res = const(_ONE) if node.data == index else const(_ZERO)
        else:
            a = node.args[0]
            da = d[id(a)]
            if kind == "neg":
                res = neg(da)
            elif kind == "sin":
                res = mul(cos(a), da)
            elif kind == "cos":
                res = neg(mul(sin(a), da))
            elif kind == "tan":
                res = div(da, power(cos(a), 2))
            elif kind == "exp":
                res = mul(exp(a), da)
            elif kind == "ln":
                res = div(da, a)
            elif kind == "sqrt":
                res = div(da, mul(const(2), sqrt(a)))
            elif kind == "sinh":
                res = mul(cosh(a), da)
            elif kind == "cosh":
                res = mul(sinh(a), da)
            elif kind == "pow":
                q = node.data
                res = mul(mul(const(q), power(a, q - 1)), da)
            else:
                b = node.args[1]
                db = d[id(b)]
                if kind == "add":
                    res = add(da, db)
                elif kind == "sub":
                    res = sub(da, db)
                elif kind == "mul":
                    res = add(mul(da, b), mul(a, db))
                else:  # div
                    res = div(sub(mul(da, b), mul(a, db)), power(b, 2))
        if node._derivatives is None:
            _set(node, "_derivatives", {})
        node._derivatives[index] = res
        d[id(node)] = res
    return d[id(e)]


# --- simplification -----------------------------------------------------------


def _fold_function(tag: str, v):
    """Fold function-of-constant; return None to keep the node (domain issues)."""
    if v == 0:
        if tag in ("sin", "tan", "sinh"):
            return _ZERO
        if tag in ("cos", "cosh", "exp"):
            return _ONE
        if tag == "sqrt":
            return _ZERO
        return None  # ln 0 undefined
    if tag == "ln":
        if v <= 0:
            return None
        if v == 1:
            return _ZERO
        return math.log(float(v))
    if tag == "sqrt":
        if v < 0:
            return None
        if isinstance(v, Fraction):
            rn = math.isqrt(v.numerator)
            rd = math.isqrt(v.denominator)
            if rn * rn == v.numerator and rd * rd == v.denominator:
                return Fraction(rn, rd)
        return math.sqrt(float(v))
    try:
        return _MATH_FN[tag](float(v))
    except (ValueError, OverflowError):
        return None


def _fold_pow(base, q):
    """Fold const**exponent; return None to keep the node."""
    if isinstance(q, Fraction) and q.denominator == 1:
        n = q.numerator
        if base == 0 and n < 0:
            return None
        if isinstance(base, Fraction):
            return base**n
        try:
            return float(base) ** n
        except OverflowError:
            return None
    fe = float(q)
    if base > 0:
        try:
            return float(base) ** fe
        except OverflowError:
            return None
    if base == 0 and fe > 0:
        return 0.0
    return None


_FUNCTIONS = {f.__name__: f for f in (sin, cos, tan, exp, ln, sqrt, sinh, cosh)}
_BUILDERS = {"neg": neg, "add": add, "sub": sub, "mul": mul, "div": div, **_FUNCTIONS}


def simplify(e: Expr) -> Expr:
    """Rebuild a tree through the constructors: constant folding plus identity pruning.

    One pass over the DAG, with no memo.  Constructor output is already
    simplified (``simplify(e) is e``), so this only changes trees built with
    ``Expr(...)`` directly.  Pointwise equal, idempotent, and never increases
    the node count; folds that would leave the domain (``1/0``, ``ln(-1)``)
    keep the node, so evaluation reports the error.
    """
    out: dict = {}
    for node in _postorder(e):
        args = tuple(out[id(c)] for c in node.args)
        if not args:
            res = _mk(node.kind, (), node.data)
        elif node.kind == "pow":
            res = power(args[0], node.data)
        else:
            res = _BUILDERS[node.kind](*args)
        out[id(node)] = res
    return out[id(e)]


# --- printing -----------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5

_BARE_EXP_END = re.compile(r"\^\d+$")


def _format_exponent(q) -> str:
    if isinstance(q, Fraction):
        if q.denominator == 1:
            return str(q.numerator) if q >= 0 else f"({q.numerator})"
        return f"({q.numerator}/{q.denominator})"
    return f"({q!r})" if q < 0 else repr(q)


def to_text(e: Expr, max_len: int | None = None) -> str:
    """Render to text that re-parses to a pointwise-equal expression."""
    memo: dict = {}
    for node in _postorder(e):
        kind = node.kind
        if kind == "const":
            v = node.data
            if isinstance(v, Fraction):
                if v.denominator == 1:
                    s, p = str(v.numerator), (_PREC_ATOM if v >= 0 else _PREC_NEG)
                else:
                    s, p = f"{v.numerator}/{v.denominator}", _PREC_MUL
            else:
                s, p = repr(v), (_PREC_ATOM if v >= 0 else _PREC_NEG)
        elif kind == "coord":
            s, p = f"x{node.data}", _PREC_ATOM
        elif kind == "param":
            s, p = node.data, _PREC_ATOM
        elif kind == "neg":
            cs, cp = memo[id(node.args[0])]
            if cp < _PREC_NEG:
                cs = f"({cs})"
            s, p = f"-{cs}", _PREC_NEG
        elif kind in _MATH_FN:
            cs, _ = memo[id(node.args[0])]
            s, p = f"{kind}({cs})", _PREC_ATOM
        elif kind == "pow":
            cs, cp = memo[id(node.args[0])]
            if cp < _PREC_ATOM:
                cs = f"({cs})"
            s, p = f"{cs}^{_format_exponent(node.data)}", _PREC_POW
        else:
            op, prec = {
                "add": ("+", _PREC_ADD),
                "sub": ("-", _PREC_ADD),
                "mul": ("*", _PREC_MUL),
                "div": ("/", _PREC_MUL),
            }[kind]
            ls, lp = memo[id(node.args[0])]
            rs, rp = memo[id(node.args[1])]
            if lp < prec:
                ls = f"({ls})"
            if rp <= prec:  # - and / are left associative
                rs = f"({rs})"
            if kind == "div" and _BARE_EXP_END.search(ls) and rs[:1].isdigit():
                # a trailing bare exponent would swallow "/ <int>" as a
                # rational exponent on re-parse; keep the division a division
                ls = f"({ls})"
            s, p = f"{ls} {op} {rs}", prec
        memo[id(node)] = (s, p)
    text = memo[id(e)][0]
    if max_len is not None and len(text) > max_len:
        text = text[: max_len - 3] + "..."
    return text


# --- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            off = len(src) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", src, off)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


def _number_value(text: str):
    """Exact Fraction for plain integers, float for decimals/scientific."""
    if text.isdigit():
        return Fraction(int(text))
    return float(text)


class _Parser:
    def __init__(self, src: str, coord_names: Sequence[str], param_names):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.coord_index = {name: i for i, name in enumerate(coord_names)}
        self.param_names = frozenset(param_names)

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != symbol:
            raise ParseError(f"expected '{symbol}'", self.src, tok[2])

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected '{tok[1]}'", self.src, tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.next()[1]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.next()[1]
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.next()
            return neg(self.factor())
        e = self.base()
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.next()
            return power(e, self.exponent())
        return e

    def exponent(self):
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "(":
            self.next()
            q = self.signed_number()
            self.expect_op(")")
            return q
        return self.signed_number()

    def signed_number(self):
        sign = 1
        tok = self.peek()
        if tok[0] == "op" and tok[1] in "+-":
            self.next()
            if tok[1] == "-":
                sign = -1
            tok = self.peek()
        if tok[0] != "num":
            raise ParseError("exponent must be a numeric constant", self.src, tok[2])
        self.next()
        value = _number_value(tok[1])
        # rational literal a/b: only when both sides are plain integers
        if (
            isinstance(value, Fraction)
            and self.peek()[0] == "op"
            and self.peek()[1] == "/"
            and self.peek(1)[0] == "num"
            and self.peek(1)[1].isdigit()
        ):
            self.next()
            den = int(self.next()[1])
            if den == 0:
                raise ParseError("zero denominator in rational exponent", self.src, tok[2])
            value = Fraction(value.numerator, den)
        return sign * value if isinstance(value, Fraction) else float(sign) * value

    def base(self) -> Expr:
        tok = self.next()
        if tok[0] == "num":
            return const(_number_value(tok[1]))
        if tok[0] == "ident":
            name = tok[1]
            if self.peek()[0] == "op" and self.peek()[1] == "(":
                if name not in _FUNCTIONS:
                    raise ParseError(f"unknown function '{name}'", self.src, tok[2])
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return _FUNCTIONS[name](arg)
            if name in self.coord_index:
                return coord(self.coord_index[name])
            if name in self.param_names:
                return param(name)
            raise ParseError(f"unknown identifier '{name}'", self.src, tok[2])
        if tok[0] == "op" and tok[1] == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError("expected a number, identifier or '('", self.src, tok[2])


def parse(src: str, coord_names: Sequence[str], param_names=()) -> Expr:
    """Parse source text into an :class:`Expr`.

    ``coord_names`` fixes the coordinate order (identifiers resolve to
    positional references); ``param_names`` lists the allowed parameter names.
    Raises :class:`ParseError` (with character offset) on syntax errors,
    unknown identifiers, or non-constant exponents.
    """
    return _Parser(src, coord_names, param_names).parse()
