"""Small real-valued formula language for problem definitions.

Coefficients and data of a problem (initial profiles, forcing, the lower-order
term) are given as strings in a tiny arithmetic language and compiled to an
immutable AST once, at configuration time.

Grammar (EBNF, whitespace insignificant)::

    expr   = term { ("+" | "-") term } ;
    term   = unary { ("*" | "/") unary } ;
    unary  = "-" unary | power ;
    power  = atom [ "^" unary ] ;            (* right associative *)
    atom   = NUMBER | NAME
           | NAME "(" expr { "," expr } ")"
           | "(" expr ")" ;

so ``^`` binds tightest (``-x^2`` is ``-(x^2)``), then unary minus, then
``*``/``/``, then ``+``/``-``.  There is no implicit multiplication.

Tokens are ASCII, read between whitespace by one regular expression:
NUMBER is ``([0-9]+([.][0-9]*)?|[.][0-9]+)([eE][+-]?[0-9]+)?`` (so ``1e`` is
``1`` and then the name ``e``), NAME is ``[A-Za-z_][A-Za-z0-9_]*``, and the
operators are ``+ - * / ^ ( ) ,``.  Any other character, a non-ASCII digit or
letter included, is an ``ExprSyntaxError`` at its offset.

Builtins: ``sin cos tan exp log sqrt tanh abs`` (one argument) and
``min max`` (two arguments); ``log`` is natural.  ``pi`` and ``e`` parse as
numeric literals.  Any other identifier must be one of the variable names the
caller allows for that slot.

A tree more than ``MAX_DEPTH`` = 100 levels high (a sum of 101 terms), or
input that opens more than 100 levels of parentheses, calls, unary minus and
``^`` (100 parentheses around a name), is an ``ExprSyntaxError``; the bound
keeps parsing, evaluation and differentiation inside the recursion limit.

Evaluation is numpy-vectorised: binding scalars gives a float, binding arrays
gives an array.  Leaving the real domain (``log``/``sqrt`` of a negative
number, division by zero, overflow, any other non-finite result) raises
``DomainError`` rather than propagating NaN or inf, and numpy emits no
warning on the way.

``differentiate`` produces an exact symbolic derivative; it refuses (with
``NotDifferentiable``) only when the active variable appears under ``abs``,
``min`` or ``max``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import (
    ArityError,
    DomainError,
    ExpressionError,
    ExprSyntaxError,
    MissingBinding,
    NotDifferentiable,
    UnknownVariable,
)

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "parse_named",
    "evaluate",
    "evaluate_named",
    "free_vars",
    "differentiate",
]


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]

_CONSTANTS = {"pi": math.pi, "e": math.e}


# --------------------------------------------------------------------------
# Tokenizer / parser

MAX_DEPTH = 100

# one token or a run of whitespace; ``bad`` is any other character, so every
# position matches and the matches tile the source
_TOKEN = re.compile(
    r"(?P<num>(?:[0-9]+(?:[.][0-9]*)?|[.][0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(),])|(?P<space>\s+)|(?P<end>\Z)|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples; kinds: num, name, op, end."""
    tokens = []
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        if kind != "space":
            tokens.append((kind, m.group(), m.start()))
    return tokens


def _height(node: Expr) -> int:
    """Number of levels of the tree ``node``, counted without recursion."""
    height, level = 0, [node]
    while level:
        height += 1
        level = [c for n in level for c in _children(n)]
    return height


def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Call):
        return node.args
    return ()


def parse(source: str, allowed_vars: Iterable[str]) -> Expr:
    """Compile ``source`` to an AST, permitting only ``allowed_vars`` as free names."""
    tokens = _tokenize(source)
    allowed = frozenset(allowed_vars)
    pos = depth = 0

    def take(ops: str) -> str | None:
        """Consume the next token and return it if it is one of ``ops``."""
        nonlocal pos
        kind, text, _ = tokens[pos]
        if kind == "op" and text in ops:
            pos += 1
            return text
        return None

    def expect(op: str) -> None:
        if take(op) is None:
            raise ExprSyntaxError(f"expected {op!r}", tokens[pos][2])

    def chain(ops: str, operand) -> Expr:
        """``operand { ops operand }``, left associative."""
        node = operand()
        while op := take(ops):
            node = BinOp(op, node, operand())
        return node

    def expr() -> Expr:
        return chain("+-", lambda: chain("*/", unary))

    def unary() -> Expr:
        nonlocal depth
        depth += 1
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"nested deeper than {MAX_DEPTH} levels", tokens[pos][2])
        if take("-"):
            node = Neg(unary())
        else:
            node = atom()
            if take("^"):
                node = BinOp("^", node, unary())
        depth -= 1
        return node

    def atom() -> Expr:
        nonlocal pos
        kind, text, off = tokens[pos]
        pos += 1
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            node = expr()
            expect(")")
            return node
        if kind != "name":
            raise ExprSyntaxError("expected a number, name or parenthesis", off)
        if text in _CALLS:
            if take("(") is None:
                raise ExprSyntaxError(f"builtin {text!r} must be called", tokens[pos][2])
            args = [expr()]
            while take(","):
                args.append(expr())
            expect(")")
            arity = _CALLS[text].nin
            if len(args) != arity:
                raise ArityError(f"{text} takes {arity} argument(s), got {len(args)}")
            return Call(text, tuple(args))
        if text in allowed:
            return Var(text)
        if text in _CONSTANTS:
            return Num(_CONSTANTS[text])
        raise UnknownVariable(text, off)

    node = expr()
    kind, text, off = tokens[pos]
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {text!r}", off)
    # each node takes at least one token, so a short input has a low tree
    if len(tokens) > MAX_DEPTH and _height(node) > MAX_DEPTH:
        raise ExprSyntaxError(f"nested deeper than {MAX_DEPTH} levels", 0)
    return node


def parse_named(name: str, source: str, allowed_vars: Iterable[str]) -> Expr:
    """``parse``, naming where ``source`` came from (``name``, an expression
    slot or an option) at the start of an error's message."""
    try:
        return parse(source, allowed_vars)
    except ExpressionError as err:
        err.args = (f"{name}: {err}",)
        raise


def evaluate_named(name: str, expr: Expr, env: Mapping[str, object]):
    """``evaluate``, naming where ``expr`` came from (``name``, an expression
    slot) at the start of a DomainError's message.  ``evaluate`` is looked up
    at each call, so a wrapper installed on it sees every evaluation."""
    try:
        return evaluate(expr, env)
    except DomainError as err:
        err.args = (f"{name}: {err}",)
        raise


# --------------------------------------------------------------------------
# Evaluation

_BINARY = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    # a float base: an integer one must not meet a negative integer exponent
    "^": lambda a, b: np.power(np.asarray(a, dtype=float), b),
}

# the builtins; a ufunc's ``nin`` is the arity the parser checks
_CALLS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "tanh": np.tanh, "abs": np.abs, "min": np.minimum, "max": np.maximum,
}

# operands checked before the operation: (which operand, test against 0, message)
_GUARDS = {
    "/": (1, np.equal, "division by zero"),
    "log": (0, np.less_equal, "log of a non-positive value"),
    "sqrt": (0, np.less, "sqrt of a negative value"),
}


def _eval(node: Expr, env: Mapping[str, object]):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise MissingBinding(f"no value bound for variable {node.name!r}") from None
    if isinstance(node, Neg):
        return np.negative(_eval(node.arg, env))
    if isinstance(node, BinOp):
        key, fn = node.op, _BINARY[node.op]
        args = (_eval(node.left, env), _eval(node.right, env))
    else:
        key, fn = node.fn, _CALLS[node.fn]
        args = [_eval(a, env) for a in node.args]
    if key in _GUARDS:
        i, bad, message = _GUARDS[key]
        if bad(args[i], 0.0).any():
            raise DomainError(message)
    out = fn(*args)
    # NaN for a negative base with a fractional exponent, inf for 0^negative
    if key == "^" and not np.isfinite(out).all():
        raise DomainError("power produced a non-finite value")
    return out


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def evaluate(expr: Expr, env: Mapping[str, object]):
    """Evaluate under ``env``; scalar bindings give a float, arrays an ndarray.

    Raises ``MissingBinding`` for unbound variables and ``DomainError`` if any
    entry of the result is NaN or infinite, overflow included, without a
    numpy warning.
    """
    arr = np.asarray(_eval(expr, env), dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("expression produced a non-finite value")
    if arr.ndim == 0:
        return float(arr)
    return arr


def free_vars(expr: Expr) -> frozenset[str]:
    """Names of all variables occurring in ``expr``."""
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    return frozenset().union(*map(free_vars, _children(expr)))


def is_zero(expr: Expr) -> bool:
    """True when ``expr`` is literally the constant zero."""
    return isinstance(expr, Num) and expr.value == 0.0


# --------------------------------------------------------------------------
# Differentiation


def differentiate(expr: Expr, var: str) -> Expr:
    """Exact partial derivative of ``expr`` with respect to ``var``.

    The result is an ordinary expression tree (no simplification beyond
    dropping structurally zero branches).  ``abs``, ``min`` and ``max`` are
    only admitted where the active variable does not occur underneath.
    """
    if isinstance(expr, Num):
        return Num(0.0)
    if isinstance(expr, Var):
        return Num(1.0) if expr.name == var else Num(0.0)
    if isinstance(expr, Neg):
        return _neg(differentiate(expr.arg, var))
    if isinstance(expr, BinOp):
        da = differentiate(expr.left, var)
        db = differentiate(expr.right, var)
        a, b = expr.left, expr.right
        if expr.op == "+":
            return _add(da, db)
        if expr.op == "-":
            return _sub(da, db)
        if expr.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if expr.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), BinOp("^", b, Num(2.0)))
        # a^b
        if is_zero(db):
            # d/dv a^c = c * a^(c-1) * da
            down = Num(b.value - 1.0) if isinstance(b, Num) else _sub(b, Num(1.0))
            if isinstance(down, Num) and down.value == 1.0:
                return _mul(_mul(b, a), da)
            if isinstance(down, Num) and down.value == 0.0:
                return _mul(b, da)
            return _mul(_mul(b, BinOp("^", a, down)), da)
        if is_zero(da):
            # d/dv c^b = c^b * log(c) * db
            return _mul(_mul(expr, Call("log", (a,))), db)
        return _mul(expr, _add(_mul(db, Call("log", (a,))), _div(_mul(b, da), a)))
    # Call
    if expr.fn in ("abs", "min", "max"):
        for a in expr.args:
            if var in free_vars(a):
                raise NotDifferentiable(
                    f"cannot differentiate {expr.fn} with respect to {var!r}"
                )
        return Num(0.0)
    (arg,) = expr.args
    du = differentiate(arg, var)
    if expr.fn == "sin":
        outer = Call("cos", (arg,))
    elif expr.fn == "cos":
        outer = _neg(Call("sin", (arg,)))
    elif expr.fn == "tan":
        outer = _div(Num(1.0), BinOp("^", Call("cos", (arg,)), Num(2.0)))
    elif expr.fn == "exp":
        outer = expr
    elif expr.fn == "log":
        outer = _div(Num(1.0), arg)
    elif expr.fn == "sqrt":
        outer = _div(Num(1.0), _mul(Num(2.0), expr))
    else:  # tanh
        outer = _sub(Num(1.0), BinOp("^", expr, Num(2.0)))
    return _mul(outer, du)


def _add(a: Expr, b: Expr) -> Expr:
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if is_zero(b):
        return a
    if is_zero(a):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if is_zero(a) or is_zero(b):
        return Num(0.0)
    if isinstance(a, Num) and a.value == 1.0:
        return b
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if is_zero(a):
        return Num(0.0)
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return BinOp("/", a, b)


def _neg(a: Expr) -> Expr:
    if is_zero(a):
        return Num(0.0)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)
