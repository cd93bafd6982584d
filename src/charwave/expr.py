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

Builtins: ``sin cos tan exp log sqrt tanh abs`` (one argument) and
``min max`` (two arguments); ``log`` is natural.  ``pi`` and ``e`` parse as
numeric literals.  Any other identifier must be one of the variable names the
caller allows for that slot.

Evaluation is numpy-vectorised: binding scalars gives a float, binding arrays
gives an array.  Leaving the real domain (``log``/``sqrt`` of a negative
number, division by zero, a non-finite result) raises ``DomainError`` rather
than propagating NaN.

``differentiate`` produces an exact symbolic derivative; it refuses (with
``NotDifferentiable``) only when the active variable appears under ``abs``,
``min`` or ``max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import (
    ArityError,
    DomainError,
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
    "evaluate",
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

_ARITY = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "tanh": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


# --------------------------------------------------------------------------
# Tokenizer / parser

_OPS = set("+-*/^(),")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples; kinds: num, name, op, end."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            tokens.append(("num", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], allowed: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        kind, val, off = self.peek()
        if kind != "op" or val != text:
            raise ExprSyntaxError(f"expected {text!r}", off)
        self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val))
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if val in _ARITY:
                k, v, o = self.peek()
                if not (k == "op" and v == "("):
                    raise ExprSyntaxError(f"builtin {val!r} must be called", o)
                self.advance()
                args = [self.parse_expr()]
                while True:
                    k, v, o = self.peek()
                    if k == "op" and v == ",":
                        self.advance()
                        args.append(self.parse_expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != _ARITY[val]:
                    raise ArityError(
                        f"{val} takes {_ARITY[val]} argument(s), got {len(args)}"
                    )
                return Call(val, tuple(args))
            if val in self.allowed:
                return Var(val)
            if val in _CONSTANTS:
                return Num(_CONSTANTS[val])
            raise UnknownVariable(val, off)
        raise ExprSyntaxError("expected a number, name or parenthesis", off)


def parse(source: str, allowed_vars: Iterable[str]) -> Expr:
    """Compile ``source`` to an AST, permitting only ``allowed_vars`` as free names."""
    parser = _Parser(_tokenize(source), frozenset(allowed_vars))
    node = parser.parse_expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {val!r}", off)
    return node


# --------------------------------------------------------------------------
# Evaluation

_SAFE_UNARY = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "tanh": np.tanh,
    "abs": np.abs,
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
        left = _eval(node.left, env)
        right = _eval(node.right, env)
        op = node.op
        if op == "+":
            return np.add(left, right)
        if op == "-":
            return np.subtract(left, right)
        if op == "*":
            return np.multiply(left, right)
        if op == "/":
            if np.any(np.equal(right, 0.0)):
                raise DomainError("division by zero")
            return np.divide(left, right)
        # power: numpy yields NaN for a negative base with fractional
        # exponent and inf for 0^negative; both are caught below
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            out = np.power(np.asarray(left, dtype=float), right)
        if np.any(~np.isfinite(out)):
            raise DomainError("power produced a non-finite value")
        return out
    # Call
    args = [_eval(a, env) for a in node.args]
    fn = node.fn
    if fn == "log":
        if np.any(np.less_equal(args[0], 0.0)):
            raise DomainError("log of a non-positive value")
        return np.log(args[0])
    if fn == "sqrt":
        if np.any(np.less(args[0], 0.0)):
            raise DomainError("sqrt of a negative value")
        return np.sqrt(args[0])
    if fn == "min":
        return np.minimum(args[0], args[1])
    if fn == "max":
        return np.maximum(args[0], args[1])
    with np.errstate(over="ignore", invalid="ignore"):
        return _SAFE_UNARY[fn](args[0])


def evaluate(expr: Expr, env: Mapping[str, object]):
    """Evaluate under ``env``; scalar bindings give a float, arrays an ndarray.

    Raises ``MissingBinding`` for unbound variables and ``DomainError`` if any
    entry of the result is NaN or infinite.
    """
    out = _eval(expr, env)
    arr = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("expression produced a non-finite value")
    if arr.ndim == 0:
        return float(arr)
    return arr


def free_vars(expr: Expr) -> frozenset[str]:
    """Names of all variables occurring in ``expr``."""
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return free_vars(expr.arg)
    if isinstance(expr, BinOp):
        return free_vars(expr.left) | free_vars(expr.right)
    if isinstance(expr, Call):
        out: frozenset[str] = frozenset()
        for a in expr.args:
            out |= free_vars(a)
        return out
    return frozenset()


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
