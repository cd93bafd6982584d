import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charwave.expr as ex
from charwave.errors import (
    ArityError,
    DomainError,
    ExpressionError,
    ExprSyntaxError,
    MissingBinding,
    NotDifferentiable,
    UnknownVariable,
)

VARS = ("t", "x", "u", "ut", "ux")


def ev(src, **env):
    return ex.evaluate(ex.parse(src, VARS), env)


class TestParse:
    def test_precedence(self):
        assert ev("1+2*3") == 7.0
        assert ev("(1+2)*3") == 9.0
        assert ev("2^3^2") == 512.0  # right associative
        assert ev("-2^2") == -4.0  # power binds tighter than unary minus
        assert ev("2*-3") == -6.0
        assert ev("6/3/2") == 1.0  # left associative
        assert ev("1 - 2 - 3") == -4.0

    def test_numbers(self):
        assert ev("1.5e2") == 150.0
        assert ev("0.25") == 0.25
        assert ev("3") == 3.0

    def test_constants_fold(self):
        assert isinstance(ex.parse("pi", ()), ex.Num)
        assert ev("pi") == math.pi
        assert ev("e") == math.e
        assert ex.free_vars(ex.parse("pi*x", ("x",))) == {"x"}

    def test_functions(self):
        assert ev("sin(0)") == 0.0
        assert ev("max(2, 3)") == 3.0
        assert ev("min(2, 3)") == 2.0
        assert ev("abs(-4)") == 4.0
        assert ev("tanh(0)") == 0.0

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse("2*)", VARS)
        assert err.value.position == 2

    @pytest.mark.parametrize(
        "src, tree",
        [
            ("1.e5", ex.Num(100000.0)),
            (".5", ex.Num(0.5)),
            ("3E+1", ex.Num(30.0)),
            ("2^-1^2", ex.BinOp("^", ex.Num(2.0), ex.Neg(ex.BinOp("^", ex.Num(1.0), ex.Num(2.0))))),
            ("--x", ex.Neg(ex.Neg(ex.Var("x")))),
            ("x^-x", ex.BinOp("^", ex.Var("x"), ex.Neg(ex.Var("x")))),
            ("1 -\t2\n", ex.BinOp("-", ex.Num(1.0), ex.Num(2.0))),
        ],
    )
    def test_exact_tree(self, src, tree):
        assert ex.parse(src, VARS) == tree

    @pytest.mark.parametrize(
        "src, message, position",
        [
            # an exponent without digits is not part of the number
            ("1e", "unexpected trailing input 'e'", 1),
            ("2*)", "expected a number, name or parenthesis", 2),
            ("sin x", "builtin 'sin' must be called", 4),
            ("(x", "expected ')'", 2),
            ("x $", "unexpected character '$'", 2),
            ("1..2", "unexpected trailing input '.2'", 2),
        ],
    )
    def test_exact_error(self, src, message, position):
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse(src, VARS)
        assert str(err.value) == f"{message} (at offset {position})"
        assert err.value.position == position

    @pytest.mark.parametrize("src, position", [("1\u00b2", 1), ("\u0663", 0), ("\u00e9", 0), ("x\u00b2", 1)])
    def test_non_ascii_digits_and_letters_are_syntax_errors(self, src, position):
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse(src, VARS)
        assert err.value.position == position

    @pytest.mark.parametrize("src", ["", "(1+2", "1 2", "2x", "*3", "sin + 1"])
    def test_rejects(self, src):
        with pytest.raises(ExprSyntaxError):
            ex.parse(src, VARS)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable) as err:
            ex.parse("y + 1", ("t", "x"))
        assert err.value.name == "y"
        assert err.value.position == 0

    @pytest.mark.parametrize("src", ["sin(x, t)", "min(x)", "min(x, t, u)"])
    def test_arity(self, src):
        with pytest.raises(ArityError):
            ex.parse(src, VARS)

    def test_empty_call_is_syntax_error(self):
        with pytest.raises(ExprSyntaxError):
            ex.parse("sin()", VARS)

    def test_unknown_variable_is_expression_error(self):
        with pytest.raises(ExpressionError):
            ex.parse("nope", VARS)


# each builds input nested n levels deep: the sum as a tree n levels high,
# the others as n levels open in the parser at the innermost x
NESTINGS = {
    "parentheses": lambda n: "(" * (n - 1) + "x" + ")" * (n - 1),
    "sum": lambda n: "+".join(["x"] * n),
    "minus": lambda n: "-" * (n - 1) + "x",
    "calls": lambda n: "sin(" * (n - 1) + "x" + ")" * (n - 1),
    "powers": lambda n: "^".join(["x"] * n),
}


class TestNestingBound:
    @pytest.mark.parametrize("make", NESTINGS.values(), ids=NESTINGS.keys())
    def test_bound_is_max_depth(self, make):
        e = ex.parse(make(ex.MAX_DEPTH), ("x",))
        xs = np.array([0.5, 0.75])
        ex.evaluate(e, {"x": xs})
        assert ex.free_vars(e) == {"x"}
        ex.evaluate(ex.differentiate(e, "x"), {"x": xs})
        for n in (ex.MAX_DEPTH + 1, 3000):
            with pytest.raises(ExprSyntaxError, match=f"nested deeper than {ex.MAX_DEPTH} levels"):
                ex.parse(make(n), ("x",))


class TestEvaluate:
    def test_scalar_in_float_out(self):
        out = ev("x^2 + 1", x=3.0)
        assert isinstance(out, float) and out == 10.0

    def test_array_in_array_out(self):
        out = ex.evaluate(ex.parse("x^2 + 1", ("x",)), {"x": np.array([1.0, 2.0])})
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [2.0, 5.0])

    def test_extra_bindings_allowed(self):
        assert ev("x", x=1.0, t=5.0) == 1.0

    def test_missing_binding(self):
        with pytest.raises(MissingBinding):
            ev("x + t", x=1.0)

    @pytest.mark.parametrize(
        "src,env",
        [
            ("1/x", {"x": 0.0}),
            ("log(x)", {"x": 0.0}),
            ("log(x)", {"x": -1.0}),
            ("sqrt(x)", {"x": -1.0}),
            ("x^x", {"x": -0.5}),
            ("exp(x)", {"x": 1000.0}),
            ("0^x", {"x": -1.0}),
            ("x*x", {"x": 1e200}),  # overflow, without a warning
        ],
    )
    def test_domain_errors(self, src, env):
        with pytest.raises(DomainError):
            ex.evaluate(ex.parse(src, ("x",)), env)

    def test_domain_error_on_any_array_entry(self):
        with pytest.raises(DomainError):
            ex.evaluate(ex.parse("1/x", ("x",)), {"x": np.array([1.0, 0.0])})

    def test_purity(self):
        e = ex.parse("sin(x)*exp(t) - x/3", ("t", "x"))
        env = {"t": 0.7, "x": -1.3}
        assert ex.evaluate(e, env) == ex.evaluate(e, env)


SMOOTH_CASES = [
    "x^2",
    "x^3 - 2*x + 1",
    "sin(x)",
    "cos(2*x)",
    "exp(x/3)",
    "log(x + 5)",
    "sqrt(x + 5)",
    "tanh(x)",
    "x*sin(x) + cos(x)/(x + 4)",
    "sin(x^2)",
    "2^x",
    "x^1.5 + 3",
    "(x + 1)/(x^2 + 1)",
    "tan(x)",
    "1/(2 + 1) + x",  # a quotient rule whose numerator is structurally 0
    "log(1) + x",  # an outer derivative 1/1, which is 1 itself
]


class TestDifferentiate:
    @pytest.mark.parametrize("src", SMOOTH_CASES)
    def test_matches_central_difference(self, src):
        e = ex.parse(src, ("x",))
        d = ex.differentiate(e, "x")
        h = 1e-5
        for xv in (0.3, 1.1, 2.7):
            fd = (
                ex.evaluate(e, {"x": xv + h}) - ex.evaluate(e, {"x": xv - h})
            ) / (2 * h)
            assert ex.evaluate(d, {"x": xv}) == pytest.approx(fd, abs=1e-6)

    def test_partial_ignores_other_vars(self):
        e = ex.parse("t^2 + x*t", ("t", "x"))
        d = ex.differentiate(e, "x")
        assert ex.evaluate(d, {"t": 3.0, "x": 100.0}) == 3.0

    def test_constant_derivative_is_zero(self):
        assert ex.is_zero(ex.differentiate(ex.parse("7", ()), "x"))
        assert ex.is_zero(ex.differentiate(ex.parse("abs(t)", ("t",)), "x"))

    def test_power_rule_simplifies(self):
        d = ex.differentiate(ex.parse("x^2", ("x",)), "x")
        assert d == ex.BinOp("*", ex.Num(2.0), ex.Var("x"))

    @pytest.mark.parametrize("src", ["abs(u)", "min(u, 1)", "max(0, u)"])
    def test_kinks_not_differentiable(self, src):
        with pytest.raises(NotDifferentiable):
            ex.differentiate(ex.parse(src, ("u",)), "u")

    def test_variable_exponent(self):
        d = ex.differentiate(ex.parse("x^t", ("t", "x")), "x")
        assert ex.evaluate(d, {"x": 2.0, "t": 3.0}) == pytest.approx(12.0)


@settings(max_examples=60, deadline=None)
@given(
    av=st.floats(-10, 10, allow_nan=False),
    bv=st.floats(-10, 10, allow_nan=False),
)
def test_arithmetic_matches_python(av, bv):
    e = ex.parse("t + x*t - x/2", ("t", "x"))
    assert ex.evaluate(e, {"t": av, "x": bv}) == pytest.approx(
        av + bv * av - bv / 2, rel=1e-12, abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(xv=st.floats(-3, 3, allow_nan=False))
def test_derivative_of_product_rule_identity(xv):
    # (fg)' = f'g + fg' checked numerically for fixed f, g
    f = ex.parse("sin(x)", ("x",))
    g = ex.parse("x^2 + 1", ("x",))
    prod = ex.parse("sin(x)*(x^2 + 1)", ("x",))
    lhs = ex.evaluate(ex.differentiate(prod, "x"), {"x": xv})
    rhs = ex.evaluate(ex.differentiate(f, "x"), {"x": xv}) * ex.evaluate(
        g, {"x": xv}
    ) + ex.evaluate(f, {"x": xv}) * ex.evaluate(ex.differentiate(g, "x"), {"x": xv})
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


TOKENS = [
    "0", "1", "2.5", ".5", "1.", "1e3", "1e", "3E+1", "1e308", "x", "t", "u", "ut",
    "ux", "y", "pi", "e", "sin", "exp", "log", "sqrt", "min", "max", "+", "-", "*",
    "/", "^", "(", ")", ",", " ",
]
SMALL = {v: np.array([-1.5, -0.0, 0.5, 2.0, 1e200]) for v in VARS}


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), st.lists(st.sampled_from(TOKENS), max_size=24).map("".join)))
@example("1\u00b2")
@example("x*x")
def test_any_input_is_an_expr_or_an_expression_error(source):
    try:
        e = ex.parse(source, VARS)
    except ExpressionError:
        return
    assert isinstance(e, (ex.Num, ex.Var, ex.Neg, ex.BinOp, ex.Call))
    try:
        ex.evaluate(e, SMALL)
    except ExpressionError:
        pass
