import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lvfte import ExpressionError, parse_expression

# parse_expression must not let a SyntaxWarning (or any other) escape; the
# ignored one is libcst's, imported by hypothesis to explain a failure
pytestmark = pytest.mark.filterwarnings("error", "ignore::DeprecationWarning:libcst")


def ev(text, x):
    return parse_expression(text)(x)


class TestEvaluation:
    def test_polynomial_profile(self):
        x = np.linspace(0.0, 1.0, 11)
        assert ev("x*(1-x)", x) == pytest.approx(x * (1 - x))

    def test_constant_broadcasts_to_input_shape(self):
        x = np.linspace(0.0, 1.0, 7)
        out = ev("0.5", x)
        assert out.shape == x.shape
        assert np.all(out == 0.5)

    def test_scalar_argument_gives_float(self):
        assert ev("2*x+1", 0.5) == pytest.approx(2.0)

    def test_functions(self):
        x = np.linspace(0.0, 2.0, 9)
        assert ev("sin(x)+cos(x)^2", x) == pytest.approx(np.sin(x) + np.cos(x) ** 2)
        assert ev("exp(-x)/2", x) == pytest.approx(np.exp(-x) / 2)

    def test_precedence_and_unary_minus(self):
        assert ev("2+3*4", 0.0) == 14.0
        assert ev("2*3^2", 0.0) == 18.0
        assert ev("-x^2", 2.0) == -4.0
        assert ev("(-x)^2", 2.0) == 4.0

    def test_power_is_right_associative(self):
        assert ev("2^2^3", 0.0) == 256.0

    def test_division_by_zero_propagates_inf(self):
        # profile validity (finiteness, sign) is enforced by the consumers
        assert np.isinf(ev("1/x", 0.0))


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "2+*3", "sin(", "foo(x)", "x y", "1..2", "(x", "x)", "x+", "^2"],
    )
    def test_malformed_input_raises(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text)

    def test_error_carries_position_context(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("x + $")
        assert "position" in str(err.value) or "4" in str(err.value)

    def test_unknown_function_named_in_message(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("tan(x)")
        assert "tan" in str(err.value)


class TestExpressionObject:
    def test_source_round_trip_and_equality(self):
        e1 = parse_expression("x*(1-x)")
        e2 = parse_expression("x*(1-x)")
        assert e1 == e2
        assert e1.source == "x*(1-x)"
        assert hash(e1) == hash(e2)

    def test_repr_mentions_source(self):
        assert "x*(1-x)" in repr(parse_expression("x*(1-x)"))


class TestPythonOnlySyntax:
    @pytest.mark.parametrize(
        "text",
        ["x**2", "+x", "x//2", "x%2", "0x1F", "1_0", "1j", "True", "x.real", "x[0]",
         "sin(x, x)", "sin(x=1)", "x if x else 1", "x<1", "x # c", "(x,)", "x(1)",
         "1if x else 2", "x)+(x", "sin(^x)", "sin(*x)"],
    )
    def test_rejected(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text)

    @pytest.mark.parametrize(
        "text, want",
        [("x*(1-x)\n  + 0.01", 0.26), ("   x", 0.5), ("01", 1.0), ("5.e3", 5000.0),
         ("1E5", 1e5), ("007.5", 7.5), ("1e-01", 0.1), ("\u0663*x", 1.5), ("x\u00a0+\t1", 1.5)],
    )
    def test_accepted(self, text, want):
        assert ev(text, 0.5) == want


# Expression trees: (text, precedence, value function).  Precedence follows
# the grammar: 1 sum, 2 product, 3 unary minus, 4 power, 5 atom.
def _wrap(node, need):
    text, prec, _ = node
    return text if prec >= need else f"({text})"


_NUMBERS = st.one_of(
    st.from_regex(r"\A(?:[0-9]{1,3}\.?[0-9]{0,3}|\.[0-9]{1,3})(?:[eE][+-]?[0-9]{1,2})?\Z"),
    st.sampled_from(["0", "01", "007", "0.5", "5.e3", "1E5", ".5", "5."]),
)
_LEAVES = st.one_of(
    _NUMBERS.map(lambda s: (s, 5, lambda x, v=float(s): v)),
    st.just(("x", 5, lambda x: x)),
)
_BINARY = {"+": (1, lambda a, b: a + b), "-": (1, lambda a, b: a - b),
           "*": (2, lambda a, b: a * b), "/": (2, lambda a, b: a / b)}


def _branches(kids):
    def binary(op, lhs, rhs):
        prec, f = _BINARY[op]
        return (f"{_wrap(lhs, prec)} {op} {_wrap(rhs, prec + 1)}", prec,
                lambda x: f(lhs[2](x), rhs[2](x)))

    def power(base, exponent):
        return (f"{_wrap(base, 5)}^{_wrap(exponent, 3)}", 4,
                lambda x: np.power(base[2](x), exponent[2](x)))

    def call(name, arg):
        return (f"{name}({arg[0]})", 5, lambda x: getattr(np, name)(arg[2](x)))

    return st.one_of(
        st.builds(binary, st.sampled_from(sorted(_BINARY)), kids, kids),
        st.builds(power, kids, kids),
        kids.map(lambda a: (f"-{_wrap(a, 3)}", 3, lambda x: -a[2](x))),
        st.builds(call, st.sampled_from(["sin", "cos", "exp"]), kids),
        kids.map(lambda a: (f"({a[0]})", 5, a[2])),
    )


class TestAgainstTheTree:
    @settings(max_examples=300, deadline=None)
    @given(st.recursive(_LEAVES, _branches, max_leaves=10))
    def test_value_is_bit_equal_to_the_tree(self, node):
        text, _, value = node
        expr = parse_expression(text)
        x = np.linspace(-2.0, 3.0, 11)

        def bits(f):  # a constant 0/0 is Python float division and raises
            try:
                with np.errstate(all="ignore"):
                    return np.asarray(f(), dtype=float).tobytes()
            except ZeroDivisionError:
                return "ZeroDivisionError"

        assert bits(lambda: expr(x)) == bits(lambda: np.broadcast_to(value(x), x.shape))
        assert bits(lambda: expr(0.7)) == bits(lambda: value(np.asarray(0.7)))
