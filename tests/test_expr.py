"""Parser, printer, dual-number engine, and finite-difference tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcgeom import ChartSpec, EvalError, ExprField, ParseError, UnknownIdentifierError
from rcgeom.expr import (
    MAX_DEPTH,
    Add,
    Call,
    Coord,
    Div,
    Mul,
    Num,
    Param,
    Pow,
    Sub,
    axes,
    evaluate,
    fold,
    parse,
    to_source,
)
from rcgeom.fields import fd_jet, finite_difference_derivatives
from rcgeom.jets import Jet

CART = ChartSpec(("t", "x", "y", "z"))
SPHERE = ChartSpec(("t", "r", "theta", "phi"))


# -- parsing ------------------------------------------------------------------


def test_parse_schwarzschild_factor_shape():
    ast = parse("1 - 2*M/r", SPHERE, params=("M",))
    assert ast == Sub(Num(1.0), Div(Mul(Num(2.0), Param("M")), Coord(1, "r")))


def test_parse_eval_example():
    f = ExprField("r^2 * sin(theta)^2", SPHERE)
    assert f.value([0.0, 2.0, math.pi / 2, 0.0]) == pytest.approx(4.0)


def test_singular_point_evaluation_raises():
    f = ExprField("q/r", SPHERE, params={"q": 0.3})
    assert f.value([0.0, 2.0, 0.0, 0.0]) == pytest.approx(0.15)
    with pytest.raises(EvalError):
        f.value([0.0, 0.0, 0.0, 0.0])


def test_power_right_associative():
    f = ExprField("2^3^2", CART)
    assert f.value([0, 0, 0, 0]) == pytest.approx(512.0)


def test_unary_minus_binds_below_power():
    f = ExprField("-x^2", CART)
    assert f.value([0.0, 3.0, 0.0, 0.0]) == pytest.approx(-9.0)


def test_left_associative_sub_div():
    assert ExprField("5 - 2 - 1", CART).value([0] * 4) == pytest.approx(2.0)
    assert ExprField("6 / 3 / 2", CART).value([0] * 4) == pytest.approx(1.0)


def test_exponent_in_number_literal():
    assert ExprField("1.5e2 + .5", CART).value([0] * 4) == pytest.approx(150.5)


def test_syntax_error_carries_offset_and_expected():
    with pytest.raises(ParseError) as err:
        parse("1 + * 2", CART)
    assert err.value.offset == 4
    assert err.value.expected


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("foo + 1", CART)


def test_unknown_function():
    with pytest.raises(UnknownIdentifierError):
        parse("foo(x)", CART)


def test_param_is_not_callable():
    with pytest.raises(UnknownIdentifierError):
        parse("M(3)", SPHERE, params=("M",))


def test_call_with_two_args_rejected():
    with pytest.raises(ParseError):
        parse("sin(x, y)", CART)


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("1 + 2 )", CART)


def test_unclosed_paren_rejected():
    with pytest.raises(ParseError):
        parse("(1 + 2", CART)


def test_deep_expressions_are_parse_errors():
    """Nesting and long sums beyond the depth bound fail in the parser, so
    evaluation, compilation and printing never recurse past it."""
    with pytest.raises(ParseError):
        parse("(" * 500 + "t" + ")" * 500, CART)
    with pytest.raises(ParseError):
        parse(" + ".join(["t"] * 3000), CART)
    with pytest.raises(ParseError):
        parse("-" * 500 + "t", CART)
    # at the bound: a sum of MAX_DEPTH terms and MAX_DEPTH - 1 parentheses
    long_sum = parse(" + ".join(["t"] * MAX_DEPTH), CART)
    assert evaluate(long_sum, (0.5, 0.0, 0.0, 0.0), {}) == pytest.approx(0.5 * MAX_DEPTH)
    assert parse(to_source(long_sum), CART) == long_sum
    assert evaluate(fold(long_sum, {}), (0.5, 0.0, 0.0, 0.0), {}) == evaluate(
        long_sum, (0.5, 0.0, 0.0, 0.0), {})
    nested = "(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1)
    assert parse(nested, CART) == Coord(0, "t")


def test_roundtrip_examples():
    for src in ("1 - 2*M/r", "-r^2", "sin(t)*cos(r) / (1 + theta^2)", "2^3^r"):
        ast = parse(src, SPHERE, params=("M",))
        assert parse(to_source(ast), SPHERE, params=("M",)) == ast


PARAM_NAMES = ("M", "q")

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.0).map(lambda v: Num(round(v, 3))),
    st.sampled_from([Coord(i, n) for i, n in enumerate(CART.names)]),
    st.sampled_from([Param(n) for n in PARAM_NAMES]),
)

# Parameter values for the trees' Param leaves.  M == q half of the time,
# so that M - q is zero and a parameter-only subtree such as log(M - q),
# 1/(M - q) or (M - q)^-1 fails where it is folded.
_value = st.sampled_from([0.0, 1.0, 2.5, -1.5])
params_strategy = _value.flatmap(lambda m: st.fixed_dictionaries(
    {"M": st.just(m), "q": st.one_of(st.just(m), _value)}))


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: Add(*p)),
        st.tuples(children, children).map(lambda p: Sub(*p)),
        st.tuples(children, children).map(lambda p: Mul(*p)),
        st.tuples(children, children).map(lambda p: Div(*p)),
        st.tuples(children, children).map(lambda p: Pow(*p)),
        children.map(lambda c: Call("sin", c)),
        children.map(lambda c: Call("log", c)),
    )


@settings(max_examples=60, deadline=None)
@given(st.recursive(_leaf, _combine, max_leaves=12))
def test_roundtrip_property(ast):
    assert parse(to_source(ast), CART, params=PARAM_NAMES) == ast


def _outcome(call):
    """The bits of what call returns, or its error's type and message."""
    try:
        return np.float64(call()).tobytes()
    except Exception as err:  # the error itself is compared
        return type(err), str(err)


_POINT = st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf, _combine, max_leaves=12), params_strategy, _POINT, _POINT)
def test_a_folded_tree_reads_only_its_axes(tree, params, x, y):
    """The axes of a folded tree are among the coordinates its source names,
    and its value, or its error, does not change with any other coordinate."""
    named = set(re.findall(r"[A-Za-z_]\w*", to_source(tree)))
    folded = fold(tree, params)
    read = axes(folded)
    assert read <= {i for i, name in enumerate(CART.names) if name in named}
    moved = [x[i] if i in read else y[i] for i in range(4)]
    with np.errstate(all="ignore"):
        assert _outcome(lambda: evaluate(folded, x, params)) == _outcome(
            lambda: evaluate(folded, moved, params))


# -- derivatives ---------------------------------------------------------------


def test_quadratic_derivatives():
    f = ExprField("t*t", CART)
    x = [1.7, 0.0, 0.0, 0.0]
    v, grad, hess, _ = f.jet(x, 2)
    assert v == pytest.approx(1.7**2)
    assert grad == pytest.approx([2 * 1.7, 0, 0, 0])
    expected = np.zeros((4, 4))
    expected[0, 0] = 2.0
    assert np.abs(hess - expected).max() <= 1e-12


def test_sin_matches_central_differences():
    f = ExprField("sin(r)", SPHERE)
    x = np.array([0.0, 0.7, 0.0, 0.0])
    v, grad, hess, _ = f.jet(x, 2)
    assert grad[1] == pytest.approx(math.cos(0.7), abs=1e-12)
    assert hess[1, 1] == pytest.approx(-math.sin(0.7), abs=1e-12)
    fd_grad, fd_hess = finite_difference_derivatives(f, x)
    assert abs(fd_grad[1] - grad[1]) <= 1e-7
    assert abs(fd_hess[1, 1] - hess[1, 1]) <= 1e-7


def test_reciprocal_derivatives():
    f = ExprField("1/r", SPHERE)
    v, grad, hess, _ = f.jet([0.0, 2.0, 0.0, 0.0], 2)
    assert v == pytest.approx(0.5)
    assert grad[1] == pytest.approx(-0.25)
    assert hess[1, 1] == pytest.approx(0.25)


def test_hessian_exactly_symmetric():
    f = ExprField("sin(t*x) * exp(y) / (1 + z^2)", CART)
    jv = f.jet([0.3, 0.7, -0.2, 0.4], order=2)
    assert np.array_equal(jv.hess, jv.hess.T)


def test_fd_constant_gradient_vanishes():
    f = ExprField("3.5", CART)
    grad, hess = finite_difference_derivatives(f, [0.2, 0.1, 0.0, 0.0])
    assert np.abs(grad).max() <= 1e-14
    assert np.abs(hess).max() <= 1e-14


def test_fd_exponential_gradient():
    f = ExprField("exp(t)", CART)
    grad, _ = finite_difference_derivatives(f, [0.0, 0.0, 0.0, 0.0])
    assert abs(grad[0] - 1.0) <= 1e-8


def test_fd_differences_only_the_axes_a_field_reads():
    """Every entry along an axis the field does not read is exactly 0, as in
    a jet, so two points that differ only there get the same jets, bit for
    bit.  Near a zero of sin(x), a mixed difference across t would leave
    roundoff that scales with t's step."""
    x = math.pi * (1 + 1e-4)
    X = np.array([[0.0, x, 0.0, 0.0], [7.0, x, 0.0, 0.0]])
    f = ExprField("sin(x)", CART)
    unread = np.ones((4, 4), dtype=bool)
    unread[1, 1] = False
    for order in (1, 2):
        jv = fd_jet(f, X, order)
        assert np.all(jv.grad[[0, 2, 3]] == 0.0)
        if order == 2:
            assert np.all(jv.hess[unread] == 0.0)
        for part in (jv.value, jv.grad, jv.hess)[:order + 1]:
            assert part[..., 0].tobytes() == part[..., 1].tobytes()


def test_dual_vs_fd_on_catalog_fields():
    from rcgeom import catalog_get

    model = catalog_get("reissner-nordstrom")
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = np.array([rng.uniform(0, 1), rng.uniform(3, 10),
                      rng.uniform(0.3, math.pi - 0.3), rng.uniform(0, 6.2)])
        for i in range(4):
            for j in range(i, 4):
                f = model.g_fields[i][j]
                jv = f.jet(x, 2)
                grad, hess = finite_difference_derivatives(f, x)
                scale = 1.0 + abs(jv.value)
                assert np.abs(grad - jv.grad).max() <= 1e-6 * scale
                assert np.abs(hess - jv.hess).max() <= 1e-6 * scale


# -- jet engine up to third order -----------------------------------------------

_FUNS = [
    ("sin", math.sin, math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u), 0.7),
    ("cos", math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u), math.sin, 0.7),
    ("tan", math.tan, None, None, None, 0.4),
    ("sinh", math.sinh, math.cosh, math.sinh, math.cosh, 0.6),
    ("cosh", math.cosh, math.sinh, math.cosh, math.sinh, 0.6),
    ("tanh", math.tanh, None, None, None, 0.3),
    ("exp", math.exp, math.exp, math.exp, math.exp, 0.5),
    ("log", math.log, lambda u: 1 / u, lambda u: -1 / u**2, lambda u: 2 / u**3, 1.7),
    ("sqrt", math.sqrt, None, None, None, 2.3),
]


@pytest.mark.parametrize("name,f0,f1,f2,f3,u0", _FUNS)
def test_jet_third_order_vs_numerical(name, f0, f1, f2, f3, u0):
    """Each elementary function's jet matches high-order finite differences."""
    from rcgeom.jets import FUNCTIONS

    fn = FUNCTIONS[name]
    out = fn(Jet.seed(u0, 0, order=3))
    assert out.f == pytest.approx(f0(u0), rel=1e-12)
    h = 1e-3
    vals = [f0(u0 + k * h) for k in (-3, -2, -1, 0, 1, 2, 3)]
    d1 = (vals[4] - vals[2]) / (2 * h)
    d2 = (vals[4] - 2 * vals[3] + vals[2]) / h**2
    d3 = (vals[5] - 2 * vals[4] + 2 * vals[2] - vals[1]) / (2 * h**3)
    assert out.g[0] == pytest.approx(d1, rel=1e-5, abs=1e-7)
    assert out.h[0, 0] == pytest.approx(d2, rel=1e-4, abs=1e-5)
    assert out.t[0, 0, 0] == pytest.approx(d3, rel=1e-3, abs=1e-3)
    if f1 is not None:
        assert out.g[0] == pytest.approx(f1(u0), rel=1e-12)
        assert out.h[0, 0] == pytest.approx(f2(u0), rel=1e-12)
        assert out.t[0, 0, 0] == pytest.approx(f3(u0), rel=1e-12)


def test_jet_third_order_chain_rule():
    # d^3/dt^3 sin(2t) = -8 cos(2t)
    f = ExprField("sin(2*t)", CART)
    jv = f.jet([0.4, 0, 0, 0], order=3)
    assert jv.third[0, 0, 0] == pytest.approx(-8.0 * math.cos(0.8), rel=1e-12)


def test_jet_mixed_partials_third_order():
    # f = t^2 * x: d^2/dt^2 d/dx f = 2
    f = ExprField("t^2 * x", CART)
    jv = f.jet([0.3, 0.9, 0, 0], order=3)
    assert jv.third[0, 0, 1] == pytest.approx(2.0)
    assert jv.third[0, 1, 0] == pytest.approx(2.0)
    assert jv.third[1, 0, 0] == pytest.approx(2.0)
    assert jv.third[1, 1, 0] == pytest.approx(0.0)


def test_pow_at_zero_base():
    f = ExprField("x^2", CART)
    jv = f.jet([0.0, 0.0, 0.0, 0.0], order=2)
    assert jv.value == 0.0
    assert jv.hess[1, 1] == pytest.approx(2.0)


def test_pow_negative_base_integer_exponent():
    f = ExprField("x^3", CART)
    jv = f.jet([0.0, -2.0, 0.0, 0.0], order=2)
    assert jv.value == pytest.approx(-8.0)
    assert jv.grad[1] == pytest.approx(12.0)


def test_pow_jet_exponent():
    f = ExprField("x^t", CART)
    jv = f.jet([2.0, 3.0, 0.0, 0.0], order=1)
    assert jv.value == pytest.approx(9.0)
    assert jv.grad[0] == pytest.approx(9.0 * math.log(3.0))
    assert jv.grad[1] == pytest.approx(2.0 * 3.0)


def test_math_domain_errors():
    for src, x in (
        ("log(x)", [0, -1.0, 0, 0]),
        ("sqrt(x)", [0, -1.0, 0, 0]),
        ("x^0.5", [0, -1.0, 0, 0]),
        ("1/x", [0, 0.0, 0, 0]),
        ("x^(-1)", [0, 0.0, 0, 0]),
    ):
        with pytest.raises(EvalError):
            ExprField(src, CART).jet(x)


def test_sqrt_jet_singular_at_zero():
    with pytest.raises(EvalError):
        ExprField("sqrt(x)", CART).jet([0, 0.0, 0, 0])


def test_overflow_is_hard_error():
    with pytest.raises(EvalError):
        ExprField("exp(x)", CART).value([0.0, 1e4, 0.0, 0.0])


def test_chart_validation():
    with pytest.raises(ParseError):
        ChartSpec(("t", "x", "y"))
    with pytest.raises(ParseError):
        ChartSpec(("t", "x", "x", "z"))
    with pytest.raises(ParseError):
        ChartSpec(("t", "x", "y", "sin"))
