"""The four routes of every elementary function and of ``^`` agree: a plain
float, a plain array (``math`` entry by entry), a Jet of a float (``math``)
and a Jet of an array (numpy); and a derivative above a jet's order is never
computed, so it cannot fail."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcgeom import ChartSpec, ExprField, jets
from rcgeom.cli import main
from rcgeom.errors import EvalError
from rcgeom.jets import FUNCTIONS, Jet, jet_pow

CART = ChartSpec(("t", "x", "y", "z"))

BIG = sys.float_info.max
SINH_MAX = math.asinh(BIG)
EXP_MAX = math.log(BIG)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _magnitudes(lo):
    """Finite floats of magnitude above lo, of either sign."""
    lo = math.nextafter(lo, math.inf)
    return _floats(lo, BIG) | _floats(-BIG, -lo)


# Arguments at which every route, up to third derivatives, is finite.
IN_DOMAIN = {
    "sin": _floats(-100, 100),
    "cos": _floats(-100, 100),
    "tan": _floats(-100, 100),
    "sinh": _floats(-700, 700),
    "cosh": _floats(-700, 700),
    "tanh": _floats(-1e3, 1e3),
    "exp": _floats(-700, 700),
    "log": _floats(1e-90, 1e300),
    "sqrt": _floats(1e-90, 1e300),
}

# Arguments that every route rejects, and the message it gives.
REJECTED = {
    "sin": (st.sampled_from([math.inf, -math.inf]), "sin of infinite argument {!r}"),
    "cos": (st.sampled_from([math.inf, -math.inf]), "cos of infinite argument {!r}"),
    "tan": (st.sampled_from([math.inf, -math.inf]), "tan of infinite argument {!r}"),
    "sinh": (_magnitudes(SINH_MAX), "sinh overflow at argument {!r}"),
    "cosh": (_magnitudes(SINH_MAX), "cosh overflow at argument {!r}"),
    "exp": (_floats(math.nextafter(EXP_MAX, math.inf), BIG), "exp overflow at argument {!r}"),
    "log": (st.floats(max_value=0.0, allow_nan=False), "log of non-positive argument {!r}"),
    "sqrt": (st.floats(max_value=-1e-300, allow_nan=False), "sqrt of negative argument {!r}"),
}

POW_IN_DOMAIN = st.one_of(
    st.tuples(_floats(1e-3, 1e3), _floats(-5, 5)),
    st.tuples(_floats(-1e3, -1e-3), st.integers(-5, 5).map(float)),
    st.tuples(st.sampled_from([0.0, -0.0]), st.integers(0, 5).map(float)),
)
_FRACTIONAL = _floats(-5, 5).filter(lambda p: not p.is_integer())
POW_REJECTED = st.one_of(
    st.tuples(st.sampled_from([0.0, -0.0]), _floats(-5, -1e-3),
              st.just("zero raised to a negative power")),
    st.tuples(_floats(-1e3, -1e-3), _FRACTIONAL,
              st.just("fractional power of negative base {!r}")),
    st.tuples(_floats(2, 1e10), _floats(1100, 2000), st.just("power overflow at base {!r}")),
)


def _jet(x):
    return Jet.seed(x, 0, order=3)


def _parts(j, row=None):
    parts = (j.f, j.g, j.h, j.t)
    return [np.asarray(p if row is None else p[..., row]) for p in parts]


def _assert_routes_agree(fn, xs, *operands):
    """fn over xs, and over each x alone, on the four routes."""
    arr = fn(np.array(xs), *(np.array(o) for o in operands))
    for k, x in enumerate(xs):
        own = [o[k] for o in operands]
        value = fn(x, *own)
        assert type(value) is float
        assert np.array([value]).tobytes() == arr[k:k + 1].tobytes()
        one, batch = fn(_jet(x), *own), fn(_jet(np.array([x])), *own)
        # numpy and math may differ in the value's last bit, which the rule
        # carries into the derivatives, amplified (tanh's third: 1.1e-15 seen)
        for a, b, tol in zip(_parts(one), _parts(batch, 0), (1e-15, 4e-15, 4e-15, 4e-15)):
            assert a.shape == b.shape
            assert np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(a)))


def _messages(fn, x, *operands, routes=("float", "array", "jet", "jet-array")):
    """The EvalError message of each route, the bad value inside an array."""
    args = {
        "float": x,
        "array": np.array([1.0, x, 1.0]),
        "jet": _jet(x),
        "jet-array": _jet(np.array([1.0, x, 1.0])),
    }
    out = set()
    for route in routes:
        with pytest.raises(EvalError) as err:
            fn(args[route], *operands)
        out.add(str(err.value))
    return out


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_function_routes_agree_in_domain(name, data):
    xs = data.draw(st.lists(IN_DOMAIN[name], min_size=1, max_size=4))
    _assert_routes_agree(FUNCTIONS[name], xs)


@pytest.mark.parametrize("name", sorted(REJECTED))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_function_routes_reject_alike(name, data):
    args, message = REJECTED[name]
    x = data.draw(args)
    assert _messages(FUNCTIONS[name], x) == {message.format(x)}


@settings(max_examples=100, deadline=None)
@given(st.lists(POW_IN_DOMAIN, min_size=1, max_size=4))
def test_pow_routes_agree_in_domain(pairs):
    bases, exponents = [v for v, _ in pairs], [p for _, p in pairs]
    for v, p in pairs:
        _assert_routes_agree(jet_pow, [v], [p])
    # a plain array exponent, from value-only evaluation
    arr = jet_pow(np.array(bases), np.array(exponents))
    assert arr.tobytes() == np.array([jet_pow(v, p) for v, p in pairs]).tobytes()


@settings(max_examples=100, deadline=None)
@given(POW_REJECTED)
def test_pow_routes_reject_alike(case):
    v, p, message = case
    assert _messages(jet_pow, v, p) == {message.format(v)}


@pytest.mark.parametrize("fn, x, p, message", [
    (FUNCTIONS["sqrt"], 0.0, (), "sqrt derivative singular at zero"),
    (FUNCTIONS["sqrt"], -0.0, (), "sqrt derivative singular at zero"),
    (jet_pow, 0.0, (2.5,), "fractional power of zero has singular derivatives"),
    (jet_pow, 0.0, (3.5,), "fractional power of zero has singular derivatives"),
])
def test_jet_routes_reject_singular_derivatives_alike(fn, x, p, message):
    assert _messages(fn, x, *p, routes=("jet", "jet-array")) == {message}
    fn(x, *p), fn(np.array([x]), *p)  # a plain value is fine


@pytest.mark.parametrize("base, p", [
    (np.array([4.0, -2.0, -3.0]), np.array([0.5, 2.0, 0.5])),
    (-3.0, np.array([2.0, 0.5])),
    (_jet(np.array([4.0, -3.0, -2.0])), 0.5),
], ids=["arrays", "float-base-array-exponent", "jet-array"])
def test_pow_domain_note_names_the_first_bad_base_as_a_float(base, p):
    with pytest.raises(EvalError) as err:
        jet_pow(base, p)
    assert str(err.value) == "fractional power of negative base -3.0"


class _FloatsOnly:
    """numpy for float operands: ``ndarray`` for the type tests, no call."""

    ndarray = np.ndarray

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used on a float operand")


def test_float_operands_make_no_numpy_call(monkeypatch):
    """The float route, and the Jet of a float, stay on ``math`` where they
    succeed: each worldline verdict evaluates its one-point metrics there."""
    expected = [FUNCTIONS["sin"](0.5), jet_pow(2.0, 0.5), jet_pow(2.0, 3.0)]
    jet_expected = [FUNCTIONS["log"](_jet(2.0)).f, jet_pow(_jet(2.0), 1.5).f]
    monkeypatch.setattr(jets, "np", _FloatsOnly())
    assert [FUNCTIONS["sin"](0.5), jet_pow(2.0, 0.5), jet_pow(2.0, 3.0)] == expected
    assert [FUNCTIONS["log"](_jet(2.0)).f, jet_pow(_jet(2.0), 1.5).f] == jet_expected


def test_pow_of_negative_zero_keeps_the_sign_on_every_route():
    for p in (1.0, 3.0):
        assert math.copysign(1.0, jet_pow(-0.0, p)) == -1.0
        assert math.copysign(1.0, jet_pow(_jet(-0.0), p).f) == -1.0
        assert math.copysign(1.0, jet_pow(_jet(np.array([-0.0])), p).f[0]) == -1.0


# An argument at which the value and gradient are finite and the higher
# derivatives overflow (or divide by an underflowed zero), and the lowest
# order whose jets use one of them.
UNUSED_OVERFLOW = [
    ("1/x", 1e-110, 2),  # 1/x^3 overflows
    ("log(x)", 1e-110, 3),  # 1/x^3 again
    ("sqrt(x)", 1e-250, 2),  # -0.25/(sqrt(x)*x), and sqrt(x)*x underflows
    ("x^(-1.5)", 1e-110, 2),  # x^-3.5 overflows
]


@pytest.mark.parametrize("src, x, used", UNUSED_OVERFLOW, ids=[s for s, _, _ in UNUSED_OVERFLOW])
def test_an_unused_higher_derivative_cannot_fail(src, x, used):
    """Jets below the order that reads the failing derivative are finite, on
    one point and over a batch; a jet that reads it is an EvalError."""
    f = ExprField(src, CART)
    for order in range(1, 4):
        for X in (np.array([0.0, x, 0.0, 0.0]), np.array([[0.0, x, 0.0, 0.0]] * 2)):
            with np.errstate(over="ignore", invalid="ignore"):
                if order < used:
                    jv = f.jet(X, order)
                    assert all(np.isfinite(p).all() for p in jv if p is not None)
                else:
                    with pytest.raises(EvalError):
                        f.jet(X, order)


def test_an_overflowing_field_is_a_failed_check_not_a_traceback(tmp_path, capsys):
    """A[0] = 1/x on a grid at x = 1e-110: the Maxwell rows read the second
    and third derivatives, which overflow, so rows fail with a note."""
    path = tmp_path / "overflow.spacetime"
    path.write_text('name = overflow\ncoords = t, x, y, z\n'
                    'g[0][0] = "1"\ng[1][1] = "-1"\ng[2][2] = "-1"\ng[3][3] = "-1"\n'
                    'A[0] = "1/x"\ngrid.t = 0:0:1\ngrid.x = 1e-110:1e-110:1\n'
                    'grid.y = 0:0:1\ngrid.z = 0:0:1\n')
    out = tmp_path / "r.json"
    assert main(["run", "--spacetime", str(path), "--suite", "maxwell", "--out", str(out)]) == 1
    notes = [c["note"] for c in json.loads(out.read_text())["checks"] if not c["pass"]]
    assert notes and all("non-finite" in n for n in notes), notes
