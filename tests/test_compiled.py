"""The compiled expression path against the interpreter, ``expr.evaluate``,
bit for bit; and ``field_jets`` against a per-component loop."""

import math
from pathlib import Path

import numpy as np
import pytest

from rcgeom import CATALOG_NAMES, ChartSpec, EvalError, ExprField, catalog_get, expr
from rcgeom import load_spacetime_file, transform_potential
from rcgeom.catalog import parse_spacetime_text
from rcgeom.engine import field_jets
from rcgeom.fields import fd_jet, make_seeds
from rcgeom.jets import Jet

from test_engine_batch import GENERIC

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _models():
    models = {name: catalog_get(name) for name in CATALOG_NAMES + ("charge-ball",)}
    for path in sorted(BENCH.glob("kerr_newman*.spacetime")):
        models[path.stem] = load_spacetime_file(path)
    models["generic"] = parse_spacetime_text(GENERIC)
    return models


MODELS = _models()


def _fields(model):
    comps = [(f"g[{i}][{j}]", model.g_fields[i][j]) for i in range(4) for j in range(i, 4)]
    comps += [(f"A[{n}]", f) for n, f in enumerate(model.A_fields)]
    if model.domain is not None:
        comps.append(("domain", model.domain))
    return comps


FIELDS = [(name, label, f) for name, m in MODELS.items() for label, f in _fields(m)]


def _points(model):
    grid = model.default_grid
    return grid[0], grid[len(grid) // 2], grid[:: max(1, len(grid) // 16)]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_matches_interpreter(f, x0, x1, X):
    for x in (x0, x1):
        ref = expr.evaluate(f.ast, [float(c) for c in x], f.params)
        assert same_bits(f.value(x), float(ref))
    ref = expr.evaluate(f.ast, list(np.ascontiguousarray(X.T)), f.params)
    assert same_bits(f.values(X), np.broadcast_to(ref, len(X)))

    for x in (x0, X):
        for order in (1, 2, 3):
            jv = f.jet_unchecked(x, order)
            ref = expr.evaluate(f.ast, make_seeds(x, order), f.params)
            derivs = jv[1:order + 1]
            assert jv[order + 1:] == (None,) * (3 - order)
            if not isinstance(ref, Jet):  # a constant: every derivative is zero
                assert f.const is not None and same_bits(jv.value, ref)
                assert not any(np.any(d) for d in derivs)
                continue
            assert f.const is None and same_bits(jv.value, ref.f)
            for got, want in zip(derivs, (ref.g, ref.h, ref.t)):
                assert same_bits(got, want)


@pytest.mark.parametrize("model_name,label,f", FIELDS,
                         ids=[f"{m}-{lab}" for m, lab, _ in FIELDS])
def test_compiled_field_equals_interpreter(model_name, label, f):
    _assert_matches_interpreter(f, *_points(MODELS[model_name]))


CART = ChartSpec(("t", "x", "y", "z"))

# every closure kind: each operator with a closure or a folded value on
# either side, a constant nonzero denominator, parameter-only calls
KINDS = ["x + M", "M + x", "x + y", "x - M", "M - x", "x - y", "x*M", "M*x", "x*y",
         "x/M", "x/(M*7)", "M/x", "x/y", "x^M", "M^x", "x^y", "(x + 2)^0.5", "-x",
         "sin(x)*cos(M)", "exp(-M*x^2)/(3*M)", "log(M + x^2)", "sqrt(M)*sqrt(2 + y)",
         "tan(0.1*x) + tanh(M*y) - sinh(x)*cosh(M)", "M", "-M^2"]


@pytest.mark.parametrize("src", KINDS)
def test_every_closure_kind_equals_interpreter(src):
    f = ExprField(src, CART, {"M": 2.7})
    X = np.random.default_rng(7).uniform(0.1, 1.9, (9, 4))
    _assert_matches_interpreter(f, X[0], X[1], X)


def test_parameter_subtrees_are_folded_and_constants_recognised():
    params = {"M": 2.0, "q": 0.5}
    assert ExprField("M^2 - q*cos(M)", CART, params).const == 4.0 - 0.5 * math.cos(2.0)
    f = ExprField("2*M/(q^2*x)", CART, params)
    assert f.const is None
    assert f.value([0.0, 4.0, 0.0, 0.0]) == 2 * 2.0 / (0.5**2 * 4.0)


# (source, point where evaluation fails, parameters)
FAILURES = [
    ("1/(x - 1)", [0.0, 1.0, 0.0, 0.0], {}),
    ("t + log(x)", [0.0, -1.0, 0.0, 0.0], {}),
    ("x + log(M - 2)", [0.0, 0.5, 0.0, 0.0], {"M": 1.0}),
    ("x * (1/(M - M))", [0.0, 0.5, 0.0, 0.0], {"M": 1.0}),
    ("x + sqrt(M - 3)^2", [0.0, 0.5, 0.0, 0.0], {"M": 1.0}),
    ("(M - M)^(-1) + x", [0.0, 0.5, 0.0, 0.0], {"M": 1.0}),
]


def _error_of(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("src,x,params", FAILURES, ids=[s for s, _, _ in FAILURES])
def test_errors_raise_at_evaluation_as_the_interpreter_does(src, x, params):
    f = ExprField(src, CART, params)  # no error at construction
    x = np.array(x)
    X = np.array([[0.0, 2.5, 0.0, 0.0], x, [0.0, 3.5, 0.0, 0.0]])
    ref = _error_of(lambda: expr.evaluate(f.ast, [float(c) for c in x], f.params))
    assert ref[0] is EvalError
    assert _error_of(lambda: f.value(x)) == ref
    assert _error_of(lambda: f.values(X)) == ref  # the first bad row, as value meets it
    for order in (1, 2, 3):
        ref = _error_of(lambda: expr.evaluate(f.ast, make_seeds(x, order), f.params))
        assert _error_of(lambda: f.jet_unchecked(x, order)) == ref
        batch = _error_of(lambda: expr.evaluate(f.ast, make_seeds(X, order), f.params))
        assert _error_of(lambda: f.jet_unchecked(X, order)) == batch


def test_a_constant_field_that_cannot_be_evaluated_fails_at_construction():
    with pytest.raises(EvalError, match="division by zero"):
        ExprField("1/(M - M)", CART, {"M": 1.0})


def _loop_field_jets(model, x, order, mode):
    """The members as a loop over all 14 components builds them, batch axis
    last and then moved to the front."""
    x = np.asarray(x, dtype=float)
    batch = x.shape[:-1]
    g, A = np.empty((4, 4) + batch), np.empty((4,) + batch)
    dg = [np.empty((4,) * k + (4, 4) + batch) for k in range(1, order + 1)]
    dA = [np.empty((4,) * k + (4,) + batch) for k in range(1, order + 1)]

    def derivatives(f):  # grad, hess, third up to the order
        jv = f.jet_unchecked(x, order) if mode == "dual" else fd_jet(f, x, order)
        return jv.value, enumerate(jv[1:order + 1], start=1)

    for i in range(4):
        for j in range(i, 4):
            value, ds = derivatives(model.g_fields[i][j])
            g[i, j] = g[j, i] = value
            for k, d in ds:
                lead = (slice(None),) * k
                dg[k - 1][lead + (i, j)] = dg[k - 1][lead + (j, i)] = d
    for n in range(4):
        value, ds = derivatives(model.A_fields[n])
        A[n] = value
        for k, d in ds:
            dA[k - 1][(slice(None),) * k + (n,)] = d
    out = {"g": g, "A": A}
    for k in range(order):
        out["d" * (k + 1) + "g"], out["d" * (k + 1) + "A"] = dg[k], dA[k]
    return {k: np.moveaxis(v, -1, 0) if batch else v for k, v in out.items()}


JET_MODELS = dict(MODELS, gauge=transform_potential(MODELS["charge-ball"], "0.5*t + 0.1*sin(t)"))


@pytest.mark.parametrize("name", sorted(JET_MODELS))
def test_field_jets_equal_a_per_component_loop(name):
    model = JET_MODELS[name]
    x0, _, X = _points(model)
    for mode, orders in (("dual", (1, 2, 3)), ("fd", (1, 2))):
        for order in orders:
            if name == "gauge" and order > 2:
                continue
            for x in (x0, X):
                fj = field_jets(model, x, order, mode)
                ref = _loop_field_jets(model, x, order, mode)
                for member, arr in ref.items():
                    assert same_bits(getattr(fj, member), arr), (mode, order, member)
