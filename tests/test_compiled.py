"""Fields, which evaluate their folded trees, against the interpreter,
``expr.evaluate``, on the unfolded trees, bit for bit; ``field_jets``
against a per-component loop; and the generated one-point order-1 code
against the jet path, which the generated force law of the worldline
starts from."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcgeom import CATALOG_NAMES, ChartSpec, EvalError, ExprField, catalog_get, dynamics, expr
from rcgeom import load_spacetime_file, transform_potential
from rcgeom.catalog import build_model, parse_spacetime_text
from rcgeom.engine import field_jets
from rcgeom.fields import fd_jet, make_seeds
from rcgeom.jets import FUNCTIONS, Jet

from test_engine_batch import GENERIC
from test_expr import _combine, _leaf, params_strategy

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

# every kind of node: each operator with a coordinate-dependent or a folded
# operand on either side, a constant nonzero denominator, parameter-only calls
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
    f = ExprField("M^2 - q*cos(M)", CART, params)
    assert f.const == 4.0 - 0.5 * math.cos(2.0) and f.tree == expr.Num(f.const)
    f = ExprField("2*M/(q^2*x)", CART, params)
    assert f.const is None
    assert f.tree == expr.Div(expr.Num(4.0), expr.Mul(expr.Num(0.25), expr.Coord(1, "x")))
    assert f.value([0.0, 4.0, 0.0, 0.0]) == 2 * 2.0 / (0.5**2 * 4.0)
    # a -0.0 keeps its sign; a subtree that does not fold keeps its shape
    x = expr.Coord(1, "x")
    assert ExprField("(-M*0) + x", CART, params).tree == expr.Add(expr.Neg(expr.Num(0.0)), x)
    assert ExprField("x + log(M - 2*M)", CART, params).tree == expr.Add(
        x, expr.Call("log", expr.Num(-2.0)))


# (source, point where evaluation fails, parameters)
FAILURES = [
    ("1/(x - 1)", [0.0, 1.0, 0.0, 0.0], {}),
    ("t + log(x)", [0.0, -1.0, 0.0, 0.0], {}),
    ("x + log(M - 2)", [0.0, 0.5, 0.0, 0.0], {"M": 1.0}),
    ("x * (1/(M - M))", [0.0, 0.5, 0.0, 0.0], {"M": 1.0}),
    ("x + sqrt(M - 3)^2", [0.0, 0.5, 0.0, 0.0], {"M": 1.0}),
    ("(M - M)^(-1) + x", [0.0, 0.5, 0.0, 0.0], {"M": 1.0}),
    ("x + 2^(5000*M)", [0.0, 0.5, 0.0, 0.0], {"M": 1.0}),
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
            for x in (x0[None], X):  # a batch of one, and a larger batch
                fj = field_jets(model, x, order, mode)
                ref = _loop_field_jets(model, x, order, mode)
                for member, arr in ref.items():
                    assert same_bits(getattr(fj, member), arr), (mode, order, member)


# -- generated one-point order-1 code ------------------------------------------


def _generated_jets(model):
    """The model's order-1 field jets as generated code: g, dg, A and dA,
    flattened and concatenated, as its generated force law starts from."""
    layout = model.layout
    trees = [f.tree for *_, f in layout.g_live + layout.A_live]
    domain = None if model.domain is None else model.domain.tree

    def members(tape, jets, *coords):
        return tuple(tuple(np.ravel(np.array(m, dtype=object)))
                     for m in dynamics._order1_lists(layout, jets))

    return expr.compile_one_point(trees, domain, (), members)


ORDER1_MEMBERS = ("g", "dg", "A", "dA")


@pytest.mark.parametrize("name", sorted(MODELS))
def test_generated_one_point_jets_equal_the_jet_path(name):
    """Every member, bit for bit, at points spread over the default grid,
    against the one-point jets the generator mirrors."""
    model = MODELS[name]
    run = _generated_jets(model)
    grid = model.default_grid
    for x in grid[:: max(1, len(grid) // 24)]:
        want = _loop_field_jets(model, x, 1, "dual")
        flat = np.concatenate([want[member].ravel() for member in ORDER1_MEMBERS])
        assert same_bits(np.concatenate(run(*x.tolist())), flat), x


def test_a_gauge_shifted_potential_keeps_the_jet_path():
    """A shifted potential is not an expression: the model has no generated
    force law, and the worldline right-hand side takes a snapshot."""
    model = JET_MODELS["gauge"]
    y = model.default_grid[0].tolist() + [1.0, 0.1, 0.0, 0.0]
    assert dynamics._generate_rhs(model) is None
    assert dynamics._rhs(model, y, 0.5) == dynamics._snapshot_rhs(model, y, 0.5, "dual")
    assert model.layout.generated["rhs"] is None


def _one_field_model(src, params, domain=None):
    return build_model("one-field", CART.names, {(0, 0): "1", (1, 1): "-1", (2, 2): "-1",
                                                 (3, 3): "-1"},
                       {1: src}, params=params, domain_src=domain,
                       grid_axes={n: (0.0,) for n in CART.names}, validate=False)


@pytest.mark.parametrize("src,x,params", FAILURES, ids=[s for s, _, _ in FAILURES])
def test_failures_give_the_jet_path_note_through_one_point_field_jets(src, x, params):
    """A field that fails at the point raises what the jet path raises
    there, in one-point field jets and in the worldline right-hand side
    (whose generated code falls back to a snapshot), as a component and as
    the domain."""
    X = np.array([x])
    y = list(x) + [1.0, 0.0, 0.0, 0.0]
    ref = _error_of(lambda: ExprField(src, CART, params).jet_unchecked(X[0], 1))
    model = _one_field_model(src, params)
    assert _error_of(lambda: field_jets(model, X, 1)) == ref
    assert _error_of(lambda: dynamics._rhs(model, y, 0.5)) == ref
    model = _one_field_model("x", params, domain=src)
    want = _error_of(lambda: field_jets(model, X, 1))
    assert want[0].__name__ == "DomainError"
    assert _error_of(lambda: dynamics._rhs(model, y, 0.5)) == want


def _generated(tree, domain=None):
    """The generated function of one folded tree, its value and gradient in
    entries 0-4."""
    return expr.compile_one_point([tree], domain, (),
                                  lambda tape, jets, *xs: (jets[0].f, *jets[0].g))


def _outcome(call):
    """The entries call returns, or None where it raises (or fails a guard)."""
    try:
        out = call()
    except (EvalError, ArithmeticError, ValueError):
        return None
    return None if out is None else np.array(out, dtype=float)


def _value_and_gradient(f, x):
    # quiet, as every entry point runs the jets: an overflow leaves inf or
    # NaN behind (1/x at 2e-308 has the gradient 0 * -inf), as on floats
    with np.errstate(over="ignore", invalid="ignore"):
        jv = f.jet_unchecked(np.array(x), 1)
    return [jv.value, *jv.grad]


def _result(call):
    """("ok", what call returns) or ("error", its type, its message)."""
    try:
        return "ok", call()
    except Exception as err:  # the error itself is compared
        return "error", type(err), str(err)


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _jet_bits(jet, order):
    """The bits of a Jet's or a JetValue's parts up to the order."""
    parts = (jet.f, jet.g, jet.h, jet.t) if isinstance(jet, Jet) else jet
    return tuple(_bits(p) for p in parts[:order + 1])


_COORD = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-120]))


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf, _combine, max_leaves=12), params_strategy,
       st.lists(_COORD, min_size=4, max_size=4))
def test_folded_fields_equal_the_unfolded_tree_on_random_trees(tree, params, x):
    """A field evaluates its folded tree.  Its value, values and jets at
    orders 1-3 give the bits and the errors that ``evaluate`` gives on the
    unfolded tree, where a parameter-only subtree fails to fold too."""
    with np.errstate(all="ignore"):
        _assert_folded_equals_unfolded(tree, params, np.array(x))


def _assert_folded_equals_unfolded(tree, params, x):
    if not expr.axes(tree):  # its value, or its error at construction
        assert _result(lambda: _bits(ExprField(tree, CART, params).const)) == _result(
            lambda: _bits(expr.evaluate(tree, (), params)))
        return
    f = ExprField(tree, CART, params)
    X = np.array([[0.5, 1.5, -0.5, 2.0], x, [1.0, -2.0, 0.25, 3.0]])
    rows = []
    for r in X:
        got = _result(lambda: _bits(f.value(r)))
        want = _result(lambda: expr.evaluate(tree, r.tolist(), params))
        if want[0] == "ok" and not math.isfinite(want[1]):  # value checks finiteness
            assert got[:2] == ("error", EvalError) and "non-finite" in got[2]
        else:
            assert got == (want if want[0] == "error" else ("ok", _bits(want[1])))
        rows.append(got)
    # values meets the error of the first row that fails, or gives every row
    errors = [r for r in rows if r[0] == "error"]
    want = errors[0] if errors else ("ok", b"".join(r[1] for r in rows))
    assert _result(lambda: _bits(f.values(X))) == want
    for order in (1, 2, 3):
        for pt in (x, X):
            got = _result(lambda: _jet_bits(f.jet_unchecked(pt, order), order))
            want = _result(lambda: _jet_bits(
                expr.evaluate(tree, make_seeds(pt, order), params), order))
            assert got == want, (order, pt.ndim)


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf, _combine, max_leaves=12), params_strategy,
       st.lists(_COORD, min_size=4, max_size=4))
def test_generated_code_equals_the_jet_path_on_random_trees(tree, params, x):
    """The generated code of a folded tree declines, or its value and
    gradient equal the jet path's bit for bit, and it fails (raises or
    returns None) exactly where the jet path raises.  As a domain, it
    passes a point only where the predicate is positive."""
    try:
        f = ExprField(tree, CART, params)
    except EvalError:  # a constant tree that fails
        return
    if f.const is not None:
        return
    run = _generated(f.tree)
    jv = _outcome(lambda: _value_and_gradient(f, x))
    if run is None:  # declined: an operation on constants fails, so the jets fail everywhere
        assert jv is None
        return
    got = _outcome(lambda: run(*x))
    assert (got is None) == (jv is None)
    if got is not None:
        assert got.tobytes() == jv.tobytes()
    inside = _outcome(lambda: [f.value(np.array(x))])
    domain = expr.compile_one_point([], f.tree, (), lambda *_: ())  # None: none inside
    if domain is not None and _outcome(lambda: domain(*x)) is not None:
        assert inside is not None and inside[0] > 0.0


_ARGUMENTS = ["x0", "x1", "x2", "x3", "v0", "v1", "v2", "v3", "k"]
_BUILTINS = {"abs", "max"}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_generated_source_holds_no_definition_text(name):
    """The generated force law holds only the arguments, temporaries,
    finite float literals (and the None of a failed guard), math functions
    and the abs and max of the degeneracy test."""
    model = MODELS[name]
    dynamics._rhs(model, model.default_grid[0].tolist() + [1.0, 0.0, 0.0, 0.0], 0.5)
    tree = ast.parse(model.layout.generated["rhs"].source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            assert node.id in {*_ARGUMENTS, *_BUILTINS, "math"} or (
                node.id[0] == "t" and node.id[1:].isdigit())
        elif isinstance(node, ast.Attribute):
            assert isinstance(node.value, ast.Name) and node.value.id == "math"
            assert node.attr in FUNCTIONS or node.attr == "isfinite"
        elif isinstance(node, ast.Constant):
            assert node.value is None or (type(node.value) is float
                                          and math.isfinite(node.value))
        elif isinstance(node, ast.Call):
            assert isinstance(node.func, ast.Attribute) or node.func.id in _BUILTINS
        elif isinstance(node, ast.FunctionDef):
            assert node.name == "one_point"
            assert [a.arg for a in node.args.args] == _ARGUMENTS
