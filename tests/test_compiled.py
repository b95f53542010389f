"""Fields, which evaluate their folded trees, against the interpreter,
``expr.evaluate``, on the unfolded trees, bit for bit; ``field_jets``
against a per-component loop; and the generated one-point order-1 code
against the jet path, which the generated force law of the worldline
starts from."""

import ast
import collections
import math
import re
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcgeom import CATALOG_NAMES, ChartSpec, EvalError, ExprField, catalog_get, dynamics, engine
from rcgeom import codegen, expr, jets
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


def same_generated_bits(got, want):
    """The generated entries against the jet path's: the same bits, except
    that a zero may have either sign (a structural zero is the constant
    0.0), and that an entry NaN on the jet path (a structural zero times a
    non-finite operand) may differ where another generated entry is not
    finite."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    same = (got.view(np.int64) == want.view(np.int64)) | ((got == 0.0) & (want == 0.0))
    return bool(np.all(same | np.isnan(want) & ~np.isfinite(got).all()))


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
    """fd mode bit for bit; dual mode up to the sign of a zero, since the
    generated column code leaves a structural zero out of its sums
    (``codegen.compile_columns``)."""
    model = JET_MODELS[name]
    x0, _, X = _points(model)
    for mode, orders in (("dual", (1, 2, 3)), ("fd", (1, 2))):
        same = same_generated_bits if mode == "dual" else same_bits
        for order in orders:
            if name == "gauge" and order > 2:
                continue
            for x in (x0[None], X):  # a batch of one, and a larger batch
                fj = field_jets(model, x, order, mode)
                ref = _loop_field_jets(model, x, order, mode)
                for member, arr in ref.items():
                    assert np.isfinite(arr).all()
                    assert same(getattr(fj, member), arr), (mode, order, member)


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

    return codegen.compile_one_point(trees, domain, (), members, members)


ORDER1_MEMBERS = ("g", "dg", "A", "dA")


@pytest.mark.parametrize("name", sorted(MODELS))
def test_generated_one_point_jets_equal_the_jet_path(name):
    """Every member, bit for bit up to the sign of a zero, at points spread
    over the default grid, against the one-point jets the generator
    mirrors."""
    model = MODELS[name]
    run = _generated_jets(model)
    grid = model.default_grid
    for x in grid[:: max(1, len(grid) // 24)]:
        want = _loop_field_jets(model, x, 1, "dual")
        flat = np.concatenate([want[member].ravel() for member in ORDER1_MEMBERS])
        assert same_generated_bits(np.concatenate(run(*x.tolist())), flat), x


def test_a_gauge_shifted_potential_keeps_the_jet_path():
    """A shifted potential is not an expression: the model has no generated
    force law, and the worldline right-hand side takes a snapshot."""
    model = JET_MODELS["gauge"]
    y = model.default_grid[0].tolist() + [1.0, 0.1, 0.0, 0.0]
    assert dynamics._generate_rhs(model) is None
    assert dynamics._rhs(model, y, 0.5, None) == dynamics._snapshot_rhs(model, y, 0.5, "dual")


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
    assert _error_of(lambda: dynamics._rhs(model, y, 0.5, dynamics._generate_rhs(model))) == ref
    model = _one_field_model("x", params, domain=src)
    want = _error_of(lambda: field_jets(model, X, 1))
    assert want[0].__name__ == "DomainError"
    assert _error_of(lambda: dynamics._rhs(model, y, 0.5, dynamics._generate_rhs(model))) == want


def _generated(tree, domain=None):
    """The generated function of one folded tree, its value and gradient in
    entries 0-4."""
    return codegen.compile_one_point([tree], domain, (), _entries, _entries)


def _entries(tape, jets, *xs):
    return (jets[0].f, *jets[0].g)


def _nothing(tape, jets, *xs):
    return ()


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
    if not tree.axes:  # its value, or its error at construction
        got = _result(lambda: _bits(ExprField(tree, CART, params).const))
        want = _result(lambda: expr.evaluate(tree, (), params))
        if want[0] == "ok" and not math.isfinite(want[1]):  # construction checks finiteness
            assert got[:2] == ("error", EvalError) and "non-finite" in got[2]
        else:
            assert got == (want if want[0] == "error" else ("ok", _bits(want[1])))
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
    gradient equal the jet path's bit for bit (``same_generated_bits``),
    and it fails (raises or returns None) exactly where the jet path
    raises.  As a domain, it passes a point only where the predicate is
    positive."""
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
        assert same_generated_bits(got, jv)
    inside = _outcome(lambda: [f.value(np.array(x))])
    domain = codegen.compile_one_point([], f.tree, (), _nothing, _nothing)  # None: none inside
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
    tree = ast.parse(dynamics._generate_rhs(model).source)
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


# a product with a constant 0.0 (or -0.0) operand; 10.0 and 0.05 are not one
ZERO_PRODUCT = re.compile(r"(?<![\w.])(?:0\.0|\(-0\.0\)) \*|\* (?:0\.0|\(-0\.0\))(?![\w.])")


# a sum or difference with a constant 0.0 (or -0.0); 10.0 + and + 0.05 are not one
ZERO_SUM = re.compile(r"(?<![\w.])(?:0\.0|\(-0\.0\)) [-+]|[-+] (?:0\.0|\(-0\.0\))(?![\w.])")


# a power 1.0 or a product with -1.0; ** 1.05 and (-1.01) are not one
IDENTITY_OP = re.compile(r"\*\* 1\.0(?![\w.])|\(-1\.0\) \*|\* \(-1\.0\)")


@pytest.mark.parametrize("name", sorted(MODELS))
def test_no_force_law_computes_a_zero_product(name):
    """The jets hold no structural zero product (a gradient entry along an
    axis that a factor does not read), and the law leaves out every term
    with a constant 0.0: it has no sum or product with a constant 0.0.  Nor
    does it raise to the power 1.0 or multiply by -1.0, which the tape folds."""
    source = dynamics._generate_rhs(MODELS[name]).source
    assert ZERO_PRODUCT.search(source) is None, ZERO_PRODUCT.findall(source)
    assert ZERO_SUM.search(source) is None, ZERO_SUM.findall(source)
    assert IDENTITY_OP.search(source) is None, IDENTITY_OP.findall(source)


def _zero_entries(tape, jets, *xs):
    """Which jet entries are the constant 0.0 (flags), and every entry."""
    entries = [e for j in jets for e in (j.f, *j.g)]
    return tuple(float(not isinstance(e, codegen._Var) and e == 0.0) for e in entries), tuple(entries)


def _sound_zeros(run, x, want):
    """How many of the generated constant zeros are +-0.0 in ``want``, the
    jet path's entries at x, where those are finite; fails at one that is
    not."""
    try:
        flags, _ = run(*x)
    except (ArithmeticError, ValueError):
        return 0
    if not np.isfinite(want).all():
        return 0
    zeros = np.array(flags, dtype=bool)
    assert np.all(want[zeros] == 0.0), want
    return int(zeros.sum())


@pytest.mark.parametrize("name", sorted(MODELS))
def test_the_zero_marks_are_sound_on_the_default_grid(name):
    """Every jet entry the generator hands on as the constant 0.0 (each
    entry along an axis its tree does not read among them) is +-0.0 on the
    jet path at every default-grid point where the jet path's entries are
    finite."""
    model = MODELS[name]
    fields = [f for *_, f in model.layout.g_live + model.layout.A_live]
    run = codegen.compile_one_point([f.tree for f in fields], None, (), _zero_entries,
                                 _zero_entries)
    checked = 0
    for x in model.default_grid:
        want = np.array([e for f in fields for e in _value_and_gradient(f, x)], dtype=float)
        checked += _sound_zeros(run, x.tolist(), want)
    if name in ("schwarzschild", "reissner-nordstrom", "kerr_newman", "em-plane-wave"):
        assert checked > 0


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf, _combine, max_leaves=12), params_strategy,
       st.lists(_COORD, min_size=4, max_size=4))
def test_the_zero_marks_are_sound_on_random_trees(tree, params, x):
    """The same over the ``test_expr`` trees, at a random point."""
    try:
        f = ExprField(tree, CART, params)
    except EvalError:
        return
    if f.const is None:
        run = codegen.compile_one_point([f.tree], None, (), _zero_entries, _zero_entries)
        want = _outcome(lambda: _value_and_gradient(f, x))
        if run is not None and want is not None:
            _sound_zeros(run, x, want)


def test_a_mixed_sum_keeps_its_nonzero_term():
    """``x*y`` has the gradient entry ``y`` along x and ``x`` along y, and
    the constant 0.0 along t and z, which it does not read; the tape records
    only the value ``x1 * x2``: each other product is with 1.0 or 0.0."""
    tape = codegen._Tape()
    x, y = codegen._Var(tape, "x1"), codegen._Var(tape, "x2")
    jet = codegen._Dual(x, [0.0, 1.0, 0.0, 0.0]) * codegen._Dual(y, [0.0, 0.0, 1.0, 0.0])
    assert [codegen._text(d) for d in jet.g] == ["0.0", "x2", "x1", "0.0"]
    assert [line[1:3] for line in tape.lines] == [("{} * {}", ("x1", "x2"))]


def _gradients(tape, jets, *xs):
    return tuple(e for j in jets for e in j.g)


@pytest.mark.parametrize("src", ["0*x + x*x", "x^0*y + y*y"])
def test_a_constant_zero_gradient_entry_is_left_out(src):
    """A jet operation that makes a gradient entry the constant 0.0 (the
    factor 0 of ``0*x``, the derivative of ``x^0``) leaves it out of every
    later sum and product, and the entries keep the jet path's bits."""
    f = ExprField(src, CART, {})
    run = codegen.compile_one_point([f.tree], None, (), _gradients, "gradients")
    assert ZERO_SUM.search(run.source) is None, run.source
    assert ZERO_PRODUCT.search(run.source) is None, run.source
    for x in ([0.5, -1.5, 2.0, 0.0], [0.0, 0.0, -0.0, 3.0], [1.0, 1e200, -1e200, 0.0]):
        assert same_generated_bits(run(*x), _value_and_gradient(f, x)[1:])


def test_a_divisor_that_is_zero_everywhere_declines():
    """x^0 - 1 is the constant 0.0 with a gradient: the jets' zero test
    fails at every point, so the generator declines."""
    assert _generated(expr.fold(expr.parse("t + 1/(x^0 - 1)", CART), {})) is None


@pytest.mark.parametrize("name", sorted(MODELS))
def test_generating_a_force_law_runs_no_jet_operation(monkeypatch, name):
    """The law is recorded with the order-1 jet over the tape: no operation
    of ``jets.Jet`` runs, so the engine's jet counters read 0 for it."""
    ran = []
    for op in ("__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "compose", "_reciprocal"):
        def counted(*args, _op=getattr(Jet, op), _name=op):
            ran.append(_name)
            return _op(*args)
        monkeypatch.setattr(Jet, op, counted)
    monkeypatch.setattr(codegen, "_GENERATED", collections.OrderedDict())
    assert dynamics._generate_rhs(MODELS[name]) is not None and ran == []


# A potential whose value reads an exact zero product that overflows for
# |y| > 1.35e4: 0.0 * inf is NaN on the jet path
OVERFLOW_ZERO = "t + 0*(1e300*y*y)"


@pytest.mark.parametrize("y, finite", [(1.0, True), (1e4, True), (2e4, False),
                                       (-2e4, False), (1e5, False)])
def test_a_left_out_operand_that_overflows_declines_as_the_jet_path_fails(y, finite):
    """Where the operand of the definition's own zero product is not
    finite, the law declines, as the jets' NaN makes the jet path fail,
    and the worldline takes the snapshot route, with its note."""
    model = _one_field_model(OVERFLOW_ZERO, {})
    law = dynamics._generate_rhs(model)
    x = [0.5, 0.0, y, 0.0]
    state = x + [1.0, 0.0, 0.0, 0.0]
    assert "1e+300" in law.source
    assert (law(*state, 0.5) is not None) == finite
    if finite:
        return
    with np.errstate(over="ignore", invalid="ignore"):  # as every entry point runs
        want = _error_of(lambda: field_jets(model, np.array([x]), 1))
        assert want[0] is EvalError and "non-finite" in want[1]
        assert _error_of(lambda: dynamics._rhs(model, state, 0.5, law)) == want
    traj = dynamics.integrate_worldline(model, dynamics.WorldlineState(x, state[4:], 0.0), 0.5,
                                        dynamics.IntegratorConfig(0.01, 3))
    assert traj.exited and traj.exit_message == want[1]


def test_the_generated_code_memo_is_bounded(monkeypatch):
    """Distinct keys fill the memo up to its bound; past it the least
    recently used function is dropped, and asking again generates anew."""
    monkeypatch.setattr(codegen, "_GENERATED", collections.OrderedDict())
    trees = [expr.fold(expr.parse(f"{n + 2}*x", CART), {}) for n in range(codegen._GENERATED_MAX + 2)]
    runs = []
    for tree in trees:
        runs.append(_generated(tree))
        assert len(codegen._GENERATED) <= codegen._GENERATED_MAX
        assert _generated(trees[0]) is runs[0]  # used again, so kept
    assert len(codegen._GENERATED) == codegen._GENERATED_MAX
    assert _generated(trees[1]) is not runs[1]
    assert _generated(trees[-1]) is runs[-1]
    assert runs[-1](0.0, 3.0, 0.0, 0.0)[0] == 3.0 * (len(trees) + 1)


def test_the_generated_code_memo_under_threads(monkeypatch):
    """Threads that generate, look up and evict at once, with the switch
    interval shortened: no call raises, each gives its tree's function, and
    the memo stays within its bound."""
    monkeypatch.setattr(codegen, "_GENERATED", collections.OrderedDict())
    trees = [expr.fold(expr.parse(f"{n + 2}*x", CART), {}) for n in range(codegen._GENERATED_MAX + 16)]
    errors = []

    def work(offset):
        try:
            for i in range(2 * len(trees)):
                n = (offset + 7 * i) % len(trees)
                assert _generated(trees[n])(0.0, 1.0, 0.0, 0.0)[0] == n + 2.0
        except Exception as err:  # noqa: BLE001 - reported by the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert len(codegen._GENERATED) <= codegen._GENERATED_MAX


# -- generated column code of field_jets ---------------------------------------


def _jet_path(call):
    """``call()`` with the generator of column code declining, so that
    ``field_jets`` takes the jet path for every component."""
    with mock.patch.object(engine, "compile_columns", lambda *args: None):
        return call()


def _two_place_model(src, params):
    """A model holding one source at an off-diagonal metric component and
    at a potential component."""
    g = {(0, 0): "1", (0, 1): src, (1, 1): "-1", (2, 2): "-1", (3, 3): "-1"}
    return build_model("two-places", CART.names, g, {1: src}, params=params,
                       grid_axes={n: (0.0,) for n in CART.names}, validate=False)


@settings(max_examples=150, deadline=None)
@given(st.recursive(_leaf, _combine, max_leaves=12).filter(lambda tree: tree.axes),
       params_strategy, st.lists(_COORD, min_size=4, max_size=4))
def test_column_code_equals_the_jet_path_on_random_trees(tree, params, x):
    """At orders 1-3, on a batch of one and a batch of eight, the members
    that ``field_jets`` writes through the generated column code equal the
    jet path's up to the sign of a zero, and where the jet path raises,
    ``field_jets`` raises its exception with its note."""
    model = _two_place_model(expr.to_source(tree), params)
    X = np.array([x, *np.random.default_rng(0).uniform(-3.0, 3.0, (7, 4))])
    for order in (1, 2, 3):
        for pts in (X[:1], X):
            with np.errstate(all="ignore"):  # as every entry point runs the jets
                got = _result(lambda: field_jets(model, pts, order))
                want = _result(lambda: _jet_path(lambda: field_jets(model, pts, order)))
            if want[0] == "error":
                assert got == want, (order, len(pts))
                continue
            assert got[0] == "ok", (order, len(pts), got)
            for a, b in zip(got[1][2:], want[1][2:], strict=True):
                assert (a is None) == (b is None)
                assert a is None or same_generated_bits(a, b), (order, len(pts))


def test_one_tree_at_two_places_gets_two_functions(monkeypatch):
    """The memo of column code is keyed by the trees and their places: the
    same tree as the potential's t and x components writes each entry it
    is given."""
    monkeypatch.setattr(codegen, "_COLUMNS", collections.OrderedDict())
    X = np.array([[0.5, 2.0, 0.0, 0.0], [1.5, 3.0, 0.0, 0.0]])
    for n in (0, 1):
        model = build_model("one-tree", CART.names, {(0, 0): "1", (1, 1): "-1", (2, 2): "-1",
                                                     (3, 3): "-1"}, {n: "t*x"},
                            grid_axes={c: (0.0,) for c in CART.names}, validate=False)
        fj = field_jets(model, X, 2)
        want = np.zeros((2, 4))
        want[:, n] = X[:, 0] * X[:, 1]
        assert fj.A.tobytes() == want.tobytes()
        assert np.array_equal(fj.dA[:, :2, n], X[:, [1, 0]]) and not fj.dA[:, :, 1 - n].any()
    runs = list(codegen._COLUMNS.values())
    assert len(runs) == 2 and runs[0] is not runs[1] and runs[0].source != runs[1].source


@pytest.mark.parametrize("name", sorted(MODELS))
def test_generating_column_code_runs_no_traced_function(monkeypatch, name):
    """The column code is recorded over the tape: no ``Jet`` operation,
    elementary function, ``jet_pow`` or ``expr.evaluate`` runs while it is
    generated, so the benchmark's traced counts do not depend on whether a
    pass generates it."""
    ran = []

    def counting(fn, label):
        def counted(*args):
            ran.append(label)
            return fn(*args)
        return counted

    for op in ("__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "compose", "_reciprocal"):
        monkeypatch.setattr(Jet, op, counting(getattr(Jet, op), op))
    for fname in list(FUNCTIONS):
        monkeypatch.setitem(FUNCTIONS, fname, counting(FUNCTIONS[fname], fname))
    for owner in (expr, jets):
        monkeypatch.setattr(owner, "jet_pow", counting(owner.jet_pow, "jet_pow"))
    monkeypatch.setattr(expr, "evaluate", counting(expr.evaluate, "evaluate"))
    monkeypatch.setattr(codegen, "_COLUMNS", collections.OrderedDict())
    generate, made = engine.compile_columns, []

    def generating(*args):
        before = len(ran)
        made.append(generate(*args))
        assert ran[before:] == []
        return made[-1]

    monkeypatch.setattr(engine, "compile_columns", generating)
    model = MODELS[name]
    for order in (1, 2, 3):
        field_jets(model, model.default_grid[:5], order)
    assert all(run is not None for run in made)
    assert len(made) == (3 if model.layout.g_live or model.layout.A_live else 0)
