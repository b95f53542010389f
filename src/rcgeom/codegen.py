"""Code generators: folded expression trees recorded as straight-line code.

``compile_one_point`` generates one straight-line Python function of four
floats from a set of folded trees and a domain test.  It records the order-1
jet of each tree on floats (``_Dual``, a value and four gradient entries),
which does the order-1 operations of ``Jet`` arithmetic operand for operand,
but leaves out every term with a constant 0.0 operand (``_mul``,
``_signed`` and ``_dot``): an entry along an axis the tree does not read
stays the constant 0.0, and the recording holds no sum or product with a
constant-zero entry.  It hands the jets to the caller, which carries the
function on with the same three helpers (``dynamics`` records the force
law), so that one zero rule holds along the whole recording.

``compile_columns`` records the jets of a set of folded trees up to order 3
the same way (``_Dual`` carries flat Hessian and third-derivative entries
too), over a tape of numpy columns, and generates one straight-line numpy
function that writes them into a batch's point-first field-jet arrays; it
is ``engine.field_jets``'s dual path.

Each function is generated once per process: a bounded memo keyed by the
folded trees and the caller's key hands it to every later call, which
records nothing.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import sys
import threading

import numpy as np

from .expr import Add, Call, Coord, Div, Mul, Neg, Num, Pow, Sub
from .jets import _POW_DOMAIN, _TABLE, FUNCTIONS, _pow_terms, _power

_RULES = {name: rule for name, rule, _domain in _TABLE}


class _Decline(Exception):
    """The trees stay on the jet path: a constant is not finite, or an
    operation fails at every point.  An operation on constants that raises
    (one in a subtree that did not fold) declines as well."""


def compile_one_point(trees, domain, args, then, key):
    """One generated Python function ``f(x0, x1, x2, x3, *args)`` that
    carries the order-1 jets of the folded trees (``expr.fold``), each of which
    reads a coordinate, on through ``then``, or None where the generator
    declines.

    ``then(tape, jets, *arguments)`` gets one recorded ``_Dual`` per tree
    (its value ``f`` and gradient ``g``, float constants or recorded
    floats) and the recorded arguments of ``f``; it may record statements
    and guards of its own, and returns the outputs (a tuple whose entries
    may be tuples), or None to decline.  ``f`` returns None when the folded
    ``domain`` tree (None: every point is inside) is not positive and
    finite at the point, or when a guard fails.

    Each tree runs from the coordinates' seeds through ``_Dual``, and its
    functions through the ``_TABLE`` rules at order 1 with the tape as
    their ``m``; operations on floats are recorded as statements,
    hash-consed on their text.  A gradient entry that is the constant 0.0
    on the tape (each entry along an axis the tree does not read among
    them) reaches ``then`` as the constant 0.0, and no sum or product takes
    it.  The jets are the jet path's bit for bit, except where the jet path
    computes with such a zero: a sum may give a zero of the other sign, and
    a product with a non-finite operand gives a NaN, where the generated
    entry is the constant 0.0.  Where no other entry reads that operand (a
    subtree whose gradient is the constant 0.0, such as ``x - x``, under a
    function whose derivative overflows), ``f`` gives finite jets where the
    jet path's are NaN.  ``_Tape.source`` writes ``f``,
    straight-line code over floats that raises where the jets raise; it
    holds only the arguments, temporaries, finite float literals and
    ``math`` functions (``f.source``), never text from a definition file.

    Each result, None included, is kept once per process, in a bounded memo
    keyed by the folded trees and domain (interned, so bit-equal when
    equal, and hashed by identity), ``args``, and the caller's hashable
    ``key``, which names ``then`` and everything it reads beyond the jets;
    a hit records nothing.

    The generator declines when an operation on constants fails (as one in
    a subtree that did not fold does) or an operation fails at every point;
    ``f`` raises ``ArithmeticError`` or ``ValueError`` where the jets raise,
    and may return non-finite entries.  Either way the caller runs the jet
    path, which gives its own note.
    """
    def make():
        tape = _Tape()
        xs = [_Var(tape, f"x{i}") for i in range(4)]
        try:
            if domain is not None:
                d = _symbolic(domain, xs, tape, {})
                if isinstance(d, _Var):
                    tape.guard("not 0.0 < {} <= " + repr(sys.float_info.max), d)
                elif not d > 0.0:  # no point is inside
                    raise _Decline
            seeds = [_Dual.seed(x, i, 1) for i, x in enumerate(xs)]
            memo = {}
            return _generate(tape, [_symbolic(tree, seeds, tape, memo) for tree in trees],
                             xs, args, then)
        except (_Decline, ArithmeticError, ValueError):
            return None

    return _kept(_GENERATED, (tuple(trees), domain, tuple(args), key), make)


def _kept(memo, key, make):
    """``make()``, kept once per process in ``memo`` (an ``OrderedDict``,
    least recently used first) under ``key``: a hit makes nothing, and past
    ``_GENERATED_MAX`` keys the least recently used is dropped."""
    with _GENERATED_LOCK:
        if key in memo:
            memo.move_to_end(key)
            return memo[key]
    made = make()
    with _GENERATED_LOCK:
        memo[key] = made
        if len(memo) > _GENERATED_MAX:
            memo.popitem(last=False)
    return made


# compile_one_point's and compile_columns' results
_GENERATED = collections.OrderedDict()
_COLUMNS = collections.OrderedDict()
_GENERATED_MAX = 64
_GENERATED_LOCK = threading.Lock()


def _generate(tape, jets, xs, args, then):
    """``compile_one_point``'s function from the recorded tape and jets."""
    try:
        outputs = then(tape, jets, *xs, *(_Var(tape, name) for name in args))
        if outputs is None:
            raise _Decline
        source = tape.source(outputs, [x.name for x in xs] + list(args))
    except (_Decline, ArithmeticError, ValueError):
        return None
    namespace = {"math": math}
    exec(compile(source, "<rcgeom generated one-point code>", "exec"), namespace)
    run = namespace["one_point"]
    run.source = source
    return run


def compile_columns(trees, order, places):
    """One generated numpy function ``columns(x0, x1, x2, x3, m)`` that
    writes the jets up to ``order`` of the folded trees (``expr.fold``), each of
    which reads a coordinate, at a batch of points given as four (N,)
    coordinate columns, into the point-first arrays of the list ``m``; or
    None where the generator declines.

    ``places[c]`` says where tree c goes: the indices into ``m`` of its
    value and of its derivatives of each order, then the index tuples of
    its entry in each (a symmetric pair of components has two).  The
    derivative entry along (a_1, ..., a_k) lands at ``m[index_k][:, a_1,
    ..., a_k, *entry]``; an entry that is the constant 0.0 is not written,
    so the array's 0.0 stays.

    Each tree runs from the coordinates' seeds through ``_Dual`` at
    ``order``, as in ``compile_one_point``, over a tape of columns: every
    operation of the jets of a batch (``jets.Jet`` over (N,) arrays,
    through the ``_TABLE`` rules with numpy) is recorded entry by entry, so
    that each written entry has the jet path's bits, up to the sign of a
    zero, and an entry along an axis the tree does not read is never
    computed.  The function keeps every recorded statement, returns the
    computed entries written (a tuple of (N,) arrays) for the caller's
    finiteness check, and returns None where a power's domain rule fails at
    some point.  Run under ``np.errstate`` raising on overflow, division by
    zero and invalid operations, with finite columns, it raises, returns
    None or returns finite entries; where it raises or returns None, the
    jet path meets every failure, with its own note.  It holds only its
    arguments, temporaries, finite float literals and numpy functions
    (``columns.source``).

    Each result, None included, is kept once per process in a bounded
    memo, keyed by the folded trees, ``order`` and ``places``: the same
    tree at another place writes another entry.
    """
    def make():
        tape = _Tape("np")
        seeds = [_Dual.seed(_Var(tape, f"x{i}"), i, order) for i in range(4)]
        memo = {}
        try:
            jets = [_symbolic(tree, seeds, tape, memo) for tree in trees]
            writes, computed = [], {}
            for jet, (members, entries) in zip(jets, places, strict=True):
                if not isinstance(jet, _Dual):
                    raise _Decline
                for k, part in enumerate([[jet.f], jet.g, jet.h, jet.t][:order + 1]):
                    for axes, e in zip(itertools.product(range(4), repeat=k), part):
                        if k and _is(e, 0.0):
                            continue
                        targets = [f"m[{members[k]}][:, {', '.join(map(str, axes + entry))}]"
                                   for entry in entries]
                        writes.append((" = ".join(targets) + " = {}", e))
                        if isinstance(e, _Var):
                            computed[e.name] = e
            source = tape.source(tuple(computed.values()), ["x0", "x1", "x2", "x3", "m"],
                                 "columns", writes)
        except (_Decline, ArithmeticError, ValueError):
            return None
        namespace = {"np": np}
        exec(compile(source, "<rcgeom generated column code>", "exec"), namespace)
        run = namespace["columns"]
        run.source = source
        return run

    return _kept(_COLUMNS, (tuple(trees), order, tuple(places)), make)


def _symbolic(node, coords, tape, memo):
    """``evaluate`` of a folded tree over recorded floats: the coordinates
    are the arguments (``_Var``) or their seeds (``_Dual``), and the result
    is a float constant, a ``_Var`` or a ``_Dual``.  ``memo`` maps each node
    walked on these coordinates to its result, so that an interned subtree
    that a tree holds again is recorded once."""
    done = memo.get(node)
    if done is not None:
        return done
    if isinstance(node, Num):
        out = node.value
    elif isinstance(node, Coord):
        out = coords[node.index]
    elif isinstance(node, Neg):
        out = -_symbolic(node.arg, coords, tape, memo)
    elif isinstance(node, Call):
        out = _call(node.func, _symbolic(node.arg, coords, tape, memo), tape)
    else:
        a = _symbolic(node.left, coords, tape, memo)
        b = _symbolic(node.right, coords, tape, memo)
        if isinstance(node, Pow):
            out = _pow(a, b, tape)
        elif isinstance(node, Div):
            if not isinstance(b, (_Var, _Dual)) and b == 0.0:
                raise _Decline  # _divide's zero test fails at every point
            out = a / b
        else:
            out = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}[type(node)](a, b)
    memo[node] = out
    return out


def _call(name, u, tape):
    """``FUNCTIONS[name](u)``: a ``_Dual`` composes with its ``_TABLE`` rule
    run on the tape at the jet's order."""
    if isinstance(u, _Dual):
        return u.compose(*_RULES[name](tape, u.f, u.order))
    return tape.call(name, u)


# which of ``v <= 0.0``, ``v == 0.0`` and ``v < 0.0`` fail the power rules,
# by whether they fail at a zero and at a negative base
_POW_GUARDS = {(True, True): "{} <= 0.0", (True, False): "{} == 0.0", (False, True): "{} < 0.0"}


def _pow(u, p, tape):
    """``jet_pow(u, p)``.  The domain rules of the base become a guard,
    tested on a zero and on a negative base (an exponent that depends on the
    coordinates may fail at any base <= 0); ``**`` of floats gives the bits
    of ``math.pow`` and raises where it does once the guard has passed."""
    if isinstance(p, _Dual):
        return _call("exp", p * _call("log", u, tape), tape)
    jet = isinstance(u, _Dual)
    v = u.f if jet else u
    rules = _POW_DOMAIN if jet else _POW_DOMAIN[:2]
    fails = (True, True) if isinstance(p, _Var) else tuple(
        any(bad(base, p) for bad, _ in rules) for base in (0.0, -1.0))
    if not isinstance(v, _Var):  # a constant base, so p depends on the coordinates
        if v <= 0.0:
            raise _Decline
    elif fails in _POW_GUARDS:
        tape.guard(_POW_GUARDS[fails], v)
    if not jet:
        return v ** p
    return u.compose(*_pow_terms(tape, v, u.order, p))


def _literal(v):
    v = float(v)
    if not math.isfinite(v):
        raise _Decline
    text = repr(v)
    return f"({text})" if text.startswith("-") else text


def _text(a):
    return a.name if isinstance(a, _Var) else _literal(a)


def _is(a, value):
    """Whether a is the float constant value."""
    return not isinstance(a, _Var) and a == value


class _Tape:
    """The statements of one generated function, in the order they were
    recorded.  An operation already recorded on the same operands gives
    the same temporary.  The tape is also the ``m`` of the ``_TABLE`` rules:
    ``tape.sin(v)`` records ``math.sin(v)``, or ``np.sin(v)`` on a tape of
    numpy columns (``lib="np"``), whose ``tape.pow`` records ``np.power``
    as the jets of a batch take it.  It folds the operations whose result
    is an operand, or its negation, for every float: ``x * 1.0``, ``x **
    1.0`` and ``x * (-1.0)``; ``x ** 0.0`` is 1.0, but ``np.power`` of a
    column stays a column."""

    def __init__(self, lib="math"):
        # (temporary or None for a guard, template, operand texts, can raise)
        self.lines = []
        self.temps = {}  # (template, operand texts) -> _Var
        self.guards = set()  # (template, operand texts) of each guard
        self.lib = lib
        for name in FUNCTIONS:
            setattr(self, name, functools.partial(self.call, name))
        # tape.pow(v, p) records v ** p, or np.power(v, p)
        self.pow = pow if lib == "math" else self.power

    def op(self, template, *args, raises=False):
        return self._record(template, tuple(map(_text, args)), raises)

    def _record(self, template, operands, raises):
        var = self.temps.get((template, operands))
        if var is None:
            var = self.temps[template, operands] = _Var(self, f"t{len(self.temps)}")
            self.lines.append((var.name, template, operands, raises))
        return var

    def guard(self, template, *args):
        """``if <condition>: return None``, recorded once per condition; on
        columns, where it holds at any entry."""
        key = (template, tuple(map(_text, args)))
        if key not in self.guards:
            self.guards.add(key)
            test = template if self.lib == "math" else f"({template}).any()"
            self.lines.append((None, f"if {test}: return None", key[1], True))

    def binary(self, a, symbol, b):
        # x * 1.0 and x ** 1.0 are x, x * (-1.0) is -x and x ** 0.0 is 1.0,
        # for every float x
        if symbol == "*" and (_is(a, 1.0) or _is(b, 1.0)):
            return b if _is(a, 1.0) else a
        if symbol == "*" and (_is(a, -1.0) or _is(b, -1.0)):
            return -(b if _is(a, -1.0) else a)
        if symbol == "**" and _is(b, 1.0):
            return a
        if symbol == "**" and _is(b, 0.0):
            return 1.0
        operands = (_text(a), _text(b))
        if symbol in "+*" and operands[1] < operands[0]:  # one text for a + b and b + a
            operands = operands[::-1]
        return self._record("{} " + symbol + " {}", operands, symbol in ("/", "**"))

    def power(self, v, p):
        if _is(p, 1.0):
            return v
        return self.op("np.power({}, {})", v, p, raises=True)

    def call(self, name, v):
        if isinstance(v, _Var):
            return self.op(f"{self.lib}.{name}({{}})", v, raises=True)
        return getattr(math, name)(v)  # a constant: the jets take math too

    def source(self, outputs, params, name="one_point", writes=()):
        """The function ``name`` of ``params`` that runs ``writes``, pairs
        of a statement template and its operands, and returns the outputs
        (a tuple, whose entries may be tuples).  A tape of floats leaves out
        the statements that neither lead to an output nor can raise; a tape
        of columns keeps each one, since any may overflow, where the jets of
        a batch compute it too.

        A temporary read exactly once whose statement cannot raise (``+``,
        ``-``, ``*``, negation, ``abs``, ``max``) is written into its reader
        in parentheses, at most ``_INLINE_DEPTH`` deep: the same operations
        in the same order, with fewer names to store and load and less to
        compile.  ``/``, ``**``, ``math`` functions and guards keep their
        lines, so the function raises, or returns None, where the jets do.
        """
        shape = []

        def shaped(a):
            if isinstance(a, tuple):
                return f"({''.join(shaped(b) + ', ' for b in a)})"
            shape.append(_text(a))
            return "{}"

        kept = [(None, "return " + shaped(outputs), shape, False)]
        kept += [(None, template, tuple(map(_text, args)), True) for template, *args in writes[::-1]]
        live = set(itertools.chain.from_iterable(line[2] for line in kept))
        for line in reversed(self.lines):
            if line[3] or line[0] in live or self.lib != "math":
                live.update(line[2])
                kept.append(line)
        reads = collections.Counter(itertools.chain.from_iterable(line[2] for line in kept))
        inline, depths, body = {}, {}, []  # a temporary written inline: its text, its depth
        for var, template, operands, raises in reversed(kept):
            text = template.format(*[inline.pop(o, o) for o in operands])
            if var is None:
                body.append(text)
                continue
            if not raises and reads[var] == 1:
                depth = 1 + max([depths.get(o, 0) for o in operands])
                if depth <= _INLINE_DEPTH:
                    inline[var], depths[var] = f"({text})", depth
                    continue
            body.append(f"{var} = {text}")
        return f"def {name}({', '.join(params)}):\n" + "".join(f"    {s}\n" for s in body)


# the deepest a temporary read once is written into its reader: each level
# adds at most three parentheses, well within the 200 the tokenizer accepts
_INLINE_DEPTH = 16


def _mul(a, b):
    """a * b, or 0.0 when either is the constant 0.0 (a recorded float
    compares unequal to every number)."""
    return 0.0 if a == 0.0 or b == 0.0 else a * b


def _dot(a, b):
    """sum a_i b_i, left to right, without the terms with a constant 0.0."""
    return _signed([(1, _mul(p, q)) for p, q in zip(a, b)])


def _signed(terms):
    """The sum of +t or -t over (sign, t), left to right, without the
    constant 0.0 terms; 0.0 when none is left."""
    total = None
    for sign, t in terms:
        if t == 0.0:
            continue
        if total is None:
            total = t if sign > 0 else -t
        else:
            total = total + t if sign > 0 else total - t
    return 0.0 if total is None else total


# the (i, j) and (i, j, k) of each entry of a flat Hessian and third
# derivative, row-major as in the jets' arrays
_PAIRS = tuple(itertools.product(range(4), repeat=2))
_TRIPLES = tuple(itertools.product(range(4), repeat=3))


def _outer(a, b):
    """The jets' ``_outer``: a_i b_j at each (i, j)."""
    return [_mul(a[i], b[j]) for i, j in _PAIRS]


def _sym3(h, v):
    """The jets' ``_sym3``: (h_ij v_k + h_ik v_j) + h_jk v_i at each (i, j, k)."""
    return [_signed([(1, _mul(h[4 * i + j], v[k])), (1, _mul(h[4 * i + k], v[j])),
                     (1, _mul(h[4 * j + k], v[i]))]) for i, j, k in _TRIPLES]


def _product_part(p, q, pf, qf, r, s):
    """The entries ((p qf + q pf) + r) + s of a product's Hessian or third
    derivative, from its operands' parts p and q, their values pf and qf,
    and the two sums of products of lower parts, r and s."""
    return [_signed([(1, _mul(a, qf)), (1, _mul(b, pf)), (1, c), (1, d)])
            for a, b, c, d in zip(p, q, r, s)]


class _Dual:
    """A jet of recorded floats: the value ``f`` and the flat lists of the
    4 gradient entries ``g``, and at orders 2 and 3 of the 16 Hessian
    entries ``h`` and the 64 third-derivative entries ``t``, float
    constants or ``_Var``; a seed's gradient is a unit row.  Each operation
    does ``Jet``'s operations at its order operand for operand, in the same
    order, on the entries through ``_mul``, ``_signed`` and ``_dot``: a term
    with a constant 0.0 operand is left out, so an entry along an axis the
    tree does not read stays the constant 0.0.  A product with a constant
    scales each entry as ``Jet`` does, so that a constant factor 0.0
    (``0*u``, ``0/u``) keeps the jet path's NaN where an entry of u is not
    finite."""

    __slots__ = ("f", "g", "h", "t")

    def __init__(self, f, g, h=None, t=None):
        self.f, self.g, self.h, self.t = f, g, h, t

    @staticmethod
    def seed(x, axis, order):
        """The jet of the coordinate x along ``axis``."""
        return _Dual(x, [float(a == axis) for a in range(4)],
                     [0.0] * 16 if order >= 2 else None, [0.0] * 64 if order >= 3 else None)

    @property
    def order(self):
        return 1 if self.h is None else 2 if self.t is None else 3

    def _each(self, f, entry):
        """The jet of value f whose entries are ``entry`` of this one's."""
        return _Dual(f, *[None if p is None else [entry(e) for e in p] for p in (self.g, self.h, self.t)])

    def _pairwise(self, f, o, sign):
        return _Dual(f, *[None if p is None else [_signed([(1, a), (sign, b)]) for a, b in zip(p, q)]
                          for p, q in ((self.g, o.g), (self.h, o.h), (self.t, o.t))])

    def compose(self, d0, d1, d2=0.0, d3=0.0):
        """The chain rule for phi(u), from phi and its derivatives at u."""
        g, h = self.g, self.h
        out = _Dual(d0, [_mul(d1, e) for e in g])
        if h is not None:
            gg = _outer(g, g)
            out.h = [_signed([(1, _mul(d1, e)), (1, _mul(d2, q))]) for e, q in zip(h, gg)]
        if self.t is not None:
            ggg = [_mul(gg[4 * i + j], g[k]) for i, j, k in _TRIPLES]
            out.t = [_signed([(1, _mul(d1, e)), (1, _mul(d2, q)), (1, _mul(d3, r))])
                     for e, q, r in zip(self.t, _sym3(h, g), ggg)]
        return out

    def __neg__(self):
        return self._each(-self.f, lambda e: _signed([(-1, e)]))

    def __add__(self, o):
        if isinstance(o, _Dual):
            return self._pairwise(self.f + o.f, o, 1)
        return _Dual(self.f + o, self.g, self.h, self.t)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, _Dual):
            return self._pairwise(self.f - o.f, o, -1)
        return _Dual(self.f - o, self.g, self.h, self.t)

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if not isinstance(o, _Dual):
            return self._each(self.f * o, lambda e: e * o)
        a, b = self, o
        out = _Dual(a.f * b.f, [_dot((p, q), (b.f, a.f)) for p, q in zip(a.g, b.g)])
        if a.h is not None:
            out.h = _product_part(a.h, b.h, a.f, b.f, _outer(a.g, b.g), _outer(b.g, a.g))
        if a.t is not None:
            out.t = _product_part(a.t, b.t, a.f, b.f, _sym3(a.h, b.g), _sym3(b.h, a.g))
        return out

    __rmul__ = __mul__

    def __truediv__(self, o):  # a constant o is not zero: _symbolic declines at one
        return self * (o._reciprocal() if isinstance(o, _Dual) else 1.0 / o)

    def __rtruediv__(self, o):
        return self._reciprocal() * o

    def _reciprocal(self):
        v = self.f
        if not isinstance(v, _Var) and v == 0.0:
            raise _Decline  # the jets' zero test fails at every point
        iv = 1.0 / v
        if self.h is None:
            return self.compose(iv, -iv * iv)
        return self.compose(iv, -iv * iv, 2.0 * _power(iv, 3),
                            0.0 if self.t is None else -6.0 * _power(iv, 4))


class _Var:
    """A float of the generated function: an argument or a temporary.
    Python's operators on it record the operation on its tape; operations
    on float constants alone are done by Python, as when the jets run."""

    __slots__ = ("tape", "name")

    def __init__(self, tape, name):
        self.tape, self.name = tape, name

    def __neg__(self):
        return self.tape.op("-{}", self)


def _recorded(symbol, reflected):
    if reflected:
        return lambda self, other: self.tape.binary(other, symbol, self)
    return lambda self, other: self.tape.binary(self, symbol, other)


for _symbol, _name in (("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "truediv"), ("**", "pow")):
    setattr(_Var, f"__{_name}__", _recorded(_symbol, False))
    setattr(_Var, f"__r{_name}__", _recorded(_symbol, True))
