"""Recursive-descent parser for coordinate expressions.

Grammar:

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | base ("^" factor)?
    base   := number | ident | ident "(" expr ")" | "(" expr ")"

``^`` is right-associative; a fully parenthesized printer is provided so
``parse(to_source(ast))`` reproduces the tree exactly.  Trees are interned
(``_Node``): equal trees are one object, which compares and hashes by
identity, and each node carries the chart indices its tree reads (``axes``)
and its ``depth``.  Nesting and tree depth are bounded by ``MAX_DEPTH``, so
the recursive printer, evaluator and folder never exceed the interpreter's
recursion limit.  ``parse`` keeps each tree in a bounded memo, keyed by
source, chart and parameter names, which saves the lexing.

``evaluate`` interprets a tree over float, (N,) array or Jet coordinates.
``fold`` replaces the parameter-only subtrees of a tree, in one walk, by
their values; ``evaluate`` of the folded tree equals ``evaluate`` of the
tree bit for bit.  Every field evaluates its folded tree.

``compile_one_point`` generates one straight-line Python function of four
floats from a set of folded trees and a domain test.  It records the order-1
jet of each tree on floats (``_Dual``, a value and four gradient entries),
which does the order-1 operations of ``Jet`` arithmetic operand for operand,
but leaves out every term with a constant 0.0 operand (``_mul``,
``_signed`` and ``_dot``): an entry along an axis the tree does not read
stays the constant 0.0, and the recording holds no sum or product with a
constant-zero entry.  It hands the jets to the caller, which carries the
function on with the same three helpers (``dynamics`` records the force
law), so that one zero rule holds along the whole recording.  Each
function is generated once per process: a bounded memo keyed by the folded
trees and the caller's key hands it to every later call, which records
nothing.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import re
import struct
import sys
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError, UnknownIdentifierError
from .jets import _POW_DOMAIN, _TABLE, FUNCTIONS, _pow_terms, jet_pow

# The deepest shipped expression (Kerr-Newman) has depth 9.
MAX_DEPTH = 200


@dataclass(frozen=True)
class ChartSpec:
    """Names of the four chart coordinates."""

    names: tuple

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) != 4:
            raise ParseError(f"chart needs exactly 4 coordinates, got {len(names)}")
        if len(set(names)) != 4:
            raise ParseError(f"chart coordinate names must be distinct: {names}")
        for n in names:
            if not n.isidentifier():
                raise ParseError(f"invalid coordinate name {n!r}")
            if n in FUNCTIONS:
                raise ParseError(f"coordinate name {n!r} shadows a function")

    def index(self, name):
        return self.names.index(name)


# -- AST ---------------------------------------------------------------------


class _Node:
    """An interned, immutable tree node: building one with the class and
    fields of a live node returns that node (children compared by identity,
    a float by its bits), so equal trees are one object and nodes compare by
    identity.  Its class's ``__slots__`` are its fields, children last; it
    carries the chart indices its tree reads (``axes``) and its ``depth``."""

    __slots__ = ("axes", "depth", "__weakref__")

    def __init_subclass__(cls):  # the slice of the fields that are children
        cls._kids = slice(len([f for f in cls.__slots__ if f not in ("arg", "left", "right")]), None)

    def __new__(cls, *fields):
        key = (cls, _BITS(fields[0])) if cls is Num else (cls, *fields)
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is not None:
            return node
        _NODES_LOCK.acquire()  # acquire and release take half the time of ``with``
        try:  # looked up again: another thread may have built it
            ref = _NODES.get(key)
            node = None if ref is None else ref()
            if node is None:
                node = object.__new__(cls)
                for name, value in zip(cls.__slots__, fields):
                    _set(node, name, value)
                axes, depth = (frozenset(fields[:1]) if cls is Coord else frozenset()), 1
                for kid in fields[cls._kids]:  # a child's axes are shared, not copied
                    axes = axes if kid.axes <= axes else kid.axes if axes <= kid.axes else axes | kid.axes
                    depth = max(depth, kid.depth + 1)
                _set(node, "axes", axes)
                _set(node, "depth", depth)
                _NODES[key] = weakref.ref(node, functools.partial(_forget, key))
        finally:
            _NODES_LOCK.release()
        return node

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


_NODES = {}  # (class, fields) -> weak reference to the live node
_NODES_LOCK = threading.RLock()  # reentrant: a node may die, and leave, while it is held
_BITS = struct.Struct("<d").pack
_set = object.__setattr__


def _forget(key, ref, nodes=_NODES, lock=_NODES_LOCK):  # bound now: it may run at exit
    """Drop a dead node's entry, unless a new node has taken its key."""
    lock.acquire()
    try:
        if nodes.get(key) is ref:
            del nodes[key]
    finally:
        lock.release()


class Num(_Node): __slots__ = ("value",)
class Coord(_Node): __slots__ = ("index", "name")
class Param(_Node): __slots__ = ("name",)
class Neg(_Node): __slots__ = ("arg",)
class Add(_Node): __slots__ = ("left", "right")
class Sub(_Node): __slots__ = ("left", "right")
class Mul(_Node): __slots__ = ("left", "right")
class Div(_Node): __slots__ = ("left", "right")
class Pow(_Node): __slots__ = ("left", "right")
class Call(_Node): __slots__ = ("func", "arg")


# -- lexer -------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _lex(src):
    toks = []
    i, n = 0, len(src)
    while i < n:
        if src[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(src, i)
        if m is None:
            raise ParseError(
                f"unexpected character {src[i]!r}", offset=i,
                expected={"number", "identifier", "operator"},
            )
        if m.lastgroup == "num":
            toks.append(("num", m.group(), i))
        elif m.lastgroup == "ident":
            toks.append(("ident", m.group(), i))
        else:
            toks.append((m.group(), m.group(), i))
        i = m.end()
    toks.append(("end", "", n))
    return toks


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, src, chart, params):
        self.toks = _lex(src)
        self.i = 0
        self.chart = chart
        self.params = params
        self.nesting = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"unexpected token {tok[1]!r}", offset=tok[2], expected={kind}
            )
        return self.take()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(
                f"trailing input {tok[1]!r}", offset=tok[2],
                expected={"end of input", "+", "-", "*", "/", "^"},
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self):
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels",
                             offset=self.peek()[2])
        if self.peek()[0] == "-":
            self.take()
            node = Neg(self.factor())
        else:
            node = self.base()
            if self.peek()[0] == "^":
                self.take()
                node = Pow(node, self.factor())
        self.nesting -= 1
        return node

    def base(self):
        kind, text, pos = self.peek()
        if kind == "num":
            self.take()
            return Num(float(text))
        if kind == "(":
            self.take()
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            self.take()
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(
                        f"unknown function {text!r}", offset=pos,
                        expected=set(FUNCTIONS),
                    )
                self.take()
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            if text in self.chart.names:
                return Coord(self.chart.index(text), text)
            if text in self.params:
                return Param(text)
            raise UnknownIdentifierError(
                f"unknown identifier {text!r}", offset=pos,
                expected=set(self.chart.names) | self.params,
            )
        raise ParseError(
            f"unexpected token {text!r}" if text else "unexpected end of input",
            offset=pos,
            expected={"number", "identifier", "(", "-"},
        )


def parse(src, chart, params=()):
    """Parse an expression over the chart coordinates and named parameters.
    A source parsed before over the same chart and parameter names gives
    the same tree, from a bounded memo; a parse error is raised anew."""
    return _parse(src, chart, frozenset(params))


@functools.lru_cache(maxsize=1024)
def _parse(src, chart, params):
    node = _Parser(src, chart, params).parse()
    if node.depth > MAX_DEPTH:
        raise ParseError(f"expression tree is deeper than {MAX_DEPTH} levels")
    return node


# -- printer -----------------------------------------------------------------


def to_source(node):
    """Fully parenthesized source form; reparses to an equal tree."""
    if isinstance(node, Num):
        return format(node.value, ".17g")
    if isinstance(node, (Coord, Param)):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_source(node.arg)})"
    if isinstance(node, Add):
        return f"({to_source(node.left)} + {to_source(node.right)})"
    if isinstance(node, Sub):
        return f"({to_source(node.left)} - {to_source(node.right)})"
    if isinstance(node, Mul):
        return f"({to_source(node.left)} * {to_source(node.right)})"
    if isinstance(node, Div):
        return f"({to_source(node.left)} / {to_source(node.right)})"
    if isinstance(node, Pow):
        return f"({to_source(node.left)}^{to_source(node.right)})"
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluator ---------------------------------------------------------------


def evaluate(node, coords, params):
    """Evaluate an AST with float, (N,) array or Jet coordinate values."""
    kind = type(node)  # no node class is subclassed; the most frequent come first
    if kind is Coord:
        return coords[node.index]
    if kind is Num:
        return node.value
    if kind is Mul:
        return evaluate(node.left, coords, params) * evaluate(node.right, coords, params)
    if kind is Add:
        return evaluate(node.left, coords, params) + evaluate(node.right, coords, params)
    if kind is Sub:
        return evaluate(node.left, coords, params) - evaluate(node.right, coords, params)
    if kind is Div:
        return _divide(evaluate(node.left, coords, params), evaluate(node.right, coords, params))
    if kind is Pow:
        base = evaluate(node.left, coords, params)
        exponent = evaluate(node.right, coords, params)
        return jet_pow(base, exponent)
    if kind is Call:
        return FUNCTIONS[node.func](evaluate(node.arg, coords, params))
    if kind is Neg:
        return -evaluate(node.arg, coords, params)
    if kind is Param:
        return params[node.name]
    raise TypeError(f"not an AST node: {node!r}")


def _divide(num, den):
    if isinstance(den, float) and den == 0.0 or (
        isinstance(den, np.ndarray) and (den == 0.0).any()
    ):
        raise EvalError("division by zero")
    return num / den


# -- folding -----------------------------------------------------------------


def fold(node, params):
    """The tree with each parameter-only subtree (one whose ``axes`` are
    empty) replaced by its value, a ``Num``, in one walk; a -0.0 becomes
    ``Neg(Num(0.0))``, the tree the parser makes of its source ``-0``.  A
    tree without coordinates folds to its value, and a node whose children
    fold to themselves folds to itself.

    A subtree whose folding raises keeps its shape, with its foldable
    children folded, so that ``evaluate`` raises the same error at every
    point.  ``evaluate`` of the folded tree gives what it gives of the
    tree, bit for bit: each node does its arithmetic on the same operands
    in the same order.
    """
    if not node.axes:
        try:
            v = float(evaluate(node, (), params))  # no coordinate is read
        except (EvalError, ArithmeticError, ValueError):
            pass  # kept: it raises the same error at every evaluation
        else:
            return Neg(Num(0.0)) if v == 0.0 and math.copysign(1.0, v) < 0.0 else Num(v)
    if isinstance(node, Coord):
        return node
    if isinstance(node, Neg):
        return Neg(fold(node.arg, params))
    if isinstance(node, Call):
        return Call(node.func, fold(node.arg, params))
    return type(node)(fold(node.left, params), fold(node.right, params))


# -- one-point order-1 code generator ------------------------------------------

_RULES = {name: rule for name, rule, _domain in _TABLE}


class _Decline(Exception):
    """The trees stay on the jet path: a constant is not finite, or an
    operation fails at every point.  An operation on constants that raises
    (one in a subtree that did not fold) declines as well."""


def compile_one_point(trees, domain, args, then, key):
    """One generated Python function ``f(x0, x1, x2, x3, *args)`` that
    carries the order-1 jets of the folded trees (``fold``), each of which
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
    key = (tuple(trees), domain, tuple(args), key)
    with _GENERATED_LOCK:
        if key in _GENERATED:
            _GENERATED.move_to_end(key)
            return _GENERATED[key]
    tape = _Tape()
    xs = [_Var(tape, f"x{i}") for i in range(4)]
    try:
        if domain is not None:
            d = _symbolic(domain, xs, tape)
            if isinstance(d, _Var):
                tape.guard("not 0.0 < {} <= " + repr(sys.float_info.max), d)
            elif not d > 0.0:  # no point is inside
                raise _Decline
        seeds = [_Dual(x, [float(a == i) for a in range(4)]) for i, x in enumerate(xs)]
        run = _generate(tape, [_symbolic(tree, seeds, tape) for tree in trees], xs, args, then)
    except (_Decline, ArithmeticError, ValueError):
        run = None
    with _GENERATED_LOCK:
        _GENERATED[key] = run
        if len(_GENERATED) > _GENERATED_MAX:
            _GENERATED.popitem(last=False)
    return run


# compile_one_point's results, least recently used first
_GENERATED = collections.OrderedDict()
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


def _symbolic(node, coords, tape):
    """``evaluate`` of a folded tree over recorded floats: the coordinates
    are the arguments (``_Var``) or their seeds (``_Dual``), and the result
    is a float constant, a ``_Var`` or a ``_Dual``."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Coord):
        return coords[node.index]
    if isinstance(node, Neg):
        return -_symbolic(node.arg, coords, tape)
    if isinstance(node, Call):
        return _call(node.func, _symbolic(node.arg, coords, tape), tape)
    a = _symbolic(node.left, coords, tape)
    b = _symbolic(node.right, coords, tape)
    if isinstance(node, Pow):
        return _pow(a, b, tape)
    if isinstance(node, Div):
        if not isinstance(b, (_Var, _Dual)) and b == 0.0:
            raise _Decline  # _divide's zero test fails at every point
        return a / b
    return {Add: operator.add, Sub: operator.sub, Mul: operator.mul}[type(node)](a, b)


def _call(name, u, tape):
    """``FUNCTIONS[name](u)``: a ``_Dual`` composes with its ``_TABLE`` rule
    run on the tape at order 1."""
    if isinstance(u, _Dual):
        d0, d1, _, _ = _RULES[name](tape, u.f, 1)
        return u.compose(d0, d1)
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
    d0, d1, _, _ = _pow_terms(tape, v, 1, p)
    return u.compose(d0, d1)


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
    ``tape.sin(v)`` records ``math.sin(v)``.  It folds the operations whose
    result is an operand, or its negation, for every float: ``x * 1.0``,
    ``x ** 1.0`` and ``x * (-1.0)``; ``x ** 0.0`` is 1.0."""

    def __init__(self):
        # (temporary or None for a guard, template, operand texts, can raise)
        self.lines = []
        self.temps = {}  # (template, operand texts) -> _Var
        self.guards = set()  # (template, operand texts) of each guard
        for name in FUNCTIONS:
            setattr(self, name, functools.partial(self.call, name))
        self.pow = pow  # tape.pow(v, p) records v ** p

    def op(self, template, *args, raises=False):
        return self._record(template, tuple(map(_text, args)), raises)

    def _record(self, template, operands, raises):
        var = self.temps.get((template, operands))
        if var is None:
            var = self.temps[template, operands] = _Var(self, f"t{len(self.temps)}")
            self.lines.append((var.name, template, operands, raises))
        return var

    def guard(self, template, *args):
        """``if <condition>: return None``, recorded once per condition."""
        key = (template, tuple(map(_text, args)))
        if key not in self.guards:
            self.guards.add(key)
            self.lines.append((None, f"if {template}: return None", key[1], True))

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

    def call(self, name, v):
        if isinstance(v, _Var):
            return self.op(f"math.{name}({{}})", v, raises=True)
        return getattr(math, name)(v)

    def source(self, outputs, params):
        """The function of ``params`` returning the outputs (a tuple, whose
        entries may be tuples), without the statements that neither lead to
        an output nor can raise.

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

        kept, live = [(None, "return " + shaped(outputs), shape, False)], set(shape)
        for line in reversed(self.lines):
            if line[3] or line[0] in live:
                live.update(line[2])
                kept.append(line)
        reads = collections.Counter(itertools.chain.from_iterable(line[2] for line in kept))
        inline, depths, body = {}, {}, []  # a temporary written inline: its text, its depth
        for name, template, operands, raises in reversed(kept):
            text = template.format(*[inline.pop(o, o) for o in operands])
            if name is None:
                body.append(text)
                continue
            if not raises and reads[name] == 1:
                depth = 1 + max([depths.get(o, 0) for o in operands])
                if depth <= _INLINE_DEPTH:
                    inline[name], depths[name] = f"({text})", depth
                    continue
            body.append(f"{name} = {text}")
        return f"def one_point({', '.join(params)}):\n" + "".join(f"    {s}\n" for s in body)


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


class _Dual:
    """An order-1 jet of recorded floats: the value ``f`` and the list ``g``
    of the four gradient entries, float constants or ``_Var``; a seed's is a
    unit row.  Each operation does ``Jet``'s order-1 operations operand for
    operand, in the same order, on the entries through ``_mul``, ``_signed``
    and ``_dot``: a term with a constant 0.0 operand is left out, so an
    entry along an axis the tree does not read stays the constant 0.0.  A
    product with a constant scales each entry as ``Jet`` does, so that a
    constant factor 0.0 (``0*u``, ``0/u``) keeps the jet path's NaN where
    an entry of u is not finite."""

    __slots__ = ("f", "g")

    def __init__(self, f, g):
        self.f, self.g = f, g

    def compose(self, d0, d1):
        """The chain rule for phi(u), from phi and phi' at u."""
        return _Dual(d0, [_mul(d1, e) for e in self.g])

    def __neg__(self):
        return _Dual(-self.f, [_signed([(-1, e)]) for e in self.g])

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.f + o.f, [_signed([(1, p), (1, q)]) for p, q in zip(self.g, o.g)])
        return _Dual(self.f + o, self.g)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.f - o.f, [_signed([(1, p), (-1, q)]) for p, q in zip(self.g, o.g)])
        return _Dual(self.f - o, self.g)

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.f * o.f, [_dot((p, q), (o.f, self.f)) for p, q in zip(self.g, o.g)])
        return _Dual(self.f * o, [e * o for e in self.g])

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
        return self.compose(iv, -iv * iv)


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
