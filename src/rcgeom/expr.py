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

The code generators that record folded trees as straight-line code are
in ``codegen``.
"""

from __future__ import annotations

import functools
import math
import re
import struct
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError, UnknownIdentifierError
from .jets import FUNCTIONS, jet_pow

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
