"""Recursive-descent parser for coordinate expressions.

Grammar:

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | base ("^" factor)?
    base   := number | ident | ident "(" expr ")" | "(" expr ")"

``^`` is right-associative; a fully parenthesized printer is provided so
``parse(to_source(ast))`` reproduces the tree exactly.  Nesting and tree
depth are bounded by ``MAX_DEPTH``, so the recursive printer, evaluator and
compiler never exceed the interpreter's recursion limit.

``evaluate`` interprets a tree; it is the reference.  ``compile_ast`` turns
a tree, once, into a tree of closures that does the same arithmetic in the
same order with the same checks, so its results equal ``evaluate``'s bit
for bit, with the parameter-only subtrees folded into their values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import EvalError, ParseError, UnknownIdentifierError
from .jets import FUNCTIONS, Jet, jet_pow

# The deepest shipped expression (Kerr-Newman) has depth 9.
MAX_DEPTH = 200


@dataclass(frozen=True)
class ChartSpec:
    """Names of the four chart coordinates plus an optional domain predicate
    (an expression whose value is positive inside the domain)."""

    names: tuple
    domain_src: str | None = None

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


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int
    name: str


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


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
        self.params = frozenset(params)
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
    """Parse an expression over the chart coordinates and named parameters."""
    node = _Parser(src, chart, params).parse()
    if _depth(node) > MAX_DEPTH:
        raise ParseError(f"expression tree is deeper than {MAX_DEPTH} levels")
    return node


def _depth(node):
    """Tree depth, computed without recursion (long sums are deep trees)."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(node, (Neg, Call)):
            stack.append((node.arg, d + 1))
        elif isinstance(node, (Add, Sub, Mul, Div, Pow)):
            stack += [(node.left, d + 1), (node.right, d + 1)]
    return deepest


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
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Coord):
        return coords[node.index]
    if isinstance(node, Param):
        return params[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.arg, coords, params)
    if isinstance(node, Add):
        return evaluate(node.left, coords, params) + evaluate(node.right, coords, params)
    if isinstance(node, Sub):
        return evaluate(node.left, coords, params) - evaluate(node.right, coords, params)
    if isinstance(node, Mul):
        return evaluate(node.left, coords, params) * evaluate(node.right, coords, params)
    if isinstance(node, Div):
        return _divide(evaluate(node.left, coords, params), evaluate(node.right, coords, params))
    if isinstance(node, Pow):
        base = evaluate(node.left, coords, params)
        exponent = evaluate(node.right, coords, params)
        return jet_pow(base, exponent)
    if isinstance(node, Call):
        return FUNCTIONS[node.func](evaluate(node.arg, coords, params))
    raise TypeError(f"not an AST node: {node!r}")


def _divide(num, den):
    if isinstance(den, float) and den == 0.0 or (
        isinstance(den, np.ndarray) and (den == 0.0).any()
    ):
        raise EvalError("division by zero")
    return num / den


# -- compiler ----------------------------------------------------------------

_ORIGIN = (0.0,) * 4


def compile_ast(node, params):
    """The tree as ``f(coords)``, built once; a coordinate-free tree is
    evaluated now and returned as its value (an error raises here).

    ``f`` takes the same float, (N,) array or Jet coordinates as
    ``evaluate`` and returns what ``evaluate`` returns, bit for bit: each
    closure does its node's arithmetic on the same operands in the same
    order.  Parameter-only subtrees are folded into their values by
    ``evaluate``; one whose folding raises stays a closure, so it raises the
    same error at every evaluation.
    """
    free = set()
    if _coordinate_free(node, free):
        return evaluate(node, _ORIGIN, params)
    return _compile(node, params, free)


def _coordinate_free(node, free):
    """Whether no coordinate appears in the tree; adds the id of every
    coordinate-free node to ``free``."""
    if isinstance(node, Coord):
        return False
    if isinstance(node, (Num, Param)):
        ok = True
    elif isinstance(node, (Neg, Call)):
        ok = _coordinate_free(node.arg, free)
    else:
        ok = _coordinate_free(node.left, free) & _coordinate_free(node.right, free)
    if ok:
        free.add(id(node))
    return ok


def _compile(node, params, free):
    """A closure of the coordinates, or the folded value of a subtree."""
    if id(node) in free:
        try:
            return evaluate(node, _ORIGIN, params)
        except (EvalError, ArithmeticError, ValueError):
            pass  # left unfolded: it raises the same error at evaluation
    if isinstance(node, Coord):
        return itemgetter(node.index)
    if isinstance(node, Param):
        name = node.name
        return lambda c: params[name]
    if isinstance(node, Neg):
        arg = _closure(_compile(node.arg, params, free))
        return lambda c: -arg(c)
    if isinstance(node, Call):
        fn, arg = FUNCTIONS[node.func], _closure(_compile(node.arg, params, free))
        return lambda c: fn(arg(c))
    left, right = _compile(node.left, params, free), _compile(node.right, params, free)
    if isinstance(node, Div) and callable(left) and not callable(right) and not (
        isinstance(right, float) and right == 0.0
    ):
        # the zero check of a constant nonzero denominator always passes
        return lambda c: left(c) / right
    return _binary(_BINARY[type(node)], left, right)


def _closure(v):
    return v if callable(v) else (lambda c: v)


# node type -> closure makers for (closure, closure), (closure, value) and
# (value, closure) operands; a (value, value) pair, left when its folding
# raised, takes the first with the values wrapped.
_BINARY = {
    Add: (
        lambda a, b: lambda c: a(c) + b(c),
        lambda a, b: lambda c: a(c) + b,
        lambda a, b: lambda c: a + b(c),
    ),
    Sub: (
        lambda a, b: lambda c: a(c) - b(c),
        lambda a, b: lambda c: a(c) - b,
        lambda a, b: lambda c: a - b(c),
    ),
    Mul: (
        lambda a, b: lambda c: a(c) * b(c),
        lambda a, b: lambda c: a(c) * b,
        lambda a, b: lambda c: a * b(c),
    ),
    Div: (
        lambda a, b: lambda c: _divide(a(c), b(c)),
        lambda a, b: lambda c: _divide(a(c), b),
        lambda a, b: lambda c: _divide(a, b(c)),
    ),
    Pow: (
        lambda a, b: lambda c: jet_pow(a(c), b(c)),
        lambda a, b: lambda c: jet_pow(a(c), b),
        lambda a, b: lambda c: jet_pow(a, b(c)),
    ),
}


def _binary(makers, left, right):
    both, left_only, right_only = makers
    if callable(left) and callable(right):
        return both(left, right)
    if callable(left):
        return left_only(left, right)
    if callable(right):
        return right_only(left, right)
    return both(_closure(left), _closure(right))
