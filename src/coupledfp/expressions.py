"""A small arithmetic expression language for user-defined maps.

Grammar (standard precedence, left associative):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom
    atom   := NUMBER | VARIABLE | FUNCTION '(' expr ')' | '(' expr ')'

Variables are x1..xd and y1..yd (1-based coordinate indices); functions are
exp, ln, atan, sqrt, abs. There are deliberately no conditionals or
comparisons, so every expressible map is continuous. Evaluation fails fast
with a DomainError on division by zero, out-of-domain ln/sqrt and exp
overflow instead of letting NaNs propagate.

Each node's value has one definition, ``_compile(ops)``, which returns a
closure ``f(x, y)`` over its children's closures. The root of a tree
compiles once per operation set, on first use, and keeps the closure. Two
operation sets run the same closures on the same floats:

* ``eval`` runs them on one row's Python floats: ``math`` functions, the
  builtin ``abs`` and Python division, whose own errors (ValueError,
  OverflowError, ZeroDivisionError) become a DomainError. Stacks of at
  most WALK_ROWS rows (one-row calls, one seed's iteration steps) take this
  walk: on a 4-D map with a dozen function calls it takes about 7-8 us per
  row, a stacked call about 60-70 us on up to 16 rows, and about 0.8 us per
  row on 1600 rows (one core of a 2-core x86-64 VM, Python 3.11, numpy 2.4).
* ``eval_rows`` runs them on the columns of two (n, dim) row stacks and
  returns an (n,) column; a guard that fails on any row raises
  _GuardTripped. ``+ - * /``, negation, ``abs`` and ``sqrt`` are numpy
  ufuncs, which round exactly as the same operations on Python floats.
  ``exp``, ``ln`` and ``atan`` map ``math.exp``, ``math.log`` and
  ``math.atan`` over the column. On 10^6 uniform random arguments
  ``np.exp``, ``np.log`` and ``np.arctan`` differ from them in the last bit
  on 4.6%, 0.10% and 0.14% (``np.sqrt`` on none), which would change
  printed margins.

`evaluate_components` picks between them by the number of rows. When a
domain guard trips anywhere in a stack, it re-runs the stack row by row with
the walk, so the first bad row fails with the walk's message.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ExpressionError

FUNCTIONS = ("exp", "ln", "atan", "sqrt", "abs")

# Whitespace, then one alternative per token kind, tried in this order.
# Whitespace at the end of the text matches nothing.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<NUMBER>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<OP>[-+*/])"
    r"|(?P<LPAREN>\()"
    r"|(?P<RPAREN>\))"
    r"|(?P<BAD>[^ \t\r\n]))"
)
_VARIABLE_RE = re.compile(r"([xy])([0-9]+)\Z")

# precedence levels used when inserting parentheses on serialization
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_ATOM = 1, 2, 3, 4
# How tightly each binary operator binds when parsing. No other token's
# text is one of these, so a token's text alone tells an operator apart.
_BINDING = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL}

# Stacks of at most this many rows take the row-by-row walk. The walk and a
# stacked call cost the same at about 5-6 rows on the shipped 1-D ln config,
# 7-8 on the 2-D one and 9-10 on the 4-D one (one core of a 2-core x86-64
# VM, Python 3.11, numpy 2.4), and a one-seed iteration step is a 2-row
# stack.
WALK_ROWS = 8

# Deepest expression `parse_expression` accepts, in levels: a number or a
# variable is one level, and an operator, minus sign, call or pair of
# parentheses one more than its deepest operand. Parsing recurses at most
# three frames per level, and compiling, evaluation and printing one, so an
# accepted tree stays well inside Python's default limit of 1000 frames.
MAX_DEPTH = 200


class _GuardTripped(Exception):
    """A domain guard failed on some row of a stack (see evaluate_components)."""


@dataclass(frozen=True)
class _Ops:
    """The operations a node's closure runs with on one kind of number.

    Each guarded operation raises Python's own error where a guard fails:
    ZeroDivisionError from ``divide``, ValueError from ``ln`` and ``sqrt``,
    OverflowError from ``exp``. The closure raises ``error`` in its place.
    """

    name: str  # the attribute under which a node keeps its closure
    error: type
    divide: Callable
    functions: dict  # FUNCTIONS name -> function


def _over_column(fn):
    """``fn`` mapped over a column; a subtree made only of literals is one float."""

    def column(t):
        if isinstance(t, float):
            return fn(t)
        return np.fromiter(map(fn, t.tolist()), float, len(t))

    return column


def _divide_columns(lhs, rhs):
    if np.any(rhs == 0.0):
        raise ZeroDivisionError
    return lhs / rhs


def _sqrt_column(t):
    if np.any(t < 0.0):
        raise ValueError
    return np.sqrt(t)


_WALK = _Ops(
    "_walk",
    DomainError,
    operator.truediv,
    {"exp": math.exp, "ln": math.log, "atan": math.atan, "sqrt": math.sqrt, "abs": abs},
)
_COLUMNS = _Ops(
    "_columns",
    _GuardTripped,
    _divide_columns,
    {
        "exp": _over_column(math.exp),
        "ln": _over_column(math.log),  # math.log raises ValueError at t <= 0
        "atan": _over_column(math.atan),
        "sqrt": _sqrt_column,
        "abs": np.abs,
    },
)

# A failed function guard's message, given the argument.
_FAILURES = {
    "exp": "exp overflow at argument {}",
    "ln": "ln of non-positive value {}",
    "sqrt": "sqrt of negative value {}",
}


class Expression:
    """Base class for AST nodes; subclasses implement _compile and to_text.

    ``_compile(ops)`` is a node's one definition of its value: a closure
    ``f(x, y)``, where ``x`` and ``y`` index to a variable's value (a Python
    float on the walk and a column on the column pass) and ``ops`` holds the
    functions and the error for that kind of number.
    """

    precedence = _PREC_ATOM
    # The closures `eval` and `eval_rows` run, kept on the node once compiled.
    _walk = _columns = None

    def eval(self, x, y) -> float:
        """The value on one row; DomainError when a guard fails.

        ``x`` and ``y`` are 1-D arrays, or lists of Python floats (rows of
        ``tolist()``).
        """
        if isinstance(x, np.ndarray):
            x, y = x.tolist(), y.tolist()
        return (self._walk or self._keep(_WALK))(x, y)

    def eval_rows(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The (n,) column of values on each row of two (n, dim) stacks.

        Equal bit for bit to ``eval`` row by row; raises _GuardTripped
        instead of DomainError when a guard fails on any row.
        """
        column = (self._columns or self._keep(_COLUMNS))(X.T, Y.T)
        return np.full(len(X), column) if isinstance(column, float) else column

    def _keep(self, ops: _Ops) -> Callable:
        """Compile this node for ``ops`` and keep the closure on it."""
        fn = self.__dict__[ops.name] = self._compile(ops)
        return fn

    def _compile(self, ops: _Ops) -> Callable:
        raise NotImplementedError

    def to_text(self) -> str:
        """Text form (also ``str``) that reparses to an expression with identical values."""
        raise NotImplementedError

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True)
class Literal(Expression):
    value: float

    def _compile(self, ops):
        value = self.value
        return lambda x, y: value

    def to_text(self):
        return repr(self.value)


@dataclass(frozen=True)
class Variable(Expression):
    axis: str  # "x" or "y"
    index: int  # 1-based

    def _compile(self, ops):
        i = self.index - 1
        if self.axis == "x":
            return lambda x, y: x[i]
        return lambda x, y: y[i]

    def to_text(self):
        return f"{self.axis}{self.index}"


@dataclass(frozen=True)
class Negate(Expression):
    operand: Expression
    precedence = _PREC_NEG

    def _compile(self, ops):
        operand = self.operand._compile(ops)
        return lambda x, y: -operand(x, y)

    def to_text(self):
        inner = self.operand.to_text()
        if self.operand.precedence < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str  # one of + - * /
    left: Expression
    right: Expression

    @property
    def precedence(self):
        return _BINDING[self.op]

    def _compile(self, ops):
        left = self.left._compile(ops)
        right = self.right._compile(ops)
        if self.op == "+":
            return lambda x, y: left(x, y) + right(x, y)
        if self.op == "-":
            return lambda x, y: left(x, y) - right(x, y)
        if self.op == "*":
            return lambda x, y: left(x, y) * right(x, y)
        divide, error = ops.divide, ops.error

        def quotient(x, y):
            lhs = left(x, y)
            rhs = right(x, y)
            try:
                return divide(lhs, rhs)
            except ZeroDivisionError:
                raise error(f"division by zero in {self.to_text()!r}") from None

        return quotient

    def to_text(self):
        lhs = self.left.to_text()
        rhs = self.right.to_text()
        if self.left.precedence < self.precedence:
            lhs = f"({lhs})"
        # parenthesize equal precedence on the right to keep left associativity
        if self.right.precedence <= self.precedence:
            rhs = f"({rhs})"
        return f"{lhs} {self.op} {rhs}"


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str
    arg: Expression

    def _compile(self, ops):
        arg = self.arg._compile(ops)
        fn, error, failure = ops.functions[self.name], ops.error, _FAILURES.get(self.name)

        def call(x, y):
            t = arg(x, y)
            try:
                return fn(t)
            except (ValueError, OverflowError):  # atan and abs never raise
                raise error(failure.format(t)) from None

        return call

    def to_text(self):
        return f"{self.name}({self.arg.to_text()})"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tuples of ``text``, ending with an EOF token.

    Kinds are NUMBER IDENT OP LPAREN RPAREN EOF.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "BAD":
            raise ExpressionError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("EOF", "", len(text)))
    return tokens


def _too_deep(pos: int) -> ExpressionError:
    return ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels", pos)


class _Parser:
    """Precedence climbing over the grammar. `expr` and `factor` return a
    node and its depth in MAX_DEPTH's levels, and reject a node deeper than
    the limit as it is built. A group (parentheses, a call or a minus sign)
    is refused on entry once MAX_DEPTH groups are open, before the parser
    recurses into it."""

    def __init__(self, text: str, dim: int):
        self.tokens = _tokenize(text)
        self.dim = dim
        self.k = 0
        self.open_groups = 0

    def parse(self) -> Expression:
        node, _ = self.expr(_PREC_ADD)
        kind, text, pos = self.tokens[self.k]
        if kind != "EOF":
            raise ExpressionError(f"unexpected token {text!r}", pos)
        return node

    def expr(self, binding: int) -> tuple[Expression, int]:
        """A left-associative chain of operators that bind at least as
        tightly as ``binding``."""
        node, depth = self.factor()
        tokens = self.tokens
        while True:
            _, op, pos = tokens[self.k]
            power = _BINDING.get(op, 0)
            if power < binding:
                return node, depth
            self.k += 1
            # an operand of the tightest operators is a factor
            right, right_depth = self.expr(power + 1) if power < _PREC_MUL else self.factor()
            depth = 1 + max(depth, right_depth)
            if depth > MAX_DEPTH:
                raise _too_deep(pos)
            node = BinaryOp(op, node, right)

    def factor(self) -> tuple[Expression, int]:
        # A minus sign, a call and a parenthesized expression are each one
        # group, so each level of nesting costs the same few frames.
        kind, text, pos = self.tokens[self.k]
        self.k += 1
        if kind == "NUMBER":
            return Literal(float(text)), 1
        if kind == "IDENT" and text not in FUNCTIONS:
            return self.variable(text, pos), 1
        if kind == "IDENT":
            opener, _, opener_pos = self.tokens[self.k]
            self.k += 1
            if opener != "LPAREN":
                raise ExpressionError(
                    f"function {text!r} needs a parenthesized argument", opener_pos
                )
        elif kind == "EOF":
            raise ExpressionError("unexpected end of input", pos)
        elif kind != "LPAREN" and text != "-":
            raise ExpressionError(f"unexpected token {text!r}", pos)
        self.open_groups += 1
        if self.open_groups + 1 > MAX_DEPTH:  # its contents are a level more
            raise _too_deep(pos)
        if text == "-":
            node, depth = self.factor()
            node = Negate(node)
        else:
            node, depth = self.expr(_PREC_ADD)
            closing, _, closing_pos = self.tokens[self.k]
            self.k += 1
            if closing != "RPAREN":
                raise ExpressionError("expected ')'", closing_pos)
            if kind == "IDENT":
                node = FunctionCall(text, node)
        self.open_groups -= 1
        if depth + 1 > MAX_DEPTH:
            raise _too_deep(pos)
        return node, depth + 1

    def variable(self, text: str, pos: int) -> Variable:
        m = _VARIABLE_RE.match(text)
        if m:
            index = int(m.group(2))
            if not 1 <= index <= self.dim:
                raise ExpressionError(
                    f"unknown variable {text!r} (indices run 1..{self.dim})", pos
                )
            return Variable(m.group(1), index)
        raise ExpressionError(f"unknown identifier {text!r}", pos)


def parse_expression(text: str, dim: int) -> Expression:
    """Parse one scalar-valued expression over x1..xd, y1..yd.

    ExpressionError for text deeper than MAX_DEPTH levels.
    """
    return _Parser(text, dim).parse()


def evaluate_components(exprs: list[Expression], x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The map whose coordinates are ``exprs``, on two (n, dim) row stacks.

    Returns the (n, len(exprs)) stack of images, row k equal bit for bit to
    the walk on row k. A stack of at most WALK_ROWS rows, or one on which a
    guard trips, is evaluated row by row with the walk: the first row that
    raises raises its DomainError, and the stack returned stops after the
    first row with a non-finite image (later rows are NaN), so that the
    caller's finiteness check names that row.
    """
    if len(x) > WALK_ROWS:
        try:
            with np.errstate(all="ignore"):  # overflow to inf, as on Python floats
                return np.stack([e.eval_rows(x, y) for e in exprs], axis=1)
        except _GuardTripped:
            pass
    rows = []
    for xk, yk in zip(x.tolist(), y.tolist()):
        rows.append([e.eval(xk, yk) for e in exprs])
        if not all(map(math.isfinite, rows[-1])):
            rows += [[math.nan] * len(exprs)] * (len(x) - len(rows))
            break
    return np.array(rows, float).reshape(len(x), len(exprs))
