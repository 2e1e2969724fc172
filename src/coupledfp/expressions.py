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

Each node's value has one definition, ``_eval(x, y, ops)``, run with one of
two operation sets on the same floats:

* ``eval`` walks the tree once for one row (two 1-D arrays), on Python
  floats: ``math`` functions and the builtin ``abs``, and a failed guard
  raises DomainError. Stacks of at most WALK_ROWS rows (one-row calls, one
  seed's iteration steps) use it: on a 4-D map with a dozen function calls
  the tree walk takes about 20-30 us per row, a stacked call about
  110-170 us on up to 8 rows, and about 1 us per row on a stack of 16k
  rows (one core of a 2-core x86-64 VM, numpy 2.4).
* ``eval_rows`` runs the same code on the columns of two (n, dim) row
  stacks and returns an (n,) column; a guard that fails on any row raises
  _GuardTripped. ``+ - * /``, negation, ``abs`` and ``sqrt`` are numpy
  ufuncs, which round exactly as the same operations on Python floats.
  ``exp``, ``ln`` and ``atan`` map ``math.exp``, ``math.log`` and
  ``math.atan`` over the column. On 10^6 uniform random arguments
  ``np.exp``, ``np.log`` and ``np.arctan`` differ from them in the last bit
  on 4.6%, 0.10% and 0.14% (``np.sqrt`` on none), which would change
  printed margins.

`evaluate_components` picks between them by the number of rows. When a
domain guard trips anywhere in a stack, it re-runs the stack row by row with
the tree walk, so the first bad row fails with the tree walk's message.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ExpressionError

FUNCTIONS = ("exp", "ln", "atan", "sqrt", "abs")

# One alternative per token kind, tried in this order at each offset.
_TOKEN_RE = re.compile(
    r"(?P<SPACE>[ \t\r\n]+)"
    r"|(?P<NUMBER>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<OP>[-+*/])"
    r"|(?P<LPAREN>\()"
    r"|(?P<RPAREN>\))"
    r"|(?P<BAD>.)",
    re.DOTALL,
)
_VARIABLE_RE = re.compile(r"([xy])([0-9]+)\Z")

# precedence levels used when inserting parentheses on serialization
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_ATOM = 1, 2, 3, 4

# Stacks of at most this many rows take the row-by-row tree walk. The walk
# and a stacked call cost the same at 3 to 6 rows on the shipped expression
# configs (1-D ln, 2-D and 4-D; one core of a 2-core x86-64 VM, numpy 2.4),
# and a one-seed iteration step is a 2-row stack.
WALK_ROWS = 4


class _GuardTripped(Exception):
    """A domain guard failed on some row of a stack (see evaluate_components)."""


@dataclass(frozen=True)
class _Ops:
    """The operations `Expression._eval` runs with on one kind of number."""

    any: Callable  # a guard's condition -> whether it holds on some row
    error: type  # raised with the guard's message when it does
    functions: dict  # FUNCTIONS name -> function


def _over_column(fn):
    """``fn`` mapped over a column; a subtree made only of literals is one float."""

    def column(t):
        if isinstance(t, float):
            return fn(t)
        return np.fromiter(map(fn, t.tolist()), float, len(t))

    return column


_WALK = _Ops(
    bool,
    DomainError,
    {"exp": math.exp, "ln": math.log, "atan": math.atan, "sqrt": math.sqrt, "abs": abs},
)
_COLUMNS = _Ops(
    np.any,
    _GuardTripped,
    {
        "exp": _over_column(math.exp),
        "ln": _over_column(math.log),
        "atan": _over_column(math.atan),
        "sqrt": np.sqrt,
        "abs": np.abs,
    },
)


class Expression:
    """Base class for AST nodes; subclasses implement _eval and to_text.

    ``_eval(x, y, ops)`` is a node's one definition of its value: ``x`` and
    ``y`` index to a variable's value, a Python float on the tree walk and
    a column on the column pass, and ``ops`` holds the functions and the
    guard handling for that kind of number.
    """

    precedence = _PREC_ATOM

    def eval(self, x: np.ndarray, y: np.ndarray) -> float:
        """The value on one row, two 1-D arrays; DomainError when a guard fails."""
        return self._eval(x.tolist(), y.tolist(), _WALK)

    def eval_rows(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The (n,) column of values on each row of two (n, dim) stacks.

        Equal bit for bit to ``eval`` row by row; raises _GuardTripped
        instead of DomainError when a guard fails on any row.
        """
        column = self._eval(X.T, Y.T, _COLUMNS)
        return np.full(len(X), column) if isinstance(column, float) else column

    def _eval(self, x, y, ops: _Ops):
        raise NotImplementedError

    def to_text(self) -> str:
        """Text form (also ``str``) that reparses to an expression with identical values."""
        raise NotImplementedError

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True)
class Literal(Expression):
    value: float

    def _eval(self, x, y, ops):
        return self.value

    def to_text(self):
        return repr(self.value)


@dataclass(frozen=True)
class Variable(Expression):
    axis: str  # "x" or "y"
    index: int  # 1-based

    def _eval(self, x, y, ops):
        return (x if self.axis == "x" else y)[self.index - 1]

    def to_text(self):
        return f"{self.axis}{self.index}"


@dataclass(frozen=True)
class Negate(Expression):
    operand: Expression
    precedence = _PREC_NEG

    def _eval(self, x, y, ops):
        return -self.operand._eval(x, y, ops)

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
        return _PREC_ADD if self.op in "+-" else _PREC_MUL

    def _eval(self, x, y, ops):
        lhs = self.left._eval(x, y, ops)
        rhs = self.right._eval(x, y, ops)
        if self.op == "+":
            return lhs + rhs
        if self.op == "-":
            return lhs - rhs
        if self.op == "*":
            return lhs * rhs
        if ops.any(rhs == 0.0):
            raise ops.error(f"division by zero in {self.to_text()!r}")
        return lhs / rhs

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

    def _eval(self, x, y, ops):
        t = self.arg._eval(x, y, ops)
        if self.name == "ln" and ops.any(t <= 0.0):
            raise ops.error(f"ln of non-positive value {t}")
        if self.name == "sqrt" and ops.any(t < 0.0):
            raise ops.error(f"sqrt of negative value {t}")
        try:
            return ops.functions[self.name](t)
        except OverflowError as exc:  # only exp overflows
            raise ops.error(f"exp overflow at argument {t}") from exc

    def to_text(self):
        return f"{self.name}({self.arg.to_text()})"


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER IDENT OP LPAREN RPAREN EOF
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "BAD":
            raise ExpressionError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup != "SPACE":
            tokens.append(_Token(m.lastgroup, m.group(), m.start()))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int):
        self.tokens = _tokenize(text)
        self.dim = dim
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def parse(self) -> Expression:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "EOF":
            raise ExpressionError(f"unexpected token {tail.text!r}", tail.pos)
        return node

    def expr(self) -> Expression:
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = BinaryOp(op, node, self.term())
        return node

    def term(self) -> Expression:
        node = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = BinaryOp(op, node, self.factor())
        return node

    def factor(self) -> Expression:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Negate(self.factor())
        return self.atom()

    def atom(self) -> Expression:
        tok = self.advance()
        if tok.kind == "NUMBER":
            return Literal(float(tok.text))
        if tok.kind == "LPAREN":
            node = self.expr()
            closing = self.advance()
            if closing.kind != "RPAREN":
                raise ExpressionError("expected ')'", closing.pos)
            return node
        if tok.kind == "IDENT":
            return self.identifier(tok)
        if tok.kind == "EOF":
            raise ExpressionError("unexpected end of input", tok.pos)
        raise ExpressionError(f"unexpected token {tok.text!r}", tok.pos)

    def identifier(self, tok: _Token) -> Expression:
        if tok.text in FUNCTIONS:
            opener = self.advance()
            if opener.kind != "LPAREN":
                raise ExpressionError(
                    f"function {tok.text!r} needs a parenthesized argument", opener.pos
                )
            arg = self.expr()
            closing = self.advance()
            if closing.kind != "RPAREN":
                raise ExpressionError("expected ')'", closing.pos)
            return FunctionCall(tok.text, arg)
        m = _VARIABLE_RE.match(tok.text)
        if m:
            index = int(m.group(2))
            if not 1 <= index <= self.dim:
                raise ExpressionError(
                    f"unknown variable {tok.text!r} (indices run 1..{self.dim})",
                    tok.pos,
                )
            return Variable(m.group(1), index)
        raise ExpressionError(f"unknown identifier {tok.text!r}", tok.pos)


def parse_expression(text: str, dim: int) -> Expression:
    """Parse one scalar-valued expression over x1..xd, y1..yd."""
    return _Parser(text, dim).parse()


def evaluate_components(exprs: list[Expression], x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The map whose coordinates are ``exprs``, on two (n, dim) row stacks.

    Returns the (n, len(exprs)) stack of images, row k equal bit for bit to
    the tree walk on row k. A stack of at most WALK_ROWS rows, or one on
    which a guard trips, is evaluated row by row with the tree walk: the
    first row that raises raises its DomainError, and the stack returned
    stops after the first row with a non-finite image (later rows are NaN),
    so that the caller's finiteness check names that row.
    """
    if len(x) > WALK_ROWS:
        try:
            with np.errstate(all="ignore"):  # overflow to inf, as on Python floats
                return np.stack([e.eval_rows(x, y) for e in exprs], axis=1)
        except _GuardTripped:
            pass
    out = np.full((len(x), len(exprs)), np.nan)
    for k in range(len(x)):
        out[k] = [e.eval(x[k], y[k]) for e in exprs]
        if not np.all(np.isfinite(out[k])):
            break
    return out
