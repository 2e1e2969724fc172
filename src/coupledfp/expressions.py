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

Every node evaluates two ways, with the same floats:

* ``eval`` walks the tree once for one row (two 1-D arrays), on Python
  floats. Stacks of at most WALK_ROWS rows (one-row calls, one seed's
  iteration steps) use it: on a 4-D map with a dozen function calls
  the tree walk takes about 20-30 us per row, a stacked call about
  110-170 us on up to 8 rows, and about 1 us per row on a stack of 16k
  rows (one core of a 2-core x86-64 VM, numpy 2.4).
* ``eval_rows`` evaluates two (n, dim) row stacks at once and returns an
  (n,) column. ``+ - * /``, negation, ``abs`` and ``sqrt`` are numpy ufuncs,
  which round exactly as the same operations on Python floats. ``exp``,
  ``ln`` and ``atan`` map ``math.exp``, ``math.log`` and ``math.atan`` over
  the column. On 10^6 uniform random arguments ``np.exp``, ``np.log`` and
  ``np.arctan`` differ from them in the last bit on 4.6%, 0.10% and 0.14%
  (``np.sqrt`` on none), which would change printed margins.

`evaluate_components` picks between them by the number of rows. When a
domain guard trips anywhere in a stack, it re-runs the stack row by row with
the tree walk, so the first bad row fails with the tree walk's message.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExpressionError

FUNCTIONS = ("exp", "ln", "atan", "sqrt", "abs")

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
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


def _map_math(fn, t: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, t.tolist()), float, len(t))


class Expression:
    """Base class for AST nodes; subclasses implement eval, eval_rows and to_text."""

    precedence = _PREC_ATOM

    def eval(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def eval_rows(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The (n,) column of values on each row of two (n, dim) stacks.

        Equal bit for bit to ``eval`` row by row; raises _GuardTripped
        instead of DomainError when a guard fails on any row.
        """
        raise NotImplementedError

    def to_text(self) -> str:
        """Text form (also ``str``) that reparses to an expression with identical values."""
        raise NotImplementedError

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True)
class Literal(Expression):
    value: float

    def eval(self, x, y):
        return self.value

    def eval_rows(self, X, Y):
        return np.full(len(X), self.value)

    def to_text(self):
        return repr(self.value)


@dataclass(frozen=True)
class Variable(Expression):
    axis: str  # "x" or "y"
    index: int  # 1-based

    def eval(self, x, y):
        vec = x if self.axis == "x" else y
        return float(vec[self.index - 1])

    def eval_rows(self, X, Y):
        return (X if self.axis == "x" else Y)[:, self.index - 1]

    def to_text(self):
        return f"{self.axis}{self.index}"


@dataclass(frozen=True)
class Negate(Expression):
    operand: Expression
    precedence = _PREC_NEG

    def eval(self, x, y):
        return -self.operand.eval(x, y)

    def eval_rows(self, X, Y):
        return -self.operand.eval_rows(X, Y)

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

    def eval(self, x, y):
        lhs = self.left.eval(x, y)
        rhs = self.right.eval(x, y)
        if self.op == "+":
            return lhs + rhs
        if self.op == "-":
            return lhs - rhs
        if self.op == "*":
            return lhs * rhs
        if rhs == 0.0:
            raise DomainError(f"division by zero in {self.to_text()!r}")
        return lhs / rhs

    def eval_rows(self, X, Y):
        lhs = self.left.eval_rows(X, Y)
        rhs = self.right.eval_rows(X, Y)
        if self.op == "+":
            return lhs + rhs
        if self.op == "-":
            return lhs - rhs
        if self.op == "*":
            return lhs * rhs
        if np.any(rhs == 0.0):
            raise _GuardTripped
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

    def eval(self, x, y):
        t = self.arg.eval(x, y)
        if self.name == "exp":
            try:
                return math.exp(t)
            except OverflowError as exc:
                raise DomainError(f"exp overflow at argument {t}") from exc
        if self.name == "ln":
            if t <= 0.0:
                raise DomainError(f"ln of non-positive value {t}")
            return math.log(t)
        if self.name == "atan":
            return math.atan(t)
        if self.name == "sqrt":
            if t < 0.0:
                raise DomainError(f"sqrt of negative value {t}")
            return math.sqrt(t)
        return abs(t)

    def eval_rows(self, X, Y):
        t = self.arg.eval_rows(X, Y)
        if self.name == "exp":
            try:
                return _map_math(math.exp, t)
            except OverflowError:
                raise _GuardTripped from None
        if self.name == "ln":
            if np.any(t <= 0.0):
                raise _GuardTripped
            return _map_math(math.log, t)
        if self.name == "atan":
            return _map_math(math.atan, t)
        if self.name == "sqrt":
            if np.any(t < 0.0):
                raise _GuardTripped
            return np.sqrt(t)
        return np.abs(t)

    def to_text(self):
        return f"{self.name}({self.arg.to_text()})"


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER IDENT OP LPAREN RPAREN EOF
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("NUMBER", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("IDENT", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("LPAREN", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("RPAREN", ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("EOF", "", n))
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
