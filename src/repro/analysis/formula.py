"""A small expression language for derived metrics (§V-B).

Users define new metrics with formulas over existing ones::

    derive(tree, "cpi", "cycles / instructions")
    derive(tree, "mpki", "1000 * cache_misses / instructions")
    derive(tree, "mem_scaling", "inclusive.bytes@2 / inclusive.bytes@1")

The grammar (classic recursive descent over a hand-rolled token stream):

    expr     := compare
    compare  := sum ((">" | "<" | ">=" | "<=" | "==" | "!=") sum)?
    sum      := term (("+" | "-") term)*
    term     := unary (("*" | "/" | "%") unary)*
    unary    := ("-" | "+") unary | power
    power    := primary ("^" unary)?            # right-associative
    primary  := NUMBER | IDENT | IDENT "(" args ")" | "(" expr ")"
    args     := expr ("," expr)*

Comparisons evaluate to 1.0/0.0 and pair naturally with ``if``:
``if(cache_misses / instructions > 0.02, cycles, 0)`` keeps a metric only
where the miss rate is pathological.

Identifiers name metrics; dotted/at-suffixed names (``inclusive.bytes@2``)
are resolved by the environment, letting multi-profile views expose
per-profile columns.  Metric names with spaces can be backtick-quoted.
Evaluation never raises on values: division or modulo by zero, ``0 ^ -1``,
a negative base to a fractional power, an overflowing power and
``inf % x`` all evaluate to 0.  Profiles are full of contexts where the
denominator metric was never measured, and a viewer must keep rendering.

Built-in functions: ``min``, ``max``, ``abs``, ``sqrt``, ``log``, ``log2``,
``log10``, ``if`` (``if(cond, then, else)`` with nonzero = true).

:func:`derive` evaluates a formula once per view node.  On a columnar-
backed view it runs :func:`evaluate_columns` over the value matrix
instead, which yields the same float64 bits as :func:`evaluate` row by
row; the scalar evaluator stays as the object path and the test oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.metric import Aggregation, Metric
from ..errors import FormulaError, Span
from . import viewtree_columnar
from .viewtree import ViewTree


class TokenKind(enum.Enum):
    NUMBER = "number"
    IDENT = "ident"
    OP = "op"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    END = "end"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    position: int
    #: One past the last source character of the token (backquoted names
    #: include the quotes, so this can exceed ``position + len(text)``).
    end: int = -1

    def span(self) -> Span:
        end = self.end if self.end >= 0 else self.position + len(self.text)
        return Span(self.position, max(end, self.position + 1))


_OPS = set("+-*/%^")
_COMPARE_OPS = frozenset((">", "<", ">=", "<=", "==", "!="))
_IDENT_EXTRA = set("._@$:")


def tokenize(source: str) -> List[Token]:
    """Split a formula into tokens; raises FormulaError on bad input."""
    tokens: List[Token] = []
    pos = 0
    length = len(source)
    while pos < length:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < length
                            and source[pos + 1].isdigit()):
            start = pos
            seen_dot = False
            seen_exp = False
            while pos < length:
                ch = source[pos]
                if ch.isdigit():
                    pos += 1
                elif ch == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    pos += 1
                elif ch in "eE" and not seen_exp and pos > start:
                    seen_exp = True
                    pos += 1
                    if pos < length and source[pos] in "+-":
                        pos += 1
                else:
                    break
            tokens.append(Token(TokenKind.NUMBER, source[start:pos], start,
                                pos))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < length and (source[pos].isalnum()
                                    or source[pos] in _IDENT_EXTRA):
                pos += 1
            tokens.append(Token(TokenKind.IDENT, source[start:pos], start,
                                pos))
            continue
        if ch == "`":
            end = source.find("`", pos + 1)
            if end < 0:
                raise FormulaError("unterminated backquoted name at %d" % pos,
                                   span=Span(pos, length))
            tokens.append(Token(TokenKind.IDENT, source[pos + 1:end], pos,
                                end + 1))
            pos = end + 1
            continue
        if ch in "<>!=":
            if pos + 1 < length and source[pos + 1] == "=":
                op = source[pos:pos + 2]
                if op not in _COMPARE_OPS:
                    raise FormulaError("unknown operator %r at %d"
                                       % (op, pos), span=Span(pos, pos + 2))
                tokens.append(Token(TokenKind.OP, op, pos, pos + 2))
                pos += 2
                continue
            if ch in "<>":
                tokens.append(Token(TokenKind.OP, ch, pos, pos + 1))
                pos += 1
                continue
            raise FormulaError("unexpected character %r at position %d"
                               % (ch, pos), span=Span.point(pos))
        if ch in _OPS:
            tokens.append(Token(TokenKind.OP, ch, pos, pos + 1))
            pos += 1
            continue
        if ch == "(":
            tokens.append(Token(TokenKind.LPAREN, ch, pos, pos + 1))
            pos += 1
            continue
        if ch == ")":
            tokens.append(Token(TokenKind.RPAREN, ch, pos, pos + 1))
            pos += 1
            continue
        if ch == ",":
            tokens.append(Token(TokenKind.COMMA, ch, pos, pos + 1))
            pos += 1
            continue
        raise FormulaError("unexpected character %r at position %d"
                           % (ch, pos), span=Span.point(pos))
    tokens.append(Token(TokenKind.END, "", length, length))
    return tokens


# -- AST ---------------------------------------------------------------------


#: AST nodes carry the character span of the source text they were parsed
#: from (``None`` only for hand-built nodes), enabling exact error carets
#: and the character-precise diagnostics of :mod:`repro.lint`.


@dataclass(frozen=True)
class Num:
    value: float
    span: Optional[Span] = None


@dataclass(frozen=True)
class Ref:
    name: str
    span: Optional[Span] = None


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"
    span: Optional[Span] = None


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"
    span: Optional[Span] = None


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    span: Optional[Span] = None


Expr = Union[Num, Ref, Unary, Binary, Call]


def _join(left: Optional[Span], right: Optional[Span]) -> Optional[Span]:
    """The smallest span covering two operand spans (None-tolerant)."""
    if left is None or right is None:
        return left or right
    return Span(left.start, right.end)


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: List[Token], source: str) -> None:
        self._tokens = tokens
        self._pos = 0
        self._source = source

    def parse(self) -> Expr:
        expr = self._expr()
        tok = self._peek()
        if tok.kind is not TokenKind.END:
            raise FormulaError("unexpected %r at position %d in %r"
                               % (tok.text, tok.position, self._source),
                               span=tok.span())
        return expr

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: TokenKind) -> Token:
        tok = self._advance()
        if tok.kind is not kind:
            raise FormulaError("expected %s but found %r at position %d"
                               % (kind.value, tok.text, tok.position),
                               span=tok.span())
        return tok

    def _expr(self) -> Expr:
        left = self._sum()
        tok = self._peek()
        if tok.kind is TokenKind.OP and tok.text in _COMPARE_OPS:
            op = self._advance().text
            right = self._sum()
            return Binary(op, left, right, span=_join(left.span, right.span))
        return left

    def _sum(self) -> Expr:
        left = self._term()
        while (self._peek().kind is TokenKind.OP
               and self._peek().text in "+-"):
            op = self._advance().text
            right = self._term()
            left = Binary(op, left, right, span=_join(left.span, right.span))
        return left

    def _term(self) -> Expr:
        left = self._unary()
        while (self._peek().kind is TokenKind.OP
               and self._peek().text in "*/%"):
            op = self._advance().text
            right = self._unary()
            left = Binary(op, left, right, span=_join(left.span, right.span))
        return left

    def _unary(self) -> Expr:
        tok = self._peek()
        if tok.kind is TokenKind.OP and tok.text in "+-":
            self._advance()
            operand = self._unary()
            return Unary(tok.text, operand,
                         span=_join(tok.span(), operand.span))
        return self._power()

    def _power(self) -> Expr:
        base = self._primary()
        tok = self._peek()
        if tok.kind is TokenKind.OP and tok.text == "^":
            self._advance()
            exponent = self._unary()
            return Binary("^", base, exponent,
                          span=_join(base.span, exponent.span))
        return base

    def _primary(self) -> Expr:
        tok = self._advance()
        if tok.kind is TokenKind.NUMBER:
            return Num(float(tok.text), span=tok.span())
        if tok.kind is TokenKind.IDENT:
            if self._peek().kind is TokenKind.LPAREN:
                self._advance()
                args: List[Expr] = []
                if self._peek().kind is not TokenKind.RPAREN:
                    args.append(self._expr())
                    while self._peek().kind is TokenKind.COMMA:
                        self._advance()
                        args.append(self._expr())
                rparen = self._expect(TokenKind.RPAREN)
                return Call(tok.text, tuple(args),
                            span=Span(tok.position, rparen.span().end))
            return Ref(tok.text, span=tok.span())
        if tok.kind is TokenKind.LPAREN:
            expr = self._expr()
            rparen = self._expect(TokenKind.RPAREN)
            return replace(expr, span=Span(tok.position, rparen.span().end))
        raise FormulaError("unexpected %r at position %d"
                           % (tok.text or "end of input", tok.position),
                           span=tok.span())


def parse(source: str) -> Expr:
    """Parse a formula into its AST."""
    return _Parser(tokenize(source), source).parse()


# -- evaluation ---------------------------------------------------------------


def _power(left: float, right: float) -> float:
    """``left ^ right``; 0 where Python's ``**`` raises or leaves the reals."""
    try:
        result = left ** right
    except (OverflowError, ZeroDivisionError):
        return 0.0
    # A negative base to a fractional power is complex in Python 3.
    return 0.0 if isinstance(result, complex) else float(result)


def _modulo(left: float, right: float) -> float:
    """``left % right`` as C ``fmod``; 0 for a zero divisor or ``inf % x``."""
    if not right:
        return 0.0
    try:
        return math.fmod(left, right)
    except ValueError:
        return 0.0


_FUNCTIONS: Dict[str, Callable[..., float]] = {
    "min": min,
    "max": max,
    "abs": abs,
    "sqrt": lambda x: math.sqrt(x) if x >= 0 else 0.0,
    "log": lambda x: math.log(x) if x > 0 else 0.0,
    "log2": lambda x: math.log2(x) if x > 0 else 0.0,
    "log10": lambda x: math.log10(x) if x > 0 else 0.0,
    "if": lambda cond, then, other: then if cond else other,
}

_ARITY = {"min": 2, "max": 2, "abs": 1, "sqrt": 1, "log": 1, "log2": 1,
          "log10": 1, "if": 3}


def _unknown_metric(expr: Ref, names) -> FormulaError:
    return FormulaError("unknown metric %r (have: %s)" % (
        expr.name, ", ".join(sorted(names))), span=expr.span)


def _check_call(expr: Call) -> None:
    """Raise for an unknown function or a wrong argument count."""
    if expr.name not in _FUNCTIONS:
        raise FormulaError("unknown function %r (have: %s)" % (
            expr.name, ", ".join(sorted(_FUNCTIONS))), span=expr.span)
    expected = _ARITY[expr.name]
    if len(expr.args) != expected:
        raise FormulaError("%s() takes %d arguments, got %d"
                           % (expr.name, expected, len(expr.args)),
                           span=expr.span)


def evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate an AST against a name→value environment.

    Unknown names, unknown functions and wrong arities raise
    :class:`FormulaError`; values never raise (see module docstring).
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Ref):
        try:
            return float(env[expr.name])
        except KeyError:
            raise _unknown_metric(expr, env) from None
    if isinstance(expr, Unary):
        value = evaluate(expr.operand, env)
        return -value if expr.op == "-" else value
    if isinstance(expr, Binary):
        left = evaluate(expr.left, env)
        right = evaluate(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right if right else 0.0
        if expr.op == "%":
            return _modulo(left, right)
        if expr.op == "^":
            return _power(left, right)
        if expr.op in _COMPARE_OPS:
            result = {
                ">": left > right, "<": left < right,
                ">=": left >= right, "<=": left <= right,
                "==": left == right, "!=": left != right,
            }[expr.op]
            return 1.0 if result else 0.0
        raise FormulaError("unknown operator %r" % expr.op)
    if isinstance(expr, Call):
        _check_call(expr)
        fn = _FUNCTIONS[expr.name]
        return float(fn(*(evaluate(arg, env) for arg in expr.args)))
    raise FormulaError("unevaluable node %r" % (expr,))


def evaluate_str(source: str, env: Mapping[str, float]) -> float:
    """Parse and evaluate in one step."""
    return evaluate(parse(source), env)


# -- column-wise evaluation -----------------------------------------------------

_ARRAY_ARITHMETIC = {"+": "add", "-": "subtract", "*": "multiply"}
_ARRAY_COMPARE = {">": "greater", "<": "less", ">=": "greater_equal",
                  "<=": "less_equal", "==": "equal", "!=": "not_equal"}


def _elementwise(fn: Callable[..., float], *columns):
    """Apply a scalar function row by row (exact, never vectorized)."""
    rows = [column.tolist() for column in columns]
    return np.array([fn(*cells) for cells in zip(*rows)], dtype=np.float64)


def evaluate_columns(expr: Expr, env: Mapping[str, object], rows: int):
    """Evaluate an AST over whole columns: ``env`` maps names to float64
    arrays of length ``rows``; returns a float64 array of that length,
    possibly one of ``env``'s own (copy before writing into it).

    Row ``i`` of the result has the same bits as :func:`evaluate` over row
    ``i`` of the environment: ``+ - * /`` and comparisons are numpy
    operations with the scalar IEEE semantics, ``min``/``max``/``if``
    select with the scalar argument-order rules, and ``^``, ``%``,
    ``sqrt`` and the logarithms run the scalar functions per row (numpy's
    versions differ on NaN, on negative bases and in the last ulp).

    One thing no evaluator fixes: which payload survives ``+`` or ``*``
    of two NaNs.  CPython keeps the second operand's until the adaptive
    interpreter specializes the bytecode, then the first (numpy's), so
    NaN payloads are equal only up to that choice.
    """
    if isinstance(expr, Num):
        return np.full(rows, expr.value, dtype=np.float64)
    if isinstance(expr, Ref):
        try:
            return np.asarray(env[expr.name], dtype=np.float64)
        except KeyError:
            raise _unknown_metric(expr, env) from None
    if isinstance(expr, Unary):
        value = evaluate_columns(expr.operand, env, rows)
        return np.negative(value) if expr.op == "-" else value
    if isinstance(expr, Binary):
        left = evaluate_columns(expr.left, env, rows)
        right = evaluate_columns(expr.right, env, rows)
        op = expr.op
        with np.errstate(all="ignore"):
            if op in _ARRAY_ARITHMETIC:
                return getattr(np, _ARRAY_ARITHMETIC[op])(left, right)
            if op == "/":
                return np.where(right != 0, left / right, 0.0)
        if op == "%":
            return _elementwise(_modulo, left, right)
        if op == "^":
            return _elementwise(_power, left, right)
        if op in _ARRAY_COMPARE:
            return getattr(np, _ARRAY_COMPARE[op])(left, right).astype(
                np.float64)
        raise FormulaError("unknown operator %r" % op)
    if isinstance(expr, Call):
        _check_call(expr)
        args = [evaluate_columns(arg, env, rows) for arg in expr.args]
        name = expr.name
        if name == "min":   # min(a, b) is b only when b < a (NaN keeps a)
            return np.where(args[1] < args[0], args[1], args[0])
        if name == "max":
            return np.where(args[1] > args[0], args[1], args[0])
        if name == "abs":
            return np.abs(args[0])
        if name == "if":    # NaN is a true condition, as in Python
            return np.where(args[0] != 0, args[1], args[2])
        return _elementwise(_FUNCTIONS[name], *args)
    raise FormulaError("unevaluable node %r" % (expr,))


def derive(tree: ViewTree, name: str, formula: str, unit: str = "",
           description: str = "", inclusive: bool = True,
           aggregation: Aggregation = Aggregation.SUM) -> int:
    """Add a derived metric column to a view tree via a formula.

    The formula is evaluated per node against that node's existing metric
    values (inclusive by default; absent values read as 0).  Deriving an
    existing name again recomputes its column.  Returns the column index.
    A formula error raises before anything changes.

    The formula runs once over the value matrix and the column lands
    copy-on-write (see :func:`~repro.analysis.viewtree_columnar.
    add_column`), so the tree keeps its arrays.
    """
    # Lazy import: the engine depends on this package.
    from ..engine import forget_everywhere
    names = tree.schema.names()
    expr, index = declare(tree, name, formula, unit, description,
                          aggregation)
    cvt = tree.columnar()
    plane = "inclusive" if inclusive else "exclusive"
    env = {metric_name: viewtree_columnar.value_column(cvt, i, plane)
           for i, metric_name in enumerate(names)}
    viewtree_columnar.add_column(
        tree, index, evaluate_columns(expr, env, cvt.n_rows), inclusive)
    # The content changed: no engine may keep serving the tree under its
    # pre-mutation key, and the key moves on by this derivation.
    forget_everywhere(tree, "derive", name, formula, unit, description,
                      inclusive, int(aggregation))
    return index


def declare(tree, name: str, formula: str, unit: str, description: str,
            aggregation: Aggregation) -> Tuple[Expr, int]:
    """Parse ``formula`` and add its metric to the tree's schema: the
    parsed expression and the column index.  The formula's name,
    function and arity errors raise before the schema changes."""
    expr = parse(formula)
    # Values never raise, so one evaluation over zeros raises exactly the
    # name, function and arity errors.
    evaluate(expr, dict.fromkeys(tree.schema.names(), 0.0))
    index = tree.schema.add(Metric(name=name, unit=unit,
                                   description=description or formula,
                                   aggregation=aggregation))
    return expr, index
