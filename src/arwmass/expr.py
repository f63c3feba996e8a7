"""Scalar expression trees: parse, evaluate, differentiate, substitute, print.

Grammar (no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' NUMBER | '-' unary | power     # '-' NUMBER unless '^' follows
    power  := atom ('^' unary)?        # right-associative, binds tighter than unary minus
    atom   := NUMBER | 'pi' | NAME | NAME '(' expr ')' | '(' expr ')'

so ``-x^2`` parses as ``-(x^2)``, ``-1.5`` as Num(-1.5) and ``-(1.5)`` as
Neg(Num(1.5)).  Known functions: exp, log, sin, cos, tan, sqrt, abs.
A tree deeper than MAX_DEPTH levels is a ParseError, and so is a text
nested deeper than 2 MAX_DEPTH levels of minus signs, parentheses, calls
and exponents (the nesting of a printed tree is at most twice its depth):
the walks below recurse once per level, and a derivative is deeper than
its expression.
``a^b`` with a non-integer exponent means exp(b*log(a)) and requires a > 0;
integer exponents follow ordinary powers (negative bases allowed).

Differentiation returns a closed expression in the same grammar, and it is
sparse: a subtree free of the variable has derivative Num(0.0), which drops
every product term it would multiply, and a factor Num(1.0) is dropped from
its product; the power rule of a literal exponent b writes b a^(b-1)
without a^1, a^0 or a factor 1, exactly (a^1 = a and a^0 = 1 for every
float a).  Every term it keeps is the full product- or chain-rule term,
so wherever the full derivative evaluates finite the sparse one has the
same value; it raises at most where the full one raises, since the dropped
terms can raise on their own (0.0 * log(-tau) at tau > 0).  The only other
simplification is constant folding: subtrees without free variables
collapse to literals, everything else is left alone.

Trees compile to plain Python functions.  ``compile_jet`` compiles a whole
list of trees at once, typically a field's value, gradient and Hessian, into
one :class:`Program` that evaluates every distinct subtree once (derivative
trees repeat the same subtrees dozens of times).  The same source runs in two
forms: on floats, calling the helpers ``evaluate`` calls, so every result
is bit-identical to ``evaluate``; and on numpy arrays, with vectorized
domain checks that raise DomainError wherever some element would make the
scalar form raise (overflow included).  Calling the program picks the form.
A power whose exponent is a finite integer literal is known to be an
integer power when the program is built, so on arrays it is np.power
followed by the overflow check on finite bases.
"""

from __future__ import annotations

import math
import re
import types
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "Expression",
    "Num",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExpressionError",
    "ParseError",
    "EvaluationError",
    "UnboundVariableError",
    "DomainError",
    "parse",
    "evaluate",
    "differentiate",
    "substitute",
    "to_source",
    "free_variables",
    "fold_constants",
    "compile_expression",
    "compile_jet",
    "Program",
]

FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "sqrt", "abs")
CONSTANTS = {"pi": math.pi}


class ExpressionError(Exception):
    """Base class for every error raised by this module."""


class ParseError(ExpressionError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = frozenset(expected)


class EvaluationError(ExpressionError):
    pass


class UnboundVariableError(EvaluationError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class DomainError(EvaluationError):
    pass


# ---------------------------------------------------------------------------
# AST nodes


class Expression:
    """Base node.  Operator overloads build trees without the parser."""

    __slots__ = ()

    def __add__(self, other):
        return BinOp("+", self, _coerce(other))

    def __radd__(self, other):
        return BinOp("+", _coerce(other), self)

    def __sub__(self, other):
        return BinOp("-", self, _coerce(other))

    def __rsub__(self, other):
        return BinOp("-", _coerce(other), self)

    def __mul__(self, other):
        return BinOp("*", self, _coerce(other))

    def __rmul__(self, other):
        return BinOp("*", _coerce(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, _coerce(other))

    def __rtruediv__(self, other):
        return BinOp("/", _coerce(other), self)

    def __pow__(self, other):
        return BinOp("^", self, _coerce(other))

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return to_source(self)


def _coerce(value) -> "Expression":
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)):
        return Num(float(value))
    raise TypeError(f"cannot use {value!r} in an expression")


@dataclass(frozen=True, slots=True)
class Num(Expression):
    value: float


@dataclass(frozen=True, slots=True)
class Const(Expression):
    """Named constant (currently only pi)."""

    name: str


@dataclass(frozen=True, slots=True)
class Var(Expression):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expression):
    operand: Expression


@dataclass(frozen=True, slots=True)
class BinOp(Expression):
    op: str  # one of + - * / ^
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Call(Expression):
    fn: str
    arg: Expression


# ---------------------------------------------------------------------------
# Tokenizer / parser

# The deepest tree parse accepts; the text may nest twice as deep.
# Differentiation, folding, emission and printing recurse once per tree
# level (printing twice), the parser up to five frames per nesting level,
# and an order-3 derivative can be several times as deep as its expression
# (a power whose base and exponent both vary grows fastest, about twelve
# frames of the whole build per level).  At this bound every such walk
# stays inside Python's default limit of 1000 frames.
MAX_DEPTH = 64

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent; every method returns (node, depth of its tree)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0  # the unary calls now open: the recursion's depth

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind == "op" and value == op:
            return self.advance()
        raise ParseError(f"got {value!r}" if value else "unexpected end of input", offset, (op,))

    def bounded(self, depth: int, offset: int) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} levels", offset)
        return depth

    def nested(self, offset: int) -> None:
        self.nesting += 1
        if self.nesting > 2 * MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {2 * MAX_DEPTH} levels", offset)

    def parse(self) -> Expression:
        kind, _, offset = self.peek()
        if kind == "eof":
            raise ParseError("empty input", offset, ("expression",))
        node, _ = self.expr()
        kind, value, offset = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing garbage {value!r}", offset, ("end of input",))
        return node

    def expr(self) -> tuple[Expression, int]:
        node, depth = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right, right_depth = self.term()
                node = BinOp(value, node, right)
                depth = self.bounded(1 + max(depth, right_depth), offset)
            else:
                return node, depth

    def term(self) -> tuple[Expression, int]:
        node, depth = self.unary()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                right, right_depth = self.unary()
                node = BinOp(value, node, right)
                depth = self.bounded(1 + max(depth, right_depth), offset)
            else:
                return node, depth

    def unary(self) -> tuple[Expression, int]:
        kind, value, offset = self.peek()
        self.nested(offset)
        if kind == "op" and value == "-":
            self.advance()
            # a minus sign on a number is a negative literal, unless the
            # number is a power's base (-2^2 is -(2^2))
            if self.peek()[0] == "number" and self.tokens[self.i + 1][1] != "^":
                result = Num(-float(self.advance()[1])), 1
            else:
                operand, depth = self.unary()
                result = Neg(operand), self.bounded(depth + 1, offset)
        else:
            result = self.power()
        self.nesting -= 1
        return result

    def power(self) -> tuple[Expression, int]:
        base, depth = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent, exponent_depth = self.unary()
            return BinOp("^", base, exponent), self.bounded(1 + max(depth, exponent_depth), offset)
        return base, depth

    def atom(self) -> tuple[Expression, int]:
        kind, value, offset = self.advance()
        if kind == "number":
            return Num(float(value)), 1
        if kind == "name":
            if value in CONSTANTS:
                return Const(value), 1
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset, FUNCTIONS)
                self.advance()
                arg, depth = self.expr()
                self.expect_op(")")
                return Call(value, arg), self.bounded(depth + 1, offset)
            return Var(value), 1
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "eof":
            raise ParseError("unexpected end of input", offset, ("expression",))
        raise ParseError(f"unexpected {value!r}", offset, ("expression",))


def parse(text: str) -> Expression:
    """Parse ``text`` into an expression tree (no folding, no rewriting);
    a tree or a nesting deeper than MAX_DEPTH levels is a ParseError."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation.  The compiled form below calls the very same helpers, so both
# paths perform identical floating-point operations.


def _pow(a: float, b: float) -> float:
    if float(b).is_integer():
        if a == 0.0 and b < 0:
            raise DomainError("0 raised to a negative power")
        return a ** b
    if a <= 0.0:
        raise DomainError(f"{a} raised to non-integer power {b}")
    return math.exp(b * math.log(a))


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _log(a: float) -> float:
    if a <= 0.0:
        raise DomainError(f"log of non-positive value {a}")
    return math.log(a)


def _sqrt(a: float) -> float:
    if a < 0.0:
        raise DomainError(f"sqrt of negative value {a}")
    return math.sqrt(a)


_CALL_TABLE: dict[str, Callable[[float], float]] = {
    "exp": math.exp,
    "log": _log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sqrt": _sqrt,
    "abs": abs,
}


def evaluate(expr: Expression, bindings: Mapping[str, float] | None = None) -> float:
    """Evaluate ``expr`` with variable ``bindings``.

    Unbound variables and domain violations (log of non-positive, sqrt of
    negative, zero division, non-integer power of a non-positive base) raise,
    they never return NaN silently.  A power or a function call whose result
    overflows, such as 1e-192^-2 or exp(800), raises DomainError.
    """
    bindings = bindings or {}
    return _eval(expr, bindings)


def _eval(expr: Expression, bindings: Mapping[str, float]) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return float(bindings[expr.name])
        except KeyError:
            raise UnboundVariableError(expr.name) from None
    if isinstance(expr, Const):
        return CONSTANTS[expr.name]
    if isinstance(expr, Neg):
        return -_eval(expr.operand, bindings)
    if isinstance(expr, BinOp):
        a = _eval(expr.left, bindings)
        b = _eval(expr.right, bindings)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            return _div(a, b)
        try:
            return _pow(a, b)
        except OverflowError as exc:
            raise DomainError(f"{a}^{b}: {exc}") from None
    if isinstance(expr, Call):
        arg = _eval(expr.arg, bindings)
        try:
            return _CALL_TABLE[expr.fn](arg)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{expr.fn}({arg}): {exc}") from None
    raise TypeError(f"not an expression node: {expr!r}")


def free_variables(expr: Expression) -> frozenset[str]:
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, (Num, Const)):
        return frozenset()
    if isinstance(expr, Neg):
        return free_variables(expr.operand)
    if isinstance(expr, Call):
        return free_variables(expr.arg)
    if isinstance(expr, BinOp):
        return free_variables(expr.left) | free_variables(expr.right)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Differentiation and substitution


def fold_constants(expr: Expression) -> Expression:
    """Collapse variable-free subtrees to literals; no other rewriting.

    Subtrees whose evaluation fails (e.g. log(-1)) are left intact so the
    error surfaces at evaluation time with its proper context.
    """
    return _fold(expr)[0]


def _fold(expr: Expression) -> tuple[Expression, bool]:
    """(folded tree, whether it has free variables), in one pass: constness
    travels up the tree instead of being recomputed for every subtree, and
    a subtree shared by several parents is folded once."""
    memo: dict[int, tuple] = {}  # id -> (node, result); see _emit_program

    def fold(node: Expression) -> tuple[Expression, bool]:
        found = memo.get(id(node))
        if found is not None:
            return found[1]
        if isinstance(node, Num):
            result = node, False
        elif isinstance(node, Var):
            result = node, True
        elif isinstance(node, Const):
            result = Num(CONSTANTS[node.name]), False
        else:
            # a node whose children fold to themselves is kept, so folded
            # trees share their unchanged subtrees with their input
            if isinstance(node, Neg):
                inner, variable = fold(node.operand)
                folded = node if inner is node.operand else Neg(inner)
            elif isinstance(node, Call):
                arg, variable = fold(node.arg)
                folded = node if arg is node.arg else Call(node.fn, arg)
            elif isinstance(node, BinOp):
                left, left_variable = fold(node.left)
                right, right_variable = fold(node.right)
                same = left is node.left and right is node.right
                folded = node if same else BinOp(node.op, left, right)
                variable = left_variable or right_variable
            else:
                raise TypeError(f"not an expression node: {node!r}")
            result = folded, variable
            if not variable:
                try:
                    result = Num(_eval(folded, {})), False
                except (EvaluationError, ArithmeticError):
                    pass
        memo[id(node)] = (node, result)
        return result

    return fold(expr)


def differentiate(expr: Expression, var: str, order: int = 1) -> Expression:
    """Symbolic derivative of ``expr`` w.r.t. ``var``, applied ``order`` times.

    The result is a closed expression in the same grammar with constant
    subtrees folded and no structurally zero term: a derivative that is
    identically zero is Num(0.0) itself.  It is undefined at most where
    ``expr`` is, but may be defined where ``expr`` is not (d/dtau of
    2*log(-tau) is 2.0 * (-1.0 / -tau)); ``fields`` evaluates the primitive
    first wherever that matters.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    node = expr
    for _ in range(order):
        node = fold_constants(_diff(node, var))
    return node


_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is(node: Expression, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _times(a: Expression, b: Expression) -> Expression:
    """a * b, with a structural zero absorbing and a structural one dropped."""
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    if _is(a, 1.0):
        return b
    if _is(b, 1.0):
        return a
    return BinOp("*", a, b)


def _plus(op: str, a: Expression, b: Expression) -> Expression:
    """a + b or a - b, dropping a structurally zero term."""
    if _is(b, 0.0):
        return a
    if _is(a, 0.0):
        return b if op == "+" else Neg(b)
    return BinOp(op, a, b)


def _diff(expr: Expression, var: str) -> Expression:
    """d expr / d var, sparse as the module docstring says: each kept term
    is the full rule's term in the same order and association.  A subtree
    shared by several parents is differentiated once."""
    memo: dict[int, tuple] = {}  # id -> (node, derivative); see _emit_program

    def diff(node: Expression) -> Expression:
        found = memo.get(id(node))
        if found is not None:
            return found[1]
        if isinstance(node, (Num, Const)):
            result = _ZERO
        elif isinstance(node, Var):
            result = _ONE if node.name == var else _ZERO
        elif isinstance(node, Neg):
            d = diff(node.operand)
            result = _ZERO if _is(d, 0.0) else Neg(d)
        elif isinstance(node, BinOp):
            result = _binop_rule(node, diff(node.left), diff(node.right))
        elif isinstance(node, Call):
            da = diff(node.arg)
            result = _ZERO if _is(da, 0.0) else _call_rule(node, da)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        memo[id(node)] = (node, result)
        return result

    return diff(expr)


def _binop_rule(expr: BinOp, da: Expression, db: Expression) -> Expression:
    """The derivative of ``expr`` from those of its operands, da and db."""
    a, b = expr.left, expr.right
    if _is(da, 0.0) and _is(db, 0.0):
        return _ZERO
    if expr.op in "+-":
        return _plus(expr.op, da, db)
    if expr.op == "*":
        return _plus("+", _times(da, b), _times(a, db))
    if expr.op == "/":
        num = _plus("-", _times(da, b), _times(a, db))
        return BinOp("/", num, BinOp("^", b, Num(2.0)))
    # power rules: constant exponent, constant base, then the general form
    if isinstance(b, Num):
        # b a^(b-1), written without the exact a^1 = a, a^0 = 1 and 1 x = x
        if b.value == 1.0:
            return da
        power = a if b.value == 2.0 else BinOp("^", a, Num(b.value - 1.0))
        return _times(BinOp("*", b, power), da)
    if not free_variables(b):
        dpow = BinOp("*", b, BinOp("^", a, BinOp("-", b, _ONE)))
        return _times(dpow, da)
    if not free_variables(a):
        return _times(BinOp("*", expr, Call("log", a)), db)
    by_base = _ZERO if _is(da, 0.0) else BinOp("/", _times(b, da), a)
    return BinOp("*", expr, _plus("+", _times(db, Call("log", a)), by_base))


def _call_rule(expr: Call, da: Expression) -> Expression:
    """The chain rule of ``expr`` with its argument's derivative da != 0."""
    a = expr.arg
    if expr.fn == "exp":
        return _times(expr, da)
    if expr.fn == "log":
        return BinOp("/", da, a)
    if expr.fn == "sin":
        return _times(Call("cos", a), da)
    if expr.fn == "cos":
        return _times(Neg(Call("sin", a)), da)
    if expr.fn == "tan":
        return _times(BinOp("+", _ONE, BinOp("^", expr, Num(2.0))), da)
    if expr.fn == "sqrt":
        return BinOp("/", da, BinOp("*", Num(2.0), expr))
    # abs: a/|a| * a', undefined at 0 like the derivative itself
    return _times(BinOp("/", a, expr), da)


def substitute(expr: Expression, var: str, replacement: Expression) -> Expression:
    """Replace every occurrence of ``var`` by ``replacement``.

    Expressions have no binding constructs, so the substitution is trivially
    capture-free.
    """
    if isinstance(expr, Var):
        return replacement if expr.name == var else expr
    if isinstance(expr, (Num, Const)):
        return expr
    if isinstance(expr, Neg):
        return Neg(substitute(expr.operand, var, replacement))
    if isinstance(expr, Call):
        return Call(expr.fn, substitute(expr.arg, var, replacement))
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            substitute(expr.left, var, replacement),
            substitute(expr.right, var, replacement),
        )
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Printing.  Emits exactly the parens required so parse(to_source(e)) == e.

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _precedence(expr: Expression) -> int:
    if isinstance(expr, Num):
        return _PREC_ATOM if math.copysign(1.0, expr.value) > 0 else _PREC_NEG
    if isinstance(expr, (Var, Const, Call)):
        return _PREC_ATOM
    if isinstance(expr, Neg):
        return _PREC_NEG
    if expr.op in "+-":
        return _PREC_ADD
    if expr.op in "*/":
        return _PREC_MUL
    return _PREC_POW


def _format_number(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ExpressionError(f"cannot print non-finite literal {value}")
    return repr(float(value))  # a numpy scalar's repr is not a literal


def to_source(expr: Expression) -> str:
    """Render the tree; ``parse(to_source(e))`` returns a structurally equal tree
    (named constants print as literals once folded, never the other way)."""
    return _print(expr)


def _print(expr: Expression) -> str:
    if isinstance(expr, Num):
        return _format_number(expr.value)
    if isinstance(expr, Const):
        return expr.name
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        if isinstance(expr.operand, Num):  # "-2" would read back as Num(-2)
            return f"-({_print(expr.operand)})"
        inner = _print_child(expr.operand, _PREC_NEG, allow_equal=False)
        return "-" + inner
    if isinstance(expr, Call):
        return f"{expr.fn}({_print(expr.arg)})"
    if isinstance(expr, BinOp):
        if expr.op in "+-":
            left = _print_child(expr.left, _PREC_ADD, allow_equal=True)
            right = _print_child(expr.right, _PREC_ADD, allow_equal=False)
            return f"{left} {expr.op} {right}"
        if expr.op in "*/":
            left = _print_child(expr.left, _PREC_MUL, allow_equal=True)
            right = _print_child(expr.right, _PREC_MUL, allow_equal=False)
            return f"{left} {expr.op} {right}"
        # '^' is right-associative and binds above unary minus; the base must
        # be atomic for the string to re-parse to the same tree.
        left = _print_child(expr.left, _PREC_ATOM, allow_equal=True)
        right = _print_child(expr.right, _PREC_NEG, allow_equal=True)
        return f"{left}^{right}"
    raise TypeError(f"not an expression node: {expr!r}")


def _print_child(child: Expression, parent_prec: int, allow_equal: bool) -> str:
    text = _print(child)
    prec = _precedence(child)
    if prec > parent_prec or (prec == parent_prec and allow_equal):
        return text
    return f"({text})"


# ---------------------------------------------------------------------------
# Compilation to plain Python callables.  Generated code invokes the same
# helper functions as ``evaluate`` in the same order, so results are
# bit-identical; this only exists because tensor assembly evaluates the same
# derivative trees at many thousands of points.
#
# Every distinct subtree becomes one assignment.  A node is keyed by its
# emitted code with its children already named, so two equal subtrees share a
# temporary without any tree ever being hashed recursively.  Derivative trees
# repeat their subtrees many times over (the product and chain rules copy
# them), which is what makes a whole jet cheaper than its entries one by one.
# They repeat them by reference, so differentiation, folding and emission
# each visit a node object once per call, whatever number of parents share
# it: a build takes time in the distinct nodes, not in the tree's positions.


def compile_expression(expr: Expression, arg_names: tuple[str, ...]) -> Callable[..., float]:
    """Python callable evaluating ``expr`` at positional ``arg_names``."""
    lines, outputs = _emit_program((expr,), arg_names)
    code = _code(lines, f"return {outputs[0]}", arg_names)
    return types.FunctionType(code, _SCALAR_HELPERS)


def compile_jet(exprs, arg_names: tuple[str, ...]) -> "Program":
    """The :class:`Program` of ``exprs`` at positional ``arg_names``."""
    return Program(exprs, arg_names)


class Program:
    """Expressions compiled into one program; shared subtrees run once.

    ``program(points)`` takes one point (k,) or points (..., k) of the k
    arguments and returns the values along a trailing axis.  One point runs
    ``scalar`` on Python floats, bit-identical to :func:`evaluate`.  An
    array runs ``vectorized``, or where its checks raise, runs the points one
    by one in C order: the first failing point raises its own DomainError,
    ``... at theta1 = x`` for one argument, ``... at event [...]`` for more.
    ``program.at(*args)`` runs ``scalar`` on the arguments as given and
    names a failing point the same way.
    """

    def __init__(self, exprs, arg_names: tuple[str, ...]):
        lines, outputs = _emit_program(tuple(exprs), arg_names)
        code = _code(lines, "return (" + "".join(f"{out}, " for out in outputs) + ")", arg_names)
        self.names = tuple(arg_names)
        self.scalar = types.FunctionType(code, _SCALAR_HELPERS)
        self._on_arrays = types.FunctionType(code, _VECTOR_HELPERS)

    def vectorized(self, *columns) -> tuple:
        """The values on arrays, one per argument (constants as floats)."""
        # inf and nan propagate silently in arithmetic, as on Python floats
        with np.errstate(all="ignore"):
            return self._on_arrays(*columns)

    def __call__(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            return np.array(self.at(*points.tolist()))
        try:
            values = self.vectorized(*np.moveaxis(points, -1, 0))
        except DomainError:
            rows = points.reshape(-1, points.shape[-1]).tolist()
            flat = np.array([self.at(*point) for point in rows])
            return flat.reshape(points.shape[:-1] + flat.shape[-1:])
        out = np.empty(points.shape[:-1] + (len(values),))
        for k, value in enumerate(values):
            out[..., k] = value
        return out

    def at(self, *args) -> tuple:
        """The values at one point given as its scalar arguments, on the
        ``scalar`` path; a failure raises DomainError naming the point."""
        try:
            return self.scalar(*args)
        except (EvaluationError, ArithmeticError, ValueError) as exc:
            where = f"{self.names[0]} = {args[0]}" if len(args) == 1 else f"event {list(args)}"
            raise DomainError(f"{exc} at {where}") from None


def _code(lines, ret: str, arg_names):
    body = "".join(f"    {line}\n" for line in lines)
    source = f"def _compiled({', '.join(arg_names)}):\n{body}    {ret}\n"
    module = compile(source, "<expression>", "exec")
    return next(c for c in module.co_consts if isinstance(c, types.CodeType))


def _emit_program(exprs: tuple, arg_names) -> tuple[list[str], list[str]]:
    """Assignments for every distinct subtree of ``exprs`` and their outputs."""
    lines: list[str] = []
    temps: dict[str, str] = {}  # emitted code, children named -> temporary
    used: set[str] = set()
    # id -> (node, operand): a node object met again is named without a
    # walk, and the memo holds the node, so its id is not reused meanwhile
    memo: dict[int, tuple] = {}

    def operand(node: Expression) -> str:
        found = memo.get(id(node))
        if found is not None:
            return found[1]
        if isinstance(node, Num):
            text = repr(float(node.value))
            name = _NON_FINITE.get(text, f"({text})")
        elif isinstance(node, Const):
            name = "_PI"
        elif isinstance(node, Var):
            used.add(node.name)
            name = node.name
        else:
            if isinstance(node, Neg):
                code = f"(-{operand(node.operand)})"
            elif isinstance(node, BinOp):
                a, b = operand(node.left), operand(node.right)
                if node.op in "+-*":
                    code = f"({a} {node.op} {b})"
                elif node.op == "/":
                    code = f"_div({a}, {b})"
                else:
                    code = f"{_power_helper(node.right)}({a}, {b})"
            elif isinstance(node, Call):
                code = f"_call_{node.fn}({operand(node.arg)})"
            else:
                raise TypeError(f"not an expression node: {node!r}")
            name = temps.get(code)
            if name is None:
                name = temps[code] = f"_t{len(temps)}"
                lines.append(f"{name} = {code}")
        memo[id(node)] = (node, name)
        return name

    outputs = [operand(e) for e in exprs]
    missing = used - set(arg_names)
    if missing:
        raise UnboundVariableError(sorted(missing)[0])
    return lines, outputs


# a folded overflow leaves inf or nan in the tree, which has no literal
_NON_FINITE = {"inf": "_INF", "-inf": "(-_INF)", "nan": "_NAN"}


def _power_helper(exponent: Expression) -> str:
    """The helper of a power: a finite integer literal exponent is known to
    be one here, once, instead of at every evaluation (inf and nan are not
    integers)."""
    integer = isinstance(exponent, Num) and float(exponent.value).is_integer()
    return "_pow_integer" if integer else "_pow"


_SCALAR_HELPERS = {
    "_pow": _pow,
    "_pow_integer": _pow,
    "_div": _div,
    "_call_exp": math.exp,
    "_call_log": _log,
    "_call_sin": math.sin,
    "_call_cos": math.cos,
    "_call_tan": math.tan,
    "_call_sqrt": _sqrt,
    "_call_abs": abs,
    "_PI": math.pi,
    "_INF": math.inf,
    "_NAN": math.nan,
}


# Vectorized helpers.  Each raises where the scalar helper (or the math
# function it calls) raises for some element: DomainError, OverflowError on
# a finite argument, ValueError on an infinite angle.  Results are computed
# under np.errstate(all="ignore"), set by the caller.


def _np_raise_if(bad, message: str) -> None:
    # a check on literal operands alone yields a Python bool
    if bad is True or (bad is not False and bad.any()):
        raise DomainError(message)


def _np_overflow(result, *args):
    infinite = np.isinf(result)
    if not infinite.any():
        return result
    for arg in args:
        infinite = infinite & np.isfinite(arg)
    _np_raise_if(infinite, "numerical result out of range")
    return result


def _np_pow(a, b):
    integer = np.isfinite(b) & (np.floor(b) == b)
    _np_raise_if(integer & (a == 0.0) & (b < 0), "0 raised to a negative power")
    _np_raise_if(~integer & (a <= 0.0), "non-positive value raised to a non-integer power")
    if np.ndim(integer) == 0:  # one exponent for every element
        result = np.power(a, b) if integer else np.exp(b * np.log(a))
    else:
        result = np.where(integer, np.power(a, b), np.exp(b * np.log(a)))
    return _np_overflow(result, a, b)


def _np_pow_integer(a, b):
    # 0 to a negative power is infinite: the overflow check raises there
    return _np_overflow(np.power(a, b), a)


def _np_div(a, b):
    _np_raise_if(b == 0.0, "division by zero")
    return a / b


def _np_log(a):
    _np_raise_if(a <= 0.0, "log of non-positive value")
    return np.log(a)


def _np_sqrt(a):
    _np_raise_if(a < 0.0, "sqrt of negative value")
    return np.sqrt(a)


def _np_exp(a):
    return _np_overflow(np.exp(a), a)


def _np_periodic(fn):
    def call(a):
        _np_raise_if(np.isinf(a), f"{fn.__name__} of an infinite value")
        return fn(a)

    return call


_VECTOR_HELPERS = {
    "_pow": _np_pow,
    "_pow_integer": _np_pow_integer,
    "_div": _np_div,
    "_call_exp": _np_exp,
    "_call_log": _np_log,
    "_call_sin": _np_periodic(np.sin),
    "_call_cos": _np_periodic(np.cos),
    "_call_tan": _np_periodic(np.tan),
    "_call_sqrt": _np_sqrt,
    "_call_abs": np.abs,
    "_PI": math.pi,
    "_INF": math.inf,
    "_NAN": math.nan,
}
