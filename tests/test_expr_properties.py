"""Property tests of the expression module over generated trees.

Every test is derandomized with a bounded example count, so a run draws the
same trees each time.
"""

import math
import struct

import numpy as np
import numpy.testing as npt
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arwmass.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    DomainError,
    EvaluationError,
    Neg,
    Num,
    Var,
    compile_jet,
    differentiate,
    evaluate,
    fold_constants,
    free_variables,
    parse,
    to_source,
)

VARIABLES = ("x", "tau", "theta1")
PROPERTY = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def _trees(numbers, operators, functions, exponents=None, max_leaves=10):
    leaves = st.one_of(
        st.builds(Num, numbers), st.just(Const("pi")), st.sampled_from(VARIABLES).map(Var)
    )

    def extend(children):
        right = children if exponents is None else exponents
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from(operators), children, children),
            st.builds(BinOp, st.just("^"), children, right),
            st.builds(Call, st.sampled_from(functions), children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


# the whole grammar: every operator and function, any finite literal
TREES = _trees(st.floats(allow_nan=False, allow_infinity=False), "+-*/", FUNCTIONS)

# no domain restrictions: no division, log, sqrt, tan or abs, and only
# the integer exponents 2 and 3
SMOOTH = _trees(
    st.floats(-2.0, 2.0),
    "+-*",
    ("exp", "sin", "cos"),
    exponents=st.sampled_from((Num(2.0), Num(3.0))),
    max_leaves=8,
)


@PROPERTY
@given(TREES)
@example(Num(-0.0))
@example(Neg(Num(1.5)))
@example(BinOp("^", Num(-2.0), Var("x")))
def test_source_parses_back_to_the_same_tree(expr):
    assert parse(to_source(expr)) == expr


def _outcome(fn):
    """("value", the result's bits), or ("raised",)."""
    try:
        return ("value", struct.pack("<d", fn()))
    except (ArithmeticError, ValueError, EvaluationError):
        return ("raised",)


@PROPERTY
@given(TREES, st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
def test_compiled_scalar_program_is_evaluate_bit_for_bit(expr, x, tau, theta1):
    scalar = compile_jet((expr,), VARIABLES).scalar
    compiled = _outcome(lambda: scalar(x, tau, theta1)[0])
    evaluated = _outcome(lambda: evaluate(expr, {"x": x, "tau": tau, "theta1": theta1}))
    assert compiled == evaluated


@PROPERTY
@given(SMOOTH, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_derivative_agrees_with_central_differences(expr, x, tau):
    def f(at):
        return evaluate(expr, {"x": at, "tau": tau, "theta1": 0.5})

    def central(h):
        return (f(x + h) - f(x - h)) / (2.0 * h)

    # Richardson-extrapolated central differences, error O(h^4)
    h = 1e-3
    estimate = (4.0 * central(h / 2.0) - central(h)) / 3.0
    exact = evaluate(differentiate(expr, "x"), {"x": x, "tau": tau, "theta1": 0.5})
    scale = max(1.0, abs(exact), abs(f(x - h)), abs(f(x)), abs(f(x + h)))
    assert math.isclose(exact, estimate, rel_tol=0.0, abs_tol=1e-6 * scale)


# ---------------------------------------------------------------------------
# the sparse derivative against the dense one it replaced


def _dense_diff(expr, var):
    """Every product- and chain-rule term, structurally zero ones included."""
    if isinstance(expr, (Num, Const)):
        return Num(0.0)
    if isinstance(expr, Var):
        return Num(1.0) if expr.name == var else Num(0.0)
    if isinstance(expr, Neg):
        return Neg(_dense_diff(expr.operand, var))
    if isinstance(expr, BinOp):
        a, b = expr.left, expr.right
        da, db = _dense_diff(a, var), _dense_diff(b, var)
        if expr.op == "+":
            return BinOp("+", da, db)
        if expr.op == "-":
            return BinOp("-", da, db)
        if expr.op == "*":
            return BinOp("+", BinOp("*", da, b), BinOp("*", a, db))
        if expr.op == "/":
            num = BinOp("-", BinOp("*", da, b), BinOp("*", a, db))
            return BinOp("/", num, BinOp("^", b, Num(2.0)))
        if not free_variables(b):
            dpow = BinOp("*", b, BinOp("^", a, BinOp("-", b, Num(1.0))))
            return BinOp("*", dpow, da)
        if not free_variables(a):
            return BinOp("*", BinOp("*", expr, Call("log", a)), db)
        bracket = BinOp("+", BinOp("*", db, Call("log", a)), BinOp("/", BinOp("*", b, da), a))
        return BinOp("*", expr, bracket)
    a = expr.arg
    da = _dense_diff(a, var)
    if expr.fn == "exp":
        return BinOp("*", expr, da)
    if expr.fn == "log":
        return BinOp("/", da, a)
    if expr.fn == "sin":
        return BinOp("*", Call("cos", a), da)
    if expr.fn == "cos":
        return BinOp("*", Neg(Call("sin", a)), da)
    if expr.fn == "tan":
        return BinOp("*", BinOp("+", Num(1.0), BinOp("^", expr, Num(2.0))), da)
    if expr.fn == "sqrt":
        return BinOp("/", da, BinOp("*", Num(2.0), expr))
    return BinOp("*", BinOp("/", a, expr), da)


def _dense_differentiate(expr, var):
    return fold_constants(_dense_diff(expr, var))


def _size(expr):
    if isinstance(expr, (Neg, Call)):
        return 1 + _size(expr.operand if isinstance(expr, Neg) else expr.arg)
    if isinstance(expr, BinOp):
        return 1 + _size(expr.left) + _size(expr.right)
    return 1


@PROPERTY
@given(
    TREES,
    st.sampled_from(VARIABLES),
    st.floats(-20.0, 20.0),
    st.floats(-20.0, 20.0),
    st.floats(-20.0, 20.0),
)
@example(parse("2*log(-tau)"), "tau", 0.0, 0.5, 0.0)
@example(parse("sqrt(theta1)"), "tau", 0.0, 0.5, 0.0)
def test_sparse_derivative_is_the_dense_one_without_its_zero_terms(expr, var, x, tau, theta1):
    sparse, dense = differentiate(expr, var), _dense_differentiate(expr, var)
    assert _size(sparse) <= _size(dense)
    at = {"x": x, "tau": tau, "theta1": theta1}
    dense_value = _outcome(lambda: evaluate(dense, at))
    sparse_value = _outcome(lambda: evaluate(sparse, at))
    if sparse_value == ("raised",):
        assert dense_value == ("raised",)
    if dense_value != ("raised",):
        (value,) = struct.unpack("<d", dense_value[1])
        if math.isfinite(value):
            assert struct.unpack("<d", sparse_value[1])[0] == value


_POINTS = np.random.default_rng(0).uniform(-1.0, 1.0, (3, 16))


def _jet_trees(expr, derive):
    first = {var: derive(expr, var) for var in VARIABLES}
    second = [
        derive(first[VARIABLES[i]], VARIABLES[j])
        for i in range(len(VARIABLES))
        for j in range(i, len(VARIABLES))
    ]
    return [expr, *first.values(), *second]


def _vectorized_jet(trees):
    vectorized = compile_jet(trees, VARIABLES).vectorized
    try:
        values = vectorized(*_POINTS)
    except EvaluationError:
        return None
    return np.array([np.broadcast_to(value, _POINTS.shape[1:]) for value in values])


@PROPERTY
@given(SMOOTH)
def test_sparse_vectorized_jet_agrees_with_the_dense_one(expr):
    dense = _vectorized_jet(_jet_trees(expr, _dense_differentiate))
    sparse = _vectorized_jet(_jet_trees(expr, differentiate))
    if dense is None:
        return
    assert sparse is not None
    finite = np.isfinite(dense)
    npt.assert_allclose(sparse[finite], dense[finite], rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# literal exponents and divisors on arrays

EXPONENTS = tuple(Num(e) for e in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0))
LITERALS = st.builds(
    Num, st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, 0.5)), st.floats(-4.0, 4.0))
)


def _literal_trees():
    """Trees whose powers take literal exponents (those of EXPONENTS) or
    subtrees, on literal bases or subtrees, with literal or subtree divisors."""
    leaves = st.one_of(LITERALS, st.sampled_from(VARIABLES).map(Var))

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*"), children, children),
            st.builds(BinOp, st.just("/"), children, st.one_of(LITERALS, children)),
            st.builds(
                BinOp,
                st.just("^"),
                st.one_of(LITERALS, children),
                st.one_of(st.sampled_from(EXPONENTS), children),
            ),
            st.builds(Call, st.sampled_from(FUNCTIONS), children),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _generic(expr):
    """``expr`` with every literal exponent and divisor behind a double
    negation: the same value, but the program decides at run time."""
    if isinstance(expr, Neg):
        return Neg(_generic(expr.operand))
    if isinstance(expr, Call):
        return Call(expr.fn, _generic(expr.arg))
    if isinstance(expr, BinOp):
        right = _generic(expr.right)
        if expr.op in "/^" and isinstance(right, Num):
            right = Neg(Neg(right))
        return BinOp(expr.op, _generic(expr.left), right)
    return expr


def _applied(program, points):
    """("value", the outputs' bits) or ("raised", the DomainError's message)."""
    try:
        return ("value", program(points).tobytes())
    except DomainError as exc:
        return ("raised", str(exc))


COORDINATES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-3.0, 3.0))


@PROPERTY
@given(
    _literal_trees(),
    st.lists(st.tuples(COORDINATES, COORDINATES, COORDINATES), min_size=1, max_size=5),
)
@example(parse("x^-2 + x^0.5 + x^1 + x^0 + x/1.73"), [(0.5, 0.0, 0.0), (0.0, 0.0, 0.0)])
@example(parse("(x - 1)^0.5 / 2"), [(2.0, 0.0, 0.0), (0.5, 0.0, 0.0)])
@example(parse("2^x + log(2) + 0^-1"), [(1.0, 0.0, 0.0)])
@example(parse("(1e300 * x)^2"), [(0.5, 0.0, 0.0), (2.0, 0.0, 0.0)])
@example(parse("(1e300 * x)^2.5"), [(0.5, 0.0, 0.0)])
@example(parse("x^-1"), [(1.0, 0.0, 0.0), (-0.0, 0.0, 0.0)])
def test_literal_powers_on_arrays_act_as_the_generic_program(expr, points):
    # a jet on (k, 3) points takes the integer path of each integer literal
    # exponent; it keeps the bits of the run-time decision, and raises the
    # DomainError of its first failing point, which raises it alone
    trees = [expr] + [differentiate(expr, var) for var in VARIABLES]
    points = np.array(points)
    program = compile_jet(trees, VARIABLES)
    got = _applied(program, points)
    assert got == _applied(compile_jet([_generic(t) for t in trees], VARIABLES), points)
    alone = [_applied(program, point) for point in points]
    failing = [outcome for outcome in alone if outcome[0] == "raised"]
    if failing:
        assert got == failing[0]
    else:
        assert got[0] == "value"
