"""Property tests of the expression module over generated trees.

Every test is derandomized with a bounded example count, so a run draws the
same trees each time.
"""

import math
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arwmass.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    EvaluationError,
    Neg,
    Num,
    Var,
    compile_jet,
    differentiate,
    evaluate,
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
    scalar, _ = compile_jet((expr,), VARIABLES)
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
