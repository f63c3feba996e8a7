import ast
import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest

import arwmass
from arwmass.expr import (
    BinOp,
    Call,
    DomainError,
    Neg,
    Num,
    ParseError,
    Program,
    UnboundVariableError,
    Var,
    _diff,
    _emit_program,
    compile_expression,
    compile_jet,
    differentiate,
    evaluate,
    fold_constants,
    free_variables,
    parse,
    substitute,
    to_source,
)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("2+3*4", 14.0),
        ("(2+3)*4", 20.0),
        ("2^3^2", 512.0),          # right-associative power
        ("-2^2", -4.0),            # unary minus binds looser than ^
        ("10/4/5", 0.5),
        ("2 - 3 - 4", -5.0),
        ("--3", 3.0),
    ],
)
def test_precedence(source, expected):
    assert evaluate(parse(source), {}) == expected


def test_variables_and_functions():
    expr = parse("exp(2*tau) + sin(theta1)^2")
    value = evaluate(expr, {"tau": -0.25, "theta1": 1.1})
    assert value == pytest.approx(math.exp(-0.5) + math.sin(1.1) ** 2, rel=1e-15)


def test_pi_constant():
    assert evaluate(parse("pi"), {}) == math.pi
    assert evaluate(parse("cos(pi)"), {}) == pytest.approx(-1.0)


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("log(-tau")
    assert err.value.offset == 8
    assert ")" in err.value.expected
    assert "at offset 8" in str(err.value)


@pytest.mark.parametrize("source", ["", "2*", "sin()", "1 + * 2", "foo(3)", "2..5"])
def test_malformed_input_raises(source):
    with pytest.raises(ParseError):
        parse(source)


def test_unbound_variable():
    with pytest.raises(UnboundVariableError, match="'y'"):
        evaluate(parse("x + y"), {"x": 1.0})


def test_log_domain():
    with pytest.raises(DomainError):
        evaluate(parse("log(tau)"), {"tau": -1.0})


def test_round_trip_through_source():
    expr = parse("2*tau + sin(theta1)^2 - exp(-tau)/3")
    again = parse(to_source(expr))
    for tau in (-1.0, -0.3, -0.01):
        env = {"tau": tau, "theta1": 0.7}
        assert evaluate(expr, env) == evaluate(again, env)


def test_operator_overloads_build_trees():
    tau = Var("tau")
    expr = 2.0 * tau + (-tau) ** 3 - 1.0 / tau
    assert evaluate(expr, {"tau": -2.0}) == pytest.approx(-4.0 + 8.0 + 0.5)
    assert isinstance(expr, BinOp)


def test_free_variables():
    expr = parse("exp(a*tau) + cos(theta1) * b")
    assert free_variables(expr) == {"a", "tau", "theta1", "b"}
    assert free_variables(parse("1 + 2")) == set()


def test_substitute():
    expr = parse("tau^2 + tau")
    halved = substitute(expr, "tau", parse("tau/2"))
    assert evaluate(halved, {"tau": -1.0}) == pytest.approx(0.25 - 0.5)


def test_fold_constants_collapses_numeric_subtrees():
    assert fold_constants(parse("2*3 + 4")) == Num(10.0)
    folded = fold_constants(parse("(1+1)*tau"))
    assert folded == BinOp("*", Num(2.0), Var("tau"))


def test_fold_constants_leaves_an_overflowing_subtree_intact():
    # like log(-1), the overflow surfaces when the tree is evaluated
    expr = parse("1e-192^-2 * tau")
    assert fold_constants(expr) == expr
    with pytest.raises(DomainError):
        evaluate(expr, {"tau": 1.0})


@pytest.mark.parametrize(
    "source, var",
    [
        ("tau^3", "tau"),
        ("exp(-2*tau)", "tau"),
        ("log(-tau)", "tau"),
        ("sin(theta1)*cos(theta1)", "theta1"),
        ("sqrt(1 - 0.3*sin(theta1)^2)", "theta1"),
        ("tan(0.3*theta1)", "theta1"),
        ("tau^2*exp(tau) + 1/tau", "tau"),
    ],
)
def test_derivative_matches_finite_difference(source, var):
    expr = parse(source)
    deriv = differentiate(expr, var)
    h = 1e-6
    for x in (-0.8, -0.45, 0.9 if var == "theta1" else -0.2):
        env = {var: x}
        fd = (evaluate(expr, {var: x + h}) - evaluate(expr, {var: x - h})) / (2 * h)
        assert evaluate(deriv, env) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_second_derivative():
    expr = parse("exp(2*tau)")
    d2 = differentiate(differentiate(expr, "tau"), "tau")
    assert evaluate(d2, {"tau": -0.5}) == pytest.approx(4 * math.exp(-1.0), rel=1e-14)


def test_derivative_of_unrelated_variable_is_zero():
    expr = parse("sin(theta1)")
    assert evaluate(differentiate(expr, "tau"), {"theta1": 0.3}) == 0.0
    assert differentiate(expr, "tau") == Num(0.0)


def _nodes(expr):
    yield expr
    if isinstance(expr, Neg):
        yield from _nodes(expr.operand)
    elif isinstance(expr, Call):
        yield from _nodes(expr.arg)
    elif isinstance(expr, BinOp):
        yield from _nodes(expr.left)
        yield from _nodes(expr.right)


def test_derivative_writes_no_zero_terms():
    deriv = differentiate(parse("2*log(-tau)"), "tau")
    products = [node for node in _nodes(deriv) if isinstance(node, BinOp) and node.op == "*"]
    assert products
    assert not any(Num(0.0) in (node.left, node.right) for node in products)


def test_jet_program_stays_small():
    # the sigma_11 field of a custom n = 2 spec with an angular lambda
    sigma = parse("exp(2*(sin(theta1)^2*(0.03*cos(theta1))))*sin(theta1)^2")
    names = ("tau", "theta1", "theta2")
    jet = [sigma] + [differentiate(sigma, name) for name in names]
    for i, first in enumerate(names):
        jet += [differentiate(jet[1 + i], second) for second in names[i:]]
    lines, _ = _emit_program(tuple(jet), names)
    assert len(lines) <= 42
    # the power rule writes no x^1, x^0 or 1 * x
    for line in lines:
        assert not re.search(r"_pow\w*\(.*, \((1\.0|0\.0)\)\)$|\(1\.0\) \*", line), line


def _unshared(expr):
    """A copy of ``expr`` in which no two positions hold the same node object."""
    if isinstance(expr, Neg):
        return Neg(_unshared(expr.operand))
    if isinstance(expr, Call):
        return Call(expr.fn, _unshared(expr.arg))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _unshared(expr.left), _unshared(expr.right))
    return dataclasses.replace(expr)


def _reference_emission(exprs):
    """Lines and outputs of a program, walking every position of every tree."""
    lines, temps = [], {}

    def operand(node):
        if isinstance(node, Num):
            return f"({float(node.value)!r})"
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Neg):
            code = f"(-{operand(node.operand)})"
        elif isinstance(node, Call):
            code = f"_call_{node.fn}({operand(node.arg)})"
        else:
            a, b = operand(node.left), operand(node.right)
            if node.op in "+-*":
                code = f"({a} {node.op} {b})"
            elif node.op == "/":
                code = f"_div({a}, {b})"
            else:
                integer = isinstance(node.right, Num) and float(node.right.value).is_integer()
                code = f"{'_pow_integer' if integer else '_pow'}({a}, {b})"
        if code not in temps:
            temps[code] = f"_t{len(temps)}"
            lines.append(f"{temps[code]} = {code}")
        return temps[code]

    outputs = [operand(expr) for expr in exprs]
    return lines, outputs


def test_memoized_walks_emit_the_source_of_unmemoized_ones():
    # differentiation, folding and emission visit each node object once per
    # call.  On an unshared tree their memo never hits, so differentiating
    # unshared copies gives the un-memoized trees, and emission is compared
    # with a walk of every position.  An order-2 jet of a custom n = 3 spec's
    # sigma_22 emits the same lines, temporaries and outputs either way
    sigma = parse("exp(2*(sin(theta1)^2*(0.03*cos(theta1)*tau)))*sin(theta1)^2")
    names = ("tau", "theta1", "theta2", "theta3")

    def reference(expr, var):
        return fold_constants(_unshared(_diff(_unshared(expr), var)))

    jets = {}
    for derive in (differentiate, reference):
        first = [derive(sigma, name) for name in names]
        jet = [sigma] + first
        for i, tree in enumerate(first):
            jet += [derive(tree, second) for second in names[i:]]
        jets[derive] = jet
    memoized, unmemoized = jets[differentiate], jets[reference]
    assert [to_source(tree) for tree in memoized] == [to_source(tree) for tree in unmemoized]
    # the memoized trees share node objects, so every memo is exercised
    positions = [node for tree in memoized for node in _nodes(tree)]
    assert len({id(node) for node in positions}) < len(positions) / 2
    assert _emit_program(tuple(memoized), names) == _reference_emission(unmemoized)


def test_compile_matches_evaluate():
    expr = parse("exp(0.5*tau)*sin(theta1) + tau^2")
    fn = compile_expression(expr, ("tau", "theta1"))
    rng = np.random.default_rng(7)
    for _ in range(50):
        tau = -rng.uniform(0.05, 2.0)
        theta = rng.uniform(0.1, 3.0)
        assert fn(tau, theta) == pytest.approx(
            evaluate(expr, {"tau": tau, "theta1": theta}), rel=1e-15
        )


@pytest.mark.parametrize(
    "source, literal",
    [
        ("1e308*10*tau", math.inf),
        ("-1e308*10*tau", -math.inf),
        ("(1e308*10 - 1e308*10)*tau", math.nan),
        ("exp(tau) + 1e308*10", math.inf),
    ],
)
def test_non_finite_literals_compile_like_evaluate(source, literal):
    # folding an overflow leaves a non-finite Num, which has no Python literal
    expr = fold_constants(parse(source))
    assert f"Num(value={literal!r})" in repr(expr)
    taus = [-1.0, 0.0, 2.0]
    expected = [evaluate(expr, {"tau": tau}) for tau in taus]
    scalar_expr = compile_expression(expr, ("tau",))
    program = compile_jet([expr], ("tau",))
    scalar_jet, vectorized = program.scalar, program.vectorized
    # assert_array_equal counts NaN as equal to NaN
    np.testing.assert_array_equal([scalar_expr(tau) for tau in taus], expected)
    np.testing.assert_array_equal([scalar_jet(tau)[0] for tau in taus], expected)
    np.testing.assert_array_equal(vectorized(np.array(taus))[0], expected)


def test_compile_accepts_numpy_scalars():
    fn = compile_expression(parse("cos(theta1)^2"), ("theta1",))
    theta = np.float64(0.8)
    assert fn(theta) == pytest.approx(math.cos(0.8) ** 2, rel=1e-15)


def test_compiled_source_has_no_numpy_scalar_reprs():
    # regression: Num values arriving as numpy scalars must not leak
    # "np.float64(...)" into generated source
    expr = BinOp("*", Num(np.float64(0.5)), Var("tau"))
    fn = compile_expression(expr, ("tau",))
    assert fn(2.0) == 1.0
    # nor into printed source, which keys the program cache
    assert to_source(expr) == "0.5 * tau"


PROGRAM_TREES = [parse(s) for s in ("log(x) + y^2", "sin(x)*y", "2.5", "sqrt(x)/y")]


def test_program_on_one_point_is_evaluate_bit_for_bit():
    program = compile_jet(PROGRAM_TREES, ("x", "y"))
    assert isinstance(program, Program)
    for point in ([0.7, -1.3], [2.0, 0.25]):
        got = program(np.array(point))
        assert got.shape == (4,)
        expected = [evaluate(e, {"x": point[0], "y": point[1]}) for e in PROGRAM_TREES]
        assert got.tolist() == expected


def test_program_on_an_array_is_its_vectorized_tuple_packed():
    program = compile_jet(PROGRAM_TREES, ("x", "y"))
    points = np.random.default_rng(3).uniform(0.1, 2.0, (2, 3, 2))
    got = program(points)
    assert got.shape == (2, 3, 4)
    values = program.vectorized(points[..., 0], points[..., 1])
    for k, value in enumerate(values):
        np.testing.assert_array_equal(got[..., k], np.broadcast_to(value, (2, 3)))


def test_program_names_the_first_failing_point_in_c_order():
    program = compile_jet(PROGRAM_TREES, ("x", "y"))
    points = np.full((2, 3, 2), 0.5)
    points[1, 0, 0] = -2.0  # log and sqrt of a negative value
    points[0, 2, 0] = -1.0  # first in C order
    with pytest.raises(DomainError) as batched:
        program(points)
    assert str(batched.value) == "log of non-positive value -1.0 at event [-1.0, 0.5]"
    with pytest.raises(DomainError) as one:
        program(points[0, 2])
    assert str(one.value) == str(batched.value)
    single = compile_jet([parse("sqrt(theta1)")], ("theta1",))
    with pytest.raises(DomainError) as named:
        single(np.array([[4.0], [-0.25], [-1.0]]))
    assert str(named.value) == "sqrt of negative value -0.25 at theta1 = -0.25"
    with pytest.raises(DomainError, match=r"^math range error at event \[800\.0, 1\.0\]$"):
        compile_jet([parse("exp(x)*y")], ("x", "y"))(np.array([800.0, 1.0]))


def test_only_expr_calls_a_programs_functions():
    # every other module applies a program by calling it
    source = pathlib.Path(arwmass.__file__).parent
    callers = []
    for path in sorted(source.glob("*.py")):
        if path.name == "expr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("scalar", "vectorized")
            ):
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []
