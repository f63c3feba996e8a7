import math

import numpy as np
import pytest

from arwmass.expr import Num, Var, parse
from arwmass.extrapolate import aitken_limit
from arwmass.fields import (
    ExprField,
    ExprTimeFunction,
    as_expression,
    as_time_function,
)
from arwmass.mass import _TimeChange


def test_aitken_accelerates_geometric_tails():
    # s_k = L + c q^k converges linearly; delta-squared should nail L
    L, c, q = 3.7, 0.9, 0.55
    seq = [L + c * q**k for k in range(12)]
    limit, err = aitken_limit(np.array(seq))
    assert limit == pytest.approx(L, abs=1e-12)
    # the estimate is the size of the last correction: conservative
    assert abs(limit - L) <= err < 1e-2


def test_aitken_passes_constants_through():
    limit, err = aitken_limit(np.full(8, 2.5))
    assert limit == 2.5
    assert err == 0.0


def test_aitken_beats_raw_tail():
    L = 1.0
    seq = [L + 0.5**k for k in range(10)]
    limit, _ = aitken_limit(np.array(seq))
    assert abs(limit - L) < abs(seq[-1] - L) * 1e-6


def test_as_time_function_coercions():
    const = as_time_function(2.0)
    assert const.value(-0.3) == 2.0
    assert const.derivative(-0.3, 1) == 0.0

    from_str = as_time_function("log(-tau)")
    assert from_str.value(-0.5) == pytest.approx(math.log(0.5))
    assert from_str.derivative(-0.5, 1) == pytest.approx(-2.0)

    already = as_time_function(from_str)
    assert already is from_str


def test_as_expression_coercions():
    assert as_expression(3.0) == Num(3.0)
    expr = parse("tau^2")
    assert as_expression(expr) is expr
    assert as_expression("tau^2") == expr


def test_expr_time_function_high_order():
    f = ExprTimeFunction(parse("log(-tau)"))
    tau = -0.4
    for order, expected in [(1, 1 / tau), (2, -1 / tau**2), (3, 2 / tau**3)]:
        assert f.derivative(tau, order) == pytest.approx(expected, rel=1e-12)


def test_time_change_stretches_and_shifts():
    base = ExprTimeFunction(parse("log(-tau)"))
    c = 2.25
    g = _TimeChange(base, Var("tau") / Num(math.sqrt(c)))
    tau = -0.6
    # g(tau) = base(tau / sqrt(c)) + log(1 / sqrt(c))
    assert g.value(tau) == pytest.approx(
        math.log(0.6 / math.sqrt(c)) - 0.5 * math.log(c), rel=1e-14
    )
    # chain rule: each order picks up a factor sqrt(c)^{-order}
    for order in (1, 2, 3):
        expected = base.derivative(tau / math.sqrt(c), order) * c ** (-order / 2)
        assert g.derivative(tau, order) == pytest.approx(expected, rel=1e-14)


def test_expr_field_partials():
    field = ExprField(parse("exp(tau)*sin(theta1)"), dim=4)
    event = np.array([-0.5, 1.1, 2.0, 0.3])
    base = math.exp(-0.5) * math.sin(1.1)
    assert field.partial(event) == pytest.approx(base, rel=1e-14)
    assert field.partial(event, (0,)) == pytest.approx(base, rel=1e-14)
    assert field.partial(event, (1,)) == pytest.approx(
        math.exp(-0.5) * math.cos(1.1), rel=1e-14
    )
    # mixed partial is order-insensitive
    assert field.partial(event, (0, 1)) == pytest.approx(
        field.partial(event, (1, 0)), rel=1e-14
    )
    assert field.partial(event, (2,)) == 0.0
