"""Compiled jets and the batched slice integrals against their references.

The references are the code the jets and batches replaced: entry-by-entry
``ExprField.partial``, the per-node quadrature loops over ``curvature_at``
and the recursive ``fold_constants`` that recomputed free variables for
every subtree.
"""

import math
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest

from arwmass.curvature import curvature_at
from arwmass.expr import (
    CONSTANTS,
    BinOp,
    Call,
    Const,
    DomainError,
    EvaluationError,
    Neg,
    Num,
    Program,
    Var,
    _diff,
    _eval,
    compile_expression,
    compile_jet,
    fold_constants,
    free_variables,
    parse,
)
from arwmass.fields import COORD_NAMES, ExprField, ExprTimeFunction, jet_keys, time_jet
from arwmass.geometry import (
    GeometryError,
    arw_validate,
    integrate_rotationally_symmetric,
    make_spec,
    quadrature_grid,
    rw_family_spec,
    sample_events,
)
from arwmass.hypersurface import coordinate_slice_curvature
from arwmass.mass import slab_balance, slice_mass_integral
from arwmass.sads import SAdSParams, as_arw_spec
from sources import source_fields, source_jets

FILL_ANGLE = 1.1


def _specs():
    return {
        "rw n=2": rw_family_spec(2, 1.5, k=1.3, a=-0.5),
        "rw n=3": rw_family_spec(3, 1.0, k=2.0, a=-0.5),
        "custom n=2": make_spec(
            2, 1.2, "log(-tau)/0.6", a=-1.0,
            psi="0.05*cos(theta1)*exp(tau)", lam="0.02*cos(theta1)",
        ),
        "custom n=3": make_spec(
            3, 1.0, "log(-2*tau)", a=-1.0,
            psi="0.05*cos(theta1)*tau", lam="0.03*cos(theta1)*tau",
        ),
        "sads lambda=0": as_arw_spec(SAdSParams(n=3, lam=0.0, mass=1.0)),
        "sads lambda<0": as_arw_spec(SAdSParams(n=2, lam=-1.0, mass=0.9)),
    }


SPECS = _specs()


# ---------------------------------------------------------------------------
# references


def reference_slice_integral(spec, tau, grid):
    """slice_mass_integral as a loop of pointwise curvature evaluations."""
    metric, n = spec.metric, spec.n
    psi = ExprField(spec.psi, n + 1)

    def fn(theta1):
        event = np.full(n + 1, FILL_ANGLE)
        event[0] = tau
        event[1] = theta1
        bundle = curvature_at(metric, event)
        sources = source_jets(metric, event, 0)
        p = sources.psi_tilde[0]
        g_nu_nu = bundle.einstein[0, 0] * math.exp(-2.0 * p)
        sig11 = sources.sigma[0, 0]
        log_weight = spec.omega * spec.f.value(event[0]) + psi.partial(event, ())
        return g_nu_nu * math.exp(log_weight) * math.exp(n * p) * sig11 ** (n / 2.0)

    return integrate_rotationally_symmetric(grid, fn)


def reference_slab_volume(spec, tau1, tau2, grid):
    """The volume term of slab_balance as a loop over single events."""
    metric, n = spec.metric, spec.n
    psi = ExprField(spec.psi, n + 1)
    x, gw = np.polynomial.legendre.leggauss(grid.nodes_per_axis)
    half = 0.5 * (tau2 - tau1)
    volume = 0.0
    for tau, wt in zip(tau1 + half * (x + 1.0), half * gw):
        hbar = coordinate_slice_curvature(metric, float(tau))
        fp = spec.f.derivative(float(tau), 1)

        def fn(theta1):
            event = np.full(n + 1, FILL_ANGLE)
            event[0] = tau
            event[1] = theta1
            bundle = curvature_at(metric, event)
            g_up = bundle.g_inv @ bundle.einstein @ bundle.g_inv
            sources = source_jets(metric, event, 0)
            p = sources.psi_tilde[0]
            spatial = float(np.einsum("ij,ij->", g_up[1:, 1:], hbar(event[1:])))
            time_part = g_up[0, 0] * (spec.omega * fp + psi.partial(event, (0,))) * math.exp(p)
            log_weight = spec.omega * spec.f.value(event[0]) + psi.partial(event, ())
            sig11 = sources.sigma[0, 0]
            return (
                (spatial + time_part)
                * math.exp(log_weight)
                * math.exp((n + 1) * p)
                * sig11 ** (n / 2.0)
            )

        volume += wt * integrate_rotationally_symmetric(grid, fn)
    return volume


def recursive_fold(expr):
    """fold_constants as it was: free_variables recomputed for every subtree."""
    if isinstance(expr, (Num, Var, Const)):
        if isinstance(expr, Const):
            return Num(CONSTANTS[expr.name])
        return expr
    if isinstance(expr, Neg):
        folded = Neg(recursive_fold(expr.operand))
    elif isinstance(expr, Call):
        folded = Call(expr.fn, recursive_fold(expr.arg))
    else:
        folded = BinOp(expr.op, recursive_fold(expr.left), recursive_fold(expr.right))
    if not free_variables(folded):
        try:
            return Num(_eval(folded, {}))
        except EvaluationError:
            return folded
    return folded


# ---------------------------------------------------------------------------
# jets


@pytest.mark.parametrize("name", SPECS)
def test_scalar_jets_are_bitwise_equal_to_partials(name):
    spec = SPECS[name]
    dim = spec.n + 1
    for event in sample_events(spec, 4, seed=3):
        for field in source_fields(spec.metric):
            for order in (0, 1, 2):
                jet = field.jet(event, order)
                keys = jet_keys(dim, order)
                assert jet.shape == (len(keys),)
                partials = np.array([field.partial(event, key) for key in keys])
                npt.assert_array_equal(jet.view(np.int64), partials.view(np.int64))


@pytest.mark.parametrize("name", SPECS)
def test_vectorized_jets_match_scalar_jets(name):
    spec = SPECS[name]
    events = sample_events(spec, 6, seed=4).reshape(2, 3, spec.n + 1)
    for field in source_fields(spec.metric):
        batched = field.jet(events, 2)
        pointwise = np.array([[field.jet(e, 2) for e in row] for row in events])
        assert batched.shape == pointwise.shape
        npt.assert_allclose(batched, pointwise, rtol=1e-14, atol=1e-14 * np.abs(pointwise).max())


def test_time_jet_evaluates_the_profile_once_per_distinct_tau(monkeypatch):
    # a block of 3 slices of 4 events: one run of the profile's jet program
    # of the order per slice time, and no call of its derivative
    spec = SPECS["custom n=3"]
    events = sample_events(spec, 12, seed=5).reshape(3, 4, 4)
    events[..., 0] = np.array([[-0.6], [-0.4], [-0.2]])
    references = [source_jets(spec.metric, events, order).f for order in (0, 1, 2)]
    derivative, calls = ExprTimeFunction.derivative, []
    monkeypatch.setattr(
        ExprTimeFunction, "derivative", lambda *args: calls.append(args[2]) or derivative(*args)
    )
    at, programs = Program.at, []
    monkeypatch.setattr(Program, "at", lambda self, *args: programs.append(self) or at(self, *args))
    for order, reference in zip((0, 1, 2), references):
        programs.clear()
        jet = time_jet(spec.f, events, order)
        assert programs == [spec.f._jets[order]] * 3
        npt.assert_array_equal(jet.view(np.int64), reference.view(np.int64))
    assert calls == []


def test_time_jet_raises_for_the_first_failing_time_in_event_order():
    # the distinct times are evaluated in order of first appearance, not sorted
    profile = ExprTimeFunction(parse("log(-tau)"))
    events = np.array([[-0.5, 1.0, 1.0], [0.3, 1.0, 1.0], [-0.5, 2.0, 1.0], [0.2, 1.0, 1.0]])
    with pytest.raises(DomainError, match=r"at tau = 0\.3$"):
        time_jet(profile, events, 2)


def test_a_nan_time_is_a_geometry_error_naming_the_event():
    # a NaN tau gets a NaN row of the profile's jet, and the assembly's
    # finiteness check names the event
    spec = SPECS["rw n=3"]
    with pytest.raises(GeometryError, match=r"^psi_tilde is not finite at event \[nan, 1.0, "):
        curvature_at(spec.metric, [math.nan, 1, 1, 1])
    with pytest.raises(GeometryError, match=r"^psi_tilde is not finite at event \[nan, "):
        arw_validate(spec, [-0.4, math.nan, -0.05])


def test_jet_shares_subexpressions():
    expr = parse("exp(sin(theta1)^2 * tau) * sin(theta1)^2")
    field = ExprField(expr, 2)
    exprs = [field._expression(key) for key in jet_keys(2, 2)]
    jet = compile_jet(exprs, ("tau", "theta1")).scalar
    single = [compile_expression(e, ("tau", "theta1")) for e in exprs]
    assert jet.__code__.co_nlocals < sum(fn.__code__.co_nlocals for fn in single)
    assert list(jet(-0.3, 0.7)) == [fn(-0.3, 0.7) for fn in single]


@pytest.mark.parametrize(
    "source, values",
    [
        ("log(x)", [2.0, 0.5, 0.0]),
        ("sqrt(x)", [4.0, -1e-300]),
        ("1 / x", [2.0, 0.0]),
        ("x^-2", [3.0, 0.0]),
        ("x^0.5", [3.0, -2.0]),
        ("x^x", [0.5, 2.0, -1.5]),
        ("exp(x)", [1.0, 800.0]),
        ("(2*x)^300", [1.0, 1e3]),
        ("sin(x)", [1.0, math.inf]),
        ("log(x) + sqrt(x) + x^1.5 + exp(-x) + abs(x) + tan(x)", [0.5, 1.5, 2.5]),
    ],
)
def test_vectorized_jet_raises_where_scalar_raises(source, values):
    program = compile_jet([parse(source)], ("x",))
    scalar, vectorized = program.scalar, program.vectorized
    raised = False
    expected = []
    for x in values:
        try:
            expected.append(scalar(x)[0])
        except (DomainError, ArithmeticError, ValueError):
            raised = True
    if raised:
        with pytest.raises(DomainError):
            vectorized(np.array(values))
    else:
        npt.assert_allclose(vectorized(np.array(values))[0], expected, rtol=1e-15)


@pytest.mark.parametrize("name", SPECS)
def test_fold_constants_matches_recursive_version(name):
    spec = SPECS[name]
    dim = spec.n + 1
    trees = []
    for field in source_fields(spec.metric):
        trees.append(field._expression(()))
        for key in jet_keys(dim, 2)[1:]:
            trees.append(_diff(field._expression(key[:-1]), COORD_NAMES[key[-1]]))
    if isinstance(spec.f, ExprTimeFunction):
        node = spec.f.expr
        for _ in range(3):
            trees.append(node)
            node = fold_constants(_diff(node, "tau"))
    for tree in trees:
        assert fold_constants(tree) == recursive_fold(tree)


# ---------------------------------------------------------------------------
# batched integrals


@pytest.mark.parametrize("name", SPECS)
def test_batched_slice_integral_matches_per_node_loop(name):
    spec = SPECS[name]
    grid = quadrature_grid(spec.n, 24)
    for tau in (0.6 * spec.a, 0.05 * spec.a):
        reference = reference_slice_integral(spec, tau, grid)
        assert slice_mass_integral(spec, tau, grid) == pytest.approx(reference, rel=1e-13)


@pytest.mark.parametrize("name", ["custom n=2", "custom n=3", "sads lambda<0"])
def test_batched_slab_volume_matches_per_node_loop(name):
    spec = SPECS[name]
    grid = quadrature_grid(spec.n, 12)
    tau1, tau2 = 0.75 * spec.a, 0.25 * spec.a
    reference = reference_slab_volume(spec, tau1, tau2, grid)
    assert slab_balance(spec, tau1, tau2, grid).volume == pytest.approx(reference, rel=1e-13)


@pytest.mark.parametrize(
    "psi, lam, error",
    [
        ("log(cos(theta1) + 0.5)", "0", DomainError),  # log argument <= 0 past 2 pi/3
        ("exp(300*theta1)*0", "0", DomainError),  # exp overflows past theta1 ~ 2.37
        ("0", "-300*cos(theta1)", GeometryError),  # sigma underflows: degenerate metric
    ],
)
def test_batched_errors_match_pointwise(psi, lam, error):
    spec = make_spec(2, 1.0, "log(-tau)", a=-1.0, psi=psi, lam=lam)
    grid = quadrature_grid(2, 24)
    with pytest.raises(error) as pointwise:
        reference_slice_integral(spec, -0.5, grid)
    with pytest.raises(error) as batched:
        slice_mass_integral(spec, -0.5, grid)
    assert str(batched.value) == str(pointwise.value)
    assert "at event [-0.5, " in str(batched.value)


def test_jet_cache_is_safe_to_fill_from_several_threads():
    # the CLI's sub-report pool shares a spec's fields between threads
    source = "0.05*cos(theta1)*exp(tau) + sin(theta1)^2*log(-tau)"
    events = sample_events(SPECS["custom n=2"], 8, seed=9)
    reference = ExprField(parse(source), 3)
    expected = [reference.jet(events, 2)] + [reference.jet(e, 2) for e in events]
    field = ExprField(parse(source), 3)
    results, start = [], threading.Barrier(6, timeout=30)

    def work():
        start.wait()
        results.append([field.jet(events, 2)] + [field.jet(e, 2) for e in events])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6
    for got in results:
        for a, b in zip(got, expected):
            npt.assert_array_equal(a, b)


def test_scalar_overflow_is_a_domain_error_naming_the_point():
    # compiled scalar code calls math.exp and float ** directly, which raise
    # OverflowError; every scalar entry point reports it as a DomainError
    field = ExprField(parse("exp(800*theta1) + tau"), 3)
    event = np.array([-0.5, 1.0, 0.3])
    with pytest.raises(DomainError, match=r"at event \[-0\.5, 1\.0, 0\.3\]"):
        field.partial(event, (1,))
    with pytest.raises(DomainError, match=r"at event \[-0\.5, 1\.0, 0\.3\]"):
        field.jet(event, 1)
    # an integer power on a numpy scalar would give inf; programs run on
    # Python floats, so jets and partials raise like evaluate
    power = ExprField(parse("theta1^400 + tau"), 3)
    event = np.array([-0.5, 10.0, 0.3])
    for evaluate_at in (
        lambda: power.partial(event),
        lambda: power.jet(event, 0),
        lambda: power.jet(np.stack([event - [0.0, 9.0, 0.0], event]), 0),
    ):
        with pytest.raises(DomainError, match=r"range.* at event \[-0\.5, 10\.0, 0\.3\]"):
            evaluate_at()
    profile = ExprTimeFunction(parse("log(-tau) + exp(-800*tau)"))
    with pytest.raises(DomainError, match=r"at tau = -1\.0"):
        profile.derivative(-1.0, 2)
    with pytest.raises(DomainError, match=r"at tau = -2\.0"):
        profile.derivative(-2.0, 0)


def test_a_derivative_raises_wherever_its_profile_does():
    # d/dtau of 2*log(-tau) is 2*(-1/-tau), which alone is finite at tau > 0
    profile = ExprTimeFunction(parse("2*log(-tau)"))
    assert profile.derivative(-0.5, 1) == -4.0
    with pytest.raises(DomainError, match=r"at tau = 0\.5"):
        profile.derivative(0.5, 1)


def test_a_partial_raises_wherever_its_field_does():
    # log(cos(theta1) + 0.5) is undefined past theta1 = 2 pi / 3; its tau
    # partial is structurally zero
    field = ExprField(parse("log(cos(theta1) + 0.5)"), 3)
    assert field.partial(np.array([-0.5, 1.0, 0.3]), (0,)) == 0.0
    with pytest.raises(DomainError, match=r"at event \[-0\.5, 2\.5, 0\.3\]"):
        field.partial(np.array([-0.5, 2.5, 0.3]), (0,))


def test_a_structurally_zero_partial_does_not_raise_on_its_own():
    # d/dtheta1 sqrt(theta1) divides by zero at theta1 = 0, d/dtau does not
    field = ExprField(parse("sqrt(theta1)"), 3)
    event = np.array([-0.5, 0.0, 0.3])
    assert field.partial(event, (0,)) == 0.0
    with pytest.raises(DomainError, match="division by zero"):
        field.partial(event, (1,))
    with pytest.raises(DomainError, match=r"at event \[-0\.5, 0\.0, 0\.3\]"):
        field.jet(event, 1)


def test_constructing_a_field_compiles_nothing(monkeypatch):
    # one program cache: a jet and a partial each compile on first use only
    import arwmass.expr

    code = arwmass.expr._code
    calls = []

    def counting(*args):
        calls.append(args[1])
        return code(*args)

    monkeypatch.setattr(arwmass.expr, "_code", counting)
    field = ExprField(parse("exp(tau)*sin(theta1)^2"), 3)
    assert calls == []
    event = np.array([-0.5, 1.0, 0.3])
    for _ in range(2):
        field.jet(event, 2)
        field.jet(np.stack([event, event]), 2)
        field.partial(event, (1, 0))
    assert len(calls) == 2
    assert field.partial(event, (0, 1)) == field.jet(event, 2)[jet_keys(3, 2).index((0, 1))]
    assert len(calls) == 2
