import ast
import math
import pathlib
import threading
from typing import Callable

import numpy as np
import numpy.testing as npt
import pytest

import arwmass.fields
import arwmass.geometry
import arwmass.hypersurface
from arwmass.expr import Num, Program, parse
from arwmass.fields import ExprField, jet_keys
from arwmass.geometry import (
    ARWSpec,
    GeometryError,
    QuadratureError,
    QuadratureGrid,
    SpacetimeMetric,
    _invert_metric,
    arw_validate,
    flat_chart_metric,
    geometric_schedule,
    integrate_node_values,
    integrate_rotationally_symmetric,
    make_spec,
    metric_jets,
    quadrature_grid,
    rw_family_spec,
    sample_events,
    sphere_volume,
)
from arwmass.hypersurface import GraphHypersurface
from arwmass.mass import slice_mass_integral
from arwmass.sads import SAdSParams, as_arw_spec
from sources import source_jets


# ---------------------------------------------------------------------------
# sphere volumes and quadrature


def integrate_slice(
    grid: QuadratureGrid,
    integrand: Callable[[np.ndarray], float],
    volume_metric: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Sum of weights * integrand * sqrt(det volume_metric) over the full
    tensor-product grid, the rule integrate_rotationally_symmetric reduces.

    Deterministic: nodes are traversed in axis-major order.  Non-finite
    integrand values or non-positive metric determinants raise
    QuadratureError naming the node.
    """
    mesh = np.meshgrid(*grid.axis_nodes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    wmesh = np.meshgrid(*grid.axis_weights, indexing="ij")
    weights = np.prod(np.stack([w.ravel() for w in wmesh], axis=-1), axis=-1)

    total = 0.0
    for point, w in zip(points, weights):
        m = np.asarray(volume_metric(point), dtype=float)
        det = float(np.linalg.det(m))
        if not np.isfinite(det) or det <= 0.0:
            raise QuadratureError(f"volume metric degenerate at node {point.tolist()}")
        value = float(integrand(point))
        if not np.isfinite(value):
            raise QuadratureError(f"integrand not finite at node {point.tolist()}")
        total += w * value * math.sqrt(det)
    return total


def round_sphere_matrix(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Volume-metric callable for the round unit S^n in the polar chart."""

    def matrix(node: np.ndarray) -> np.ndarray:
        m = np.eye(n)
        s = 1.0
        for i in range(1, n):
            s *= math.sin(node[i - 1]) ** 2
            m[i, i] = s
        return m

    return matrix


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, 2 * math.pi),
        (2, 4 * math.pi),
        (3, 2 * math.pi**2),
        (4, 8 * math.pi**2 / 3),
    ],
)
def test_sphere_volume(n, expected):
    assert sphere_volume(n) == pytest.approx(expected, rel=1e-15)


def test_quadrature_recovers_sphere_volume():
    for n in (2, 3):
        grid = quadrature_grid(n, 32)
        total = integrate_slice(grid, lambda node: 1.0, round_sphere_matrix(n))
        assert total == pytest.approx(sphere_volume(n), rel=1e-12)


def test_reduced_integral_matches_full_grid():
    # a theta1-only integrand on S^3: reduced 1D rule vs full tensor grid
    grid = quadrature_grid(3, 32)
    fn = lambda theta1: math.cos(theta1) ** 2
    reduced = integrate_rotationally_symmetric(grid, fn)
    full = integrate_slice(
        grid, lambda node: fn(node[0]), round_sphere_matrix(3)
    )
    assert reduced == pytest.approx(full, rel=1e-13)
    # exact: int cos^2 over S^3 = |S^3|/4
    assert reduced == pytest.approx(sphere_volume(3) / 4, rel=1e-12)


def reference_integrate_node_values(grid, values):
    """integrate_node_values as it ran before it took leading axes: one row,
    summed node by node in Python floats."""
    total = 0.0
    for theta1, w, value in zip(grid.axis_nodes[0], grid.axis_weights[0], values):
        total += float(w) * float(value) * math.sin(theta1) ** (grid.n - 1)
    return sphere_volume(grid.n - 1) * total


@pytest.mark.parametrize("n, count", [(2, 24), (3, 48), (3, 7)])
def test_node_values_integrate_row_by_row_as_the_scalar_loop(n, count):
    grid = quadrature_grid(n, count)
    rng = np.random.default_rng(5)
    values = rng.normal(size=(6, count)) * np.exp(rng.uniform(-30, 30, size=(6, 1)))
    rows = integrate_node_values(grid, values)
    assert rows.shape == (6,)
    stacked = integrate_node_values(grid, values.reshape(2, 3, count))
    for got, row in zip((rows, stacked.reshape(-1)), (values, values)):
        assert list(got) == [reference_integrate_node_values(grid, r) for r in row]
    one = integrate_node_values(grid, values[4])
    assert type(one) is float
    assert one == reference_integrate_node_values(grid, values[4])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_node_value_names_its_theta1(bad):
    grid = quadrature_grid(3, 8)
    values = np.ones((3, 8))
    values[1, 5] = bad
    values[2, 2] = bad  # later in C order, though at a smaller theta1
    theta1 = grid.axis_nodes[0][5]
    for array in (values[1], values):
        with pytest.raises(QuadratureError) as error:
            integrate_node_values(grid, array)
        assert str(error.value) == f"integrand not finite at theta1={theta1}"


def test_grid_nodes_avoid_poles():
    grid = quadrature_grid(3, 16)
    for axis in grid.axis_nodes[:-1]:
        assert axis.min() > 0.0 and axis.max() < math.pi
    last = grid.axis_nodes[-1]
    assert last.min() > 0.0 and last.max() < 2 * math.pi


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("count", [2, 24, 96])
def test_one_rule_scaled_onto_each_axis_equals_the_per_axis_rule(n, count):
    grid = quadrature_grid(n, count)
    x, w = np.polynomial.legendre.leggauss(count)
    # the grid keeps the unscaled rule, which the slab's tau rule reuses
    assert np.array_equal(grid.rule[0], x) and np.array_equal(grid.rule[1], w)
    for axis in range(n):
        lo, hi = 0.0, 2.0 * math.pi if axis == n - 1 else math.pi
        half = 0.5 * (hi - lo)
        assert np.array_equal(grid.axis_nodes[axis], lo + half * (x + 1.0))
        assert np.array_equal(grid.axis_weights[axis], half * w)


# ---------------------------------------------------------------------------
# metrics


def test_flat_chart_metric_is_minkowski():
    metric = flat_chart_metric(3)
    event = np.array([-0.7, 1.2, 0.4, 2.2])
    jets = metric_jets(metric, event, order=1)
    g, dg = jets.g, jets.dg
    npt.assert_allclose(g, np.diag([-1.0, 1.0, 1.0, 1.0]), atol=0)
    npt.assert_allclose(dg, 0.0, atol=0)


def test_warped_metric_components():
    spec = rw_family_spec(3, 1.0, k=1.0, a=-0.5)
    tau, theta1 = -0.3, 1.0
    event = np.array([tau, theta1, 1.3, 0.7])
    g = metric_jets(spec.metric, event, order=1).g
    scale = math.exp(2 * spec.f.value(tau))
    assert g[0, 0] == pytest.approx(-scale, rel=1e-12)
    assert g[1, 1] == pytest.approx(scale, rel=1e-12)
    assert g[2, 2] == pytest.approx(scale * math.sin(theta1) ** 2, rel=1e-12)
    npt.assert_allclose(g, g.T, atol=0)
    npt.assert_allclose(g @ _invert_metric(g, event), np.eye(4), atol=1e-13)


def test_metric_singular_at_pole():
    spec = rw_family_spec(3, 1.0)
    event = np.array([-0.3, 0.0, 1.0, 1.0])
    with pytest.raises(GeometryError):
        _invert_metric(metric_jets(spec.metric, event, order=1).g, event)


def test_a_tiny_regular_metric_is_not_degenerate():
    # e^{2f} = tau^2 = 1e-120 near the singularity: the fourth power of the
    # largest entry underflows, the determinant of g over it does not
    spec = rw_family_spec(3, 1.0, k=1.0, a=-0.5)
    assert slice_mass_integral(spec, -1e-60) == pytest.approx(6.0 * math.pi**2, rel=1e-13)
    event = np.array([-1e-60, 1.0, 1.3, 0.7])
    g = metric_jets(spec.metric, event, order=0).g
    assert np.array_equal(_invert_metric(g, event), np.linalg.inv(g))


def _angular_spec(n):
    return make_spec(
        n, 1.0, "log(-2*tau)", a=-1.0,
        psi="0.05*cos(theta1)*tau", lam="0.03*cos(theta1)*tau",
    )


@pytest.mark.parametrize("n", [2, 3])
def test_off_diagonal_sigma_entries_are_constant_zeros(n):
    # sigma is held as its n diagonal entries, so its off-diagonal entries
    # are zeros by construction; a dense n x n argument is refused
    spec = _angular_spec(n)
    events = sample_events(spec, 5, seed=3)
    assert len(spec.metric.sigma_diagonal) == n
    assert not any(isinstance(expr, Num) for expr in spec.metric.sigma_diagonal)
    for order in (0, 1, 2):
        for at in (events[0], events):
            sigma = metric_jets(spec.metric, at, order).sigma
            assert sigma.shape == at.shape[:-1] + (n, len(jet_keys(n + 1, order)))
    rows = tuple(tuple(Num(float(i == j)) for j in range(n)) for i in range(n))
    with pytest.raises(TypeError, match="sigma_exprs"):
        SpacetimeMetric(n=n, sigma_exprs=rows)


def _off_diagonal(matrices):
    """The off-diagonal entries of the last two axes."""
    return matrices[..., ~np.eye(matrices.shape[-1], dtype=bool)]


def _assert_inverts_as_lapack(g, events):
    """g (..., m, m) is diagonal, and _invert_metric's diagonal has the bits
    of np.linalg.inv's: the precondition of its 1 / g_aa and its result."""
    assert not np.any(_off_diagonal(g))
    got = np.diagonal(_invert_metric(g, events), axis1=-2, axis2=-1)
    want = np.diagonal(np.linalg.inv(g), axis1=-2, axis2=-1)
    npt.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("n", [2, 3])
def test_every_assembled_metric_is_diagonal_and_inverts_as_lapack(n):
    spec = _angular_spec(n)
    events = sample_events(spec, 8, seed=6).reshape(2, 4, n + 1)
    for metric in (spec.metric, spec.conformal_metric, flat_chart_metric(n)):
        for order in (0, 1, 2):
            jets = metric_jets(metric, events, order)
            for tensor in (jets.g, jets.dg, jets.ddg)[: order + 1]:
                assert not np.any(_off_diagonal(tensor))
            _assert_inverts_as_lapack(jets.g, events)
    # and the induced metric of a tilted graph, at every assembly order
    surface = GraphHypersurface(u="-0.5 + 0.05*cos(theta1)", ambient=spec.metric)
    for order in (0, 1, 2):
        amb = arwmass.hypersurface._ambient(surface, events[..., 1:], order)
        _assert_inverts_as_lapack(amb.induced[0], amb.event)


def _bits(array):
    return np.asarray(array, dtype=float).view(np.int64)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_metric_jets_carry_the_field_jets_they_were_built_from(order):
    scaled = make_spec(
        3, 1.0, "log(-2*tau)", a=-1.0,
        psi="0.05*cos(theta1)*tau", lam="0.03*cos(theta1)*tau", sigma_scale=1.7,
    )
    sads = as_arw_spec(SAdSParams(n=3, lam=-1.0, mass=1.0))
    for spec in (_angular_spec(3), _angular_spec(2), sads, scaled):
        _assert_jets_carry_their_fields(spec, order)


def _assert_jets_carry_their_fields(spec, order):
    n, metric = spec.n, spec.metric
    events = sample_events(spec, 6, seed=4).reshape(2, 3, n + 1)
    for at in (events, events[1, 2]):
        jets = metric_jets(metric, at, order)
        reference = source_jets(metric, at, order)
        for name in ("psi_tilde", "f", "psi", "sigma"):
            npt.assert_array_equal(_bits(getattr(jets, name)), _bits(getattr(reference, name)))
        scale = np.exp(2.0 * jets.psi_tilde[..., :1])
        diagonal = np.diagonal(jets.g, axis1=-2, axis2=-1)
        npt.assert_array_equal(diagonal[..., 1:], scale * jets.sigma[..., 0])
        assert (jets.dg is None) == (order < 1)
        assert (jets.ddg is None) == (order < 2)


def test_the_conformal_metric_differentiates_nothing_after_its_parent(monkeypatch):
    # the conformal metric shares its parent's sigma fields, and so their
    # derivative trees: they are built once.  The process-wide program cache
    # is cleared first, so the parent builds them, and again for the metric
    # built alone, which would otherwise find its programs there
    arwmass.fields._program_slot.cache_clear()
    spec = make_spec(3, 1.0, "log(-tau)", a=-1.0, lam="0.03*cos(theta1)*tau")
    events = sample_events(spec, 4, seed=2)
    metric_jets(spec.metric, events, 2)
    differentiate, calls = arwmass.fields.differentiate, []
    monkeypatch.setattr(
        arwmass.fields, "differentiate", lambda *args: calls.append(args) or differentiate(*args)
    )
    conformal = spec.conformal_metric
    assert conformal.sigma_diagonal is spec.metric.sigma_diagonal
    assert conformal.f is None and conformal.psi == Num(0.0)
    metric_jets(conformal, events, 2)
    assert calls == []
    # a metric built alone differentiates its 3 diagonal entries itself
    arwmass.fields._program_slot.cache_clear()
    metric_jets(SpacetimeMetric(n=3, sigma_diagonal=spec.metric.sigma_diagonal), events, 2)
    assert len(calls) == 3 * (len(jet_keys(4, 2)) - 1)


@pytest.mark.parametrize("n", [2, 3])
def test_the_conformal_metric_reads_the_sigma_columns_of_its_parents_program(n):
    # it compiles no program of its own, and its jets keep the bits of a
    # metric built alone from the same sigma
    spec = _angular_spec(n)
    conformal = spec.conformal_metric
    alone = SpacetimeMetric(n=n, sigma_diagonal=spec.metric.sigma_diagonal)
    events = sample_events(spec, 6, seed=4).reshape(2, 3, n + 1)
    for order in (0, 1, 2):
        got, want = metric_jets(conformal, events, order), metric_jets(alone, events, order)
        for name in ("g", "dg", "ddg", "psi_tilde", "sigma", "f", "psi"):
            if getattr(want, name) is not None:
                npt.assert_array_equal(_bits(getattr(got, name)), _bits(getattr(want, name)))
    assert conformal._programs == {}
    assert sorted(spec.metric._programs) == [0, 1, 2]


def test_only_fields_and_geometry_use_expr_fields_and_time_jets():
    # the metric is the only assembler of its sources' jets; the package
    # root re-exports ExprField, which names it in an import only
    source = pathlib.Path(arwmass.geometry.__file__).parent
    users = []
    for path in sorted(source.glob("*.py")):
        if path.name in ("fields.py", "geometry.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("ExprField", "time_jet"):
                users.append(f"{path.name}:{node.lineno}")
    assert users == []


def test_a_shared_metric_builds_one_program_per_order_under_a_race(monkeypatch):
    # two threads assemble a fresh metric at orders 1 and 2, and both build
    # each program at once: the metric keeps one fully built program per
    # order, and both threads get the same bits.  The process-wide program
    # cache starts empty, so both threads miss it
    arwmass.fields._program_slot.cache_clear()
    spec = _angular_spec(3)
    metric = spec.metric
    events = sample_events(spec, 8, seed=5)
    spec.f.derivative(-0.5, 2)  # the profile's own derivative list is not thread-safe
    both_building = threading.Barrier(2, timeout=10)
    compile_jet = arwmass.fields.compile_jet

    def lockstep(exprs, names):
        both_building.wait()
        return compile_jet(exprs, names)

    monkeypatch.setattr(arwmass.fields, "compile_jet", lockstep)
    results = [None, None]

    def assemble(k):
        results[k] = [metric_jets(metric, events, order) for order in (1, 2)]

    threads = [threading.Thread(target=assemble, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    monkeypatch.setattr(arwmass.fields, "compile_jet", compile_jet)

    assert sorted(metric._programs) == [1, 2]
    assert all(isinstance(program, Program) for program in metric._programs.values())
    fresh = _angular_spec(3).metric
    for first, second, order in zip(*results, (1, 2)):
        reference = metric_jets(fresh, events, order)
        for name in ("g", "dg", "ddg", "psi_tilde", "sigma", "f", "psi"):
            if getattr(reference, name) is None:
                continue
            npt.assert_array_equal(_bits(getattr(first, name)), _bits(getattr(reference, name)))
            npt.assert_array_equal(_bits(getattr(second, name)), _bits(getattr(reference, name)))


# ---------------------------------------------------------------------------
# spec construction


def test_make_spec_damps_angular_perturbation_at_poles():
    spec = make_spec(3, 1.0, "log(-tau)", a=-0.5, psi="0.1*cos(theta1)")
    psi = ExprField(spec.psi, 4)
    tau = -0.3
    near_pole = psi.partial(np.array([tau, 1e-4, 1.0, 1.0]))
    interior = psi.partial(np.array([tau, 0.3, 1.0, 1.0]))
    assert abs(near_pole) < 1e-6
    assert abs(interior) > 1e-3


def test_spec_rejects_bad_domain():
    with pytest.raises(GeometryError):
        make_spec(3, 1.0, "log(-tau)", a=0.5)
    with pytest.raises(GeometryError):
        ARWSpec(n=5, omega=1.0, f=None)


def test_rw_family_mass_parameter():
    # the family is built so that |f'|^2 e^{(n+omega-2)f} == k^2 identically
    for n, omega, k in [(3, 1.0, 1.0), (3, 1.0, 2.0), (2, 2.0, 0.5)]:
        spec = rw_family_spec(n, omega, k=k, a=-0.5)
        gamma = 0.5 * (n + omega - 2)
        for tau in (-0.4, -0.1, -0.01):
            fp = spec.f.derivative(tau, 1)
            value = fp * fp * math.exp(2 * gamma * spec.f.value(tau))
            assert value == pytest.approx(k * k, rel=1e-12)
            assert fp < 0


def test_geometric_schedule():
    times = geometric_schedule(-0.5, 4)
    npt.assert_allclose(times, [-0.5, -0.25, -0.125, -0.0625, -0.03125])


def test_sample_events_ranges():
    spec = rw_family_spec(3, 1.0, a=-0.5)
    events = sample_events(spec, 200, seed=11)
    assert events.shape == (200, 4)
    assert events[:, 0].min() >= 0.9 * 0.5 * -1 - 1e-12
    assert events[:, 0].max() <= 0.05 * -0.5 + 1e-12
    assert events[:, 1].min() > 0.05
    assert events[:, 1].max() < math.pi - 0.05
    # deterministic for a fixed seed
    npt.assert_array_equal(events, sample_events(spec, 200, seed=11))


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_rw_family():
    report = arw_validate(rw_family_spec(3, 1.0, k=2.0, a=-0.5))
    assert report.passed
    assert report.gamma_tilde == pytest.approx(1.0)
    assert report.mass_estimate == pytest.approx(4.0, rel=1e-6)
    assert all(c.passed for c in report.conditions)


def test_validate_rejects_increasing_f():
    report = arw_validate(make_spec(3, 1.0, "tau", a=-0.5))
    assert not report.passed
    assert not report.condition("negative-fprime").passed


def test_validate_rejects_vanishing_mass():
    # |f'|^2 e^{2f} = 4 tau^2 -> 0, so the mass limit condition fails
    report = arw_validate(make_spec(3, 1.0, "2*log(-tau)", a=-0.5))
    assert not report.passed
    assert not report.condition("mass-limit").passed


def test_validate_rejects_diverging_mass():
    # |f'|^2 e^{2f} = 1/(tau log(-tau)^2)^2 * log(-tau)^-2 blows up at 0
    report = arw_validate(make_spec(3, 1.0, "-log(-log(-tau))", a=-0.9))
    assert not report.passed
    assert not report.condition("mass-limit").passed
    assert "diverging=True" in report.condition("mass-limit").detail


def test_validate_condition_lookup_raises_for_unknown_name():
    report = arw_validate(rw_family_spec(3, 1.0))
    with pytest.raises(KeyError):
        report.condition("no-such-condition")


def test_validate_accel_limit_ignores_rounding_of_an_exact_zero():
    # f'' + gamma_tilde f'^2 vanishes on the rw family; at tau = a 2^-12 its
    # rounding is ~1e-16 |f''|, which an absolute floor mistook for growth
    report = arw_validate(rw_family_spec(2, 1.3466188635413567, k=1.0605053072207007, a=-0.5))
    assert all(c.passed for c in report.conditions)


def test_validate_accel_limit_still_flags_real_growth():
    omega = 1.3466188635413567
    gamma_tilde = 0.5 * omega
    report = arw_validate(
        make_spec(2, omega, f"log(-tau)/{gamma_tilde!r} + 0.1*sqrt(-tau)", a=-0.5)
    )
    accel = report.condition("accel-limit")
    assert not accel.passed
    assert accel.values[-1] == pytest.approx(5.6e4, rel=0.01)
