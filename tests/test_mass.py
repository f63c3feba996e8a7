import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import arwmass.curvature
import arwmass.geometry
import arwmass.hypersurface
import arwmass.mass
from arwmass.curvature import curvature_at, curvature_batch, warped_einstein
from arwmass.expr import Num, Program, Var, fold_constants, substitute
from arwmass.fields import ExprField
from arwmass.geometry import (
    ARWSpec,
    ConditionReport,
    GeometryError,
    flat_chart_metric,
    geometric_schedule,
    integrate_rotationally_symmetric,
    make_spec,
    metric_jets,
    quadrature_grid,
    rw_family_spec,
    sample_events,
    sphere_volume,
)
from arwmass.hypersurface import (
    GraphHypersurface,
    coordinate_slice_curvature,
    graph_geometry,
)
from arwmass.imcf import flow_leaves, imcf_run
from arwmass.mass import (
    _FILL_ANGLE,
    TccReport,
    _check_time,
    _TimeChange,
    _slice_events,
    _weighted_integral,
    graph_mass_integral,
    mass_limit,
    monotonicity_scan,
    normalize,
    reparametrize_time,
    slab_balance,
    slice_mass_integral,
    tcc_check,
)
from arwmass.sads import SAdSParams, as_arw_spec, oracle_mass_integral, x0_of_r
from sources import source_jets

PI2 = math.pi**2


@pytest.fixture(scope="module")
def rw1():
    return rw_family_spec(3, 1.0, k=1.0, a=-0.5)


@pytest.fixture(scope="module")
def rw2():
    return rw_family_spec(3, 1.0, k=2.0, a=-0.5)


@pytest.fixture(scope="module")
def grid():
    return quadrature_grid(3, 48)


# ---------------------------------------------------------------------------
# slice and graph integrals


def test_slice_integral_closed_form(rw1, grid):
    # I(tau) = (1/2) n(n-1) |S^n| (1 + |f'|^2) e^{(n + omega - 2) f}
    #        = 6 pi^2 (1 + tau^2) for this family
    for tau in (-0.45, -0.3, -0.1):
        value = slice_mass_integral(rw1, tau, grid)
        assert value == pytest.approx(6 * PI2 * (1 + tau * tau), rel=1e-12)


def test_slice_integral_tracks_sads_oracle(grid):
    params = SAdSParams(n=3, lam=-1.0, mass=1.0)
    spec = as_arw_spec(params)
    for r in (0.25, 0.5, 0.75):
        tau = x0_of_r(params, r)
        assert slice_mass_integral(spec, tau, grid) == pytest.approx(
            oracle_mass_integral(params, r), rel=1e-10
        )


def test_grid_refinement_is_converged(rw1):
    coarse = slice_mass_integral(rw1, -0.3, quadrature_grid(3, 48))
    fine = slice_mass_integral(rw1, -0.3, quadrature_grid(3, 96))
    assert coarse == pytest.approx(fine, rel=1e-12)


def test_constant_graph_equals_slice(rw1, grid):
    surface = GraphHypersurface(u=-0.3, ambient=rw1.metric)
    a = graph_mass_integral(rw1, surface, grid)
    b = slice_mass_integral(rw1, -0.3, grid)
    assert a == pytest.approx(b, rel=1e-12)


def test_tilted_graph_stays_close_to_slice(rw1, grid):
    surface = GraphHypersurface(u="-0.3 + 0.02*cos(theta1)", ambient=rw1.metric)
    tilted = graph_mass_integral(rw1, surface, grid)
    flat = slice_mass_integral(rw1, -0.3, grid)
    assert tilted == pytest.approx(flat, rel=5e-3)
    assert tilted != flat


def log_weight(spec, event):
    """omega f + psi at one event, from f and the psi field pointwise."""
    return spec.omega * spec.f.value(event[0]) + source_jets(spec.metric, event, 0).psi[0]


def reference_graph_mass_integral(spec, surface, grid):
    """The per-node loop graph_mass_integral replaced: graph_geometry and
    curvature_at at every node, each assembling its own ambient jets."""
    n = spec.n
    metric = surface.ambient

    def fn(theta1):
        node = np.full(n, _FILL_ANGLE)
        node[0] = theta1
        ext = graph_geometry(surface, node)
        _check_time(spec, ext.event[0])
        sig11 = source_jets(metric, ext.event, 0).sigma[0, 0]
        nu = ext.past_normal
        return (
            float(nu @ curvature_at(metric, ext.event).einstein @ nu)
            * math.exp(log_weight(spec, ext.event))
            * math.exp(n * ext.psi_tilde)
            * ext.tilt
            * sig11 ** (n / 2.0)
        )

    return integrate_rotationally_symmetric(grid, fn)


SADS_ADS = SAdSParams(n=3, lam=-1.0, mass=1.0)


@pytest.mark.parametrize(
    "spec, u",
    [
        (rw_family_spec(3, 1.0, k=1.0, a=-0.5), "-0.3 + 0.02*cos(theta1)"),
        (as_arw_spec(SADS_ADS), f"{x0_of_r(SADS_ADS, 0.5)!r} + 0.01*cos(theta1)"),
        (
            make_spec(
                3, 1.0, "log(-2*tau)", a=-1.0,
                psi="0.05*cos(theta1)*tau", lam="0.03*cos(theta1)*tau",
            ),
            "-0.4 + 0.03*sin(theta1)*sin(theta1)",
        ),
    ],
    ids=["rw n=3", "sads lambda<0", "custom angular psi"],
)
def test_tilted_graph_matches_per_node_loop(spec, u):
    grid = quadrature_grid(3, 12)
    surface = GraphHypersurface(u=u, ambient=spec.metric)
    got = graph_mass_integral(spec, surface, grid)
    assert got == pytest.approx(reference_graph_mass_integral(spec, surface, grid), rel=1e-13)


def test_graph_integral_assembles_ambient_jets_once_per_node(rw1, monkeypatch):
    calls = []
    original = arwmass.geometry.metric_jets

    def counting(*args, **kwargs):
        calls.append((kwargs.get("order", 2), np.shape(args[1])))
        return original(*args, **kwargs)

    for module in (arwmass.geometry, arwmass.hypersurface, arwmass.curvature):
        monkeypatch.setattr(module, "metric_jets", counting)
    grid = quadrature_grid(3, 12)
    surface = GraphHypersurface(u="-0.3 + 0.02*cos(theta1)", ambient=rw1.metric)
    graph_mass_integral(rw1, surface, grid)
    # one order-2 assembly for all nodes of the graph at once
    assert calls == [(2, (grid.nodes_per_axis, 4))]


def test_graph_integral_evaluates_sigma_11_once(monkeypatch):
    # sigma_11 and the leaf weight come from the frame's assembly: one call
    # of the metric's program beside the graph's own program of u, and no
    # jet of f or psi for the weight
    spec = make_spec(
        3, 1.0, "log(-2*tau)", a=-1.0,
        psi="0.05*cos(theta1)*tau", lam="0.03*cos(theta1)*tau",
    )
    surface = GraphHypersurface(u="-0.3 + 0.02*cos(theta1)", ambient=spec.metric)
    programs, calls = count_evaluations(monkeypatch)
    graph_mass_integral(spec, surface, quadrature_grid(3, 12))
    assert programs == [surface._program, spec.metric._programs[2]]
    assert calls == {"ExprField.jet": 0, "time_jet": 1}


def test_a_spec_weighs_only_graphs_in_its_own_metric(rw1, grid):
    # the weight e^{omega f + psi} is read from the assembly over the graph's
    # ambient: over another metric it would silently drop to 1
    for ambient in (rw1.conformal_metric, flat_chart_metric(3)):
        surface = GraphHypersurface(u=-0.3, ambient=ambient)
        with pytest.raises(GeometryError, match="ambient is not the metric"):
            graph_mass_integral(rw1, surface, grid)


def test_graph_integral_skips_the_intrinsic_curvature(rw1, monkeypatch):
    # G(nu, nu) reads the normal and the ambient Einstein tensor only
    def forbidden(*args):
        raise AssertionError("graph_mass_integral built the intrinsic curvature")

    monkeypatch.setattr(arwmass.hypersurface, "_intrinsic_curvature", forbidden)
    surface = GraphHypersurface(u="-0.3 + 0.02*cos(theta1)", ambient=rw1.metric)
    assert graph_mass_integral(rw1, surface, quadrature_grid(3, 12)) > 0.0


def test_graph_integral_raises_the_first_failing_nodes_error():
    # the first nodes lie below the domain end a = -2 and the graph turns
    # timelike (|u'| = 3 theta1 > 1) further out: node by node, the time
    # check of the first node fires before any node is found timelike
    spec = make_spec(3, 1.0, "log(-tau)", a=-2.0)
    surface = GraphHypersurface(u="-2.1 + 1.5*theta1^2", ambient=spec.metric)
    grid = quadrature_grid(3, 12)
    first = np.full(3, _FILL_ANGLE)
    first[0] = grid.axis_nodes[0][0]
    with pytest.raises(GeometryError) as pointwise:
        _check_time(spec, graph_geometry(surface, first).event[0])
    with pytest.raises(GeometryError) as batched:
        graph_mass_integral(spec, surface, grid)
    assert type(batched.value) is GeometryError
    assert str(batched.value) == str(pointwise.value)


# ---------------------------------------------------------------------------
# the mass limit


def test_mass_limit_rw(rw2, grid):
    report = mass_limit(rw2, grid)
    assert report.m_hat == pytest.approx(4.0, rel=1e-9)
    assert report.error_estimate < 1e-3
    assert len(report.sample_times) == len(report.integrals)


def test_mass_limit_needs_enough_samples(rw1, grid):
    with pytest.raises(GeometryError):
        mass_limit(rw1, grid, schedule=np.array([-0.5, -0.25]))


def test_mass_limit_sads(grid):
    spec = as_arw_spec(SAdSParams(n=3, lam=0.0, mass=1.0))
    report = mass_limit(spec, grid)
    assert report.m_hat == pytest.approx(1.0, abs=1e-9)
    assert report.monotone


# ---------------------------------------------------------------------------
# slab balance


def test_slab_balance_rw(rw1, grid):
    result = slab_balance(rw1, -0.4, -0.1, grid)
    assert result.residual <= 1e-10
    assert result.b1 == pytest.approx(6 * PI2 * 1.16, rel=1e-10)
    assert result.b2 == pytest.approx(6 * PI2 * 1.01, rel=1e-10)
    assert result.volume == pytest.approx(result.b2 - result.b1, rel=1e-9)


def test_slab_balance_perturbed(grid):
    spec = make_spec(
        3, 1.0, "log(-tau)", a=-0.5,
        psi="0.05*cos(theta1)*exp(tau)", lam="0.02*sin(theta1)^2",
    )
    result = slab_balance(spec, -0.4, -0.15, grid)
    assert result.residual <= 1e-8


def test_slab_additivity(rw1, grid):
    t1, t2, t3 = -0.45, -0.25, -0.1
    left = slab_balance(rw1, t1, t2, grid)
    right = slab_balance(rw1, t2, t3, grid)
    full = slab_balance(rw1, t1, t3, grid)
    assert left.volume + right.volume == pytest.approx(full.volume, abs=1e-9)


def test_slab_requires_ordered_times(rw1, grid):
    with pytest.raises(GeometryError):
        slab_balance(rw1, -0.1, -0.4, grid)


def reference_slab_volume(spec, tau1, tau2, grid):
    """The slab volume as a loop over its slices: one call of the base
    kernel per tau node, the field jets from the sources one by one."""
    metric, n = spec.metric, spec.n
    x, gw = np.polynomial.legendre.leggauss(grid.nodes_per_axis)
    half = 0.5 * (tau2 - tau1)
    volume = 0.0
    for tau, wt in zip(tau1 + half * (x + 1.0), half * gw):
        events = _slice_events(n, float(tau), grid.axis_nodes[0])
        _, (g_tt, g_thth, g_fibre) = warped_einstein(metric, events)
        hbar = coordinate_slice_curvature(metric, float(tau))(events[:, 1:])
        fp = spec.f.derivative(float(tau), 1)
        sources = source_jets(metric, events, 0)
        p = sources.psi_tilde[:, 0]
        psi = source_jets(metric, events, 1).psi
        sig11 = sources.sigma[:, 0, 0]
        # g is diagonal: G^{ij} hbar_ij is the theta1 entry and n - 1 fibre terms
        e = np.exp(-2.0 * p)
        spatial = ((e / sig11) ** 2 * g_thth + (n - 1) * g_fibre * e / sig11) * hbar[:, 0, 0]
        time_part = e * e * g_tt * (spec.omega * fp + psi[:, 1]) * np.exp(p)
        log_weight = spec.omega * spec.f.value(float(tau)) + psi[:, 0]
        volume += wt * _weighted_integral(
            n, grid, spatial + time_part, log_weight, p, sig11, power=n + 1
        )
    return volume


@pytest.mark.parametrize(
    "spec, taus",
    [
        (rw_family_spec(3, 1.0, k=1.0, a=-0.5), (-0.45, -0.3)),
        (
            make_spec(
                2, 1.0, "log(-tau)", a=-1.0,
                psi="0.05*cos(theta1)*exp(tau)", lam="0.02*cos(theta1)",
            ),
            (-0.75, -0.25),
        ),
        (as_arw_spec(SAdSParams(n=3, lam=-1.0, mass=1.0)), (-0.8, -0.5)),
    ],
    ids=["rw n=3", "custom angular psi and lambda", "sads lambda<0"],
)
def test_slab_volume_equals_the_per_slice_loop(spec, taus):
    # tau1, tau2 and 32 Gauss nodes in blocks of 12, 12 and 10 slices
    grid = quadrature_grid(spec.n, 32)
    assert arwmass.curvature._BASE_BLOCK_EVENTS // 32 == 12
    slab = slab_balance(spec, *taus, grid)
    assert slab.volume == reference_slab_volume(spec, *taus, grid)
    assert (slab.b1, slab.b2) == tuple(slice_mass_integral(spec, tau, grid) for tau in taus)


def test_slice_and_slab_integrals_need_an_arw_spec():
    # the weight e^{omega f} e^{psi} and the domain [a, 0) are ARW data that a
    # bare metric lacks, and the base kernel relies on sigma_ij = sigma_scale
    # e^{2 lambda} sigma_bar_ij; the type is checked before a grid is built
    # or events are drawn
    spec = rw_family_spec(3, 1.0, k=1.0, a=-0.5)
    metric, grid = spec.metric, quadrature_grid(3, 8)
    surface = GraphHypersurface(u=-0.3, ambient=metric)
    events = sample_events(spec, 2, seed=1)
    for call in (
        lambda: slice_mass_integral(metric, -0.3),
        lambda: slice_mass_integral(metric, -0.3, grid),
        lambda: slab_balance(metric, -0.4, -0.2),
        lambda: slab_balance(metric, -0.4, -0.2, grid),
        lambda: graph_mass_integral(metric, surface),
        lambda: graph_mass_integral(metric, surface, grid),
        lambda: tcc_check(metric),
        lambda: tcc_check(metric, events),
        lambda: mass_limit(metric),
        lambda: mass_limit(metric, grid, geometric_schedule(spec.a, 3)),
        lambda: monotonicity_scan(metric),
        lambda: monotonicity_scan(metric, geometric_schedule(spec.a, 3), grid),
    ):
        with pytest.raises(TypeError, match="^expected an ARWSpec, got SpacetimeMetric$"):
            call()


def test_gauge_moves_and_flows_need_an_arw_spec():
    # each takes f, lambda or the domain from the spec, and checks the type
    # first: before a grid is built, and before eps = 0 returns its input
    metric = rw_family_spec(3, 1.0, k=1.0, a=-0.5).metric
    for call in (
        lambda: normalize(metric),
        lambda: normalize(metric, quadrature_grid(3, 8)),
        lambda: reparametrize_time(metric, 0.0),
        lambda: reparametrize_time(metric, 0.1),
        lambda: imcf_run(metric, u0=-0.3, t_end=0.5),
        lambda: flow_leaves(metric, -0.3, 0.5, 4),
    ):
        with pytest.raises(TypeError, match="^expected an ARWSpec, got SpacetimeMetric$"):
            call()


def count_evaluations(monkeypatch):
    """(the expr.Programs called, in call order; calls of ExprField.jet and
    fields.time_jet by name)."""
    programs = []
    call = Program.__call__

    def counting_program(self, points):
        programs.append(self)
        return call(self, points)

    monkeypatch.setattr(Program, "__call__", counting_program)
    calls = {"ExprField.jet": 0, "time_jet": 0}
    for owner, name in ((ExprField, "jet"), (arwmass.geometry, "time_jet")):
        original = getattr(owner, name)

        def counting(*args, _original=original, **kwargs):
            calls[_original.__qualname__] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return programs, calls


@pytest.mark.parametrize("n, nodes", [(2, 48), (3, 32)])
def test_a_slab_peaks_no_higher_than_a_full_stack_block(n, nodes):
    # each base block's fields are released before the next is assembled,
    # so the slab's blocks of 8 and 12 slices peak like one block
    spec = make_spec(
        n, 1.0, "log(-2*tau)", a=-1.0,
        psi="0.05*cos(theta1)*tau", lam="0.03*cos(theta1)*tau",
    )
    grid = quadrature_grid(n, nodes)
    events = sample_events(spec, arwmass.curvature._BLOCK_EVENTS, seed=3)
    peaks = []
    for run in (
        lambda: curvature_batch(spec.metric, events),
        lambda: slab_balance(spec, -0.6, -0.2, grid),
    ):
        run()  # the programs are compiled outside the trace
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    full, slab = peaks
    assert slab <= full


@pytest.mark.parametrize("n", [2, 3])
def test_a_slab_block_evaluates_each_field_jet_once(n, monkeypatch):
    # one call of the metric's program evaluates psi and the n diagonal
    # sigma entries of the block, f's jet is summed into psi_tilde there,
    # and the bounding slices, the weight and omega f' + psi' are read from
    # the same assembly
    spec = make_spec(
        n, 1.0, "log(-2*tau)", a=-1.0,
        psi="0.05*cos(theta1)*tau", lam="0.03*cos(theta1)*tau",
    )
    grid = quadrature_grid(n, 8)  # tau1, tau2 and 8 nodes, 8 events each: one block
    programs, calls = count_evaluations(monkeypatch)
    slab_balance(spec, -0.6, -0.2, grid)
    assert programs == [spec.metric._programs[2]]
    assert calls == {"ExprField.jet": 0, "time_jet": 1}

    programs.clear()
    calls.update(dict.fromkeys(calls, 0))
    slice_mass_integral(spec, -0.4, grid)
    assert programs == [spec.metric._programs[2]]
    assert calls == {"ExprField.jet": 0, "time_jet": 1}


# ---------------------------------------------------------------------------
# scans


@pytest.mark.parametrize("schedule", [[-0.3], []], ids=["one sample", "no sample"])
def test_a_monotonicity_scan_needs_two_samples(rw1, grid, schedule, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the scan took an integral")

    monkeypatch.setattr(arwmass.mass, "slice_mass_integral", forbidden)
    with pytest.raises(GeometryError, match="the monotonicity scan needs at least 2 samples"):
        monotonicity_scan(rw1, schedule, grid)


def test_monotonicity_scan_directions(grid):
    increasing = as_arw_spec(SAdSParams(n=3, lam=-1.0, mass=1.0))
    scan = monotonicity_scan(increasing, grid=grid)
    assert scan.direction == "increasing"

    constant = as_arw_spec(SAdSParams(n=3, lam=0.0, mass=1.0))
    scan = monotonicity_scan(constant, grid=grid)
    assert scan.direction == "constant"

    decreasing = rw_family_spec(3, 1.0, k=1.0, a=-0.5)
    scan = monotonicity_scan(decreasing, grid=grid)
    assert scan.direction == "decreasing"
    assert {p.name for p in scan.probes} >= {"lapse-negative", "energy-density"}


def test_tcc_holds_for_rw(rw1):
    report = tcc_check(rw1, seed=4)
    assert report.passed
    assert report.minimum >= 0.0
    assert not report.violations


def test_tcc_detects_violation():
    spec = make_spec(
        3, 1.0, "log(-tau)", a=-0.9, psi="-3*exp(-40*(tau+0.5)^2)"
    )
    report = tcc_check(spec, seed=4)
    assert not report.passed
    assert report.minimum < 0
    assert report.violations
    event, nu, value = report.violations[0]
    assert value < 0 and len(nu) == 4 and event[0] < 0


def test_tcc_is_deterministic(rw1):
    a = tcc_check(rw1, seed=9)
    b = tcc_check(rw1, seed=9)
    assert a.minimum == b.minimum and a.samples == b.samples


def reference_tcc(spec, events, directions_per_event=32, seed=0, tol=1e-9):
    """tcc_check as it ran one direction at a time: a normal draw, a norm
    and two small products per direction.  Returns its report, and every
    value and its size |nu| |Ric| |nu| in direction order."""
    rng = np.random.default_rng(seed + 1)
    metric, n = spec.metric, spec.n
    minimum, samples, violations, values, sizes = math.inf, 0, [], [], []
    for event in np.asarray(events, dtype=float):
        bundle = curvature_at(metric, event)
        sources = source_jets(metric, event, 0)
        p = sources.psi_tilde[0]
        frame = np.zeros((n + 1, n + 1))
        frame[0, 0] = math.exp(-p)
        for i in range(n):
            sig = sources.sigma[i, 0]
            frame[i + 1, i + 1] = math.exp(-p) / math.sqrt(sig)
        chis = np.concatenate(([0.0], rng.uniform(0.0, 2.5, directions_per_event - 1)))
        for chi in chis:
            d = rng.normal(size=n)
            d /= np.linalg.norm(d)
            nu = math.cosh(chi) * frame[0] + math.sinh(chi) * (d @ frame[1:])
            value = float(nu @ bundle.ricci @ nu)
            values.append(value)
            sizes.append(float(np.abs(nu) @ np.abs(bundle.ricci) @ np.abs(nu)))
            samples += 1
            if value < minimum:
                minimum = value
            if value < -tol:
                violations.append((tuple(event), tuple(nu), value))
    report = TccReport(minimum, minimum >= -tol, samples, tuple(violations))
    return report, values, sizes


TCC_VIOLATION_SPEC = make_spec(3, 1.0, "log(-tau)", a=-0.9, psi="-3*exp(-40*(tau+0.5)^2)")

TCC_SPECS = [
    pytest.param(rw_family_spec(3, 1.0, k=1.0, a=-0.5), 1e-9, id="rw n=3"),
    pytest.param(
        make_spec(
            2, 1.5, "0.5*log(-1.3*tau)", a=-1.0,
            psi="0.05*cos(theta1)*tau", lam="0.03*cos(theta1)*tau",
        ),
        1e-9,
        id="custom decaying",
    ),
    pytest.param(as_arw_spec(SADS_ADS), 1e-9, id="sads lambda<0"),
    pytest.param(TCC_VIOLATION_SPEC, -1e300, id="violation, every direction reported"),
]


@pytest.mark.parametrize("spec, tol", TCC_SPECS)
def test_tcc_equals_the_per_direction_loop(spec, tol):
    events = sample_events(spec, 12, seed=3)
    got = tcc_check(spec, events, seed=3, tol=tol)
    ref, values, sizes = reference_tcc(spec, events, seed=3, tol=tol)
    at = values.index(ref.minimum)
    if at % 32 == 0:  # chi = 0: nu is the frame's e_0 and the value keeps its bits
        assert got.minimum == ref.minimum
    else:
        assert abs(got.minimum - ref.minimum) <= 8 * np.spacing(sizes[at])
    assert got.passed == ref.passed
    assert got.samples == ref.samples == 12 * 32
    assert len(got.violations) == len(ref.violations)
    assert [v[0] for v in got.violations] == [v[0] for v in ref.violations]
    # Every direction is a violation with tol < 0: compare each nu and value.
    # A component of nu moves by up to 2 ulp (np.cosh, the batched norm), and
    # the quadratic form doubles that, so a value gets 8 ulp of its size.
    if tol < 0.0:
        for (_, nu, value), (_, ref_nu, ref_value), size in zip(
            got.violations, ref.violations, sizes
        ):
            ref_nu = np.array(ref_nu)
            assert np.all(np.abs(np.array(nu) - ref_nu) <= 4 * np.spacing(np.abs(ref_nu)))
            assert abs(value - ref_value) <= 8 * np.spacing(size)


class _CountingGenerator:
    """A generator that records the name of every draw made from it."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.draws = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            self.draws.append(name)
            return method(*args, **kwargs)

        return draw


def _count_curvature_at(monkeypatch) -> list:
    """The events of every curvature_at call arwmass.mass makes from now on."""
    calls = []

    def counted(metric, event):
        calls.append(event)
        return curvature_at(metric, event)

    monkeypatch.setattr(arwmass.mass, "curvature_at", counted)
    return calls


def test_tcc_draws_twice_and_assembles_once_per_event(monkeypatch):
    spec = TCC_VIOLATION_SPEC
    events = sample_events(spec, 5, seed=1)
    generators = []

    def counting_rng(seed):
        generators.append(_CountingGenerator(seed))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    calls = _count_curvature_at(monkeypatch)
    tcc_check(spec, events, seed=6)
    (generator,) = generators
    assert generator.draws == ["uniform", "normal"] * len(events)
    assert len(calls) == len(events)
    # the loop's draws, one normal vector per direction, leave the same state
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in events:
        rng.uniform(0.0, 2.5, 31)
        for _ in range(32):
            rng.normal(size=3)
    assert generator.rng.bit_generator.state == rng.bit_generator.state


def test_tcc_reads_its_frame_from_the_curvature_bundle(monkeypatch):
    # e_a = |g_aa|^{-1/2} d_a from the bundle's g: no field is evaluated
    # outside the curvature assembly
    spec = TCC_VIOLATION_SPEC
    calls = []
    original = ExprField.partial

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ExprField, "partial", counting)
    report = tcc_check(spec, sample_events(spec, 5, seed=1), seed=6)
    assert calls == []
    assert report.samples == 5 * 32


@pytest.mark.parametrize(
    "events, message",
    [
        ([], "at least one event, got 0"),
        (np.empty((0, 4)), "at least one event, got 0"),
        ([[-0.3, 1.0, 1.0]], r"shape \(m, 4\), got \(1, 3\)"),
        ([-0.3, 1.0, 1.0, 1.0], r"shape \(m, 4\), got \(4,\)"),
    ],
    ids=["empty list", "empty array", "short event", "flat event list"],
)
def test_tcc_rejects_events_it_cannot_check(rw1, events, message):
    with pytest.raises(GeometryError, match=message):
        tcc_check(rw1, events)


def test_tcc_fails_on_nan_and_lists_its_directions(rw1, monkeypatch):
    events = sample_events(rw1, 3, seed=2)

    def nan_at_the_second_event(metric, event):
        bundle = curvature_at(metric, event)
        if np.array_equal(event, events[1]):
            ricci = bundle.ricci.copy()
            ricci[0, 0] = math.nan
            return SimpleNamespace(g=bundle.g, ricci=ricci)
        return bundle

    monkeypatch.setattr(arwmass.mass, "curvature_at", nan_at_the_second_event)
    report = tcc_check(rw1, events, seed=2)
    assert math.isnan(report.minimum)
    assert not report.passed
    assert report.samples == 3 * 32
    assert len(report.violations) == 32
    assert all(event == tuple(events[1]) for event, _, _ in report.violations)
    assert all(math.isnan(value) for _, _, value in report.violations)


def reference_probes(spec, schedule, grid):
    """monotonicity_scan's probes as they ran one node at a time: one
    curvature_at and one coordinate_slice_curvature call per probe node."""
    metric, n = spec.metric, spec.n
    times = np.asarray(schedule, dtype=float)
    fp = np.array([spec.f.derivative(float(t), 1) for t in times])
    min_g00 = min_gij = min_hbar = math.inf
    for tau in times:
        hbar = coordinate_slice_curvature(metric, float(tau))
        for theta1 in grid.axis_nodes[0][::4]:
            event = np.full(n + 1, _FILL_ANGLE)
            event[0] = tau
            event[1] = theta1
            bundle = curvature_at(metric, event)
            g_up = bundle.g_inv @ bundle.einstein @ bundle.g_inv
            min_g00 = min(min_g00, float(g_up[0, 0]))
            min_gij = min(min_gij, float(np.linalg.eigvalsh(g_up[1:, 1:])[0]))
            min_hbar = min(min_hbar, float(np.linalg.eigvalsh(hbar(event[1:]))[0]))
    psi_zero = fold_constants(spec.psi) == Num(0.0)
    return (
        ConditionReport("lapse-negative", bool(np.all(fp < 0.0)), f"max f' = {fp.max():.3e}"),
        ConditionReport("energy-density", min_g00 >= -1e-10, f"min G^00 = {min_g00:.3e}"),
        ConditionReport("spatial-stress", min_gij >= -1e-10, f"min eig G^ij = {min_gij:.3e}"),
        ConditionReport("slice-convexity", min_hbar >= -1e-10, f"min eig hbar = {min_hbar:.3e}"),
        ConditionReport("omega-zero", spec.omega == 0.0, f"omega = {spec.omega}"),
        ConditionReport("psi-zero", psi_zero, f"psi zero: {psi_zero}"),
    )


@pytest.mark.parametrize("spec, _tol", TCC_SPECS)
def test_probes_equal_the_per_node_loop(spec, _tol, monkeypatch):
    grid = quadrature_grid(spec.n, 16)
    schedule = geometric_schedule(spec.a, 6)
    calls = _count_curvature_at(monkeypatch)
    scan = monotonicity_scan(spec, schedule, grid)
    assert scan.probes == reference_probes(spec, schedule, grid)
    assert len(calls) == len(schedule) * len(grid.axis_nodes[0][::4])


@pytest.mark.parametrize("n", [2, 3])
def test_the_spatial_block_of_the_raised_einstein_tensor_is_diagonal(n):
    # the spatial-stress probe reads the least diagonal entry of G^{ij} as
    # its least eigenvalue: on a warped product the block is diagonal, here
    # up to 2.1e-15 of each event's largest entry (2.2e-19 of the stack's)
    spec = make_spec(
        n, 1.0, "log(-2*tau)", a=-1.0,
        psi="0.05*cos(theta1)*tau", lam="0.03*cos(theta1)*tau",
    )
    bundle = curvature_batch(spec.metric, sample_events(spec, 96, seed=5))
    spatial = (bundle.g_inv @ bundle.einstein @ bundle.g_inv)[:, 1:, 1:]
    scale = np.max(np.abs(spatial), axis=(1, 2))
    off_diagonal = np.max(np.abs(spatial * (1.0 - np.eye(n))), axis=(1, 2))
    assert np.all(off_diagonal <= 1e-14 * scale)
    least = np.min(np.diagonal(spatial, axis1=1, axis2=2), axis=1)
    assert np.all(np.abs(np.linalg.eigvalsh(spatial)[:, 0] - least) <= 1e-14 * scale)


def test_a_nan_stress_fails_the_spatial_stress_probe(rw1, monkeypatch):
    # one probe event's G_theta1theta1 goes NaN, and with it the diagonal of
    # that event's G^{ij}: its least entry reads NaN, which fails the probe
    grid = quadrature_grid(3, 16)
    schedule = geometric_schedule(rw1.a, 4)
    target = (schedule[1], grid.axis_nodes[0][4])

    def nan_at_one_event(metric, event):
        bundle = curvature_at(metric, event)
        if (event[0], event[1]) == target:
            einstein = bundle.einstein.copy()
            einstein[1, 1] = math.nan
            return SimpleNamespace(g_inv=bundle.g_inv, einstein=einstein)
        return bundle

    monkeypatch.setattr(arwmass.mass, "curvature_at", nan_at_one_event)
    probes = {p.name: p for p in monotonicity_scan(rw1, schedule, grid).probes}
    assert not probes["spatial-stress"].passed
    assert probes["spatial-stress"].detail == "min eig G^ij = nan"


# ---------------------------------------------------------------------------
# gauge moves


def test_normalize_is_identity_for_unit_sphere(rw1, grid):
    result, scale = normalize(rw1, grid)
    assert scale == 1.0
    assert result is rw1


def stretched(spec, c):
    """The same spacetime with sigma_bar -> c sigma_bar: the time change
    tau = s / sqrt(c) on f, psi and lambda, and a -> sqrt(c) a."""
    phi = Var("tau") / Num(math.sqrt(c))
    return ARWSpec(
        n=spec.n,
        omega=spec.omega,
        f=_TimeChange(spec.f, phi),
        psi=fold_constants(substitute(spec.psi, "tau", phi)),
        lam=fold_constants(substitute(spec.lam, "tau", phi)),
        a=math.sqrt(c) * spec.a,
        sigma_scale=spec.sigma_scale * c,
    )


def test_normalize_round_trip(grid):
    # re-present the same spacetime with sigma_bar -> c sigma_bar and the
    # companion moves on f and a, then undo the scaling
    c = 1.7
    reference = rw_family_spec(3, 1.0, k=1.5, a=-0.5)
    m_ref = mass_limit(reference, grid).m_hat

    pre = stretched(reference, c)
    # the raw presentation reports a gauge-dependent number ...
    m_pre = mass_limit(pre, grid).m_hat
    assert m_pre == pytest.approx(m_ref * c ** (-pre.omega / 2), rel=1e-9)

    # ... and normalizing recovers the reference value
    renormed, scale = normalize(pre, grid)
    assert scale == pytest.approx(1.0 / c, rel=1e-12)
    assert renormed.sigma_scale == pytest.approx(1.0, rel=1e-12)
    assert renormed.a == pytest.approx(reference.a, rel=1e-12)
    assert mass_limit(renormed, grid).m_hat == pytest.approx(m_ref, rel=1e-9)


@pytest.mark.parametrize(
    "spec",
    [
        rw_family_spec(2, 1.0, k=1.5, a=-0.5),
        rw_family_spec(3, 1.0, k=1.5, a=-0.5),
        as_arw_spec(SAdSParams(n=3, lam=0.0, mass=1.0)),
        make_spec(2, 1.0, "log(-tau)", a=-1.0, lam="0.2*tau"),
    ],
    ids=["rw n=2", "rw n=3", "sads n=3", "lambda of tau alone"],
)
@pytest.mark.parametrize("nodes", [4, 8])
def test_normalize_keeps_a_unit_volume_spec_at_every_grid(spec, nodes):
    # the unit sphere is measured with the grid's own rule, so the
    # quadrature error of a coarse grid is no reason to rescale
    result, scale = normalize(spec, quadrature_grid(spec.n, nodes))
    assert scale == 1.0
    assert result is spec


ANGULAR = make_spec(
    3, 1.0, "log(-tau)", a=-1.0,
    psi="0.05*cos(theta1)*exp(tau)", lam="0.03*cos(theta1)*tau",
)


@pytest.mark.parametrize("c", [1.7, 2.3])
def test_normalize_round_trip_with_angular_perturbations(c):
    grid = quadrature_grid(3, 24)
    m_ref = mass_limit(ANGULAR, grid).m_hat
    renormed, scale = normalize(stretched(ANGULAR, c), grid)
    assert scale == pytest.approx(1.0 / c, rel=1e-12)
    assert mass_limit(renormed, grid).m_hat == pytest.approx(m_ref, rel=1e-9)


def test_reparametrize_drift_with_angular_perturbations():
    # the drift is the extrapolation error of the two schedules, not a gauge
    # dependence
    grid = quadrature_grid(3, 24)
    m_ref = mass_limit(ANGULAR, grid).m_hat
    for eps in (-0.1, 0.1):
        m_new = mass_limit(reparametrize_time(ANGULAR, eps), grid).m_hat
        assert m_new == pytest.approx(m_ref, abs=1e-6)


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_reparametrize_recovers_the_sads_mass(lam):
    spec = as_arw_spec(SAdSParams(n=3, lam=lam, mass=1.0))
    grid = quadrature_grid(3, 24)
    for eps in (-0.1, 0.1):
        m_hat = mass_limit(reparametrize_time(spec, eps), grid).m_hat
        assert m_hat == pytest.approx(1.0, abs=1e-12)


def test_reparametrize_preserves_mass(rw1, grid):
    m_ref = mass_limit(rw1, grid).m_hat
    for eps in (-0.1, 0.1):
        other = reparametrize_time(rw1, eps)
        assert other.omega == rw1.omega
        assert other.a != rw1.a
        m_new = mass_limit(other, grid).m_hat
        assert m_new == pytest.approx(m_ref, abs=1e-6)


def test_reparametrize_zero_is_identity(rw1):
    assert reparametrize_time(rw1, 0.0) is rw1


def test_reparametrized_time_function_derivatives(rw1):
    # f_tilde(s) = f(phi(s)) + log phi'(s) with phi(s) = s + eps s^2
    other = reparametrize_time(rw1, 0.1)
    s = -0.3
    h = 1e-5
    fd1 = (other.f.value(s + h) - other.f.value(s - h)) / (2 * h)
    assert other.f.derivative(s, 1) == pytest.approx(fd1, rel=1e-8)
    fd2 = (other.f.value(s + h) - 2 * other.f.value(s) + other.f.value(s - h)) / h**2
    assert other.f.derivative(s, 2) == pytest.approx(fd2, rel=1e-4)
    phi = s + 0.1 * s * s
    assert other.f.value(s) == pytest.approx(
        rw1.f.value(phi) + math.log(1 + 0.2 * s), rel=1e-12
    )


def test_leaf_integral_takes_rows_of_node_values(rw1):
    # one call over stacked rows and over a block of slices, each row equal
    # to its own call
    grid = quadrature_grid(3, 12)
    n = rw1.n
    events = np.stack([_slice_events(n, tau, grid.axis_nodes[0]) for tau in (-0.4, -0.2)])
    sources = source_jets(rw1.metric, events, 0)
    p = sources.psi_tilde[..., 0]
    s = sources.sigma[..., 0, 0]
    jets = metric_jets(rw1.metric, events, 0)
    lw = rw1.omega * jets.f[..., 0] + jets.psi[..., 0]
    values = np.cos(events[..., 1]) + events[..., 0]
    block = _weighted_integral(n, grid, values, lw, p, s, power=4)
    rows = np.stack((values[0], 2 * values[0]))
    stacked = _weighted_integral(n, grid, rows, lw[0], p[0], s[0])
    assert block.shape == stacked.shape == (2,)
    assert list(block) == [_weighted_integral(n, grid, v, x, q, t, power=4)
                           for v, x, q, t in zip(values, lw, p, s)]
    assert list(stacked) == [_weighted_integral(n, grid, v, lw[0], p[0], s[0])
                             for v in (values[0], 2 * values[0])]
