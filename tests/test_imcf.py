import math

import numpy as np
import numpy.testing as npt
import pytest

import arwmass.curvature
import arwmass.hypersurface
import arwmass.imcf
import arwmass.mass
from arwmass.curvature import curvature_at
from arwmass.expr import DomainError
from arwmass.fields import as_expression
from arwmass.geometry import (
    GeometryError,
    SpacetimeMetric,
    make_spec,
    metric_jets,
    quadrature_grid,
    rw_family_spec,
    sphere_volume,
)
from arwmass.hypersurface import (
    GraphHypersurface,
    coordinate_slice_curvature,
    intrinsic_curvature,
    second_fundamental,
)
from arwmass.imcf import (
    FlowError,
    flow_diagnostics,
    flow_leaves,
    imcf_run,
    mass_along_flow,
)
from arwmass.mass import _FILL_ANGLE, _check_time, normalize, slice_mass_integral
from arwmass.sads import SAdSParams, as_arw_spec, x0_of_r
from sources import source_jets

PI2 = math.pi**2


@pytest.fixture(scope="module")
def rw():
    return rw_family_spec(3, 1.0, k=1.0, a=-1.0)


@pytest.fixture(scope="module")
def trajectory(rw):
    # u = -0.5 e^{-t/3} crosses the halt band |u| < 1e-12 near t = 81
    return imcf_run(rw, u0=-0.5, t_end=100.0, tolerance=1e-10)


def exact_u(t, u0=-0.5, gamma=1.0, n=3):
    return u0 * math.exp(-gamma * t / n)


def spaced_leaves(run, count):
    """``count`` evenly spaced leaves of ``run``, the first and last included."""
    return run.leaves[np.unique(np.linspace(0, len(run.states) - 1, count).round().astype(int))]


def test_flow_matches_exponential_solution(trajectory):
    errors = [abs(s.u - exact_u(s.t)) for s in trajectory.states]
    assert max(errors) <= 10 * trajectory.tolerance


def test_flow_time_grid_is_strictly_increasing(trajectory):
    times = trajectory.times
    assert (np.diff(times) > 0).all()
    leaves = trajectory.leaves
    assert (np.diff(leaves) > 0).all()  # u rises toward the singularity
    assert leaves[0] == -0.5


def test_flow_reaches_singularity_flag(rw, trajectory):
    assert trajectory.reached_singularity
    short = imcf_run(rw, u0=-0.5, t_end=1.0, tolerance=1e-10)
    assert not short.reached_singularity
    assert short.states[-1].t == pytest.approx(1.0)


def test_mean_curvature_along_flow(trajectory):
    # H = -n f' e^{-f} = n / u^2 for f = log(-tau), blowing up at the end
    for state in trajectory.states[:: max(1, len(trajectory.states) // 8)]:
        assert state.mean_curvature == pytest.approx(3.0 / state.u**2, rel=1e-9)
        assert state.f_of_u == pytest.approx(math.log(-state.u), rel=1e-9)


def test_diagnostics_recover_flow_rates(rw):
    # fit over a span where |u| stays far above the absolute error floor
    run = imcf_run(rw, u0=-0.5, t_end=15.0, tolerance=1e-10)
    slope, decay = flow_diagnostics(run)
    assert slope == pytest.approx(-1.0 / 3.0, abs=1e-8)
    assert decay == pytest.approx(-1.0 / 3.0, abs=1e-8)


def test_diagnostics_in_two_spatial_dimensions():
    spec = rw_family_spec(2, 1.0, k=1.0, a=-1.0)
    run = imcf_run(spec, u0=-0.5, t_end=24.0, tolerance=1e-10)
    slope, decay = flow_diagnostics(run)
    assert slope == pytest.approx(-0.5, abs=1e-7)
    assert decay == pytest.approx(-0.25, abs=1e-7)


def test_diagnostics_need_a_long_enough_run(rw):
    stub = imcf_run(rw, u0=-0.5, t_end=0.5, tolerance=1e-8)
    with pytest.raises(FlowError):
        flow_diagnostics(stub)


def test_fixed_step_convergence_order(rw):
    errs = []
    for h in (0.05, 0.025):
        run = imcf_run(rw, u0=-0.5, t_end=2.0, fixed_step=h)
        errs.append(abs(run.states[-1].u - exact_u(2.0)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 4.0


def test_flow_requires_rotational_symmetry():
    for spec in (
        make_spec(3, 1.0, "log(-tau)", a=-1.0, lam="0.02*sin(theta1)^2"),
        make_spec(3, 1.0, "log(-tau)", a=-1.0, psi="0.1*cos(theta1)"),
    ):
        with pytest.raises(FlowError):
            imcf_run(spec, u0=-0.5, t_end=1.0)
        # no flow has such leaves, and mass_along_flow reads them as round slices
        with pytest.raises(FlowError):
            mass_along_flow(spec, [-0.5, -0.2], quadrature_grid(3, 8))
    with pytest.raises(TypeError, match="^expected an ARWSpec, got SpacetimeMetric$"):
        mass_along_flow(spec.metric, [-0.5, -0.2], quadrature_grid(3, 8))


def test_flow_aborts_when_mean_curvature_flips():
    spec = make_spec(3, 1.0, "log(-tau)", a=-1.0, psi="5*tau")
    with pytest.raises(FlowError, match="mean curvature"):
        imcf_run(spec, u0=-0.9, t_end=10.0)


def test_mass_constant_along_sads_flow():
    params = SAdSParams(n=3, lam=0.0, mass=1.0)
    spec = as_arw_spec(params)
    run = imcf_run(spec, u0=x0_of_r(params, 0.5), t_end=8.0, tolerance=1e-10)
    samples = mass_along_flow(spec, spaced_leaves(run, 8), quadrature_grid(3, 48))
    for sample in samples:
        assert sample.mass_integral == pytest.approx(6 * PI2, rel=1e-10)


def test_lemma_quantity_decays_to_zero(rw):
    # moderate span: u stays in a range where the closed form is resolvable
    run = imcf_run(rw, u0=-0.5, t_end=33.0, tolerance=1e-10)
    samples = mass_along_flow(rw, spaced_leaves(run, 16), quadrature_grid(3, 48))
    lemma = [s.lemma_quantity for s in samples]
    # closed form 12 pi^2 u^2 on round slices, decaying monotonically
    for sample in samples:
        assert sample.lemma_quantity == pytest.approx(
            12 * PI2 * sample.u**2, rel=1e-9
        )
    assert all(b < a for a, b in zip(lemma, lemma[1:]))
    assert lemma[-1] < 1e-6
    # the mean-curvature form of the integrand reproduces the mass integral
    for sample in samples:
        assert sample.mean_curvature_form == pytest.approx(6 * PI2, rel=1e-9)


def log_weight(spec, event):
    """omega f + psi at one event, from f and the psi field pointwise."""
    return spec.omega * spec.f.value(event[0]) + source_jets(spec.metric, event, 0).psi[0]


def reference_mass_along_flow(spec, leaves, grid):
    """(I, lemma, H form) per leaf from the separate per-node calls:
    second_fundamental, curvature_at and intrinsic_curvature, each of which
    assembles its own ambient jets."""
    n = spec.n
    out = []
    for u in leaves:
        surface = GraphHypersurface(as_expression(u), spec.metric)
        totals = np.zeros(3)
        for theta1, wt in zip(grid.axis_nodes[0], grid.axis_weights[0]):
            node = np.full(n, _FILL_ANGLE)
            node[0] = theta1
            ext = second_fundamental(surface, node)
            _check_time(spec, ext.event[0])
            bundle = curvature_at(spec.metric, ext.event)
            nu = ext.past_normal
            scalar = intrinsic_curvature(surface, node).scalar
            values = np.array([
                float(nu @ bundle.einstein @ nu),
                scalar - (ext.norm_a_sq - ext.mean_curvature**2 / n),
                (n - 1) / (2.0 * n) * ext.mean_curvature**2,
            ])
            sig11 = source_jets(spec.metric, ext.event, 0).sigma[0, 0]
            totals += values * (
                math.exp(log_weight(spec, ext.event))
                * math.exp(n * ext.psi_tilde)
                * ext.tilt
                * sig11 ** (n / 2.0)
                * float(wt)
                * math.sin(theta1) ** (n - 1)
            )
        out.append(totals * sphere_volume(n - 1))
    return out


SADS_ADS = SAdSParams(3, -1.0, 1.0)


@pytest.mark.parametrize(
    "spec, leaves",
    [
        (as_arw_spec(SADS_ADS), [x0_of_r(SADS_ADS, 0.6), x0_of_r(SADS_ADS, 0.3)]),
        (rw_family_spec(2, 1.5, k=0.8, a=-1.0), [-0.7, -0.2]),
        (rw_family_spec(3, 1.0, k=1.3, a=-1.0), [-0.6, -0.05]),
    ],
    ids=["sads lambda<0", "rw n=2", "rw n=3"],
)
def test_mass_along_flow_matches_separate_node_calls(spec, leaves):
    grid = quadrature_grid(spec.n, 12)
    samples = mass_along_flow(spec, leaves, grid)
    reference = reference_mass_along_flow(spec, leaves, grid)
    for sample, ref in zip(samples, reference):
        got = [sample.mass_integral, sample.lemma_quantity, sample.mean_curvature_form]
        npt.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


def leaf_numbers(sample):
    return sample.mass_integral, sample.lemma_quantity, sample.mean_curvature_form


@pytest.mark.parametrize(
    "spec, u0",
    [
        (rw_family_spec(2, 1.5, k=0.8, a=-1.0), -0.7),
        (rw_family_spec(3, 1.0, k=1.3, a=-1.0), -0.6),
        (as_arw_spec(SADS_ADS), x0_of_r(SADS_ADS, 0.6)),
    ],
    ids=["rw n=2", "rw n=3", "sads lambda<0"],
)
def test_blocks_of_leaves_keep_the_bits_of_each_leaf_alone(spec, u0):
    # 20 leaves in one slice evaluation, against each leaf alone
    grid = quadrature_grid(spec.n, 24)
    run = imcf_run(spec, u0=u0, t_end=6.0)
    listed = np.linspace(u0, 0.1 * u0, 20).tolist()
    for leaves in (listed, spaced_leaves(run, 20)):
        samples = mass_along_flow(spec, leaves, grid)
        assert len(samples) == 20
        for sample in samples:
            alone = mass_along_flow(spec, [sample.u], grid)[0]
            assert leaf_numbers(sample) == leaf_numbers(alone)


def test_a_block_of_leaves_is_one_assembly(rw, monkeypatch):
    # the 9 leaves are one order-1 evaluation of the slice fields, one event
    # per leaf, and no base-kernel call
    calls = []
    original = SpacetimeMetric.field_jets

    def counting(metric, events, order):
        calls.append((np.shape(events), order))
        return original(metric, events, order)

    def forbidden(*args, **kwargs):
        raise AssertionError("mass_along_flow called the base kernel")

    monkeypatch.setattr(SpacetimeMetric, "field_jets", counting)
    for module in (arwmass.curvature, arwmass.mass):
        monkeypatch.setattr(module, "warped_einstein", forbidden)
    mass_along_flow(rw, np.linspace(-0.9, -0.1, 9), quadrature_grid(3, 24))
    assert calls == [((9, 4), 1)]


def test_leaves_build_no_graph_and_no_curvature_stack(rw, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("mass_along_flow built a graph or curvature stack")

    monkeypatch.setattr(arwmass.hypersurface, "_ambient", forbidden)
    monkeypatch.setattr(arwmass.hypersurface, "_intrinsic_curvature", forbidden)
    for module in (arwmass.curvature, arwmass.hypersurface):
        monkeypatch.setattr(module, "curvature_from_jets", forbidden)
    for module in (arwmass.curvature, arwmass.mass):
        monkeypatch.setattr(module, "warped_einstein", forbidden)
    samples = mass_along_flow(rw, np.linspace(-0.9, -0.1, 9), quadrature_grid(3, 24))
    assert len(samples) == 9


@pytest.mark.parametrize("n", [2, 3])
def test_lemma_quantity_meets_the_rw_closed_form_on_every_leaf(n):
    # on the rw family the lemma integrand R e^{omega f} e^{n f} is
    # n(n-1) e^{(n + omega - 2) f(u)} on the whole leaf; what is left is the
    # error of the grid's unit-sphere rule, ~4e-15 at 48 nodes
    spec = rw_family_spec(n, 1.0, k=2.0, a=-1.0)
    leaves = flow_leaves(spec, -0.5, 20.0, 32)
    samples = mass_along_flow(spec, leaves.u, quadrature_grid(n, 48))
    assert len(samples) == 32
    for sample in samples:
        rate = n + spec.omega - 2.0
        exact = n * (n - 1) * math.exp(rate * spec.f.value(sample.u)) * sphere_volume(n)
        assert sample.lemma_quantity == pytest.approx(exact, rel=1e-13, abs=0.0)


SIGMA_SCALED = make_spec(3, 1.0, "log(-tau)", a=-1.0, sigma_scale=1.7)


@pytest.mark.parametrize(
    "spec",
    [
        rw_family_spec(2, 1.5, k=0.8, a=-1.0),
        rw_family_spec(3, 1.0, k=1.3, a=-1.0),
        as_arw_spec(SAdSParams(2, 0.0, 1.0)),
        as_arw_spec(SAdSParams(2, -1.0, 1.0)),
        as_arw_spec(SAdSParams(3, 0.0, 1.0)),
        as_arw_spec(SAdSParams(3, -1.0, 1.0)),
        make_spec(3, 1.0, "log(-tau)", a=-1.0, psi="0.05*exp(tau)"),
        SIGMA_SCALED,
        normalize(SIGMA_SCALED)[0],
    ],
    ids=[
        "rw n=2", "rw n=3", "sads n=2 lambda=0", "sads n=2 lambda<0", "sads n=3 lambda=0",
        "sads n=3 lambda<0", "custom psi(tau)", "sigma_scale 1.7", "normalized",
    ],
)
def test_flow_mass_meets_the_slice_mass_integral(spec):
    # two routes to I on each leaf: the Hamiltonian constraint on first-order
    # slice data, and G_tautau of the base kernel; they differ by rounding
    grid = quadrature_grid(spec.n, 24)
    leaves = flow_leaves(spec, 0.5 * spec.a, 6.0, 8)
    samples = mass_along_flow(spec, leaves.u, grid)
    assert [sample.u for sample in samples] == leaves.u.tolist()
    # f(u) of the leaves comes from their slice evaluation, with f's own bits
    assert [sample.f_of_u for sample in samples] == [spec.f.value(u) for u in leaves.u.tolist()]
    for sample in samples:
        exact = slice_mass_integral(spec, sample.u, grid)
        assert abs(sample.mass_integral - exact) <= 1e-14 * abs(exact)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({5: -1.5, 7: -1.25}, "tau = -1.5 outside the domain [-1.0, 0)"),
        ({6: 0.1}, "log of non-positive value -0.1 at tau = 0.1"),
        ({2: -1.5, 1: 0.2}, "log of non-positive value -0.2 at tau = 0.2"),
        ({1: -1.5, 2: 0.2}, "tau = -1.5 outside the domain [-1.0, 0)"),
    ],
    ids=["below a", "above 0", "first leaf first", "first leaf below a"],
)
def test_a_leaf_outside_the_domain_raises_its_own_error(rw, bad, message):
    leaves = np.linspace(-0.9, -0.1, 9)
    leaves[list(bad)] = list(bad.values())
    with pytest.raises(GeometryError if "outside" in message else DomainError) as error:
        mass_along_flow(rw, leaves, quadrature_grid(3, 24))
    assert str(error.value) == message


def reference_slice_mean_curvature(metric, u):
    """(H, psi_tilde) of the slice {tau = u} as the flow read them before one
    slice evaluation: the coordinate_slice_curvature closure traced with the
    order-1 metric block, and psi_tilde from its sources one by one."""
    event = np.full(metric.n + 1, _FILL_ANGLE)
    event[0] = u
    hbar = coordinate_slice_curvature(metric, u)(event[1:])
    g = metric_jets(metric, event, order=1).g[1:, 1:]
    h_mean = float(np.trace(np.linalg.solve(g, hbar)))
    return h_mean, source_jets(metric, event, 0).psi_tilde[0]


SADS_FLOW = SAdSParams(3, -1.0, 1.0)


@pytest.mark.parametrize(
    "spec, u0",
    [
        (rw_family_spec(3, 1.0, k=1.0, a=-1.0), -0.5),
        (rw_family_spec(2, 1.5, k=0.8, a=-1.0), -0.5),
        (make_spec(3, 1.0, "log(-tau)", a=-1.0, psi="0.05*exp(tau)"), -0.5),
        (as_arw_spec(SADS_FLOW), x0_of_r(SADS_FLOW, 0.5)),
    ],
    ids=["rw n=3", "rw n=2", "custom psi(tau)", "sads lambda<0"],
)
def test_flow_states_equal_the_separate_slice_evaluations(spec, u0, monkeypatch):
    run = imcf_run(spec, u0=u0, t_end=3.0)
    for state in run.states[::7]:
        assert arwmass.imcf._slice_mean_curvature(spec.metric, state.u) == (
            reference_slice_mean_curvature(spec.metric, state.u)
        )
    monkeypatch.setattr(
        arwmass.imcf, "_slice_mean_curvature", reference_slice_mean_curvature
    )
    reference = imcf_run(spec, u0=u0, t_end=3.0)
    assert len(run.states) > 10
    assert run.states == reference.states


@pytest.mark.parametrize(
    "spec, u0, fixed_step",
    [
        (rw_family_spec(3, 1.0, k=1.0, a=-1.0), -0.5, 0.05),
        (as_arw_spec(SADS_FLOW), x0_of_r(SADS_FLOW, 0.5), 0.1),
        (as_arw_spec(SADS_FLOW), x0_of_r(SADS_FLOW, 0.5), None),
    ],
    ids=["rw n=3 fixed", "sads lambda<0 fixed", "sads lambda<0 adaptive"],
)
def test_flow_takes_each_state_mean_curvature_from_its_last_stage(
    spec, u0, fixed_step, monkeypatch
):
    exact = arwmass.imcf._slice_mean_curvature
    calls = []
    monkeypatch.setattr(
        arwmass.imcf, "_slice_mean_curvature", lambda m, u: calls.append(u) or exact(m, u)
    )
    run = imcf_run(spec, u0=u0, t_end=2.0, fixed_step=fixed_step)
    steps = len(run.states) - 1
    assert steps >= 10
    if fixed_step is not None:  # no step is rejected: six stages per step
        assert len(calls) == 1 + 6 * steps
    else:
        assert (len(calls) - 1) % 6 == 0 and len(calls) >= 1 + 6 * steps
    # the FSAL stage sits at the accepted state, which is why no extra call is needed
    evaluated = set(calls)
    for state in run.states:
        assert state.u in evaluated
        assert state.mean_curvature == exact(spec.metric, state.u)[0]


# ---------------------------------------------------------------------------
# flow_leaves: the flow time t(u) as one Chebyshev quadrature


@pytest.mark.parametrize(
    "n, omega, k",
    [(2, 1.5, 0.8), (2, 1.2, 1.7), (2, 1.8, 0.5), (3, 1.0, 1.0), (3, 0.8, 2.0), (3, 1.2, 1.3)],
)
def test_flow_leaves_meet_the_rw_closed_form(n, omega, k):
    spec = rw_family_spec(n, omega, k=k, a=-1.0)
    leaves = flow_leaves(spec, -0.5, 15.0, 32)
    assert not leaves.reached_singularity
    assert np.array_equal(leaves.times, np.linspace(0.0, 15.0, 32))
    gamma_tilde = 0.5 * (n + omega - 2.0)
    exact = -0.5 * np.exp(-gamma_tilde * leaves.times / n)
    assert np.all(np.abs(leaves.u - exact) <= 1e-13 * np.abs(leaves.u))
    assert leaves.u[0] == -0.5
    for sample in mass_along_flow(spec, leaves.u, quadrature_grid(n, 8)):
        h_mean = sample.mean_curvature
        assert abs(h_mean - arwmass.imcf._slice_mean_curvature(spec.metric, sample.u)[0]) <= (
            1e-14 * h_mean
        )
        assert sample.f_of_u == spec.f.value(sample.u)


SADS_FLAT = SAdSParams(2, 0.0, 1.0)
QUADRATURE_CASES = [
    (make_spec(3, 1.0, "log(-tau)", a=-1.0, psi="0.05*exp(tau)"), -0.5),
    (as_arw_spec(SADS_FLOW), x0_of_r(SADS_FLOW, 0.5)),
    (as_arw_spec(SADS_FLAT), x0_of_r(SADS_FLAT, 0.5)),
]
QUADRATURE_IDS = ["custom psi(tau)", "sads n=3 lambda<0", "sads n=2 lambda=0"]


@pytest.mark.parametrize("spec, u0", QUADRATURE_CASES, ids=QUADRATURE_IDS)
def test_flow_leaves_agree_with_the_stepper_at_its_states(spec, u0):
    run = imcf_run(spec, u0=u0, t_end=3.0, tolerance=1e-12)
    checked = run.states[1::8] + run.states[-1:]
    assert len(checked) >= 8
    for state in checked:
        leaves = flow_leaves(spec, u0, state.t, 2)
        assert leaves.times[-1] == state.t
        assert abs(leaves.u[-1] - state.u) <= 1e-10 * abs(state.u)


@pytest.mark.parametrize("spec, u0", QUADRATURE_CASES[1:], ids=QUADRATURE_IDS[1:])
def test_flow_leaves_do_not_depend_on_the_panel_tolerance(spec, u0):
    loose = flow_leaves(spec, u0, 15.0, 32, tolerance=1e-10)
    tight = flow_leaves(spec, u0, 15.0, 32, tolerance=1e-13)
    assert np.all(np.abs(loose.u - tight.u) <= 1e-12 * np.abs(tight.u))


def test_panels_halve_where_the_integrand_needs_it():
    # psi oscillates in y = -log(-u), so a panel of width 1 is not resolved
    spec = make_spec(3, 1.0, "log(-tau)", a=-1.0, psi="0.01*sin(60*log(-tau))")
    loose = flow_leaves(spec, -0.9, 6.0, 8, tolerance=1e-8)
    leaves = flow_leaves(spec, -0.9, 6.0, 8, tolerance=1e-10)
    tight = flow_leaves(spec, -0.9, 6.0, 8, tolerance=1e-13)
    span = math.log(0.9 / -leaves.u[-1])  # the width in y the flow covered
    assert leaves.panels > loose.panels > span
    assert np.all(np.abs(leaves.u - tight.u) <= 1e-12 * np.abs(tight.u))
    run = imcf_run(spec, u0=-0.9, t_end=6.0, tolerance=1e-12)
    assert abs(leaves.u[-1] - run.states[-1].u) <= 1e-10 * abs(run.states[-1].u)


@pytest.mark.parametrize(
    "spec, u0",
    [(rw_family_spec(3, 1.0, k=1.0, a=-1.0), -0.5), *QUADRATURE_CASES[1:]],
    ids=["rw n=3", *QUADRATURE_IDS[1:]],
)
def test_an_ulp_of_u0_barely_moves_the_leaves(spec, u0):
    leaves = flow_leaves(spec, u0, 15.0, 32)
    for nudged in (np.nextafter(u0, 0.0), np.nextafter(u0, -1.0)):
        moved = flow_leaves(spec, nudged, 15.0, 32)
        assert np.array_equal(moved.times, leaves.times)
        assert np.all(np.abs(moved.u - leaves.u) <= 1e-13 * np.abs(leaves.u))


def test_flow_leaves_stop_at_the_halt_slice(rw):
    # u = -0.5 e^{-t/3} reaches u = -1e-12 at t = 3 log(0.5e12), before t_end
    leaves = flow_leaves(rw, -0.5, 100.0, 32)
    assert leaves.reached_singularity
    t_halt = 3.0 * math.log(0.5 / arwmass.imcf._HALT_U)
    assert abs(leaves.times[-1] - t_halt) <= 1e-13 * t_halt
    assert abs(leaves.u[-1] + arwmass.imcf._HALT_U) <= 1e-13 * arwmass.imcf._HALT_U
    grid = np.linspace(0.0, 100.0, 32)
    assert np.array_equal(leaves.times[:-1], grid[grid < t_halt])
    assert (np.diff(leaves.times) > 0).all() and (np.diff(leaves.u) > 0).all()
    assert not flow_leaves(rw, -0.5, 80.0, 32).reached_singularity


STALLING = make_spec(3, 1.0, "log(-tau)", a=-1.0, psi="-0.01/tau")


def test_flow_leaves_abort_where_the_mean_curvature_flips():
    # H changes sign near u = -0.01, which the flow reaches before t = 10
    with pytest.raises(FlowError, match="mean curvature") as info:
        flow_leaves(STALLING, -0.5, 30.0, 8)
    u = float(str(info.value).rsplit("u = ", 1)[1])
    assert u == pytest.approx(-0.01, rel=1e-3)
    with pytest.raises(FlowError, match="mean curvature"):
        imcf_run(STALLING, u0=-0.5, t_end=30.0)


def test_a_sign_flip_beyond_t_end_does_not_abort():
    leaves = flow_leaves(STALLING, -0.5, 1.0, 8)
    run = imcf_run(STALLING, u0=-0.5, t_end=1.0, tolerance=1e-12)
    assert abs(leaves.u[-1] - run.states[-1].u) <= 1e-10 * abs(run.states[-1].u)
    # the same flow close to the sign flip: panels shrink toward it
    near = flow_leaves(STALLING, -0.5, 8.0, 8)
    assert near.u[-1] < -0.01
    assert (arwmass.imcf._slice_mean_curvature(STALLING.metric, near.u)[0] > 0).all()


@pytest.mark.parametrize(
    "t_end, count, tolerance, message",
    [
        (0.0, 8, 1e-10, "t_end must be positive and finite, got 0.0"),
        (math.nan, 8, 1e-10, "t_end must be positive and finite, got nan"),
        (math.inf, 8, 1e-10, "t_end must be positive and finite, got inf"),
        (1.0, 1, 1e-10, "count must be at least 2, got 1"),
        (1.0, 8, 0.0, "tolerance must be positive"),
    ],
)
def test_flow_leaves_reject_bad_arguments(rw, t_end, count, tolerance, message):
    with pytest.raises(FlowError, match=message):
        flow_leaves(rw, -0.5, t_end, count, tolerance=tolerance)


@pytest.mark.parametrize(
    "spec, u0",
    [(rw_family_spec(2, 1.5, k=0.8, a=-1.0), -0.5), *QUADRATURE_CASES],
    ids=["rw n=2", *QUADRATURE_IDS],
)
def test_slice_mean_curvature_on_an_array_matches_each_float(spec, u0):
    u = np.linspace(u0, 0.1 * u0, 9)
    h_mean, psi_tilde = arwmass.imcf._slice_mean_curvature(spec.metric, u)
    assert h_mean.shape == psi_tilde.shape == (9,)
    for i, ui in enumerate(u):
        h_ref, p_ref = arwmass.imcf._slice_mean_curvature(spec.metric, float(ui))
        assert abs(h_mean[i] - h_ref) <= 1e-14 * abs(h_ref)
        assert abs(psi_tilde[i] - p_ref) <= 1e-14 * max(abs(p_ref), 1.0)
