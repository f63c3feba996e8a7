import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import arwmass.curvature
from arwmass import tensors
from arwmass.curvature import (
    conformal_residuals,
    curvature_at,
    curvature_batch,
    einstein_divergence_residual,
    warped_einstein,
)
from arwmass.expr import DomainError
from arwmass.fields import split_jet
from arwmass.geometry import (
    GeometryError,
    _invert_metric,
    flat_chart_metric,
    make_spec,
    metric_jets,
    quadrature_grid,
    rw_family_spec,
    sample_events,
)
from arwmass.mass import _slice_events, normalize, reparametrize_time
from arwmass.sads import SAdSParams, as_arw_spec
from sources import source_jets


@pytest.fixture(scope="module")
def rw_spec():
    return rw_family_spec(3, 1.0, k=1.0, a=-0.5)


@pytest.fixture(scope="module")
def perturbed_spec():
    return make_spec(
        3,
        1.0,
        "log(-tau)",
        a=-0.5,
        psi="0.05*cos(theta1)*exp(tau)",
        lam="0.02*sin(theta1)^2",
    )


def test_flat_ambient_is_curvature_free():
    bundle = curvature_at(flat_chart_metric(3), np.array([-0.7, 1.2, 0.4, 2.2]))
    assert abs(bundle.riemann_lower).max() == 0.0
    assert abs(bundle.ricci).max() == 0.0
    assert abs(bundle.einstein).max() == 0.0
    assert bundle.scalar == 0.0


def test_christoffels_of_conformally_static_metric(rw_spec):
    event = np.array([-0.3, 1.1, 0.8, 2.0])
    fp = rw_spec.f.derivative(-0.3, 1)
    jets = metric_jets(rw_spec.metric, event, order=1)
    g, dg = jets.g, jets.dg
    gamma = tensors.christoffel(_invert_metric(g, event), dg)
    assert gamma[0, 0, 0] == pytest.approx(fp, rel=1e-12)
    for i in (1, 2, 3):
        assert gamma[i, 0, i] == pytest.approx(fp, rel=1e-12)
        assert gamma[i, 0, 0] == pytest.approx(0.0, abs=1e-14)


def test_einstein_time_component_closed_form(rw_spec):
    # G_00 = n(n-1)/2 * (1 + |f'|^2) for the warped product over the unit
    # round sphere, independent of the angular position
    for tau in (-0.45, -0.2, -0.05):
        event = np.array([tau, 1.3, 0.9, 4.0])
        bundle = curvature_at(rw_spec.metric, event)
        fp = rw_spec.f.derivative(tau, 1)
        assert bundle.einstein[0, 0] == pytest.approx(
            3.0 * (1 + fp * fp), rel=1e-10
        )


def test_riemann_symmetries(perturbed_spec):
    events = sample_events(perturbed_spec, 5, seed=2)
    for event in events:
        R = curvature_at(perturbed_spec.metric, event).riemann_lower
        scale = abs(R).max()
        npt.assert_allclose(R, -R.transpose(1, 0, 2, 3), atol=1e-12 * scale)
        npt.assert_allclose(R, -R.transpose(0, 1, 3, 2), atol=1e-12 * scale)
        npt.assert_allclose(R, R.transpose(2, 3, 0, 1), atol=1e-12 * scale)
        bianchi = R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)
        npt.assert_allclose(bianchi, 0.0, atol=1e-12 * scale)


def test_ricci_is_symmetric_and_trace_consistent(perturbed_spec):
    event = np.array([-0.35, 1.0, 1.4, 2.5])
    bundle = curvature_at(perturbed_spec.metric, event)
    npt.assert_allclose(bundle.ricci, bundle.ricci.T, atol=1e-12)
    # tr G = R - (n+1)/2 R = -R in four ambient dimensions
    trace = float((bundle.g_inv * bundle.einstein).sum())
    assert trace == pytest.approx(-bundle.scalar, rel=1e-10)


def test_conformal_identities_small_residuals(rw_spec, perturbed_spec):
    for spec in (rw_spec, perturbed_spec):
        for event in sample_events(spec, 10, seed=5):
            res = conformal_residuals(spec, event)
            assert res.ricci_residual <= 1e-8
            assert res.scalar_residual <= 1e-8


def test_divergence_residual_is_second_order(rw_spec):
    event = np.array([-0.4, 1.2, 1.0, 2.0])
    coarse = einstein_divergence_residual(rw_spec.metric, event, step=1e-3)
    fine = einstein_divergence_residual(rw_spec.metric, event, step=5e-4)
    assert coarse / fine == pytest.approx(4.0, rel=0.1)


def test_divergence_residual_vanishes_for_flat_metric():
    metric = flat_chart_metric(3)
    event = np.array([-0.5, 1.0, 1.0, 1.0])
    assert einstein_divergence_residual(metric, event) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf])
def test_divergence_rejects_a_step_that_is_not_positive_and_finite(rw_spec, step):
    event = np.array([-0.4, 1.2, 1.0, 2.0])
    with pytest.raises(GeometryError, match="step must be a positive finite number"):
        einstein_divergence_residual(rw_spec.metric, event, step=step)


def test_curvature_batch_builds_gamma_once_and_passes_it_on(rw_spec, monkeypatch):
    built, received = [], []
    christoffel = tensors.christoffel
    derivative = tensors.christoffel_derivative

    def counting(*args):
        built.append(christoffel(*args))
        return built[-1]

    def receiving(g_inv, dg, ddg, gamma):
        received.append(gamma)
        return derivative(g_inv, dg, ddg, gamma)

    monkeypatch.setattr(tensors, "christoffel", counting)
    monkeypatch.setattr(tensors, "christoffel_derivative", receiving)
    bundle = curvature_batch(rw_spec.metric, sample_events(rw_spec, 7, seed=3))
    assert len(built) == len(received) == 1
    assert received[0] is built[0] is bundle.christoffel


# ---------------------------------------------------------------------------
# the batched checks against the one-event code they replaced


def reference_conformal_residuals(spec, event):
    """conformal_residuals as it ran on one event before it took batches."""
    dim = spec.n + 1
    full = curvature_at(spec.metric, event)
    base = curvature_at(spec.conformal_metric, event)
    phi, dphi, ddphi = split_jet(source_jets(spec.metric, event, 2).psi_tilde, dim)
    jets_t = metric_jets(spec.conformal_metric, event, order=1)
    g_t, dg_t = jets_t.g, jets_t.dg
    ginv_t = _invert_metric(g_t, event)
    gamma_t = tensors.christoffel(ginv_t, dg_t)
    hess = ddphi - np.einsum("lab,l->ab", gamma_t, dphi)
    box = float(np.einsum("ab,ab->", ginv_t, hess))
    grad2 = float(np.einsum("ab,a,b->", ginv_t, dphi, dphi))
    nm1 = dim - 2
    expected_ricci = base.ricci - nm1 * (hess - np.outer(dphi, dphi)) - g_t * (box + nm1 * grad2)
    n = dim - 1
    expected_scalar = np.exp(-2.0 * phi) * (base.scalar - 2.0 * n * box - n * nm1 * grad2)
    return (
        float(np.max(np.abs(full.ricci - expected_ricci))),
        float(abs(full.scalar - expected_scalar)),
        float(full.scalar),
    )


def reference_divergence(metric, event, step):
    """einstein_divergence_residual as it ran on one event: every stencil
    point through its own pointwise curvature_at."""

    def mixed_einstein(point):
        bundle = curvature_at(metric, point)
        return bundle.g_inv @ bundle.einstein

    dim = metric.dim
    jets = metric_jets(metric, event, order=1)
    g, dg = jets.g, jets.dg
    gamma = tensors.christoffel(_invert_metric(g, event), dg)
    center = mixed_einstein(event)
    div = np.zeros(dim)
    scale = np.max(np.abs(center))
    for a in range(dim):
        shift = np.zeros(dim)
        shift[a] = step
        plus = mixed_einstein(event + shift)
        minus = mixed_einstein(event - shift)
        scale = max(scale, np.max(np.abs(plus)), np.max(np.abs(minus)))
        div += (plus[a, :] - minus[a, :]) / (2.0 * step)
    div += np.einsum("aal,lb->b", gamma, center)
    div -= np.einsum("lab,al->b", gamma, center)
    # the size of one difference quotient's terms: the residual's rounding scale
    return float(np.max(np.abs(div))), scale / step


SADS_ADS = SAdSParams(n=3, lam=-1.0, mass=1.0)
BATCH_SPECS = {
    "rw n=2": rw_family_spec(2, 1.0, k=1.0, a=-0.5),
    "rw n=3": rw_family_spec(3, 1.0, k=1.0, a=-0.5),
    "custom angular psi and lambda": make_spec(
        3, 1.0, "log(-2*tau)", a=-1.0, psi="0.05*cos(theta1)*tau", lam="0.03*cos(theta1)*tau"
    ),
    "sads lambda<0": as_arw_spec(SADS_ADS),
}


@pytest.mark.parametrize("name", BATCH_SPECS)
def test_batched_conformal_residuals_match_the_one_event_code(name, monkeypatch):
    monkeypatch.setattr(arwmass.curvature, "_BLOCK_EVENTS", 5)  # blocks of 5, 5 and 2
    spec = BATCH_SPECS[name]
    events = sample_events(spec, 12, seed=7)
    batched = conformal_residuals(spec, events.reshape(3, 4, -1))
    fields = (batched.ricci_residual, batched.scalar_residual, batched.scalar_curvature)
    assert all(field.shape == (3, 4) for field in fields)
    for i, event in enumerate(events):
        ricci, scalar, curvature = reference_conformal_residuals(spec, event)
        ricci_scale = np.max(np.abs(curvature_at(spec.metric, event).ricci))
        got = [field.reshape(-1)[i] for field in fields]
        assert got[0] == pytest.approx(ricci, rel=0.0, abs=1e-13 * ricci_scale)
        assert got[1] == pytest.approx(scalar, rel=0.0, abs=1e-13 * abs(curvature))
        assert got[2] == pytest.approx(curvature, rel=1e-13, abs=1e-13)
        # one event runs the one-event code, bit for bit, and returns floats
        one = conformal_residuals(spec, event)
        assert (one.ricci_residual, one.scalar_residual, one.scalar_curvature) == (
            ricci, scalar, curvature
        )
        assert type(one.ricci_residual) is float


@pytest.mark.parametrize("name", BATCH_SPECS)
def test_batched_divergence_matches_the_one_event_code(name, monkeypatch):
    monkeypatch.setattr(arwmass.curvature, "_BLOCK_EVENTS", 20)  # 2 events per block
    spec = BATCH_SPECS[name]
    events = sample_events(spec, 5, seed=8)
    step = 1e-4
    batched = einstein_divergence_residual(spec.metric, events, step=step)
    assert batched.shape == (5,)
    for event, got in zip(events, batched):
        expected, scale = reference_divergence(spec.metric, event, step)
        assert got == pytest.approx(expected, rel=0.0, abs=1e-13 * scale)
        one = einstein_divergence_residual(spec.metric, event, step=step)
        assert type(one) is float
        assert one == pytest.approx(expected, rel=0.0, abs=1e-13 * scale)


def test_batch_with_a_bad_event_raises_the_pointwise_error():
    # log's argument is <= 0 past theta1 = 2 pi / 3
    spec = make_spec(2, 1.0, "log(-tau)", a=-1.0, psi="log(cos(theta1) + 0.5)")
    events = np.array([[-0.5, 1.0, 2.0], [-0.4, 1.5, 1.0], [-0.3, 2.5, 3.0], [-0.2, 0.5, 1.0]])
    with pytest.raises(DomainError) as pointwise:
        reference_conformal_residuals(spec, events[2])
    assert "at event [-0.3, 2.5, 3.0]" in str(pointwise.value)
    with pytest.raises(DomainError) as batched:
        conformal_residuals(spec, events)
    assert str(batched.value) == str(pointwise.value)
    with pytest.raises(DomainError) as pointwise:
        reference_divergence(spec.metric, events[2], 1e-4)
    with pytest.raises(DomainError) as batched:
        einstein_divergence_residual(spec.metric, events, step=1e-4)
    assert str(batched.value) == str(pointwise.value)


@pytest.mark.parametrize("length", [5, 3])
def test_an_event_of_the_wrong_length_is_a_geometry_error(rw_spec, length):
    event = [-0.3, 1.0, 1.0, 1.0, 7.0][:length]
    shape = f"got shape ({length},)"
    with pytest.raises(GeometryError, match=rf"dim = 4 coordinates, {re.escape(shape)}"):
        curvature_at(rw_spec.metric, event)
    shape = f"got shape (2, {length})"
    with pytest.raises(GeometryError, match=rf"dim = 4 coordinates, {re.escape(shape)}"):
        curvature_batch(rw_spec.metric, [event, event])


def reference_two_assembly_divergence(metric, events, step):
    """The divergence of a block as it ran before it read the Christoffel
    symbols from the stencil's assembly: a second, order-1 assembly and an
    inverse metric at the events."""
    dim = metric.dim
    shifts = np.stack((step * np.eye(dim), -step * np.eye(dim)), axis=1)
    stencil = events[..., None, None, :] + shifts
    points = np.concatenate(
        (events[..., None, :], np.reshape(stencil, events.shape[:-1] + (2 * dim, dim))),
        axis=-2,
    )
    bundle = arwmass.curvature.curvature_batch(metric, points)
    mixed = bundle.g_inv @ bundle.einstein
    center = mixed[..., 0, :, :]
    plus, minus = mixed[..., 1::2, :, :], mixed[..., 2::2, :, :]
    jets = metric_jets(metric, events, order=1)
    g, dg = jets.g, jets.dg
    gamma = tensors.christoffel(_invert_metric(g, events), dg)
    div = np.zeros(events.shape)
    for a in range(dim):
        div += (plus[..., a, a, :] - minus[..., a, a, :]) / (2.0 * step)
    div += np.einsum("...aal,...lb->...b", gamma, center)
    div -= np.einsum("...lab,...al->...b", gamma, center)
    return np.max(np.abs(div), axis=-1)


@pytest.mark.parametrize("name", BATCH_SPECS)
def test_divergence_equals_the_two_assembly_code(name):
    spec = BATCH_SPECS[name]
    events = sample_events(spec, 10, seed=9)
    got = einstein_divergence_residual(spec.metric, events, step=1e-4)
    npt.assert_array_equal(got, reference_two_assembly_divergence(spec.metric, events, 1e-4))
    one = einstein_divergence_residual(spec.metric, events[3], step=1e-4)
    assert one == float(reference_two_assembly_divergence(spec.metric, events[3], 1e-4))


def test_divergence_assembles_each_block_once(monkeypatch):
    calls = []
    original = arwmass.curvature.metric_jets

    def counting(*args, **kwargs):
        calls.append((kwargs.get("order", 2), np.shape(args[1])))
        return original(*args, **kwargs)

    monkeypatch.setattr(arwmass.curvature, "metric_jets", counting)
    spec = BATCH_SPECS["rw n=3"]
    # 9 assembled points per event, so blocks of 10 events: 10 and 5
    einstein_divergence_residual(spec.metric, sample_events(spec, 15, seed=8))
    per_block = arwmass.curvature._BLOCK_EVENTS // 9
    assert calls == [(2, (per_block, 9, 4)), (2, (15 - per_block, 9, 4))]


# ---------------------------------------------------------------------------
# the stacked-matmul kernel against the einsum kernel it replaced


def _einsum_permute(a, *axes):
    lead = a.ndim - len(axes)
    return np.transpose(a, tuple(range(lead)) + tuple(lead + k for k in axes))


def _einsum_bracket(dg):
    return _einsum_permute(dg, 1, 0, 2) + _einsum_permute(dg, 1, 2, 0) - dg


def einsum_christoffel(g_inv, dg):
    return 0.5 * np.einsum("...ad,...dbc->...abc", g_inv, _einsum_bracket(dg))


def einsum_christoffel_derivative(g_inv, dg, ddg):
    """d_e Gamma^a_bc through d_e g^-1, as one three-operand einsum."""
    dbracket = _einsum_permute(ddg, 0, 2, 1, 3) + _einsum_permute(ddg, 0, 2, 3, 1) - ddg
    dg_inv = -np.einsum("...am,...emn,...nd->...ead", g_inv, dg, g_inv)
    return 0.5 * (
        np.einsum("...ead,...dbc->...eabc", dg_inv, _einsum_bracket(dg))
        + np.einsum("...ad,...edbc->...eabc", g_inv, dbracket)
    )


def einsum_riemann_up(gamma, dgamma):
    term = _einsum_permute(dgamma, 1, 2, 0, 3)
    quad = np.einsum("...ace,...ebd->...abcd", gamma, gamma)
    return term - _einsum_permute(term, 0, 1, 3, 2) + quad - _einsum_permute(quad, 0, 1, 3, 2)


def random_lorentzian_jets(rng, lead, dim):
    """g = L^T diag(-1, 1, ...) L for a random L near the identity (so g is
    Lorentzian), dg symmetric in its metric indices and ddg in both index
    pairs, with leading axes ``lead``."""
    frame = np.eye(dim) + 0.1 * rng.normal(size=lead + (dim, dim))
    eta = np.diag([-1.0] + [1.0] * (dim - 1))
    g = np.swapaxes(frame, -1, -2) @ eta @ frame
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    dg = rng.normal(size=lead + (dim, dim, dim))
    dg = dg + np.swapaxes(dg, -1, -2)
    ddg = rng.normal(size=lead + (dim,) * 4)
    ddg = ddg + np.swapaxes(ddg, -1, -2)
    ddg = ddg + np.swapaxes(ddg, -3, -4)
    return g, dg, ddg


def assert_within_rounding(got, expected):
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("lead", [(), (7,), (2, 5)], ids=["one", "7", "2x5"])
@pytest.mark.parametrize("dim", [3, 4])
def test_matmul_kernel_equals_the_einsum_kernel(dim, lead):
    rng = np.random.default_rng(100 * dim + len(lead))
    for _ in range(5):
        g, dg, ddg = random_lorentzian_jets(rng, lead, dim)
        g_inv = np.linalg.inv(g)
        assert np.all(np.linalg.det(g) < 0.0)

        gamma = einsum_christoffel(g_inv, dg)
        dgamma = einsum_christoffel_derivative(g_inv, dg, ddg)
        riemann = einsum_riemann_up(gamma, dgamma)
        assert_within_rounding(tensors.christoffel(g_inv, dg), gamma)
        kernel_gamma = tensors.christoffel(g_inv, dg)
        assert_within_rounding(
            tensors.christoffel_derivative(g_inv, dg, ddg, kernel_gamma), dgamma
        )
        assert_within_rounding(tensors.riemann_up(gamma, dgamma), riemann)

        bundle = arwmass.curvature.curvature_from_jets(g, dg, ddg, g_inv, kernel_gamma)
        assert_within_rounding(bundle.riemann, riemann)
        assert_within_rounding(
            bundle.riemann_lower, np.einsum("...ae,...ebcd->...abcd", g, bundle.riemann)
        )


# ---------------------------------------------------------------------------
# the base kernel of the slice and slab integrands


def _warped_specs():
    angular = {"psi": "0.05*cos(theta1)*exp(tau)", "lam": "0.03*cos(theta1)"}
    scaled = make_spec(3, 1.1, "log(-tau)", a=-1.0, sigma_scale=1.7, **angular)
    return {
        "rw n=2": rw_family_spec(2, 1.5, k=1.3, a=-0.5),
        "rw n=3": rw_family_spec(3, 1.0, k=2.0, a=-0.5),
        "sads n=3 lambda=0": as_arw_spec(SAdSParams(n=3, lam=0.0, mass=1.0)),
        "sads n=2 lambda<0": as_arw_spec(SAdSParams(n=2, lam=-1.0, mass=0.9)),
        "sads n=3 lambda<0": as_arw_spec(SADS_ADS),
        # rw profiles with theta1-dependent psi and lambda that vanish at tau = 0
        "decaying n=2": make_spec(
            2, 1.5, "1.3333333333333333*log(-2.2*tau)", a=-1.0,
            psi="0.06*cos(theta1)*tau", lam="0.04*cos(theta1)*tau",
        ),
        "decaying n=3": make_spec(
            3, 1.0, "log(-1.7*tau)", a=-1.0,
            psi="0.05*cos(theta1)*tau", lam="0.03*cos(theta1)*tau",
        ),
        "angular n=2": make_spec(2, 1.0, "2*log(-tau)", a=-1.0, **angular),
        "angular n=3": make_spec(3, 0.9, "log(-tau)", a=-1.0, **angular),
        "sigma_scale 1.7": scaled,
        "normalized": normalize(scaled)[0],
        "reparametrized": reparametrize_time(make_spec(2, 1.0, "log(-tau)", a=-1.0, **angular), 0.1),
    }


WARPED_SPECS = _warped_specs()


@pytest.mark.parametrize("name", WARPED_SPECS)
def test_base_kernel_matches_the_full_stack_node_by_node(name):
    spec = WARPED_SPECS[name]
    theta = quadrature_grid(spec.n, 96).axis_nodes[0]
    events = _slice_events(spec.n, np.array([[0.9], [0.5], [0.05]]) * spec.a, theta)
    fields, (g_tt, g_thth, g_fibre) = warped_einstein(spec.metric, events)
    full = curvature_batch(spec.metric, events)
    npt.assert_array_equal(fields[0], spec.metric.field_jets(events, 2)[0])
    # G_ab = G_F g_ab on the fibre, every fibre direction alike
    expected = [full.einstein[..., 0, 0], full.einstein[..., 1, 1]]
    expected += [full.einstein[..., k, k] / full.g[..., k, k] for k in range(2, spec.n + 1)]
    # relative to each component's largest value on its slice, since G_thth
    # and G_F change sign; the full stack loses digits next to the poles
    away = np.sin(theta) >= 0.1
    for got, want in zip((g_tt, g_thth) + (g_fibre,) * (spec.n - 1), expected):
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(got - want)[:, away] <= 1e-12 * scale)


@pytest.mark.parametrize("name", ["rw n=2", "rw n=3"])
def test_base_kernel_keeps_the_rw_slice_integrand_constant_to_the_poles(name):
    # G(nu, nu) depends on tau alone; the full stack drifts by up to ~6e-11
    # relative at the nodes next to the poles of grid 96
    spec = WARPED_SPECS[name]
    theta = quadrature_grid(spec.n, 96).axis_nodes[0]
    for tau in (0.9 * spec.a, 0.3 * spec.a, 1e-3 * spec.a):
        (psi_tilde, *_), (g_tt, _, _) = warped_einstein(
            spec.metric, _slice_events(spec.n, tau, theta)
        )
        g_nu_nu = g_tt * np.exp(-2.0 * psi_tilde[:, 0])
        assert np.ptp(g_nu_nu) <= 1e-15 * abs(g_nu_nu[0])


@pytest.mark.parametrize("name", ["angular n=2", "angular n=3"])
def test_a_base_block_peaks_no_higher_than_a_full_stack_block(name):
    # the base bound is 4 full-stack blocks of events because the base
    # kernel holds about a quarter of the memory per event
    spec = WARPED_SPECS[name]
    events = sample_events(spec, arwmass.curvature._BASE_BLOCK_EVENTS, seed=3)
    peaks = []
    for kernel, block in (
        (curvature_batch, events[: arwmass.curvature._BLOCK_EVENTS]),
        (warped_einstein, events),
    ):
        kernel(spec.metric, block)  # the programs are compiled outside the trace
        tracemalloc.start()
        try:
            kernel(spec.metric, block)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    full, base = peaks
    assert base <= full
    if spec.n == 3:
        # sigma held as its 3 diagonal jets, not a dense 3 x 3 stack
        assert base < 0.6 * full
