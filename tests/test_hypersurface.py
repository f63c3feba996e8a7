import math

import numpy as np
import numpy.testing as npt
import pytest

from arwmass.curvature import curvature_at
from arwmass.expr import DomainError
from arwmass.geometry import make_spec, metric_at, rw_family_spec
from arwmass.hypersurface import (
    GraphHypersurface,
    HypersurfaceError,
    conformal_extrinsic_residual,
    coordinate_slice_curvature,
    gauss_codazzi_residuals,
    graph_geometry,
    intrinsic_curvature,
    node_curvatures,
    second_fundamental,
)

NODES = [
    np.array([0.4, 1.0, 2.0]),
    np.array([1.2, 2.2, 5.0]),
    np.array([2.6, 0.7, 0.3]),
]


@pytest.fixture(scope="module")
def ambient():
    # f = log(-tau) over the round 3-sphere, domain wide enough for tau = -1
    return make_spec(3, 1.0, "log(-tau)", a=-2.0)


@pytest.fixture(scope="module")
def slice_surface(ambient):
    return GraphHypersurface(u=-1.0, ambient=ambient.metric)


@pytest.fixture(scope="module")
def tilted_surface(ambient):
    return GraphHypersurface(u="-1 + 0.05*cos(theta1)", ambient=ambient.metric)


def test_graph_function_must_be_rotationally_symmetric(ambient):
    with pytest.raises(HypersurfaceError, match="theta1"):
        GraphHypersurface(u="-1 + 0.1*cos(theta2)", ambient=ambient.metric)


def test_unit_normal_identities(ambient, slice_surface, tilted_surface):
    for surface in (slice_surface, tilted_surface):
        for node in NODES:
            ext = graph_geometry(surface, node)
            g = metric_at(ambient.metric, ext.event).g
            assert ext.past_normal @ g @ ext.past_normal == pytest.approx(-1.0, rel=1e-12)
            # normal is orthogonal to every tangent and past-directed
            npt.assert_allclose(ext.past_normal @ g @ ext.tangents, 0.0, atol=1e-12)
            assert ext.past_normal[0] < 0


def test_coordinate_slice_tilt_and_curvature(ambient, slice_surface):
    h_of = coordinate_slice_curvature(ambient.metric, -1.0)
    for node in NODES:
        ext = second_fundamental(slice_surface, node)
        assert ext.tilt == pytest.approx(1.0, rel=1e-14)
        npt.assert_allclose(ext.h, h_of(node), atol=1e-9)
        # umbilic slice: tracefree part of the second fundamental form vanishes
        assert ext.norm_a_sq - ext.mean_curvature**2 / 3 == pytest.approx(0.0, abs=1e-10)


def test_slice_mean_curvature_closed_form(ambient):
    # H = -n f' e^{-f} for the coordinate slice with past-directed normal
    for tau in (-1.5, -1.0, -0.4):
        surface = GraphHypersurface(u=tau, ambient=ambient.metric)
        ext = second_fundamental(surface, NODES[0])
        fp = ambient.f.derivative(tau, 1)
        expected = -3.0 * fp * math.exp(-ambient.f.value(tau))
        assert ext.mean_curvature == pytest.approx(expected, rel=1e-10)


def test_intrinsic_scalar_of_round_slice(ambient, slice_surface):
    # induced metric e^{2f} sigma has scalar curvature n(n-1) e^{-2f}
    scalar = intrinsic_curvature(slice_surface, NODES[1]).scalar
    assert scalar == pytest.approx(6.0 * math.exp(-2 * ambient.f.value(-1.0)), rel=1e-9)


def test_traced_gauss_anchor_value(ambient, slice_surface):
    # R + H^2 - |A|^2 = 2 G(nu, nu) = n(n-1) e^{-2f} (1 + |f'|^2) = 12 at tau = -1
    ext = second_fundamental(slice_surface, NODES[0])
    scalar = intrinsic_curvature(slice_surface, NODES[0]).scalar
    lhs = scalar + ext.mean_curvature**2 - ext.norm_a_sq
    assert lhs == pytest.approx(12.0, rel=1e-9)


def test_gauss_codazzi_residuals_on_slices_and_graphs(ambient, slice_surface, tilted_surface):
    for surface, bound in ((slice_surface, 1e-9), (tilted_surface, 1e-7)):
        for node in NODES:
            res = gauss_codazzi_residuals(surface, node)
            assert res.gauss_trace <= bound
            assert res.gauss_full <= 1e-6
            assert res.codazzi <= 1e-6


def test_mass_integrand_is_even_in_the_normal(ambient, tilted_surface):
    node = NODES[1]
    ext = graph_geometry(tilted_surface, node)
    G = curvature_at(ambient.metric, ext.event).einstein
    plus = ext.past_normal @ G @ ext.past_normal
    minus = (-ext.past_normal) @ G @ (-ext.past_normal)
    assert plus == minus


def test_non_spacelike_graph_rejected(ambient):
    surface = GraphHypersurface(u="-1 + 2*sin(theta1)", ambient=ambient.metric)
    with pytest.raises(HypersurfaceError):
        graph_geometry(surface, np.array([0.2, 1.0, 1.0]))


def test_conformal_extrinsic_relation(ambient):
    perturbed = make_spec(
        3, 1.0, "log(-tau)", a=-2.0, psi="0.05*cos(theta1)*exp(tau)"
    )
    for spec in (ambient, perturbed):
        for node in NODES:
            res = conformal_extrinsic_residual(spec, "-1 + 0.05*cos(theta1)", node)
            assert res <= 1e-8


def test_node_curvatures_equal_the_separate_calls(ambient, tilted_surface):
    for node in NODES:
        ext, curv, bundle = node_curvatures(tilted_surface, node)
        ext_ref = second_fundamental(tilted_surface, node)
        curv_ref = intrinsic_curvature(tilted_surface, node)
        bundle_ref = curvature_at(ambient.metric, ext_ref.event)
        for name in ("event", "induced_metric", "inverse", "past_normal", "h"):
            npt.assert_array_equal(getattr(ext, name), getattr(ext_ref, name))
        assert (ext.tilt, ext.mean_curvature, ext.norm_a_sq) == (
            ext_ref.tilt, ext_ref.mean_curvature, ext_ref.norm_a_sq
        )
        npt.assert_array_equal(curv.riemann_lower, curv_ref.riemann_lower)
        assert curv.scalar == curv_ref.scalar
        npt.assert_array_equal(bundle.einstein, bundle_ref.einstein)


def test_node_curvatures_raise_the_spacelike_error(ambient):
    steep = GraphHypersurface(u="-1 + 0.9*sin(2*theta1)", ambient=ambient.metric)
    node = np.array([0.1, 1.0, 2.0])  # u' = 1.8 cos(0.2) > 1
    with pytest.raises(HypersurfaceError, match="not spacelike") as separate:
        second_fundamental(steep, node)
    with pytest.raises(HypersurfaceError) as shared:
        node_curvatures(steep, node)
    assert str(shared.value) == str(separate.value)
    with pytest.raises(HypersurfaceError) as intrinsic:
        intrinsic_curvature(steep, node)
    assert str(intrinsic.value) == str(separate.value)


def test_graph_overflow_is_a_domain_error(ambient):
    surface = GraphHypersurface(u="-1 + 1e-300*exp(400*theta1)", ambient=ambient.metric)
    with pytest.raises(DomainError, match=r"at theta1 = 2\.5"):
        surface.u_jet(2.5)
    with pytest.raises(DomainError, match=r"at theta1 = 2\.5"):
        surface.event(np.array([2.5, 1.0, 1.0]))
