import math

import numpy as np
import numpy.testing as npt
import pytest

import arwmass.curvature
import arwmass.geometry
import arwmass.hypersurface
import arwmass.tensors
from arwmass.curvature import _blockwise, curvature_at
from arwmass.expr import DomainError, Program, compile_expression, differentiate
from arwmass.fields import ExprField, split_jet
from arwmass.geometry import GeometryError, make_spec, metric_jets, rw_family_spec
from arwmass.hypersurface import (
    GaussCodazziResiduals,
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
from arwmass.sads import SAdSParams, as_arw_spec, x0_of_r
from arwmass.tensors import (
    christoffel,
    christoffel_derivative,
    ricci_from_riemann,
    riemann_up,
)
from sources import source_jets

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
            g = metric_jets(ambient.metric, ext.event, order=1).g
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
        graph_geometry(surface, np.array([2.5, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# the batched kernel against the one-node kernel it replaced


def reference_node_curvatures(surface, node):
    """One node at a time, as the kernel ran before it took node arrays: the
    graph function's derivatives compiled one by one, scalar field partials,
    and the induced jets filled entry by entry."""
    metric = surface.ambient
    n = metric.n
    exprs = [surface.u]
    for _ in range(3):
        exprs.append(differentiate(exprs[-1], "theta1"))
    w0, w, wp, wpp = (compile_expression(e, ("theta1",))(float(node[0])) for e in exprs)
    event = np.concatenate(([w0], node))
    jets = metric_jets(metric, event, order=2)
    g, dg, ddg = jets.g, jets.dg, jets.ddg
    p0, p1, p2 = split_jet(source_jets(metric, event, 2).psi_tilde, n + 1)

    # the frame
    scale = math.exp(2.0 * p0)
    sigma_inv = np.linalg.inv(g[1:, 1:] / scale)
    uk = np.zeros(n)
    uk[0] = w
    ukl = np.zeros((n, n))
    ukl[0, 0] = wp
    v = math.sqrt(1.0 - float(uk @ sigma_inv @ uk))
    nu = np.concatenate(([1.0], sigma_inv @ uk)) * (-1.0 / (v * math.exp(p0)))

    # the induced metric F_ij(u(theta), theta) - e^{2 psi_tilde} u_i u_j and its jets
    sp = slice(1, None)
    E0 = math.exp(2.0 * p0)
    ghat = g[sp, sp].copy()
    ghat[0, 0] -= E0 * w**2
    phat = p1[0] * uk + p1[1:]
    dE = 2.0 * phat * E0
    dghat = dg[0, sp, sp][None, :, :] * uk[:, None, None] + dg[sp, sp, sp]
    dghat[:, 0, 0] -= dE * w**2
    dghat[0, 0, 0] -= E0 * 2.0 * w * wp
    ddghat = np.empty((n, n, n, n))
    for k in range(n):
        for l in range(n):
            phat2 = (
                p2[0, 0] * uk[k] * uk[l] + p2[0, l + 1] * uk[k] + p2[0, k + 1] * uk[l]
                + p1[0] * ukl[k, l] + p2[k + 1, l + 1]
            )
            ddE = (4.0 * phat[k] * phat[l] + 2.0 * phat2) * E0
            ddghat[k, l] = (
                ddg[0, 0, sp, sp] * uk[k] * uk[l] + ddg[0, l + 1, sp, sp] * uk[k]
                + ddg[0, k + 1, sp, sp] * uk[l] + dg[0, sp, sp] * ukl[k, l]
                + ddg[k + 1, l + 1, sp, sp]
            )
            ddghat[k, l, 0, 0] -= ddE * w**2
            ddghat[k, l, 0, 0] -= (k == 0) * dE[l] * 2.0 * w * wp
            ddghat[k, l, 0, 0] -= (l == 0) * dE[k] * 2.0 * w * wp
    ddghat[0, 0, 0, 0] -= E0 * 2.0 * (wp**2 + w * wpp)
    g_inv = np.linalg.inv(ghat)

    # the second fundamental form
    gamma_hat = christoffel(g_inv, dghat)
    u_hess = ukl - np.einsum("kij,k->ij", gamma_hat, uk)
    g0 = christoffel(np.linalg.inv(g), dg)[0]
    rhs = -(
        u_hess + g0[0, 0] * np.outer(uk, uk) + np.outer(uk, g0[0, 1:])
        + np.outer(g0[0, 1:], uk) + g0[1:, 1:]
    )
    h = math.exp(p0) * v * rhs
    mixed = g_inv @ h

    # the intrinsic curvature
    riem = riemann_up(gamma_hat, christoffel_derivative(g_inv, dghat, ddghat, gamma_hat))
    return {
        "event": event,
        "tilt": v,
        "psi_tilde": p0,
        "past_normal": nu,
        "induced_metric": ghat,
        "h": h,
        "mean_curvature": np.trace(mixed),
        "norm_a_sq": np.einsum("ij,ji->", mixed, mixed),
        "riemann_lower": np.einsum("ae,ebcd->abcd", ghat, riem),
        "scalar": np.einsum("bd,bd->", g_inv, ricci_from_riemann(riem)),
        "einstein": curvature_at(metric, event).einstein,
    }


SADS_ADS = SAdSParams(n=3, lam=-1.0, mass=1.0)


@pytest.mark.parametrize(
    "spec, u",
    [
        (rw_family_spec(2, 1.0, k=1.0, a=-0.5), "-0.3 + 0.02*cos(theta1)"),
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
    ids=["rw n=2", "rw n=3", "sads lambda<0", "custom angular psi and lambda"],
)
def test_batched_node_curvatures_match_the_one_node_kernel(spec, u):
    surface = GraphHypersurface(u=u, ambient=spec.metric)
    theta1 = np.linspace(0.2, 2.9, 7)
    nodes = np.stack([theta1] + [1.1 + 0.3 * theta1] * (spec.n - 1), axis=-1)
    ext, curv, bundle = node_curvatures(surface, nodes)
    batched = {
        name: getattr(ext, name)
        for name in ("event", "tilt", "psi_tilde", "past_normal", "induced_metric",
                     "h", "mean_curvature", "norm_a_sq")
    }
    batched.update(
        riemann_lower=curv.riemann_lower, scalar=curv.scalar, einstein=bundle.einstein
    )
    for i, node in enumerate(nodes):
        reference = reference_node_curvatures(surface, node)
        for name, expected in reference.items():
            got = batched[name][i]
            scale = np.max(np.abs(expected))
            npt.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * scale, err_msg=name)


def test_batch_with_a_non_spacelike_node_raises_the_pointwise_error(ambient):
    steep = GraphHypersurface(u="-1 + 0.9*sin(2*theta1)", ambient=ambient.metric)
    theta1 = np.array([0.7, 0.8, 0.1, 0.2])  # |u'| > 1 below theta1 ~ 0.49
    nodes = np.stack([theta1, np.full(4, 1.0), np.full(4, 2.0)], axis=-1)
    with pytest.raises(HypersurfaceError, match="not spacelike") as pointwise:
        graph_geometry(steep, nodes[2])
    kernels = (
        graph_geometry,
        second_fundamental,
        intrinsic_curvature,
        node_curvatures,
        gauss_codazzi_residuals,
        lambda surface, nodes: conformal_extrinsic_residual(ambient, surface.u, nodes),
    )
    for kernel in kernels:
        with pytest.raises(HypersurfaceError) as batched:
            kernel(steep, nodes)
        assert str(batched.value) == str(pointwise.value)


def test_batch_with_an_overflowing_theta1_raises_the_pointwise_error(ambient):
    surface = GraphHypersurface(u="-1 + 1e-300*exp(400*theta1)", ambient=ambient.metric)
    theta1 = np.array([0.5, 2.5, 3.0])  # exp(400 theta1) overflows from 1.78 on
    with pytest.raises(DomainError) as pointwise:
        surface.u_jet(2.5)
    with pytest.raises(DomainError) as batched:
        surface.u_jet(theta1)
    assert str(batched.value) == str(pointwise.value)
    nodes = np.stack([theta1, np.full(3, 1.0), np.full(3, 2.0)], axis=-1)
    with pytest.raises(DomainError) as batched:
        node_curvatures(surface, nodes)
    assert str(batched.value) == str(pointwise.value)


@pytest.mark.parametrize("n", [2, 3])
def test_a_graph_over_a_degenerate_sigma_raises_at_that_node(n):
    # lambda scales every sigma_ii alike, so sigma ~ e^{172} at theta1 = 2.5
    # and ~ e^{-231} at 1.0 is regular; sigma_22 = 0 at the pole theta1 = 0.
    # The frame tests sigma before the slope, so the node at 1.0, where the
    # graph is not spacelike, never raises first
    spec = make_spec(n, 1.0, "log(-2*tau)", a=-1.0, lam="-300*cos(theta1)")
    surface = GraphHypersurface(u="-0.5 + 0.01*cos(theta1)", ambient=spec.metric)
    nodes = np.array([[2.5] + [1.0] * (n - 1), [0.0] + [1.0] * (n - 1), [1.0] * n])
    graph_geometry(surface, nodes[0])
    with pytest.raises(HypersurfaceError, match="not spacelike"):
        graph_geometry(surface, nodes[2])
    for batch in (nodes, nodes[::-1]):
        with pytest.raises(GeometryError) as error:
            graph_geometry(surface, batch)
        assert type(error.value) is GeometryError
        assert str(error.value) == f"degenerate metric at event {[-0.49, 0.0] + [1.0] * (n - 1)}"


def test_codazzi_stencil_matches_the_pointwise_stencil(tilted_surface):
    # the parent's loop over the 4n shifted nodes, one second_fundamental each
    node, step = NODES[1], 0.01
    dh = np.empty((3, 3, 3))
    for k in range(3):
        stencil = []
        for m in (-2, -1, 1, 2):
            shifted = node.copy()
            shifted[k] += m * step
            stencil.append(second_fundamental(tilted_surface, shifted).h)
        dh[k] = stencil[0] - 8.0 * stencil[1] + 8.0 * stencil[2] - stencil[3]
    dh /= 12.0 * step
    ext = second_fundamental(tilted_surface, node)
    curv = intrinsic_curvature(tilted_surface, node)
    grad_h = (
        dh
        - np.einsum("mki,mj->kij", curv.christoffel, ext.h)
        - np.einsum("mkj,im->kij", curv.christoffel, ext.h)
    ).transpose(1, 2, 0)
    rbar_nu = np.einsum(
        "abcd,a,bi,cj,dk->ijk",
        curvature_at(tilted_surface.ambient, ext.event).riemann_lower,
        ext.past_normal, ext.tangents, ext.tangents, ext.tangents,
    )
    codazzi = np.max(np.abs(grad_h - grad_h.transpose(0, 2, 1) - rbar_nu))
    res = gauss_codazzi_residuals(tilted_surface, node, fd_step=step)
    # both are rounding noise of the finite difference (h / step ~ 1e2 times eps)
    assert res.codazzi == pytest.approx(codazzi, abs=1e-11)
    assert res.codazzi <= 1e-6


# ---------------------------------------------------------------------------
# the batched checks against the one-node code they replaced


def reference_gauss_codazzi(surface, node, fd_step=0.01):
    """gauss_codazzi_residuals as it ran on one node before it took batches,
    with the size of each identity's terms.  The two five-operand
    contractions go pairwise in numpy's optimized order, as in the code."""
    ext = second_fundamental(surface, node)
    curv = intrinsic_curvature(surface, node)
    amb = curvature_at(surface.ambient, ext.event)
    x, nu, h = ext.tangents, ext.past_normal, ext.h
    pull = np.einsum(
        "abcd,ai,bj,ck,dl->ijkl", amb.riemann_lower, x, x, x, x, optimize=True
    )
    hh = np.einsum("ik,jl->ijkl", h, h) - np.einsum("il,jk->ijkl", h, h)
    gauss_full = float(np.max(np.abs(curv.riemann_lower + hh - pull)))
    g_nu_nu = float(nu @ amb.einstein @ nu)
    gauss_trace = float(
        abs(curv.scalar + (ext.mean_curvature**2 - ext.norm_a_sq) - 2.0 * g_nu_nu)
    )
    n = surface.ambient.n
    shifted = np.tile(np.asarray(node, dtype=float), (n, 4, 1))
    shifted[np.arange(n), :, np.arange(n)] += np.array([-2, -1, 1, 2]) * fd_step
    stencil = second_fundamental(surface, shifted).h
    dh = (stencil[:, 0] - 8.0 * stencil[:, 1] + 8.0 * stencil[:, 2] - stencil[:, 3]) / (
        12.0 * fd_step
    )
    grad_h = (
        dh
        - np.einsum("mki,mj->kij", curv.christoffel, h)
        - np.einsum("mkj,im->kij", curv.christoffel, h)
    )
    h_ij_k = grad_h.transpose(1, 2, 0)
    rbar_nu = np.einsum(
        "abcd,a,bi,cj,dk->ijk", amb.riemann_lower, nu, x, x, x, optimize=True
    )
    codazzi = float(np.max(np.abs(h_ij_k - h_ij_k.transpose(0, 2, 1) - rbar_nu)))
    scales = (
        max(abs(curv.scalar), ext.mean_curvature**2, ext.norm_a_sq, abs(2.0 * g_nu_nu)),
        max(np.max(np.abs(pull)), np.max(np.abs(hh))),
        np.max(np.abs(stencil)) / fd_step,  # a difference quotient's terms
    )
    return (gauss_trace, gauss_full, codazzi), scales


def reference_conformal_extrinsic(spec, u, node):
    """conformal_extrinsic_residual as it ran on one node, with the size of
    its terms."""
    ext = second_fundamental(GraphHypersurface(u=u, ambient=spec.metric), node)
    ext_conf = second_fundamental(GraphHypersurface(u=u, ambient=spec.conformal_metric), node)
    mixed = ext.inverse @ ext.h
    mixed_conf = ext_conf.inverse @ ext_conf.h
    drift = float(source_jets(spec.metric, ext.event, 1).psi_tilde[1:] @ ext_conf.past_normal)
    res = math.exp(ext.psi_tilde) * mixed - mixed_conf - drift * np.eye(spec.n)
    return float(np.max(np.abs(res))), max(np.max(np.abs(mixed_conf)), abs(drift))


BATCH_CASES = [
    (rw_family_spec(2, 1.0, k=1.0, a=-0.5), "-0.3 + 0.02*cos(theta1)"),
    (rw_family_spec(3, 1.0, k=1.0, a=-0.5), "-0.3 + 0.02*cos(theta1)"),
    (
        make_spec(
            3, 1.0, "log(-2*tau)", a=-1.0,
            psi="0.05*cos(theta1)*tau", lam="0.03*cos(theta1)*tau",
        ),
        "-0.4 + 0.03*sin(theta1)*sin(theta1)",
    ),
    (as_arw_spec(SADS_ADS), f"{x0_of_r(SADS_ADS, 0.5)!r} + 0.01*cos(theta1)"),
    (
        make_spec(
            2, 1.5, "log(-tau)", a=-1.0,
            psi="0.04*cos(theta1)*tau", lam="0.05*cos(theta1)*tau",
        ),
        "-0.5 + 0.04*sin(theta1)*sin(theta1)",
    ),
]
BATCH_IDS = [
    "rw n=2", "rw n=3", "custom angular psi and lambda", "sads lambda<0",
    "custom n=2 angular psi and lambda",
]


def _nodes(n, count):
    theta1 = np.linspace(0.3, 2.8, count)
    return np.stack([theta1] + [1.1 + 0.3 * theta1] * (n - 1), axis=-1)


@pytest.mark.parametrize("spec, u", BATCH_CASES, ids=BATCH_IDS)
def test_batched_gauss_codazzi_matches_the_one_node_code(spec, u, monkeypatch):
    # 6 nodes in blocks of 2, whose Codazzi stencils hold 8n nodes
    monkeypatch.setattr(arwmass.curvature, "_BLOCK_EVENTS", 8 * spec.n)
    surface = GraphHypersurface(u=u, ambient=spec.metric)
    nodes = _nodes(spec.n, 6)
    batched = gauss_codazzi_residuals(surface, nodes.reshape(2, 3, -1))
    fields = (batched.gauss_trace, batched.gauss_full, batched.codazzi)
    assert all(field.shape == (2, 3) for field in fields)
    for i, node in enumerate(nodes):
        expected, scales = reference_gauss_codazzi(surface, node)
        for field, want, scale in zip(fields, expected, scales):
            assert field.reshape(-1)[i] == pytest.approx(want, rel=0.0, abs=1e-13 * scale)
        # one node runs the one-node code, bit for bit, and returns floats
        one = gauss_codazzi_residuals(surface, node)
        assert (one.gauss_trace, one.gauss_full, one.codazzi) == expected
        assert type(one.codazzi) is float


@pytest.mark.parametrize("spec, u", BATCH_CASES, ids=BATCH_IDS)
def test_batched_conformal_extrinsic_matches_the_one_node_code(spec, u):
    nodes = _nodes(spec.n, 6)
    batched = conformal_extrinsic_residual(spec, u, nodes)
    assert batched.shape == (6,)
    for node, got in zip(nodes, batched):
        expected, scale = reference_conformal_extrinsic(spec, u, node)
        assert got == pytest.approx(expected, rel=0.0, abs=1e-13 * scale)
        one = conformal_extrinsic_residual(spec, u, node)
        assert type(one) is float
        assert one == pytest.approx(expected, rel=0.0, abs=1e-13 * scale)


def reference_three_call_gauss_codazzi(surface, node, fd_step=0.01):
    """gauss_codazzi_residuals as it ran before it read one assembly at the
    nodes: second_fundamental, intrinsic_curvature and curvature_at each
    assembled the ambient jets of a block.  The five-operand contractions go
    in numpy's optimized order, as in the code."""

    def block(nodes) -> tuple:
        ext = second_fundamental(surface, nodes)
        curv = intrinsic_curvature(surface, nodes)
        amb = curvature_at(surface.ambient, ext.event)
        x, nu, h = ext.tangents, ext.past_normal, ext.h
        riem = amb.riemann_lower
        pull = np.einsum(
            "...abcd,...ai,...bj,...ck,...dl->...ijkl", riem, x, x, x, x, optimize=True
        )
        hh = np.einsum("...ik,...jl->...ijkl", h, h) - np.einsum("...il,...jk->...ijkl", h, h)
        gauss_full = np.max(np.abs(curv.riemann_lower + hh - pull), axis=(-4, -3, -2, -1))
        g_nu_nu = (nu[..., None, :] @ amb.einstein @ nu[..., :, None])[..., 0, 0]
        gauss_trace = np.abs(
            curv.scalar + (ext.mean_curvature**2 - ext.norm_a_sq) - 2.0 * g_nu_nu
        )
        n = surface.ambient.n
        shifted = np.tile(ext.node[..., None, None, :], (n, 4, 1))
        shifted[..., np.arange(n), :, np.arange(n)] += np.array([-2, -1, 1, 2]) * fd_step
        stencil = second_fundamental(surface, shifted).h
        dh = (
            stencil[..., 0, :, :]
            - 8.0 * stencil[..., 1, :, :]
            + 8.0 * stencil[..., 2, :, :]
            - stencil[..., 3, :, :]
        ) / (12.0 * fd_step)
        grad_h = (
            dh
            - np.einsum("...mki,...mj->...kij", curv.christoffel, h)
            - np.einsum("...mkj,...im->...kij", curv.christoffel, h)
        )
        h_ij_k = np.moveaxis(grad_h, -3, -1)
        rbar_nu = np.einsum(
            "...abcd,...a,...bi,...cj,...dk->...ijk", riem, nu, x, x, x, optimize=True
        )
        codazzi = np.max(
            np.abs(h_ij_k - np.swapaxes(h_ij_k, -2, -1) - rbar_nu), axis=(-3, -2, -1)
        )
        return gauss_trace, gauss_full, codazzi

    return GaussCodazziResiduals(*_blockwise(block, node, 4 * surface.ambient.n))


@pytest.mark.parametrize("spec, u", BATCH_CASES, ids=BATCH_IDS)
def test_gauss_codazzi_equals_the_three_call_code(spec, u, monkeypatch):
    # 6 nodes in blocks of 2, as in the batched test above
    monkeypatch.setattr(arwmass.curvature, "_BLOCK_EVENTS", 8 * spec.n)
    surface = GraphHypersurface(u=u, ambient=spec.metric)
    nodes = _nodes(spec.n, 6)
    batched = gauss_codazzi_residuals(surface, nodes)
    expected = reference_three_call_gauss_codazzi(surface, nodes)
    # one node is compared bit for bit by the one-node test above
    for name in ("gauss_trace", "gauss_full", "codazzi"):
        npt.assert_array_equal(getattr(batched, name), getattr(expected, name), err_msg=name)


def test_gauss_codazzi_assembles_each_block_once_at_the_nodes(monkeypatch):
    calls = []
    original = arwmass.geometry.metric_jets

    def counting(*args, **kwargs):
        calls.append((kwargs.get("order", 2), np.shape(args[1])))
        return original(*args, **kwargs)

    for module in (arwmass.geometry, arwmass.hypersurface, arwmass.curvature):
        monkeypatch.setattr(module, "metric_jets", counting)
    spec = rw_family_spec(3, 1.0, k=1.0, a=-0.5)
    surface = GraphHypersurface(u="-0.3 + 0.02*cos(theta1)", ambient=spec.metric)
    gauss_codazzi_residuals(surface, _nodes(3, 10))
    # each block: one order-2 assembly at its nodes and one order-1 assembly
    # at their Codazzi stencils, 4 shifted nodes per axis
    per_block = arwmass.curvature._BLOCK_EVENTS // 12
    expected = []
    for size in (per_block, 10 - per_block):
        expected += [(2, (size, 4)), (1, (size, 3, 4, 4))]
    assert calls == expected


def reference_intrinsic_curvature(surface, node):
    """intrinsic_curvature as it ran before it went through
    curvature_from_jets: its own Christoffel, Riemann, Ricci and scalar
    stack on the induced jets."""
    amb = arwmass.hypersurface._ambient(surface, node, order=2)
    g_inv = arwmass.hypersurface._frame(amb).inverse
    ghat, dghat, ddghat = arwmass.hypersurface._induced_jets(amb)
    gamma = christoffel(g_inv, dghat)
    riem = riemann_up(gamma, christoffel_derivative(g_inv, dghat, ddghat, gamma))
    ricci = ricci_from_riemann(riem)
    return {
        "g": ghat,
        "g_inv": g_inv,
        "christoffel": gamma,
        "riemann_lower": np.einsum("...ae,...ebcd->...abcd", ghat, riem),
        "ricci": ricci,
        "scalar": np.einsum("...bd,...bd->...", g_inv, ricci),
    }


@pytest.mark.parametrize("spec, u", BATCH_CASES, ids=BATCH_IDS)
def test_intrinsic_curvature_equals_the_surface_stack(spec, u):
    surface = GraphHypersurface(u=u, ambient=spec.metric)
    nodes = _nodes(spec.n, 6)
    for node in (nodes[2], nodes.reshape(2, 3, -1)):
        curv = intrinsic_curvature(surface, node)
        shared = node_curvatures(surface, node)[1]
        for name, expected in reference_intrinsic_curvature(surface, node).items():
            npt.assert_array_equal(getattr(curv, name), expected, err_msg=name)
            npt.assert_array_equal(getattr(shared, name), expected, err_msg=name)


def test_node_curvatures_build_each_christoffel_stack_once(monkeypatch):
    # Gamma-hat of the induced metric and the ambient Gamma, each read by
    # the second fundamental form and by its curvature stack
    shapes = []
    original = arwmass.tensors.christoffel

    def counting(g_inv, dg):
        shapes.append(dg.shape)
        return original(g_inv, dg)

    monkeypatch.setattr(arwmass.tensors, "christoffel", counting)
    spec, u = BATCH_CASES[2]
    node_curvatures(GraphHypersurface(u=u, ambient=spec.metric), _nodes(3, 5))
    assert sorted(shapes) == [(5, 3, 3, 3), (5, 4, 4, 4)]


@pytest.mark.parametrize("step", [0.0, -0.01, math.nan, math.inf])
def test_gauss_codazzi_rejects_a_step_that_is_not_positive_and_finite(
    tilted_surface, step
):
    with pytest.raises(GeometryError, match="fd_step must be a positive finite number"):
        gauss_codazzi_residuals(tilted_surface, np.array([1.0, 1.1, 1.4]), fd_step=step)


def test_node_curvatures_build_the_induced_jets_once(monkeypatch):
    calls = []
    original = arwmass.hypersurface._induced_jets

    def counting(amb, *args, **kwargs):
        calls.append(amb.node.shape)
        return original(amb, *args, **kwargs)

    monkeypatch.setattr(arwmass.hypersurface, "_induced_jets", counting)
    spec, u = BATCH_CASES[2]
    node_curvatures(GraphHypersurface(u=u, ambient=spec.metric), _nodes(3, 5))
    assert calls == [(5, 3)]


def test_conformal_extrinsic_residual_evaluates_psi_once_per_block(monkeypatch):
    # the drift term reads psi_tilde's gradient from the assembly that
    # second_fundamental builds, and its values keep their bits
    spec = make_spec(
        3, 1.0, "log(-2*tau)", a=-1.0,
        psi="0.05*cos(theta1)*tau", lam="0.03*cos(theta1)*tau",
    )
    u = "-0.4 + 0.03*sin(theta1)*sin(theta1)"
    nodes = _nodes(spec.n, 10)
    ext = second_fundamental(GraphHypersurface(u=u, ambient=spec.metric), nodes)
    ext_conf = second_fundamental(GraphHypersurface(u=u, ambient=spec.conformal_metric), nodes)
    dpsi = source_jets(spec.metric, ext.event, 1).psi_tilde[..., None, 1:]
    drift = dpsi @ ext_conf.past_normal[..., :, None]
    res = (
        np.exp(ext.psi_tilde)[..., None, None] * (ext.inverse @ ext.h)
        - ext_conf.inverse @ ext_conf.h
        - drift * np.eye(spec.n)
    )
    expected = np.max(np.abs(res), axis=(-2, -1))

    # two calls of the full metric's program (one per metric: the conformal
    # metric reads its sigma columns and compiles none), two of the graphs'
    # programs of u, and no field jet but f's, summed into psi_tilde by the
    # full metric
    programs, fields = [], []

    def counting(calls, original):
        def call(self, *args):
            calls.append(self)
            return original(self, *args)

        return call

    monkeypatch.setattr(Program, "__call__", counting(programs, Program.__call__))
    monkeypatch.setattr(ExprField, "jet", counting(fields, ExprField.jet))
    monkeypatch.setattr(arwmass.geometry, "time_jet", counting(fields, arwmass.geometry.time_jet))
    got = conformal_extrinsic_residual(spec, u, nodes)
    assert len(programs) == 4
    assert programs.count(spec.metric._programs[1]) == 2
    assert spec.conformal_metric._programs == {}
    assert fields == [spec.f]
    npt.assert_array_equal(got, expected)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("lead", [(), (1,), (8,), (2, 12)])
def test_the_fixed_contraction_order_is_the_optimized_one(n, lead):
    # the Gauss and Codazzi contractions pass the order optimize=True finds,
    # and keep its bits
    rng = np.random.default_rng(11)
    dim = n + 1
    riem = rng.normal(size=lead + (dim,) * 4)
    x = rng.normal(size=lead + (dim, n))
    nu = rng.normal(size=lead + (dim,))
    for subscripts, operands in (
        ("...abcd,...ai,...bj,...ck,...dl->...ijkl", (riem, x, x, x, x)),
        ("...abcd,...a,...bi,...cj,...dk->...ijk", (riem, nu, x, x, x)),
    ):
        path = arwmass.hypersurface._FIVE_OPERAND_PATH
        assert np.einsum_path(subscripts, *operands, optimize=True)[0] == path
        fixed = np.einsum(subscripts, *operands, optimize=path)
        npt.assert_array_equal(fixed, np.einsum(subscripts, *operands, optimize=True))
