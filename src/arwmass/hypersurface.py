"""Spacelike graph hypersurfaces and their extrinsic geometry.

A graph M = { (u(theta1), theta) } over the spatial chart of a Gaussian-form
metric (geometry.py) is spacelike iff |Du|^2 = sigma^{ij} u_i u_j < 1.  All
quantities here refer to the past-directed unit normal, and the second
fundamental form is fixed by the Gaussian formula x^alpha_{;ij} = h_ij
nu^alpha; its tau-component gives

    e^{-psi_tilde} v^{-1} h_ij = -u_{;ij} - Gamma^0_00 u_i u_j
                                 - Gamma^0_0j u_i - Gamma^0_0i u_j
                                 - Gamma^0_ij

with u_{;ij} the Hessian of u in the induced metric.  With this orientation
a coordinate slice of an expanding chart has positive mean curvature.

Derivatives of the induced metric are exact: ambient jets (themselves exact)
composed with the symbolically differentiated graph function through the
chain rule.  The only finite differencing in the module is the surface
derivative of h entering the Codazzi residual.

Every routine takes one node of shape (n,) or an array of nodes of shape
(..., n), and returns its data with the nodes' leading axes.  A call
assembles the ambient jets once, for all of its nodes and to the order it
reads (graph_geometry 0, second_fundamental 1, intrinsic_curvature and
node_curvatures 2), the way curvature.curvature_batch does for events; the
frame, the second fundamental form, the intrinsic and the ambient curvature
are all built from that one assembly, each tensor once: the ambient Gamma,
the induced jets (the frame's induced metric is their order 0), and the
induced inverse and Gamma-hat, which the second fundamental form and the
curvature stacks (curvature.curvature_from_jets) share.  A graph mass
integral assembles all nodes of its graph at once, and
gauss_codazzi_residuals reads one node_curvatures assembly at its nodes and
one second_fundamental assembly at all of their Codazzi stencil points.
Each check runs on the whole batch in turn and raises, for the
first node in C order that fails it, the error that node raises on its own.
The two residual checks, gauss_codazzi_residuals and
conformal_extrinsic_residual, return floats for one node and arrays for an
array of nodes, which they evaluate in blocks of at most
curvature._BLOCK_EVENTS assembled events.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import tensors
from .curvature import CurvatureBundle, _blockwise, curvature_from_jets
from .curvature import curvature_at  # noqa: F401  (bound here for perfbench/tracer.py)
from .expr import Expression, Program, free_variables
from .fields import as_expression, jet_program, split_jet
from .geometry import (
    ARWSpec,
    GeometryError,
    MetricJets,
    SpacetimeMetric,
    _diagonal_matrix,
    _invert_metric,
    _require_nondegenerate,
    metric_jets,
)

__all__ = [
    "HypersurfaceError",
    "GraphHypersurface",
    "ExtrinsicData",
    "GaussCodazziResiduals",
    "graph_geometry",
    "second_fundamental",
    "node_curvatures",
    "intrinsic_curvature",
    "coordinate_slice_curvature",
    "gauss_codazzi_residuals",
    "conformal_extrinsic_residual",
]


class HypersurfaceError(GeometryError):
    pass


@dataclass(frozen=True, eq=False)
class GraphHypersurface:
    """Rotationally symmetric graph u = u(theta1) over the spatial chart.

    ``u`` may be an Expression in theta1 or a plain number (a coordinate
    slice).  The time values u(theta1) must lie in the ambient chart's time
    domain; that is the caller's responsibility, while spacelikeness is
    checked node by node by the geometry routines.
    """

    u: Expression
    ambient: SpacetimeMetric

    def __post_init__(self):
        u = as_expression(self.u)
        extra = free_variables(u) - {"theta1"}
        if extra:
            raise HypersurfaceError(
                f"graph function may depend on theta1 only, found {sorted(extra)}"
            )
        object.__setattr__(self, "u", u)

    @cached_property
    def _program(self) -> Program:
        """The program of u and its first three theta1 derivatives, fetched
        on first use from fields.jet_program."""
        return jet_program([{(): self.u}], ("theta1",), ((), (0,), (0, 0), (0, 0, 0)))

    def u_jet(self, theta1) -> np.ndarray:
        """(u, u', u'', u''') at theta1, or with shape (..., 4) at an array of
        theta1 values; raises DomainError naming the first failing theta1."""
        return self._program(np.asarray(theta1, dtype=float)[..., None])


@dataclass(frozen=True)
class ExtrinsicData:
    """Hypersurface data at one node of the spatial chart, or at an array of
    nodes with every entry carrying the nodes' leading axes.

    The frame (``sigma``, ``f`` and ``psi`` included) comes from the
    assembly; ``h``, ``mean_curvature`` and ``norm_a_sq`` are None from
    :func:`graph_geometry`.
    """

    node: np.ndarray
    event: np.ndarray
    induced_metric: np.ndarray
    inverse: np.ndarray
    tilt: float | np.ndarray  # v = sqrt(1 - |Du|^2)
    past_normal: np.ndarray  # nu^alpha
    tangents: np.ndarray  # x^alpha_i, shape (..., n+1, n)
    psi_tilde: float | np.ndarray
    sigma: np.ndarray  # the sigma_ii (..., n) at the event, from the assembly's field jets
    f: float | np.ndarray  # the f and psi summed into psi_tilde, from the same jets
    psi: float | np.ndarray
    h: np.ndarray | None = None
    mean_curvature: float | np.ndarray | None = None
    norm_a_sq: float | np.ndarray | None = None


@dataclass(frozen=True)
class GaussCodazziResiduals:
    """The residuals at one node as floats, or at nodes of shape (..., n) as
    arrays with their leading axes."""

    gauss_trace: float | np.ndarray
    gauss_full: float | np.ndarray
    codazzi: float | np.ndarray


# ---------------------------------------------------------------------------
# Ambient jets and the first fundamental form


@dataclass(frozen=True)
class _Ambient:
    """The graph's points over the nodes and one metric_jets assembly there.

    Assembled once per call; each tensor derived from it is a cached
    property, built on first read and shared by every reader.
    """

    node: np.ndarray
    u_jet: np.ndarray
    event: np.ndarray
    jets: MetricJets

    @cached_property
    def g_inv(self) -> np.ndarray:
        return _invert_metric(self.jets.g, self.event)

    @cached_property
    def christoffel(self) -> np.ndarray:
        return tensors.christoffel(self.g_inv, self.jets.dg)

    @cached_property
    def curvature(self) -> CurvatureBundle:
        """The ambient curvature stack; needs an order-2 assembly."""
        jets = self.jets
        return curvature_from_jets(jets.g, jets.dg, jets.ddg, self.g_inv, self.christoffel)

    @cached_property
    def induced(self) -> tuple:
        """:func:`_induced_jets`, built once per assembly."""
        return _induced_jets(self)

    @cached_property
    def induced_inverse(self) -> np.ndarray:
        return _invert_metric(self.induced[0], self.event)

    @cached_property
    def induced_christoffel(self) -> np.ndarray:
        return tensors.christoffel(self.induced_inverse, self.induced[1])

    @cached_property
    def slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """(u_k, u_kl), the coordinate gradient and Hessian of u."""
        n = self.node.shape[-1]
        uk = np.zeros(self.node.shape)
        uk[..., 0] = self.u_jet[..., 1]
        ukl = np.zeros(self.node.shape + (n,))
        ukl[..., 0, 0] = self.u_jet[..., 2]
        return uk, ukl


def _ambient(surface: GraphHypersurface, node, order: int) -> _Ambient:
    """The graph's events over ``node`` and their metric_jets to ``order``."""
    node = np.asarray(node, dtype=float)
    n = surface.ambient.n
    if node.ndim == 0 or node.shape[-1] != n:
        raise HypersurfaceError(f"node must supply {n} angles, got shape {node.shape}")
    u_jet = surface.u_jet(node[..., 0])
    event = np.concatenate((u_jet[..., :1], node), axis=-1)
    return _Ambient(node, u_jet, event, metric_jets(surface.ambient, event, order=order))


def _frame(amb: _Ambient) -> ExtrinsicData:
    """The frame at the assembled nodes (induced metric and its inverse,
    tilt, past normal, tangents, sigma, f and psi), as ExtrinsicData without h.
    Raises HypersurfaceError where the graph is not spacelike."""
    n = amb.node.shape[-1]
    p = amb.jets.psi_tilde[..., 0]
    sigma = amb.jets.sigma[..., 0]
    _require_nondegenerate(sigma, amb.event)
    sigma_inv = 1.0 / sigma

    du, _ = amb.slopes
    du_sq = np.sum(du * sigma_inv * du, axis=-1)
    steep = du_sq >= 1.0
    if np.any(steep):
        first = int(np.argmax(np.ravel(steep)))
        node = np.reshape(amb.node, (-1, n))[first]
        raise HypersurfaceError(
            f"graph not spacelike at node {node.tolist()}: "
            f"|Du|^2 = {np.ravel(du_sq)[first]:.6f}"
        )
    v = np.sqrt(1.0 - du_sq)

    nu = np.empty(amb.event.shape)
    nu[..., 0] = 1.0
    nu[..., 1:] = sigma_inv * du
    nu *= (-1.0 / (v * np.exp(p)))[..., None]
    tangents = np.zeros(amb.event.shape + (n,))
    tangents[..., 0, :] = du
    tangents[..., 1:, :] = np.eye(n)
    return ExtrinsicData(
        node=amb.node,
        event=amb.event,
        induced_metric=amb.induced[0],
        inverse=amb.induced_inverse,
        tilt=v,
        past_normal=nu,
        tangents=tangents,
        psi_tilde=p,
        sigma=sigma,
        f=amb.jets.f[..., 0],
        psi=amb.jets.psi[..., 0],
    )


def graph_geometry(surface: GraphHypersurface, node) -> ExtrinsicData:
    """Induced metric, tilt factor and past-directed unit normal at ``node``.

    Raises HypersurfaceError (naming node and |Du|^2) where the graph fails
    to be spacelike.
    """
    return _frame(_ambient(surface, node, order=0))


# ---------------------------------------------------------------------------
# Exact jets of the induced metric


def _induced_jets(amb: _Ambient):
    """g_ij of the graph with surface-coordinate derivatives to the order of
    the assembly ``amb`` (0, 1 or 2; derivatives beyond it are None).

    Writes the induced metric as F_ij(u(theta), theta) - T_ij with
    F_ij the ambient spatial block and T_ij = e^{2 psi_tilde} u_i u_j, and
    pushes the exact ambient jets through the chain rule; u enters with up
    to three symbolic derivatives.  The derivative axes k, l of
    dghat[..., k, i, j] and ddghat[..., k, l, i, j] follow the nodes'
    leading axes.
    """
    n = amb.node.shape[-1]
    g, dg, ddg = amb.jets.g, amb.jets.dg, amb.jets.ddg
    p0, p1, p2 = split_jet(amb.jets.psi_tilde, n + 1)
    E0 = np.exp(2.0 * p0)
    w, wp, wpp = amb.u_jet[..., 1], amb.u_jet[..., 2], amb.u_jet[..., 3]
    uk, ukl = amb.slopes
    u_k, u_l = uk[..., :, None], uk[..., None, :]  # broadcast along k and l

    sp = slice(1, None)
    ghat = g[..., sp, sp].copy()
    ghat[..., 0, 0] -= E0 * w**2
    if dg is None:
        return ghat, None, None

    phat = p1[..., :1] * uk + p1[..., 1:]
    dE = 2.0 * phat * E0[..., None]

    # dF[k] = d_0 F * u_k + d_k F
    dF = dg[..., None, 0, sp, sp] * u_k[..., None] + dg[..., sp, sp, sp]
    dT = np.zeros(dF.shape)
    dT[..., 0, 0] = dE * (w**2)[..., None]
    dT[..., 0, 0, 0] += E0 * 2.0 * w * wp
    dghat = dF - dT
    if ddg is None:
        return ghat, dghat, None

    phat2 = (
        p2[..., :1, :1] * u_k * u_l
        + p2[..., None, 0, 1:] * u_k
        + p2[..., 0, 1:, None] * u_l
        + p1[..., 0, None, None] * ukl
        + p2[..., 1:, 1:]
    )
    outer = phat[..., :, None] * phat[..., None, :]
    ddE = (4.0 * outer + 2.0 * phat2) * E0[..., None, None]

    # ddF[k, l] = d_0 d_0 F u_k u_l + d_0 d_l F u_k + d_0 d_k F u_l
    #             + d_0 F u_kl + d_k d_l F
    ddF = (
        ddg[..., None, None, 0, 0, sp, sp] * u_k[..., None, None] * u_l[..., None, None]
        + ddg[..., None, 0, sp, sp, sp] * u_k[..., None, None]
        + ddg[..., 0, sp, None, sp, sp] * u_l[..., None, None]
        + dg[..., None, None, 0, sp, sp] * ukl[..., None, None]
        + ddg[..., sp, sp, sp, sp]
    )
    slope = dE * 2.0 * w[..., None] * wp[..., None]
    ddT = np.zeros(ddF.shape)
    ddT[..., 0, 0] = ddE * (w**2)[..., None, None]
    ddT[..., 0, :, 0, 0] += slope
    ddT[..., :, 0, 0, 0] += slope
    ddT[..., 0, 0, 0, 0] += E0 * 2.0 * (wp**2 + w * wpp)
    ddghat = ddF - ddT
    return ghat, dghat, ddghat


def _intrinsic_curvature(amb: _Ambient) -> CurvatureBundle:
    return curvature_from_jets(*amb.induced, amb.induced_inverse, amb.induced_christoffel)


def intrinsic_curvature(surface: GraphHypersurface, node) -> CurvatureBundle:
    """Riemann/Ricci/scalar curvature of the induced metric, all exact."""
    amb = _ambient(surface, node, order=2)
    _frame(amb)  # checks spacelikeness
    return _intrinsic_curvature(amb)


# ---------------------------------------------------------------------------
# Second fundamental form


def _second_fundamental(amb: _Ambient, ext: ExtrinsicData) -> ExtrinsicData:
    gamma_hat = amb.induced_christoffel
    uk, ukl = amb.slopes
    u_i, u_j = uk[..., :, None], uk[..., None, :]
    u_hess = ukl - np.einsum("...kij,...k->...ij", gamma_hat, uk)

    g0 = amb.christoffel[..., 0, :, :]
    rhs = -(
        u_hess
        + g0[..., :1, :1] * (u_i * u_j)
        + u_i * g0[..., None, 0, 1:]
        + g0[..., 0, 1:, None] * u_j
        + g0[..., 1:, 1:]
    )
    h = (np.exp(ext.psi_tilde) * ext.tilt)[..., None, None] * rhs
    mixed = ext.inverse @ h
    return replace(
        ext,
        h=h,
        mean_curvature=np.trace(mixed, axis1=-2, axis2=-1),
        norm_a_sq=np.einsum("...ij,...ji->...", mixed, mixed),
    )


def second_fundamental(surface: GraphHypersurface, node) -> ExtrinsicData:
    """Extrinsic data including h_ij, H and |A|^2 at ``node``."""
    amb = _ambient(surface, node, order=1)
    return _second_fundamental(amb, _frame(amb))


def node_curvatures(
    surface: GraphHypersurface, node
) -> tuple[ExtrinsicData, CurvatureBundle, CurvatureBundle]:
    """:func:`second_fundamental`, :func:`intrinsic_curvature` and the
    ambient :func:`curvature_at` at ``node``, from one assembly of the
    ambient jets at its events; equal to the three separate calls."""
    amb = _ambient(surface, node, order=2)
    bundle = amb.curvature  # before the induced stack: a lower peak of memory
    return _second_fundamental(amb, _frame(amb)), _intrinsic_curvature(amb), bundle


def coordinate_slice_curvature(metric: SpacetimeMetric, tau: float):
    """Second fundamental form field of the slice {tau = const}.

    Returns a callable node -> hbar_ij built from the slice formula

        hbar_ij = e^{psi_tilde} ( -sigma_dot_ij / 2 - psi_tilde_dot sigma_ij )

    which shares no code with the graph route in second_fundamental and so
    serves as an independent cross-check for u = const.  The callable takes
    one node or an array of nodes of shape (..., n).
    """

    def field(node) -> np.ndarray:
        nodes = np.asarray(node, dtype=float)
        events = np.concatenate((np.full(nodes.shape[:-1] + (1,), tau), nodes), axis=-1)
        return _diagonal_matrix(_slice_second_fundamental(metric, events)[0])

    return field


def _slice_second_fundamental(metric: SpacetimeMetric, events) -> tuple:
    """(hbar_ii, sigma_ii, psi_tilde) at events of shape (..., n+1), each on
    the slice through its own tau: the diagonal (..., n) of the hbar of
    :func:`coordinate_slice_curvature` and the fields it is built from.  The
    slice's induced metric is e^{2 psi_tilde} sigma, diagonal too."""
    return _slice_fields(*metric.field_jets(events, 1)[:2])


def _slice_fields(psi_tilde: np.ndarray, sigma: np.ndarray) -> tuple:
    """:func:`_slice_second_fundamental` from jets of order 1 or 2 of
    psi_tilde and of sigma_ii (sigma[..., i, :]), as metric_jets returns
    them."""
    p, pdot = psi_tilde[..., 0, None], psi_tilde[..., 1, None]
    sig, sigdot = sigma[..., 0], sigma[..., 1]
    return np.exp(p) * (-0.5 * sigdot - pdot * sig), sig, psi_tilde[..., 0]


# ---------------------------------------------------------------------------
# Gauss and Codazzi residuals


def gauss_codazzi_residuals(
    surface: GraphHypersurface, node, fd_step: float = 0.01
) -> GaussCodazziResiduals:
    """Residuals of the Gauss and Codazzi equations at ``node``.

    gauss_full:  max | R_ijkl + (h_ik h_jl - h_il h_jk) - Rbar pullback |
    gauss_trace: | R + (H^2 - |A|^2) - 2 G_ab nu^a nu^b |
    codazzi:     max | h_ij;k - h_ik;j - Rbar(nu, x_i, x_j, x_k) |

    Both sides of each identity are computed independently.  The partial
    derivative of h entering the Codazzi covariant derivative uses five-point
    central differences of step ``fd_step`` (error ~ fd_step^4), everything
    else is exact.  Floats for one node; for nodes of shape (..., n), arrays
    with their leading axes, evaluated in blocks whose Codazzi stencils hold
    at most curvature._BLOCK_EVENTS nodes.
    """
    if not 0.0 < fd_step < np.inf:
        raise GeometryError(f"fd_step must be a positive finite number, got {fd_step}")

    def residuals(nodes) -> tuple:
        return _gauss_codazzi(surface, nodes, fd_step)

    return GaussCodazziResiduals(*_blockwise(residuals, node, 4 * surface.ambient.n))


# The pairwise order of the two five-operand contractions of the Gauss and
# Codazzi residuals: Riemann with the first vector, then with the next
# ones.  It is the order optimize=True (greedy) finds for both at n = 2 and
# 3, passed as a constant so that no call searches for it.
_FIVE_OPERAND_PATH = ["einsum_path", (0, 1), (0, 3), (0, 2), (0, 1)]


def _gauss_codazzi(surface: GraphHypersurface, node, fd_step: float) -> tuple:
    ext, curv, bundle = node_curvatures(surface, node)
    x = ext.tangents
    nu = ext.past_normal
    h = ext.h

    riem = bundle.riemann_lower
    pull = np.einsum(
        "...abcd,...ai,...bj,...ck,...dl->...ijkl", riem, x, x, x, x, optimize=_FIVE_OPERAND_PATH
    )
    hh = np.einsum("...ik,...jl->...ijkl", h, h) - np.einsum("...il,...jk->...ijkl", h, h)
    gauss_full = np.max(np.abs(curv.riemann_lower + hh - pull), axis=(-4, -3, -2, -1))

    g_nu_nu = (nu[..., None, :] @ bundle.einstein @ nu[..., :, None])[..., 0, 0]
    gauss_trace = np.abs(
        curv.scalar + (ext.mean_curvature**2 - ext.norm_a_sq) - 2.0 * g_nu_nu
    )

    # the 4n shifted nodes node + m fd_step e_k, m = -2, -1, 1, 2, of every
    # node in one call
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
    h_ij_k = np.moveaxis(grad_h, -3, -1)  # h_ij;k
    rbar_nu = np.einsum(
        "...abcd,...a,...bi,...cj,...dk->...ijk", riem, nu, x, x, x, optimize=_FIVE_OPERAND_PATH
    )
    codazzi = np.max(
        np.abs(h_ij_k - np.swapaxes(h_ij_k, -2, -1) - rbar_nu), axis=(-3, -2, -1)
    )
    return gauss_trace, gauss_full, codazzi


def conformal_extrinsic_residual(spec: ARWSpec, u, node):
    """Residual of the conformal relation between second fundamental forms.

    For the same graph read in the full metric and in the conformally
    rescaled chart metric -dtau^2 + sigma,

        e^{psi_tilde} h^j_i = htilde^j_i + psi_tilde_alpha nutilde^alpha delta^j_i,

    with nutilde the past-directed unit normal of the conformal chart.
    Returns the max-abs entry of the difference, a float for one node and
    an array with the leading axes of nodes of shape (..., n); both sides
    are evaluated through their own metrics (psi_tilde's gradient too).
    """
    surf = GraphHypersurface(u=u, ambient=spec.metric)
    surf_conf = GraphHypersurface(u=u, ambient=spec.conformal_metric)

    def residual(nodes) -> tuple:
        amb = _ambient(surf, nodes, order=1)
        ext = _second_fundamental(amb, _frame(amb))
        ext_conf = second_fundamental(surf_conf, nodes)
        mixed = ext.inverse @ ext.h
        mixed_conf = ext_conf.inverse @ ext_conf.h
        dpsi = amb.jets.psi_tilde[..., None, 1:]
        drift = dpsi @ ext_conf.past_normal[..., :, None]
        scaled = np.exp(ext.psi_tilde)[..., None, None] * mixed
        res = scaled - mixed_conf - drift * np.eye(spec.n)
        return (np.max(np.abs(res), axis=(-2, -1)),)

    return _blockwise(residual, node)[0]
