"""Ambient curvature: Riemann/Ricci/Einstein plus two independent checks.

Sign conventions are pinned by two anchors: the round unit n-sphere has
scalar curvature n(n-1) > 0, and the contracted Gauss equation for spacelike
hypersurfaces reads R = -(H^2 - |A|^2) + 2 G_ab nu^a nu^b (verified in the
hypersurface module's tests).

Two kernels compute the Einstein tensor.  The full stack serves
curvature_at and curvature_batch (the TCC and the monotonicity probes),
graphs and the conformal, divergence and Gauss-Codazzi checks, its own
checks.  warped_einstein serves only the slice and slab integrands of an
ARWSpec (not the IMCF leaves, whose integrand imcf.mass_along_flow takes
from first-order slice data), a warped product B x_w S^{n-1} over
the base B = (tau, theta1), whose Einstein tensor follows from the base
(O'Neill, Semi-Riemannian Geometry, 1983, ch. 7, Cor. 43): from the same
order-2 field jets, with no (dim)^4 ddg and no stack on it, and exact to
the poles, where the full stack drifts by up to ~6e-11.

Every function takes one event of shape (dim,) or an array of events of
shape (..., dim).  curvature_batch assembles all of its events in one
vectorized pass: the Gamma stage tensors.christoffel once, then
curvature_from_jets, the package's one curvature stack (a graph's induced
metric goes through it too), which takes that Gamma and carries it in its
bundle.  Its contractions are the stacked matrix products of the tensors
module, one small product per event: d Gamma from
g^ad (1/2 d_e bracket_dbc - d_e g_dm Gamma^m_bc), the Gamma Gamma term of
Riemann and R_abcd = g_ae R^e_bcd, formed only when read.  _assemble
returns the metric jets of the assembly with its bundle, so that the
conformal check reads psi_tilde there and evaluates it once.

Each kernel has one block bound, set by the memory a block holds at its
peak (under tracemalloc) rather than by its event count.  The full stack
holds ~4.9 kB per event at n = 2 and ~11.6 kB at n = 3 (metric_jets plus
curvature_from_jets), so the two checks feed it blocks of at most
_BLOCK_EVENTS = 96 events (stencil points included), ~1.1 MB at n = 3.  The
base kernel holds ~0.8 and ~1.4 kB per event (sigma's n diagonal jets and
no dense stack), so its callers (the slice and slab integrals of the mass
module) take blocks of at most _BASE_BLOCK_EVENTS = 4 _BLOCK_EVENTS = 384
events, which peak well below a full-stack block at either n.  Any number
of events then runs in bounded memory, and the divergence makes one
assembly per block.  The checks return floats for one event and arrays
with the events' leading axes for a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tensors
from .fields import jet_keys, split_jet
from .geometry import (
    ARWSpec,
    GeometryError,
    MetricJets,
    SpacetimeMetric,
    _invert_metric,
    _require_finite,
    _require_nondegenerate,
    metric_jets,
)

__all__ = [
    "CurvatureBundle",
    "curvature_at",
    "curvature_batch",
    "curvature_from_jets",
    "ConformalResiduals",
    "conformal_residuals",
    "einstein_divergence_residual",
    "warped_einstein",
]

# Most events one curvature assembly takes from a batch of the check functions
_BLOCK_EVENTS = 96
# Most events one warped_einstein call takes: at most a quarter of the memory per event
_BASE_BLOCK_EVENTS = 4 * _BLOCK_EVENTS


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature stack; christoffel[..., a, b, c] carries Gamma^a_bc and
    riemann[..., a, b, c, d] carries R^a_bcd.

    From :func:`curvature_at` every entry belongs to one event; from
    :func:`curvature_batch` every entry carries the events' leading axes.
    """

    g: np.ndarray
    g_inv: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float | np.ndarray
    einstein: np.ndarray

    @cached_property
    def riemann_lower(self) -> np.ndarray:
        """R_abcd = g_ae R^e_bcd, formed on first read (the Gauss check)."""
        return tensors.contract_first(self.g, self.riemann)


def curvature_batch(metric: SpacetimeMetric, events) -> CurvatureBundle:
    """Riemann, Ricci, scalar and Einstein tensors at events of shape (..., dim).

    One vectorized pass over all events; a slice integral evaluates its
    quadrature nodes this way.  Agrees with :func:`curvature_at` event by
    event to rounding (numpy may sum a contraction in another order), and
    raises the errors :func:`curvature_at` raises, naming the event.
    """
    return _assemble(metric, events)[1]


def _assemble(metric: SpacetimeMetric, events) -> tuple[MetricJets, CurvatureBundle]:
    """The order-2 :func:`metric_jets` at events of shape (..., dim) and the
    curvature bundle built from them: :func:`curvature_batch` together with
    the field jets of the same evaluation, for callers that also read
    psi_tilde or sigma there."""
    jets = metric_jets(metric, events, order=2)
    g_inv = _invert_metric(jets.g, events)
    gamma = tensors.christoffel(g_inv, jets.dg)
    return jets, curvature_from_jets(jets.g, jets.dg, jets.ddg, g_inv, gamma)


def curvature_from_jets(g, dg, ddg, g_inv, gamma) -> CurvatureBundle:
    """The curvature stack from metric jets, their inverse and their Gamma.

    The curvature stage of :func:`curvature_batch`, for callers that already
    hold the order-2 jets of a metric of any dimension, g^-1 and Gamma.
    """
    dgamma = tensors.christoffel_derivative(g_inv, dg, ddg, gamma)
    riem = tensors.riemann_up(gamma, dgamma)
    ricci = tensors.ricci_from_riemann(riem)
    scalar = np.einsum("...bd,...bd->...", g_inv, ricci)
    einstein = ricci - 0.5 * scalar[..., None, None] * g
    return CurvatureBundle(
        g=g,
        g_inv=g_inv,
        christoffel=gamma,
        riemann=riem,
        ricci=ricci,
        scalar=scalar,
        einstein=einstein,
    )


def curvature_at(metric: SpacetimeMetric, event) -> CurvatureBundle:
    """Riemann, Ricci, scalar and Einstein tensors at one ``event``.

    All metric derivatives entering here are exact; no finite differencing.
    """
    return curvature_batch(metric, np.asarray(event, dtype=float))


def warped_einstein(metric: SpacetimeMetric, events) -> tuple:
    """((psi_tilde, sigma, f, psi), (G_tautau, G_theta1theta1, G_F)) at
    events (..., dim) of the metric of an ARWSpec: its order-2 field_jets,
    and the Einstein tensor's base block and fibre coefficient, G_ab = G_F
    g_ab on S^{n-1}, from the base e^{2 psi_tilde}(-dtau^2 + sigma_11
    dtheta1^2) and the warp e^mu sin theta1, mu = psi_tilde + 1/2 log
    sigma_11.  It raises what curvature_batch raises, at the same first
    event.  cot theta1 only multiplies theta1 derivatives, and 1/sin^2 -
    cot^2 = 1 is folded in, so no term blows up at the poles.
    """
    events = np.asarray(events, dtype=float)
    fields = metric.field_jets(events, 2)
    psi_tilde, sigma = fields[:2]
    _require_finite(psi_tilde, sigma, events)
    scale = np.exp(2.0 * psi_tilde[..., :1])
    _require_nondegenerate(np.concatenate((-scale, scale * sigma[..., 0]), axis=-1), events)

    # a = psi_tilde and s = sigma_11 with their tau (0) and theta1 (1) partials
    keys = jet_keys(metric.dim, 2)
    at = [keys.index(key) for key in ((), (0,), (1,), (0, 0), (1, 1))]
    a, a0, a1, a00, a11 = (psi_tilde[..., k] for k in at)
    s, s0, s1, s00, s11 = (sigma[..., 0, k] for k in at)
    d = metric.n - 1  # the fibre's dimension
    cot = 1.0 / np.tan(events[..., 1])
    # the partials of mu
    b0, b1 = a0 + 0.5 * s0 / s, a1 + 0.5 * s1 / s
    b00 = a00 + 0.5 * (s00 / s - s0 * s0 / s**2)
    b11 = a11 + 0.5 * (s11 / s - s1 * s1 / s**2)
    e = np.exp(-2.0 * a)  # -g^tautau
    es = e / s  # g^theta1theta1
    # Hess_B w / w on the two base directions, Delta w / w, (1 - |grad w|^2) / w^2
    h00 = b00 + b0 * b0 - a0 * b0 - (a1 / s) * (b1 + cot)
    h11 = b11 + b1 * cot - 1.0 - s * b0 * b0
    lap = es * h11 - e * h00
    q = es * (1.0 - b1 * b1 - 2.0 * b1 * cot) + e * b0 * b0
    # the Gauss curvature of the base, and the scalar curvature
    gauss = e * (b00 + b0 * b0 - a0 * b0) - es * (a11 + a1 * a1 - a1 * b1)
    scalar = 2.0 * gauss - 2.0 * d * lap + d * (d - 1) * q
    base = gauss - 0.5 * scalar
    fibre = (d - 1) * q - lap - 0.5 * scalar
    return fields, (-base / e - d * h00, base * s / e - d * h11, fibre)


def _blockwise(kernel, events, points: int = 1) -> tuple:
    """The per-event fields ``kernel`` returns, over one event or many.

    One event of shape (dim,) goes to ``kernel`` as it is, and its fields come
    back as floats.  Events of shape (..., dim) go in blocks of at most
    _BLOCK_EVENTS // ``points`` events, where ``points`` is the number of
    events ``kernel`` assembles for each of them; every field comes back
    with the events' leading axes.
    """
    events = np.asarray(events, dtype=float)
    if events.ndim == 1:
        return tuple(float(field) for field in kernel(events))
    flat = np.reshape(events, (-1, events.shape[-1]))
    size = max(1, _BLOCK_EVENTS // points)
    starts = range(0, max(len(flat), 1), size)
    blocks = [kernel(flat[start : start + size]) for start in starts]
    return tuple(
        np.concatenate(fields).reshape(events.shape[:-1]) for fields in zip(*blocks)
    )


@dataclass(frozen=True)
class ConformalResiduals:
    """The residuals at one event as floats, or at events of shape (..., dim)
    as arrays with their leading axes."""

    ricci_residual: float | np.ndarray
    scalar_residual: float | np.ndarray
    # R of the full metric, the scale of both residuals
    scalar_curvature: float | np.ndarray


def conformal_residuals(spec: ARWSpec, event) -> ConformalResiduals:
    """Compare curvature of e^{2 psi_tilde} g_conf against the conformal
    transformation identities, both sides computed independently.

    With g = e^{2 phi} g_tilde in n+1 dimensions:

        Ric = Ric~ - (n-1)(Hess~ phi - dphi x dphi)
              - g~ (Box~ phi + (n-1) |d phi|~^2)
        R   = e^{-2 phi} (R~ - 2 n Box~ phi - n(n-1) |d phi|~^2)

    where every tilded object belongs to the unscaled metric.  Returns the
    max-abs Ricci residual and the absolute scalar residual, together with
    the scalar curvature they are rounding errors of, at one event or at
    every event of an array of shape (..., dim).
    """
    return ConformalResiduals(*_blockwise(lambda block: _conformal(spec, block), event))


def _conformal(spec: ARWSpec, events) -> tuple:
    dim = spec.n + 1
    jets, full = _assemble(spec.metric, events)
    # phi = psi_tilde jets, from the full metric's assembly
    phi, dphi, ddphi = split_jet(jets.psi_tilde, dim)
    del jets
    base = curvature_batch(spec.conformal_metric, events)

    hess = ddphi - np.einsum("...lab,...l->...ab", base.christoffel, dphi)
    box = np.einsum("...ab,...ab->...", base.g_inv, hess)
    grad2 = np.einsum("...ab,...a,...b->...", base.g_inv, dphi, dphi)

    nm1 = dim - 2  # (n+1)-dimensional identity carries n-1 here
    expected_ricci = (
        base.ricci
        - nm1 * (hess - dphi[..., :, None] * dphi[..., None, :])
        - base.g * (box + nm1 * grad2)[..., None, None]
    )
    ricci_residual = np.max(np.abs(full.ricci - expected_ricci), axis=(-2, -1))

    n = dim - 1
    expected_scalar = np.exp(-2.0 * phi) * (base.scalar - 2.0 * n * box - n * nm1 * grad2)
    return ricci_residual, np.abs(full.scalar - expected_scalar), full.scalar


def einstein_divergence_residual(metric: SpacetimeMetric, event, step: float = 1e-3):
    """Contracted Bianchi check: max_b |nabla_a G^a_b| by central differences.

    The partial derivatives of the mixed Einstein tensor are finite
    differenced (second order in ``step``); the Christoffel terms use the
    exact symbols of the same assembly at the event.  The whole
    4 h-neighbourhood of the event must stay inside the chart.  Returns a
    float for one event, and an array with the leading axes of events of
    shape (..., dim); each event and its 2 dim stencil points go through one
    curvature assembly.
    """
    if not 0.0 < step < np.inf:
        raise GeometryError(f"step must be a positive finite number, got {step}")
    points = 2 * metric.dim + 1
    return _blockwise(lambda block: _divergence(metric, block, step), event, points)[0]


def _divergence(metric: SpacetimeMetric, events, step: float) -> tuple:
    dim = metric.dim
    # each event, then event + step e_a and event - step e_a for a = 0, 1, ...
    shifts = np.stack((step * np.eye(dim), -step * np.eye(dim)), axis=1)
    stencil = events[..., None, None, :] + shifts
    points = np.concatenate(
        (events[..., None, :], np.reshape(stencil, events.shape[:-1] + (2 * dim, dim))),
        axis=-2,
    )
    bundle = curvature_batch(metric, points)
    mixed = bundle.g_inv @ bundle.einstein
    center = mixed[..., 0, :, :]
    plus, minus = mixed[..., 1::2, :, :], mixed[..., 2::2, :, :]
    gamma = bundle.christoffel[..., 0, :, :, :]

    div = np.zeros(events.shape)
    for a in range(dim):
        div += (plus[..., a, a, :] - minus[..., a, a, :]) / (2.0 * step)
    div += np.einsum("...aal,...lb->...b", gamma, center)
    div -= np.einsum("...lab,...al->...b", gamma, center)
    return (np.max(np.abs(div), axis=-1),)
