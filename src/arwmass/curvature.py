"""Ambient curvature: Riemann/Ricci/Einstein plus two independent checks.

Sign conventions are pinned by two anchors: the round unit n-sphere has
scalar curvature n(n-1) > 0, and the contracted Gauss equation for spacelike
hypersurfaces reads R = -(H^2 - |A|^2) + 2 G_ab nu^a nu^b (verified in the
hypersurface module's tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensors
from .fields import split_jet
from .geometry import ARWSpec, GeometryError, SpacetimeMetric, metric_jets, _invert_metric

__all__ = [
    "CurvatureBundle",
    "curvature_at",
    "curvature_batch",
    "curvature_from_jets",
    "ConformalResiduals",
    "conformal_residuals",
    "einstein_divergence_residual",
]


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature stack; riemann[..., a, b, c, d] carries R^a_bcd.

    From :func:`curvature_at` every entry belongs to one event; from
    :func:`curvature_batch` every entry carries the events' leading axes.
    """

    g: np.ndarray
    g_inv: np.ndarray
    riemann: np.ndarray
    riemann_lower: np.ndarray
    ricci: np.ndarray
    scalar: float | np.ndarray
    einstein: np.ndarray


def curvature_batch(metric: SpacetimeMetric, events) -> CurvatureBundle:
    """Riemann, Ricci, scalar and Einstein tensors at events of shape (..., dim).

    One vectorized pass over all events; a slice integral evaluates its
    quadrature nodes this way.  Agrees with :func:`curvature_at` event by
    event to rounding (numpy may sum a contraction in another order), and
    raises the errors :func:`curvature_at` raises, naming the event.
    """
    g, dg, ddg = metric_jets(metric, events, order=2)
    return curvature_from_jets(g, dg, ddg, _invert_metric(g, events))


def curvature_from_jets(g, dg, ddg, g_inv) -> CurvatureBundle:
    """The curvature stack from metric jets and the inverse metric.

    The kernel of :func:`curvature_batch`, for callers that already hold the
    jets of :func:`metric_jets` (order 2) and their inverse at the events.
    """
    gamma = tensors.christoffel(g_inv, dg)
    dgamma = tensors.christoffel_derivative(g_inv, dg, ddg)
    riem = tensors.riemann_up(gamma, dgamma)
    riem_low = np.einsum("...ae,...ebcd->...abcd", g, riem)
    ricci = tensors.ricci_from_riemann(riem)
    scalar = np.einsum("...bd,...bd->...", g_inv, ricci)
    einstein = ricci - 0.5 * scalar[..., None, None] * g
    return CurvatureBundle(
        g=g,
        g_inv=g_inv,
        riemann=riem,
        riemann_lower=riem_low,
        ricci=ricci,
        scalar=scalar,
        einstein=einstein,
    )


def curvature_at(metric: SpacetimeMetric, event) -> CurvatureBundle:
    """Riemann, Ricci, scalar and Einstein tensors at one ``event``.

    All metric derivatives entering here are exact; no finite differencing.
    """
    return curvature_batch(metric, np.asarray(event, dtype=float))


@dataclass(frozen=True)
class ConformalResiduals:
    ricci_residual: float
    scalar_residual: float
    scalar_curvature: float  # R of the full metric, the scale of both residuals


def conformal_residuals(spec: ARWSpec, event) -> ConformalResiduals:
    """Compare curvature of e^{2 psi_tilde} g_conf against the conformal
    transformation identities, both sides computed independently.

    With g = e^{2 phi} g_tilde in n+1 dimensions:

        Ric = Ric~ - (n-1)(Hess~ phi - dphi x dphi)
              - g~ (Box~ phi + (n-1) |d phi|~^2)
        R   = e^{-2 phi} (R~ - 2 n Box~ phi - n(n-1) |d phi|~^2)

    where every tilded object belongs to the unscaled metric.  Returns the
    max-abs Ricci residual and the absolute scalar residual, together with
    the scalar curvature they are rounding errors of.
    """
    dim = spec.n + 1
    full = curvature_at(spec.metric, event)
    base = curvature_at(spec.conformal_metric, event)

    # phi = psi_tilde jets
    phi, dphi, ddphi = split_jet(spec.metric.psi_tilde.jet(event, 2), dim)

    g_t, dg_t, _ = metric_jets(spec.conformal_metric, event, order=1)
    ginv_t = _invert_metric(g_t, event)
    gamma_t = tensors.christoffel(ginv_t, dg_t)
    hess = ddphi - np.einsum("lab,l->ab", gamma_t, dphi)
    box = float(np.einsum("ab,ab->", ginv_t, hess))
    grad2 = float(np.einsum("ab,a,b->", ginv_t, dphi, dphi))

    nm1 = dim - 2  # (n+1)-dimensional identity carries n-1 here
    expected_ricci = (
        base.ricci
        - nm1 * (hess - np.outer(dphi, dphi))
        - g_t * (box + nm1 * grad2)
    )
    ricci_residual = float(np.max(np.abs(full.ricci - expected_ricci)))

    n = dim - 1
    expected_scalar = np.exp(-2.0 * phi) * (base.scalar - 2.0 * n * box - n * nm1 * grad2)
    scalar_residual = float(abs(full.scalar - expected_scalar))
    return ConformalResiduals(
        ricci_residual=ricci_residual,
        scalar_residual=scalar_residual,
        scalar_curvature=float(full.scalar),
    )


def einstein_divergence_residual(metric: SpacetimeMetric, event, step: float = 1e-3) -> float:
    """Contracted Bianchi check: max_b |nabla_a G^a_b| by central differences.

    The partial derivatives of the mixed Einstein tensor are finite
    differenced (second order in ``step``); the Christoffel terms use exact
    symbols at the event.  The whole 4 h-neighbourhood of the event must stay
    inside the chart.
    """
    event = np.asarray(event, dtype=float)
    dim = metric.dim
    if step <= 0:
        raise GeometryError("step must be positive")

    def mixed_einstein(point) -> np.ndarray:
        bundle = curvature_at(metric, point)
        return bundle.g_inv @ bundle.einstein

    g, dg, _ = metric_jets(metric, event, order=1)
    g_inv = _invert_metric(g, event)
    gamma = tensors.christoffel(g_inv, dg)
    center = mixed_einstein(event)

    div = np.zeros(dim)
    for a in range(dim):
        shift = np.zeros(dim)
        shift[a] = step
        plus = mixed_einstein(event + shift)
        minus = mixed_einstein(event - shift)
        div += (plus[a, :] - minus[a, :]) / (2.0 * step)
    div += np.einsum("aal,lb->b", gamma, center)
    div -= np.einsum("lab,al->b", gamma, center)
    return float(np.max(np.abs(div)))
