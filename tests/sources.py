"""A metric's sources evaluated one by one: the reference for field_jets."""

from functools import cache
from types import SimpleNamespace

import numpy as np

from arwmass.fields import ExprField, jet_keys


@cache
def source_fields(metric):
    """An ExprField each of psi and every sigma_ii, in order."""
    sources = [metric.psi, *metric.sigma_diagonal]
    return [ExprField(expr, metric.dim) for expr in sources]


def source_jets(metric, events, order):
    """The jets psi_tilde = f + psi, f, psi and sigma[..., i, :] of a
    metric's sources at events (..., dim), in the fields.jet_keys layout:
    psi and each sigma_ii from its own ExprField, f from
    TimeFunction.derivative event by event."""
    events = np.asarray(events, dtype=float)
    psi, *sigma = [field.jet(events, order) for field in source_fields(metric)]
    f = np.zeros_like(psi)
    for at in np.ndindex(events.shape[:-1]) if metric.f is not None else ():
        for k, key in enumerate(jet_keys(metric.dim, order)):
            if not any(key):  # tau derivatives only: f is constant in the angles
                f[at + (k,)] = metric.f.derivative(events[at + (0,)], len(key))
    sigma = np.stack(sigma, axis=-2)
    psi_tilde = psi if metric.f is None else f + psi
    return SimpleNamespace(psi_tilde=psi_tilde, f=f, psi=psi, sigma=sigma)
