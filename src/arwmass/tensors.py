"""Tensor algebra on metric jets, at one point or at many at once.

Everything here works on plain numpy arrays: the metric ``g``, its
coordinate derivatives ``dg[..., c, a, b] = d_c g_ab`` and second derivatives
``ddg[..., c, d, a, b] = d_c d_d g_ab``.  Leading axes ``...`` index events
and may be absent.  Index conventions:

    Gamma^a_bc   = 1/2 g^ad (d_b g_dc + d_c g_db - d_d g_bc)
    R^a_bcd      = d_c Gamma^a_bd - d_d Gamma^a_bc
                   + Gamma^a_ce Gamma^e_bd - Gamma^a_de Gamma^e_bc
    R_ab         = R^c_acb
    R            = g^ab R_ab
    G_ab         = R_ab - 1/2 R g_ab

With these signs the round unit n-sphere has scalar curvature n(n-1) > 0.
"""

from __future__ import annotations

import numpy as np


def _permute(a: np.ndarray, *axes: int) -> np.ndarray:
    """np.transpose of the trailing len(axes) axes, leading axes untouched."""
    lead = a.ndim - len(axes)
    return np.transpose(a, tuple(range(lead)) + tuple(lead + k for k in axes))


def _bracket(dg: np.ndarray) -> np.ndarray:
    # bracket[d, b, c] = d_b g_dc + d_c g_db - d_d g_bc
    return _permute(dg, 1, 0, 2) + _permute(dg, 1, 2, 0) - dg


def christoffel(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma[..., a, b, c] = Gamma^a_bc."""
    return 0.5 * np.einsum("...ad,...dbc->...abc", g_inv, _bracket(dg))


def christoffel_derivative(
    g_inv: np.ndarray, dg: np.ndarray, ddg: np.ndarray
) -> np.ndarray:
    """Coordinate derivative dGamma[..., e, a, b, c] = d_e Gamma^a_bc."""
    # d_e bracket[d,b,c] = dd_(e,b) g_dc + dd_(e,c) g_db - dd_(e,d) g_bc
    dbracket = _permute(ddg, 0, 2, 1, 3) + _permute(ddg, 0, 2, 3, 1) - ddg
    dg_inv = -np.einsum("...am,...emn,...nd->...ead", g_inv, dg, g_inv)
    return 0.5 * (
        np.einsum("...ead,...dbc->...eabc", dg_inv, _bracket(dg))
        + np.einsum("...ad,...edbc->...eabc", g_inv, dbracket)
    )


def riemann_up(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Riemann tensor R[..., a, b, c, d] = R^a_bcd."""
    term = _permute(dgamma, 1, 2, 0, 3)  # d_c Gamma^a_bd -> [a,b,c,d]
    quad = np.einsum("...ace,...ebd->...abcd", gamma, gamma)
    return term - _permute(term, 0, 1, 3, 2) + quad - _permute(quad, 0, 1, 3, 2)


def ricci_from_riemann(riemann: np.ndarray) -> np.ndarray:
    return np.einsum("...abad->...bd", riemann)
