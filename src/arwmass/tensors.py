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

Each contraction is one stacked matrix product (numpy's ``@``, one small
matrix product per event): the indices on either side of the summed one
are merged into single trailing axes by a reshape, which copies nothing
for the C-ordered arrays built here.  The derivative of the Christoffel
symbols uses

    d_e Gamma^a_bc = g^ad ( 1/2 d_e bracket_dbc - d_e g_dm Gamma^m_bc ),

from d_e g^ad = -g^am d_e g_mn g^nd, so the derivative of g^-1 is never
formed; Gamma itself is an argument, computed once by the caller.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def _permute(a: np.ndarray, *axes: int) -> np.ndarray:
    """np.transpose of the trailing len(axes) axes, leading axes untouched."""
    return a.transpose(_all_axes(a.ndim, axes))


@functools.lru_cache(maxsize=None)  # a few (ndim, axes) pairs occur
def _all_axes(ndim: int, axes: tuple) -> tuple:
    lead = ndim - len(axes)
    return tuple(range(lead)) + tuple(lead + k for k in axes)


def _bracket(dg: np.ndarray) -> np.ndarray:
    # bracket[d, b, c] = d_b g_dc + d_c g_db - d_d g_bc
    return _permute(dg, 1, 0, 2) + _permute(dg, 1, 2, 0) - dg


def contract_first(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_d m[..., a, d] t[..., d, i, j, ...] for a square ``m`` whose
    leading axes ``...`` are those of ``t``; the result has the shape of t."""
    lead = m.ndim - 2
    rest = math.prod(t.shape[lead + 1 :])
    return (m @ t.reshape(t.shape[: lead + 1] + (rest,))).reshape(t.shape)


def christoffel(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma[..., a, b, c] = Gamma^a_bc."""
    return contract_first(g_inv, 0.5 * _bracket(dg))


def christoffel_derivative(
    g_inv: np.ndarray, dg: np.ndarray, ddg: np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """Coordinate derivative dGamma[..., e, a, b, c] = d_e Gamma^a_bc, from
    the Christoffel symbols ``gamma`` of the same jets."""
    dim = g_inv.shape[-1]
    # d_e bracket[d,b,c] = dd_(e,b) g_dc + dd_(e,c) g_db - dd_(e,d) g_bc
    dbracket = _permute(ddg, 0, 2, 1, 3) + _permute(ddg, 0, 2, 3, 1) - ddg
    # inner[e, d, (b, c)] = 1/2 d_e bracket_dbc - d_e g_dm Gamma^m_bc
    inner = dbracket.reshape(ddg.shape[:-2] + (dim * dim,))
    inner *= 0.5
    inner -= dg @ gamma.reshape(gamma.shape[:-3] + (1, dim, dim * dim))
    return (g_inv[..., None, :, :] @ inner).reshape(ddg.shape)


def riemann_up(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Riemann tensor R[..., a, b, c, d] = R^a_bcd."""
    dim = gamma.shape[-1]
    lead = gamma.shape[:-3]
    # both terms laid out [a, c, b, d]: d_c Gamma^a_bd, and Gamma^a_ce
    # Gamma^e_bd as the product [(a, c), e] @ [e, (b, d)]
    quad = gamma.reshape(lead + (dim * dim, dim)) @ gamma.reshape(lead + (dim, dim * dim))
    half = quad.reshape(lead + (dim,) * 4)
    half += _permute(dgamma, 1, 0, 2, 3)
    return _permute(half, 0, 2, 1, 3) - _permute(half, 0, 2, 3, 1)


def ricci_from_riemann(riemann: np.ndarray) -> np.ndarray:
    return np.einsum("...abad->...bd", riemann)
