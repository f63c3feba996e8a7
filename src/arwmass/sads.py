"""Schwarzschild-anti-de Sitter interior as a cosmological spacetime.

The brane metric is ds^2 = e^{2f}(-(dx0)^2 + sigma_bar) with f = log r and

    h(r) = 1 - 2 Lambda r^2 / (n(n+1)) - m r^{-(n-1)},      h_tilde = -h,

valid inside the horizon r0 (where h < 0).  The time coordinate is
x0(r) = -int_0^r s^{-1} h_tilde^{-1/2} ds, which sends the curvature
singularity r = 0 to x0 = 0, so the chart runs on a negative time interval
exactly like the cosmological charts in geometry.py.

``x0_of_r`` is the exact reference.  Each piece of its integral is a fixed
Gauss-Legendre rule, evaluated at all nodes in one numpy expression, so
the package needs no scipy.  Up to r0/2 it integrates the leading power of
the integrand in closed form and the remainder in u = s^{1/2}, where the
remainder is analytic; from r0/2 on, where h_tilde^{-1/2} grows like
(r0 - s)^{-1/2}, it integrates in t = (r0 - s)^{1/2}, in which the
integrand is smooth, on panels graded geometrically toward the horizon.
An embedded lower-order rule checks every piece, as an adaptive
quadrature's error estimate would.

There is no closed form for the inverse r(x0) when Lambda < 0, so the time
profile f is carried parametrically in r, and values invert x0(r)
numerically.  On the first inversion for a parameter set, a table of 64
nodes uniform in rho = r^{(n-1)/2} is built from ``x0_of_r``, up to
r0 (1 - 1e-9).  A cubic Hermite interpolant of rho(x0), with the exact
slope d rho/dx0 = -((n-1)/2) r^{(n-1)/2} h_tilde^{1/2}, gives the starting
guess; rho(x0) is smooth at both ends of the table, with slope
-((n-1)/2) sqrt(m) at the singularity and 0 at the horizon.  A Newton
iteration on the exact ``x0_of_r``, kept inside the table's bracket, then
polishes the guess to the quadrature's noise floor, about two quadratures
per inversion.  The derivatives use the exact chain rule
dr/dx0 = -r h_tilde^{1/2},

    f' = -h_tilde^{1/2},   f'' = r h_tilde'/2,
    f''' = -(r h_tilde^{1/2} / 2)(h_tilde' + r h_tilde'').

Everything else in the package then treats the spacetime like any other
spec; the closed forms collected here double as oracles for the mass
integrals.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fields import TimeFunction
from .geometry import ARWSpec, GeometryError, _check_dimension, sphere_volume

__all__ = [
    "SAdSParams",
    "Profile",
    "profile",
    "horizon",
    "x0_of_r",
    "r_of_x0",
    "SAdSTimeFunction",
    "as_arw_spec",
    "oracle_mass_integral",
]


@dataclass(frozen=True)
class SAdSParams:
    """Dimension, cosmological constant (<= 0) and mass parameter (> 0)."""

    n: int
    lam: float
    mass: float

    def __post_init__(self):
        if self.n < 2:
            raise GeometryError(f"need n >= 2, got {self.n}")
        if not -math.inf < self.lam <= 0.0:
            raise GeometryError(f"Lambda must be finite and <= 0, got {self.lam}")
        if not 0.0 < self.mass < math.inf:
            raise GeometryError(f"mass parameter must be positive and finite, got {self.mass}")


class Profile(NamedTuple):
    h: float
    h_tilde: float
    dh_dr: float


def _h(params: SAdSParams, r):
    """h at a radius or an array of radii."""
    nn1 = params.n * (params.n + 1)
    return 1.0 - 2.0 * params.lam * r**2 / nn1 - params.mass * r ** (1 - params.n)


def profile(params: SAdSParams, r: float) -> Profile:
    """h, h_tilde = -h and dh/dr at radius r > 0."""
    if not r > 0.0:
        raise GeometryError(f"profile requires r > 0, got {r}")
    nn1 = params.n * (params.n + 1)
    h = _h(params, r)
    dh = -4.0 * params.lam * r / nn1 + (params.n - 1) * params.mass * r ** (-params.n)
    return Profile(h=h, h_tilde=-h, dh_dr=dh)


def _d2h_dr2(params: SAdSParams, r: float) -> float:
    nn1 = params.n * (params.n + 1)
    return -4.0 * params.lam / nn1 - params.n * (params.n - 1) * params.mass * r ** (
        -params.n - 1
    )


# Parameter sets are few per process; the bound keeps a long-lived process
# that builds many specs from holding every horizon and table it has seen.
_PARAMS_CACHE = 64


@lru_cache(maxsize=_PARAMS_CACHE)
def horizon(params: SAdSParams) -> float:
    """The unique r0 > 0 with h(r0) = 0, by bisection to ~1e-13.

    For Lambda <= 0 < m the profile h is strictly increasing from -inf, so
    the root exists and is simple; the bracketing loops below cannot fail.
    """
    lo = 1.0
    for _ in range(200):
        if profile(params, lo).h < 0.0:
            break
        lo *= 0.5
    else:
        raise AssertionError("no lower bracket for the horizon")
    hi = max(1.0, lo * 2.0)
    for _ in range(200):
        if profile(params, hi).h > 0.0:
            break
        hi *= 2.0
    else:
        raise AssertionError("no upper bracket for the horizon")
    for _ in range(200):
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if profile(params, mid).h < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _relative_defect(params: SAdSParams, s):
    """q(s) with h_tilde = m s^{1-n} (1 - q); q -> 0 at the singularity.

    ``s`` may be a radius or an array of radii."""
    nn1 = params.n * (params.n + 1)
    return s ** (params.n - 1) / params.mass - 2.0 * params.lam * s ** (
        params.n + 1
    ) / (params.mass * nn1)


def _embedded_rule(high: int, low: int) -> tuple[np.ndarray, np.ndarray]:
    """A high- and a low-order Gauss-Legendre rule on [0, 1]: the nodes of
    both, concatenated, and a (nodes, 2) weight matrix whose two columns
    sum the node values by the high and by the low rule."""
    x_high, w_high = np.polynomial.legendre.leggauss(high)
    x_low, w_low = np.polynomial.legendre.leggauss(low)
    weights = np.zeros((high + low, 2))
    weights[:high, 0] = 0.5 * w_high
    weights[high:, 1] = 0.5 * w_low
    return 0.5 * (1.0 + np.concatenate((x_high, x_low))), weights


# The far piece is analytic in u well beyond its interval, the near panels
# in t within each panel's own width: both rules sit at rounding level.
_FAR_NODES, _FAR_WEIGHTS = _embedded_rule(24, 20)
_NEAR_NODES, _NEAR_WEIGHTS = _embedded_rule(12, 10)


def _checked_gauss(integrand, edges, nodes, weights, r: float) -> float:
    """The integral over the panels between consecutive ``edges`` by the
    high rule, one vectorized evaluation of ``integrand`` at both rules'
    nodes on every panel; the two rules must agree to 1e-9 relative."""
    lo = edges[:-1, None]
    width = edges[1:, None] - lo
    sums = (integrand(lo + width * nodes) @ weights) * width
    high, low = sums.sum(axis=0)
    if not abs(high - low) <= 1e-9 * max(1.0, abs(high)):  # NaN fails too
        raise GeometryError(f"time-coordinate quadrature unreliable at r = {r}")
    return float(high)


# The far piece runs in u from the singularity up to this fraction of r0;
# the near piece, in t, from here to r.  The horizon then lies far outside
# the far interval.
_NEAR_HORIZON = 0.5


def x0_of_r(params: SAdSParams, r: float) -> float:
    """Time coordinate x0(r) = -int_0^r s^{-1} h_tilde^{-1/2} ds, r in (0, r0).

    The integrand equals m^{-1/2} s^{(n-3)/2} (1 - q)^{-1/2}.  Up to
    r_far = min(r, r0/2) its leading power (integrable at s = 0) is
    integrated in closed form, and the remainder in u = s^{1/2}, where it
    reads 2 m^{-1/2} u^{n-2} q / (sqrt(1-q) (1 + sqrt(1-q))), analytic for
    every n >= 2 and free of cancellation at small s.  From r0/2 to r the
    integrand grows like (r0 - s)^{-1/2}; in t = (r0 - s)^{1/2} it equals
    2 t / (s h_tilde^{1/2}) and stays bounded, and the panels [a, 2a],
    [2a, 4a], ..., up to (r0/2)^{1/2}, with a = (r0 - r)^{1/2}, keep each
    panel as far from the horizon's residual near-singularity at t ~ 0 as
    the panel is wide.  Each piece is a fixed Gauss-Legendre rule (24
    nodes, 12 per panel) checked against an embedded lower-order rule (20,
    10); their disagreement beyond 1e-9 raises GeometryError naming r.
    """
    r0 = horizon(params)
    if not 0.0 < r < r0:
        raise GeometryError(f"r must lie in (0, {r0:.6g}), got {r}")
    n, m = params.n, params.mass
    r_split = _NEAR_HORIZON * r0
    r_far = min(r, r_split)
    rm = 1.0 / math.sqrt(m)
    leading = 2.0 / (n - 1.0) * rm * r_far ** ((n - 1.0) / 2.0)

    def remainder(u):
        q = _relative_defect(params, u * u)
        root = np.sqrt(1.0 - q)
        return 2.0 * rm * u ** (n - 2) * q / (root * (1.0 + root))

    far = np.array([0.0, math.sqrt(r_far)])
    x0 = -(leading + _checked_gauss(remainder, far, _FAR_NODES, _FAR_WEIGHTS, r))
    if r > r_far:

        def near(t):
            s = r0 - t * t
            return 2.0 * t / (s * np.sqrt(-_h(params, s)))

        a, b = math.sqrt(r0 - r), math.sqrt(r0 - r_split)
        panels = max(1, math.ceil(math.log2(b / a)))
        edges = a * np.exp2(np.arange(panels + 1.0))
        edges[-1] = b
        x0 -= _checked_gauss(near, edges, _NEAR_NODES, _NEAR_WEIGHTS, r)
    return x0


class _InverseTable(NamedTuple):
    """Nodes of rho = r^{(n-1)/2} against x0, x0 falling from 0."""

    neg_x0: tuple  # -x0, rising: the key bisect searches
    rho: tuple
    slope: tuple  # d rho / d x0
    radius: tuple


_TABLE_NODES = 64
# The top table node; times at or beyond its x0 count as beyond the horizon.
_TABLE_TOP = 1.0 - 1e-9


@lru_cache(maxsize=_PARAMS_CACHE)
def _inverse_table(params: SAdSParams) -> _InverseTable:
    """x0 and d rho/dx0 at nodes uniform in rho, from 0 to r0 (1 - 1e-9)."""
    half = 0.5 * (params.n - 1)
    r_top = horizon(params) * _TABLE_TOP
    rho_top = r_top**half
    radius = [(rho_top * i / (_TABLE_NODES - 1)) ** (1.0 / half) for i in range(_TABLE_NODES)]
    radius[-1] = r_top
    rho = [r**half for r in radius]
    # r = 0 is the singularity: x0 = 0, and rho h_tilde^{1/2} -> sqrt(m)
    neg_x0 = [0.0] + [-x0_of_r(params, r) for r in radius[1:]]
    slope = [-half * math.sqrt(params.mass)] + [
        -half * p * math.sqrt(profile(params, r).h_tilde) for p, r in zip(rho[1:], radius[1:])
    ]
    return _InverseTable(tuple(neg_x0), tuple(rho), tuple(slope), tuple(radius))


_MAX_POLISH = 40


def r_of_x0(params: SAdSParams, x0: float) -> float:
    """Invert x0_of_r: a table guess, then Newton on the exact x0_of_r.

    The guess is the cubic Hermite interpolant of rho(x0) between the two
    table nodes around x0, whose radii bracket the root.  dr/dx0 =
    -r h_tilde^{1/2} gives the exact Newton step; a step that would leave
    the bracket bisects it instead.  The iteration stops once a step is
    below 1e-15 r, or below 1e-11 r without having halved the step before
    it: there the quadrature's noise, not the guess, sets the step.  The
    round trip r -> x0 -> r reproduces r to well below 1e-10.
    """
    if not x0 < 0.0:
        raise GeometryError(f"time coordinate must be negative, got {x0}")
    table = _inverse_table(params)
    if -x0 >= table.neg_x0[-1]:
        raise GeometryError(
            f"x0 = {x0} lies beyond the horizon time {-table.neg_x0[-1]:.6g}"
        )
    j = bisect_right(table.neg_x0, -x0)
    lo, hi = table.radius[j - 1], table.radius[j]
    # cubic Hermite on [x_a, x_b], x0 falling from x_a to x_b
    x_a, x_b = -table.neg_x0[j - 1], -table.neg_x0[j]
    width = x_b - x_a
    t = (x0 - x_a) / width
    rho = (
        (1.0 + 2.0 * t) * (1.0 - t) ** 2 * table.rho[j - 1]
        + t * (1.0 - t) ** 2 * width * table.slope[j - 1]
        + t * t * (3.0 - 2.0 * t) * table.rho[j]
        + t * t * (t - 1.0) * width * table.slope[j]
    )
    r = max(rho, 0.0) ** (2.0 / (params.n - 1))
    if not lo < r < hi:
        r = 0.5 * (lo + hi)
    previous = math.inf
    for _ in range(_MAX_POLISH):
        gap = x0_of_r(params, r) - x0
        if gap > 0.0:  # x0_of_r falls with r: the root lies above r
            lo = r
        else:
            hi = r
        nxt = r + gap * r * math.sqrt(profile(params, r).h_tilde)
        if not lo <= nxt <= hi:  # a step rounded to 0 leaves nxt = r on the bracket
            nxt = 0.5 * (lo + hi)
        step = abs(nxt - r)
        r = nxt
        if step <= 1e-15 * r or (step <= 1e-11 * r and step > 0.5 * previous):
            break
        previous = step
    return r


# Distinct times a spec's profile keeps radii for.  An IMCF run or a mass
# schedule revisits a few hundred; the bound caps a long run's memory.
_RADIUS_CACHE = 4096


class SAdSTimeFunction(TimeFunction):
    """f = log r as a function of the brane time, via the exact chain rule."""

    def __init__(self, params: SAdSParams):
        self.params = params
        # lru_cache is safe to share between threads; r_of_x0 is looked up
        # at call time, so the module attribute stays the inversion in use.
        self._radius = lru_cache(maxsize=_RADIUS_CACHE)(lambda tau: r_of_x0(params, tau))

    def radius(self, tau: float) -> float:
        return self._radius(tau)

    def derivative(self, tau: float, order: int) -> float:
        return self._derivatives(tau, order)[-1]

    def _derivatives(self, tau, order: int) -> list:
        """f to f^(order) at ``tau``: one radius lookup, one profile."""
        r = self.radius(tau)
        if not 0 <= order <= 3:
            raise ValueError(f"derivative order {order} not available (max 3)")
        row = [math.log(r)]
        if order:
            p = profile(self.params, r)
            root, dht = math.sqrt(p.h_tilde), -p.dh_dr
            row += [-root, 0.5 * r * dht]
            if order == 3:
                ddht = -_d2h_dr2(self.params, r)
                row.append(-0.5 * r * root * (dht + r * ddht))
        return row[: order + 1]


def as_arw_spec(params: SAdSParams) -> ARWSpec:
    """Package the interior as a cosmological spec with omega = 1.

    The domain is clipped to r <= 0.99 r0: near the horizon h_tilde -> 0
    makes f' vanish, and the decay conditions concern the r -> 0 end only.
    """
    _check_dimension(params.n)  # before any float arithmetic on n
    r0 = horizon(params)
    a = x0_of_r(params, 0.99 * r0)
    return ARWSpec(n=params.n, omega=1.0, f=SAdSTimeFunction(params), a=a)


def oracle_mass_integral(params: SAdSParams, r: float) -> float:
    """Closed form of the slice mass integral at radius r.

    int_{M_r} G_ab nu^a nu^b e^f = n(n-1)/2 |S^n| (m + 2 Lambda r^{n+1}/(n(n+1))),
    constant in r for Lambda = 0 and increasing toward n(n-1)/2 |S^n| m as
    r -> 0 for Lambda < 0.
    """
    r0 = horizon(params)
    if not 0.0 < r < r0:
        raise GeometryError(f"r must lie in (0, {r0:.6g}), got {r}")
    n = params.n
    nn1 = n * (n + 1)
    return (
        0.5
        * n
        * (n - 1)
        * sphere_volume(n)
        * (params.mass + 2.0 * params.lam * r ** (n + 1) / nn1)
    )
