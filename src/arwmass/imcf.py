"""Inverse mean curvature flow toward the singularity.

For rotationally symmetric leaves (u independent of the angles) the flow
x_dot = -nu / H with past-directed nu reduces to the scalar ODE

    du/dt = e^{-psi_tilde(u)} / H(u),

where H(u) is the mean curvature of the coordinate slice {tau = u}.  A leaf
sequence of this kind runs straight into the singularity with |u| decaying
like e^{-gamma t}, gamma = gamma_tilde / n, and f(u(t)) asymptotically a
line of slope -1/n.  The mass integral along the leaves reproduces the
slice-limit mass.  mass_along_flow reads each leaf as the round coordinate
slice it is, from its first-order data (H, psi_tilde, sigma_11, f, psi)
through the Hamiltonian constraint 2 G(nu, nu) = R + H^2 - |A|^2, and not
through the base kernel curvature.warped_einstein that the slice integrals
of the mass module read: the two routes to I cross-check each other.

The flow is autonomous, so its time is one integral,

    t(u) = int_{u0}^{u} e^{psi_tilde} H du,

and :func:`flow_leaves` computes it as such.  In y = -log(-u) the integrand
dt/dy = e^{psi_tilde} H (-u) is smooth and bounded (constant on the rw
family).  It is interpolated on panels of 24 Chebyshev points, evaluated in
one batched slice call per panel, and integrated term by term (Trefethen,
*Approximation Theory and Approximation Practice*, ch. 19).  The leaves sit
at fixed flow times; u at each is found by Newton on the integrated series.

:func:`imcf_run` integrates the same flow with a hand-rolled Dormand-Prince
5(4) pair with PI step control.  It is the trajectory API that
:func:`flow_diagnostics` reads, its fixed-step mode is the convergence-order
probe, and it is the independent oracle for :func:`flow_leaves`.  scipy's
solve_ivp is deliberately not used: the flow needs strict-step guards
against stepping across tau = 0 (where the conformal factor blows up), and
an FSAL loop costs a dozen lines.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .curvature import curvature_at  # noqa: F401  (bound here for perfbench/tracer.py)
from .expr import ExpressionError, Num, fold_constants, free_variables
from .geometry import (
    ARWSpec,
    GeometryError,
    QuadratureGrid,
    SpacetimeMetric,
    quadrature_grid,
)
from .hypersurface import _slice_fields
from .mass import _FILL_ANGLE, _check_time, _require_spec, _slice_events, _weighted_integral

__all__ = [
    "FlowError",
    "FlowState",
    "ImcfTrajectory",
    "FlowLeaves",
    "FlowMassSample",
    "imcf_run",
    "flow_leaves",
    "flow_diagnostics",
    "mass_along_flow",
]

_HALT_U = 1e-12

# Chebyshev panels of flow_leaves: points per panel, first width in
# y = -log(-u), and the width below which a panel that keeps failing is an
# error
_PANEL_POINTS = 24
_PANEL_WIDTH = 1.0
_MIN_PANEL_WIDTH = 1e-12

# Dormand-Prince 5(4) tableau (FSAL)
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


class FlowError(GeometryError):
    """The flow left its admissible regime (H <= 0, step failure, ...)."""


@dataclass(frozen=True)
class FlowState:
    t: float
    u: float
    mean_curvature: float
    f_of_u: float


@dataclass(frozen=True)
class ImcfTrajectory:
    states: tuple
    reached_singularity: bool
    tolerance: float

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def leaves(self) -> np.ndarray:
        return np.array([s.u for s in self.states])


@dataclass(frozen=True)
class FlowLeaves:
    """Leaves of the symmetric flow at fixed flow times: one entry per leaf
    in each array; ``panels`` counts the accepted quadrature panels."""

    times: np.ndarray
    u: np.ndarray
    reached_singularity: bool
    panels: int


@dataclass(frozen=True)
class FlowMassSample:
    """One leaf {tau = u}: its mean curvature H, f(u) and mass data."""

    u: float
    mean_curvature: float
    f_of_u: float
    mass_integral: float
    lemma_quantity: float
    mean_curvature_form: float


def _check_symmetric(spec: ARWSpec) -> None:
    if free_variables(spec.psi) - {"tau"}:
        raise FlowError("the scalar flow reduction needs psi = psi(tau)")
    if fold_constants(spec.lam) != Num(0.0):
        raise FlowError("the scalar flow reduction needs lambda = 0")


def _slice_leaf_fields(metric: SpacetimeMetric, u) -> tuple:
    """(H, psi_tilde, sigma_11, f, psi) of the slices {tau = u}, arrays of
    u's shape, from one order-1 evaluation of the slice fields at the fill
    angles; H = sum_i hbar_ii (1 / g_ii) is traced with the diagonal induced
    metric g = e^{2 psi_tilde} sigma, the arithmetic of a LAPACK solve."""
    events = _slice_events(metric.n, u, _FILL_ANGLE)
    psi_tilde, sigma, f, psi = metric.field_jets(events, 1)
    hbar, sig, p = _slice_fields(psi_tilde, sigma)
    h_mean = np.sum(hbar * (1.0 / (np.exp(2.0 * p)[..., None] * sig)), axis=-1)
    return h_mean, p, sig[..., 0], f[..., 0], psi[..., 0]


def _slice_mean_curvature(metric: SpacetimeMetric, u):
    """(H, psi_tilde) of the slice {tau = u} from :func:`_slice_leaf_fields`:
    floats for a float u, arrays of u's shape for an array."""
    u = np.asarray(u, dtype=float)
    h_mean, p = _slice_leaf_fields(metric, u)[:2]
    if u.ndim == 0:
        return float(h_mean), float(p)
    return h_mean, p


def _check_start(spec: ARWSpec, u0: float, tolerance: float) -> None:
    _require_spec(spec)
    _check_symmetric(spec)
    if not (spec.a < u0 < 0.0):
        raise FlowError(f"u0 = {u0} outside ({spec.a}, 0)")
    if tolerance <= 0.0:
        raise FlowError("tolerance must be positive")


def imcf_run(
    spec: ARWSpec,
    u0: float,
    t_end: float,
    tolerance: float = 1e-10,
    fixed_step: float | None = None,
    max_steps: int = 200_000,
) -> ImcfTrajectory:
    """Integrate the symmetric flow from the slice u0 up to flow time t_end.

    Stops early (flagged, not an error) once |u| < 1e-12; aborts with
    FlowError if a mean curvature H <= 0 is encountered.
    """
    _check_start(spec, u0, tolerance)
    metric = spec.metric

    def rhs(u: float) -> tuple[float, float]:
        """(du/dt, H) at the slice u."""
        if u >= -_HALT_U / 2:
            raise _StepAcross()
        h_mean, p = _slice_mean_curvature(metric, u)
        if h_mean <= 0.0:
            raise FlowError(f"mean curvature {h_mean:.6e} <= 0 at u = {u:.6e}")
        return math.exp(-p) / h_mean, h_mean

    def snapshot(t: float, u: float, h_mean: float) -> FlowState:
        return FlowState(t=t, u=u, mean_curvature=h_mean, f_of_u=spec.f.value(u))

    t, u = 0.0, float(u0)
    k = np.empty(7)
    k[0], h_mean = rhs(u)
    states = [snapshot(t, u, h_mean)]
    reached = False

    h = fixed_step if fixed_step is not None else min(1e-3, t_end)
    err_prev = 1.0
    steps = 0
    while t < t_end and not reached:
        if steps >= max_steps:
            raise FlowError(f"no convergence within {max_steps} steps")
        steps += 1
        h_step = min(h, t_end - t)
        try:
            for i in range(1, 7):
                ui = u + h_step * sum(a * k[j] for j, a in enumerate(_A[i]))
                k[i], h_new = rhs(ui)
        except _StepAcross:
            h = 0.5 * h_step
            if h < 1e-15:
                raise FlowError("step size underflow near the singularity")
            continue
        # FSAL: _A[6] holds the fifth-order weights, so the last stage sits
        # at the step's end and its H is the new state's
        u_new = float(ui)

        if fixed_step is None:
            scale = tolerance * (1.0 + max(abs(u), abs(u_new)))
            err = h_step * abs(float(_ERR @ k)) / scale + 1e-16
            if err > 1.0:  # reject and retry with a shorter step
                h = h_step * max(0.2, 0.9 * err**-0.2)
                continue
            h = h_step * min(5.0, max(0.2, 0.9 * err**-0.14 * err_prev**0.08))
            err_prev = err

        t += h_step
        u = u_new
        k[0] = k[6]
        states.append(snapshot(t, u, h_new))
        if u >= -_HALT_U:
            reached = True

    return ImcfTrajectory(
        states=tuple(states), reached_singularity=reached, tolerance=tolerance
    )


class _StepAcross(Exception):
    """Internal: a trial stage crossed tau = 0; halve the step."""


@dataclass(frozen=True)
class _Panel:
    """An accepted panel: flow time t_a and leaf u_a at its left end, its
    width in y = -log(-u) and the Chebyshev series of t - t_a on [-1, 1]."""

    t_a: float
    u_a: float
    width: float
    series: np.ndarray

    def leaves(self, times: np.ndarray) -> np.ndarray:
        """u at flow times inside the panel, by Newton on the series."""
        cheb = np.polynomial.chebyshev
        rate = cheb.chebder(self.series)
        target = times - self.t_a
        x = -1.0 + 2.0 * target / cheb.chebval(1.0, self.series)
        for _ in range(50):
            step = (cheb.chebval(x, self.series) - target) / cheb.chebval(x, rate)
            x = np.clip(x - step, -1.0, 1.0)
            if np.max(np.abs(step)) <= 1e-15:
                break
        return self.u_a * np.exp(-0.5 * self.width * (x + 1.0))


def _panels(spec: ARWSpec, u0: float, t_end: float, tolerance: float) -> tuple:
    """(accepted panels, t, u) where the quadrature stopped: at the first
    panel end with t >= t_end, or at the halt slice u = -_HALT_U."""
    cheb = np.polynomial.chebyshev
    # Chebyshev-Lobatto points x = cos(theta) and the discrete cosine
    # transform from values there to the interpolant's coefficients, which
    # needs no least-squares solve
    theta = np.linspace(-np.pi, 0.0, _PANEL_POINTS)
    x = np.cos(theta)
    fit = np.cos(np.outer(np.arange(_PANEL_POINTS), theta)) * (2.0 / (_PANEL_POINTS - 1))
    fit[:, [0, -1]] /= 2
    fit[[0, -1], :] /= 2
    y_halt = -math.log(_HALT_U)
    y_a, t_a, u_a = -math.log(-u0), 0.0, float(u0)
    width = _PANEL_WIDTH
    panels = []
    # (H, u) of the node with H <= 0 seen closest to the flow: the flow
    # cannot cross it, but panels shrink toward it until the flow either
    # reaches t_end or stalls there
    stall = None
    while True:
        last = y_a + width >= y_halt
        w = y_halt - y_a if last else width
        u = u_a * np.exp(-0.5 * w * (x + 1.0))
        h_mean, p = _slice_mean_curvature(spec.metric, u)
        bad = np.flatnonzero(~(h_mean > 0.0))
        if bad.size:
            if stall is None or u[bad[0]] < stall[1]:
                stall = (h_mean[bad[0]], u[bad[0]])
            accepted = False
        else:
            coef = fit @ (np.exp(p) * h_mean * -u)
            accepted = abs(coef[-1]) + abs(coef[-2]) <= tolerance * np.max(np.abs(coef))
        if not accepted:
            # the flow already stands at the left end, before t_end
            if (bad.size and bad[0] == 0) or w / 2 < _MIN_PANEL_WIDTH:
                if stall is not None:
                    raise FlowError(f"mean curvature {stall[0]:.6e} <= 0 at u = {stall[1]:.6e}")
                raise FlowError(f"flow quadrature does not converge at u = {u_a:.6e}")
            width = w / 2
            continue
        series = cheb.chebint(coef, lbnd=-1.0, scl=0.5 * w)
        panels.append(_Panel(t_a, u_a, w, series))
        t_a += float(cheb.chebval(1.0, series))
        y_a, u_a = y_a + w, float(u[-1])
        width = min(_PANEL_WIDTH, 2.0 * w)
        if t_a >= t_end or last:
            return panels, t_a, u_a


def flow_leaves(
    spec: ARWSpec,
    u0: float,
    t_end: float,
    count: int,
    tolerance: float = 1e-10,
) -> FlowLeaves:
    """Leaves of the symmetric flow from the slice u0 at the ``count`` flow
    times linspace(0, t_end, count), from one quadrature of t(u).

    A panel is accepted when its two last Chebyshev coefficients total at
    most ``tolerance`` times the largest; otherwise it is halved.  If the
    flow reaches the halt slice |u| = 1e-12 before t_end, the leaves stop
    there and the halt leaf is the last one (flagged, not an error).  A
    mean curvature H <= 0 met before t_end raises FlowError.  H and f(u) of
    the leaves are columns of :func:`mass_along_flow`, which evaluates their
    slice fields.
    """
    _check_start(spec, u0, tolerance)
    if not (0.0 < t_end < math.inf):
        raise FlowError(f"t_end must be positive and finite, got {t_end}")
    if count < 2:
        raise FlowError(f"count must be at least 2, got {count}")
    panels, t_stop, u_stop = _panels(spec, u0, t_end, tolerance)
    reached = t_stop < t_end

    times = np.linspace(0.0, t_end, count)
    # each panel holds the sorted times from its start to the next one's
    ends = [panel.t_a for panel in panels[1:]] + [t_stop if reached else math.inf]
    sorted_times, pieces, lo = times.tolist(), [], 0
    for panel, t_b in zip(panels, ends):
        hi = bisect.bisect_left(sorted_times, t_b)
        if hi > lo:
            pieces.append(panel.leaves(times[lo:hi]))
        lo = hi
    times, u = times[:lo], np.concatenate(pieces)
    if reached:
        times, u = np.append(times, t_stop), np.append(u, u_stop)
    return FlowLeaves(times=times, u=u, reached_singularity=reached, panels=len(panels))


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polynomial.polynomial.polyfit(x, y, 1)[1])


def flow_diagnostics(trajectory: ImcfTrajectory) -> tuple[float, float]:
    """(slope of f(u(t)), decay rate of log |u|), fitted over the final third.

    The contract values are slope -> -1/n and decay -> -gamma_tilde/n.
    Requires at least two decades of |u| decay so the transient is gone.
    """
    t = trajectory.times
    u = trajectory.leaves
    if len(t) < 8 or abs(u[0] / u[-1]) < 100.0:
        raise FlowError("trajectory too short: need two decades of |u| decay")
    tail = t >= t[-1] - (t[-1] - t[0]) / 3.0
    f_vals = np.array([s.f_of_u for s in trajectory.states])
    slope = _fit_slope(t[tail], f_vals[tail])
    decay = _fit_slope(t[tail], np.log(np.abs(u[tail])))
    return slope, decay


def mass_along_flow(spec: ARWSpec, leaves, grid: QuadratureGrid | None = None) -> tuple:
    """Mass data of the leaves {tau = u}, one FlowMassSample per entry of
    ``leaves``: H, f(u), I(M), the monotonicity lemma quantity

        int (R - [|A|^2 - H^2/n]) e^{omega f} e^{psi},

    and the mean-curvature form (n-1)/(2n) int H^2 e^{omega f} e^{psi}; the
    last two bracket I(M) in the limit.

    The flow must admit ``spec`` (else FlowError), so each leaf is a round
    slice: umbilic (|A|^2 = H^2/n), with R = n(n-1) e^{-2 psi_tilde} /
    sigma_11.  The Gauss equation 2 G(nu, nu) = R + H^2 - |A|^2 (the
    Hamiltonian constraint) then makes the mass integrand R/2 + (n-1)/(2n)
    H^2, so all three columns come from the first-order data of one
    _slice_leaf_fields evaluation of the leaves and one _weighted_integral.
    That is a route apart from slice_mass_integral, which reads the
    second-order G_tautau of curvature.warped_einstein.  The lemma column
    integrates R e^{omega f} e^{psi}, with no cancellation.  If a leaf fails,
    the leaves are evaluated and checked one by one: the first one raises.
    """
    _require_spec(spec)
    _check_symmetric(spec)
    n = spec.n
    grid = grid or quadrature_grid(n)
    u = np.array(leaves, dtype=float)
    try:
        h_mean, p, sig11, f, psi = _slice_leaf_fields(spec.metric, u)
    except (GeometryError, ExpressionError):
        for v in u[:, None]:
            _slice_leaf_fields(spec.metric, v)
            _check_time(spec, v)
        raise
    _check_time(spec, u)
    # I, R and the H-form at every node of each leaf, and the weight's node values
    scalar = n * (n - 1) * np.exp(-2.0 * p) / sig11
    h_form = (n - 1) / (2.0 * n) * h_mean**2
    columns = np.stack((0.5 * scalar + h_form, scalar, h_form))[..., None]
    nodes = np.ones(len(grid.axis_nodes[0]))
    lw, p, sig11 = (x[:, None] for x in (spec.omega * f + psi, p, sig11))
    integrals = _weighted_integral(n, grid, columns * nodes, lw, p, sig11)
    return tuple(FlowMassSample(*map(float, row)) for row in zip(u, h_mean, f, *integrals))
