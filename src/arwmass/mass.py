"""The mass functional and its invariance properties.

Slice and graph mass integrals

    I(tau) = int_M G_ab nu^a nu^b e^{omega f} e^{psi} dmu,

their extrapolated limit toward the singularity, the divergence-theorem
balance over a slab (which is the mechanism behind existence of the limit),
a monotonicity scan, the timelike convergence condition check, and the two
gauge moves (spatial normalization and time reparametrization) under which
the recovered mass must not change.

Every mass routine takes an ARWSpec and nothing else: the weight
e^{omega f} e^{psi} and the domain [a, 0) are part of the ARW data, so a
bare SpacetimeMetric has no mass functional and is a TypeError.  Each
routine reads omega, n and the metric from the spec, and checks its times
against the domain with _check_time.

All spatial integrals exploit the rotational symmetry of the admitted
perturbations: integrands depend on theta1 only, so each reduces to a
Gauss-Legendre sum over the theta1 nodes against the round measure.  Slices,
the slab volume, graphs and IMCF leaves share one leaf integrator,
_weighted_integral, which applies the weight and the area element and takes
node values with leading axes (a block of slab slices, the three columns
of the IMCF leaves) to geometry.integrate_node_values in one call.
Callers pass psi_tilde, sigma_11 and the weight's omega f + psi from the
source jets of their own evaluation (a graph from its ExtrinsicData), which
SpacetimeMetric.field_jets evaluated in one program call, and tcc_check
reads its frame from the g of its curvature bundles: no source is evaluated
a second time for one integrand.

Slices and the slab volume, whose integrands need G on the coordinate
slices of an ARWSpec only, read the base kernel curvature.warped_einstein
through one loop over tau, _slice_integrals, in blocks of whole slices of
at most curvature._BASE_BLOCK_EVENTS events.  The IMCF leaves (round
coordinate slices, see imcf.mass_along_flow) read no curvature kernel:
their G(nu, nu) comes from first-order slice data through the Hamiltonian
constraint, a route apart from the slices'.  Graphs, the TCC and the
monotonicity probes need the full tensor in any direction and read the
full stack: one hypersurface assembly of all the nodes of a graph, one
curvature_at per probe event.  The probes read only diagonals: G^{ij} and
hbar are diagonal on the slices of every ARWSpec.

Both gauge moves are the time change tau = phi(s), with f -> f o phi +
log phi', psi -> psi o phi and lambda -> lambda o phi - log phi'; normalize
puts its constant log phi' into sigma_scale instead of lambda.  psi and
lambda are substituted symbolically, and f, of any time profile, goes
through _TimeChange with derivatives up to order 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curvature import _BASE_BLOCK_EVENTS, curvature_at, warped_einstein
from .expr import (
    Call,
    Expression,
    ExpressionError,
    Num,
    Var,
    compile_jet,
    differentiate,
    fold_constants,
    substitute,
)
from .extrapolate import aitken_limit
from .fields import TimeFunction
from .geometry import (
    ARWSpec,
    ConditionReport,
    GeometryError,
    QuadratureGrid,
    geometric_schedule,
    integrate_node_values,
    quadrature_grid,
    sample_events,
    sphere_volume,
)
from .hypersurface import (
    GraphHypersurface,
    _ambient,
    _frame,
    _slice_fields,
    _slice_second_fundamental,
)

__all__ = [
    "MassReport",
    "SlabBalance",
    "MonotonicityReport",
    "TccReport",
    "slice_mass_integral",
    "graph_mass_integral",
    "mass_limit",
    "slab_balance",
    "monotonicity_scan",
    "tcc_check",
    "normalize",
    "reparametrize_time",
]

# interior values for the angles a rotationally symmetric integrand ignores
_FILL_ANGLE = 1.1
# the random unit timelike directions tcc_check draws per event, chi = 0 among them
_TCC_DIRECTIONS = 32


@dataclass(frozen=True)
class MassReport:
    sample_times: tuple
    integrals: tuple
    limit: float
    m_hat: float
    error_estimate: float
    monotone: bool


@dataclass(frozen=True)
class SlabBalance:
    tau1: float
    tau2: float
    b1: float
    b2: float
    volume: float
    residual: float  # |B2 - B1 - V| / max(|B1|, |B2|, |V|, 1)


@dataclass(frozen=True)
class MonotonicityReport:
    sample_times: tuple
    integrals: tuple
    direction: str  # "increasing" | "decreasing" | "constant" | "none"
    monotone: bool
    probes: tuple


@dataclass(frozen=True)
class TccReport:
    minimum: float
    passed: bool
    samples: int
    violations: tuple  # (event, direction, value) triples


# ---------------------------------------------------------------------------
# Mass integrals


def _require_spec(spec) -> None:
    """Raise TypeError unless ``spec`` is an ARWSpec: its omega, n, metric
    and domain [a, 0) define the mass functional."""
    if not isinstance(spec, ARWSpec):
        raise TypeError(f"expected an ARWSpec, got {type(spec).__name__}")


def _check_time(spec: ARWSpec, tau) -> None:
    """Raise GeometryError for ``tau``, or for the first of an array of
    times, outside the domain [a, 0) of ``spec``."""
    taus = np.ravel(tau)
    outside = ~((spec.a - 1e-12 <= taus) & (taus < 0.0))
    if np.any(outside):
        first = taus[int(np.argmax(outside))]
        raise GeometryError(f"tau = {first} outside the domain [{spec.a}, 0)")


def _slice_events(n: int, tau, theta1) -> np.ndarray:
    """The events (tau, theta1, fill angles), shape (..., n+1), with the
    leading axes of ``tau`` and ``theta1`` broadcast together."""
    shape = np.broadcast_shapes(np.shape(tau), np.shape(theta1))
    events = np.full(shape + (n + 1,), _FILL_ANGLE)
    events[..., 0] = tau
    events[..., 1] = theta1
    return events


def _weighted_integral(
    n: int, grid, values, log_weight, psi_tilde, sig11, tilt=1.0, power=None
):
    """The integral of ``values`` e^{omega f} e^{psi} e^{power psi_tilde} v
    sigma_11^{n/2} over the theta1 nodes of ``grid``.

    ``log_weight`` (omega f + psi), ``psi_tilde``, ``sig11`` (sigma_11) and
    ``tilt`` (v) are their values at the nodes, read by the caller from its
    own evaluation; ``power`` defaults to n, the area element of a leaf.
    ``values`` of shape (..., N) broadcasts against their leading axes, and
    every row is integrated: a float for (N,).
    """
    power = n if power is None else power
    weighted = (
        np.asarray(values, dtype=float)
        * np.exp(log_weight)
        * np.exp(power * psi_tilde)
        * tilt
        * sig11 ** (n / 2.0)
    )
    return integrate_node_values(grid, weighted)


def _slice_integrals(spec: ARWSpec, taus: np.ndarray, grid: QuadratureGrid, slab: bool) -> tuple:
    """(I, J): lists of the mass integral I(tau) and, with ``slab``, of the
    slab integrand J(tau) (else J is empty), one entry per tau of ``taus``.

    Whole slices go in blocks of at most _BASE_BLOCK_EVENTS events (one
    slice at least) through one call of the base kernel
    curvature.warped_einstein each, in _slice_block.  Each integral keeps
    the bits it has in a block of its own slice alone.
    """
    theta = grid.axis_nodes[0]
    per_block = max(1, _BASE_BLOCK_EVENTS // len(theta))
    mass, flux = [], []
    for start in range(0, len(taus), per_block):
        events = _slice_events(spec.n, taus[start : start + per_block, None], theta)
        block_mass, block_flux = _slice_block(spec, grid, events, slab)
        mass.extend(block_mass)
        flux.extend(block_flux)
    return mass, flux


def _slice_block(spec: ARWSpec, grid: QuadratureGrid, events: np.ndarray, slab: bool) -> tuple:
    """(I, J) of the slices of one block, events (slices, N, n+1): arrays
    of one entry per slice, J empty without ``slab``.  The block's fields
    are released on return, before the next block is assembled.

    With g diagonal, I integrates G(nu, nu) = e^{-2 psi_tilde} G_tautau
    against the area element e^{n psi_tilde} sqrt(det sigma), and J
    integrates

        [ G^{ij} hbar_ij + G^{00}(omega f' + psi') e^{psi_tilde} ] e^{omega f} e^{psi}

    against the volume element e^{(n+1) psi_tilde} sqrt(det sigma), with
    G^00 = e^{-4 psi_tilde} G_tautau and G^{ij} hbar_ij the theta1 entry
    (e^{-2 psi_tilde} / sigma_11)^2 G_theta1theta1 hbar_11 plus n - 1 equal
    fibre terms G_F g^{aa} hbar_aa = G_F e^{-2 psi_tilde} hbar_11 / sigma_11.
    The kernel's field jets give psi_tilde, sigma, f, psi and their tau
    derivatives, so hbar, both measures, sigma_11, the weight and
    omega f' + psi' all come from its one evaluation.
    """
    n = spec.n
    # the kernel takes the events flat; its fields get the axes (slices, N) back
    fields, einstein = warped_einstein(spec.metric, events.reshape(-1, n + 1))
    psi_tilde, sigma, f, psi = (x.reshape(events.shape[:-1] + x.shape[1:]) for x in fields)
    g_tt, g_thth, g_fibre = (x.reshape(events.shape[:-1]) for x in einstein)
    p = psi_tilde[..., 0]
    sig11 = sigma[..., 0, 0]
    log_weight = spec.omega * f[..., 0] + psi[..., 0]
    e = np.exp(-2.0 * p)
    mass = _weighted_integral(n, grid, g_tt * e, log_weight, p, sig11)
    if not slab:
        return mass, ()
    hbar = _slice_fields(psi_tilde, sigma)[0]
    drift = spec.omega * f[..., 1] + psi[..., 1]
    spatial = ((e / sig11) ** 2 * g_thth + (n - 1) * g_fibre * e / sig11) * hbar[..., 0]
    time_part = e * e * g_tt * drift * np.exp(p)
    flux = _weighted_integral(n, grid, spatial + time_part, log_weight, p, sig11, power=n + 1)
    return mass, flux


def slice_mass_integral(spec: ARWSpec, tau: float, grid: QuadratureGrid | None = None) -> float:
    """I(tau) over the coordinate slice, with the slice unit normal.

    The integrand G_ab nu^a nu^b e^{omega f} e^{psi} is paired with the area
    element e^{n psi_tilde} sqrt(det sigma) of the slice.  ``spec`` is an
    ARWSpec: the slice is one block of _slice_integrals, all its quadrature
    nodes in one call of the base kernel curvature.warped_einstein, whose
    field jets supply psi_tilde, sigma_11 and the weight.
    """
    _require_spec(spec)
    _check_time(spec, tau)
    grid = grid or quadrature_grid(spec.n)
    return float(_slice_integrals(spec, np.array([tau], dtype=float), grid, slab=False)[0][0])


def _graph_flux(surface: GraphHypersurface, node) -> tuple:
    """(frame, G(nu, nu) with the graph's past normal) at ``node``, from one
    order-2 assembly: G(nu, nu) reads the frame and the ambient curvature
    only."""
    amb = _ambient(surface, node, order=2)
    ext = _frame(amb)
    nu = ext.past_normal
    g_nu = np.einsum("...a,...ab->...b", nu, amb.curvature.einstein)
    return ext, np.einsum("...b,...b->...", g_nu, nu)


def graph_mass_integral(
    spec: ARWSpec, surface: GraphHypersurface, grid: QuadratureGrid | None = None
) -> float:
    """The mass integrand over a spacelike graph with its own normal, all
    theta1 nodes in one order-2 assembly; if that fails, node by node, so
    that the first failing node raises its own error."""
    _require_spec(spec)
    grid = grid or quadrature_grid(spec.n)
    if surface.ambient is not spec.metric:
        raise GeometryError("the graph's ambient is not the metric of the spec that weighs it")
    nodes = _slice_events(spec.n, 0.0, grid.axis_nodes[0])[:, 1:]  # the angles of a slice
    try:
        ext, values = _graph_flux(surface, nodes)
        _check_time(spec, ext.event[:, 0])
    except (GeometryError, ExpressionError):
        for node in nodes:
            _check_time(spec, _graph_flux(surface, node)[0].event[0])
        raise
    lw = spec.omega * ext.f + ext.psi
    return float(
        _weighted_integral(spec.n, grid, values, lw, ext.psi_tilde, ext.sigma[:, 0], ext.tilt)
    )


def mass_limit(
    spec: ARWSpec,
    grid: QuadratureGrid | None = None,
    schedule=None,
) -> MassReport:
    """I(tau_k) on a geometric schedule, Aitken-extrapolated to the limit.

    m_hat = 2 I_infinity / (n(n-1)|S^n|); the error estimate is the size of
    the last Aitken correction, and the monotone flag records whether the
    sampled sequence is nondecreasing.
    """
    _require_spec(spec)
    grid = grid or quadrature_grid(spec.n)
    if schedule is None:
        schedule = geometric_schedule(spec.a, 10)
    times = np.asarray(schedule, dtype=float)
    if times.size < 3:
        raise GeometryError("mass extrapolation needs at least 3 samples")
    integrals = np.array([slice_mass_integral(spec, t, grid) for t in times])
    limit, err = aitken_limit(integrals)
    scale = float(np.max(np.abs(integrals)))
    monotone = bool(np.all(np.diff(integrals) >= -1e-12 * max(scale, 1.0)))
    m_hat = 2.0 * limit / (spec.n * (spec.n - 1) * sphere_volume(spec.n))
    return MassReport(
        sample_times=tuple(times),
        integrals=tuple(integrals),
        limit=float(limit),
        m_hat=float(m_hat),
        error_estimate=float(err),
        monotone=monotone,
    )


# ---------------------------------------------------------------------------
# Slab balance (the divergence-theorem identity behind the limit)


def slab_balance(
    spec: ARWSpec, tau1: float, tau2: float, grid: QuadratureGrid | None = None
) -> SlabBalance:
    """Balance B2 - B1 = V over the slab [tau1, tau2] x S_0.

    B_i are the mass integrals of the bounding slices, taken with the slice
    normal eta (the future-directed field (eta_alpha) = e^{psi_tilde}(-1,0,..);
    the integrand is even in the normal, so this agrees with the past-normal
    mass integrand).  V integrates

        [ G^{ij} hbar_ij + G^{00}(omega f' + psi') e^{psi_tilde} ] e^{omega f} e^{psi}

    against the spacetime volume element e^{(n+1) psi_tilde} sqrt(det sigma).
    The residual is |B2 - B1 - V| relative to max(|B1|, |B2|, |V|, 1).

    ``spec`` is an ARWSpec.  B1, B2 and the slab integrand J at the
    Gauss-Legendre nodes in tau across the slab come from one call of
    _slice_integrals, tau1 and tau2 first: B_i keep the bits of
    slice_mass_integral, and V adds each slice's w_k J(tau_k) in tau order.
    """
    _require_spec(spec)
    _check_time(spec, tau1)
    _check_time(spec, tau2)
    if not tau1 < tau2:
        raise GeometryError(f"need tau1 < tau2, got {tau1}, {tau2}")
    grid = grid or quadrature_grid(spec.n)

    x, gw = grid.rule
    half = 0.5 * (tau2 - tau1)
    taus = np.concatenate(([tau1, tau2], tau1 + half * (x + 1.0)))
    mass, flux = _slice_integrals(spec, taus, grid, slab=True)
    b1, b2 = float(mass[0]), float(mass[1])

    volume = 0.0
    for wt, integral in zip(half * gw, flux[2:]):
        volume += wt * integral

    residual = abs(b2 - b1 - volume) / max(abs(b1), abs(b2), abs(volume), 1.0)
    return SlabBalance(
        tau1=tau1, tau2=tau2, b1=b1, b2=b2, volume=volume, residual=residual
    )


# ---------------------------------------------------------------------------
# Monotonicity scan and the timelike convergence condition


def _direction(integrals: np.ndarray) -> str:
    scale = max(float(np.max(np.abs(integrals))), 1.0)
    diffs = np.diff(integrals)
    tol = 1e-11 * scale
    if np.all(np.abs(diffs) <= tol):
        return "constant"
    if np.all(diffs >= -tol):
        return "increasing"
    if np.all(diffs <= tol):
        return "decreasing"
    return "none"


def monotonicity_scan(
    spec: ARWSpec,
    schedule=None,
    grid: QuadratureGrid | None = None,
) -> MonotonicityReport:
    """I(tau_k) together with the sufficient-condition probes.

    The probes (f' < 0, G^00 >= 0, G^{ij} and hbar_ij positive semidefinite,
    omega = 0, psi = 0) are diagnostics only: they are sufficient for
    monotonicity, never necessary, and the report states the observed
    direction of I independently of them.  They are read at every sample
    time and every fourth theta1 node: one ``curvature_at`` per probe event,
    then hbar for all of them in one call.  The spatial block of G^{ij} and
    hbar are diagonal for every ARWSpec (a warped product, O'Neill ch. 7),
    so their least eigenvalues are their least diagonal entries.  Against a
    per-node loop the G terms keep their bits and hbar moves by up to 1 ulp.
    An event whose G^{ij} has a NaN on its diagonal fails the spatial-stress
    probe: the least entry reads NaN.  Fewer than 2 sample times raise
    GeometryError: one sample has no direction.
    """
    _require_spec(spec)
    grid = grid or quadrature_grid(spec.n)
    if schedule is None:
        schedule = geometric_schedule(spec.a, 10)
    times = np.asarray(schedule, dtype=float)
    if times.size < 2:
        raise GeometryError("the monotonicity scan needs at least 2 samples")
    metric = spec.metric
    n = spec.n

    integrals = np.array([slice_mass_integral(spec, t, grid) for t in times])

    fp = np.array([spec.f.derivative(float(t), 1) for t in times])
    thetas = grid.axis_nodes[0][::4]
    events = _slice_events(n, times[:, None], thetas)
    g_inv = np.empty(events.shape + (n + 1,))
    einstein = np.empty_like(g_inv)
    for index in np.ndindex(events.shape[:-1]):
        bundle = curvature_at(metric, events[index])
        g_inv[index], einstein[index] = bundle.g_inv, bundle.einstein
    g_up = g_inv @ einstein @ g_inv
    hbar = _slice_second_fundamental(metric, events)[0]
    min_g00 = float(np.min(g_up[..., 0, 0]))
    min_gij = float(np.min(np.diagonal(g_up[..., 1:, 1:], axis1=-2, axis2=-1)))
    min_hbar = float(np.min(hbar))

    psi_zero = fold_constants(spec.psi) == Num(0.0)
    probes = (
        ConditionReport(
            name="lapse-negative",
            passed=bool(np.all(fp < 0.0)),
            detail=f"max f' = {fp.max():.3e}",
        ),
        ConditionReport(
            name="energy-density",
            passed=min_g00 >= -1e-10,
            detail=f"min G^00 = {min_g00:.3e}",
        ),
        ConditionReport(
            name="spatial-stress",
            passed=min_gij >= -1e-10,
            detail=f"min eig G^ij = {min_gij:.3e}",
        ),
        ConditionReport(
            name="slice-convexity",
            passed=min_hbar >= -1e-10,
            detail=f"min eig hbar = {min_hbar:.3e}",
        ),
        ConditionReport(
            name="omega-zero",
            passed=spec.omega == 0.0,
            detail=f"omega = {spec.omega}",
        ),
        ConditionReport(name="psi-zero", passed=psi_zero, detail=f"psi zero: {psi_zero}"),
    )
    direction = _direction(integrals)
    return MonotonicityReport(
        sample_times=tuple(times),
        integrals=tuple(integrals),
        direction=direction,
        monotone=direction != "none",
        probes=probes,
    )


def tcc_check(
    spec: ARWSpec,
    events=None,
    seed: int = 0,
    tol: float = 1e-9,
) -> TccReport:
    """Minimum of Ric(nu, nu) over _TCC_DIRECTIONS = 32 random unit timelike
    directions per event.

    Directions are boost-parameterized in an orthonormal frame,
    nu = cosh(chi) e_0 + sinh(chi) d^i e_i with |d| = 1; chi = 0 (the slice
    normal itself) is always included.  Values below -tol are reported as
    violations of the timelike convergence condition, in event and then
    direction order.  A NaN value is a violation too: it makes the minimum
    NaN and the check fail.  ``events`` is an (m, n+1) array with m >= 1.

    Each event makes one ``curvature_at`` call, whose diagonal g gives the
    frame e_a = |g_aa|^{-1/2} d_a, and its directions are drawn as two
    arrays from one generator stream: the k - 1 random chi, then the
    k vectors d as one (k, n) normal draw.  These are the numbers a loop
    drawing one d per direction consumes, and Ric(nu, nu) of all directions
    is one contraction.  Against such a loop a value moves by ~1 ulp, a few
    ulp of |nu| |Ric| |nu| at most (np.cosh against math.cosh, and the
    order of the sums), and keeps its bits at chi = 0.
    """
    _require_spec(spec)
    if events is None:
        events = sample_events(spec, 100, seed=seed)
    rng = np.random.default_rng(seed + 1)
    metric, n = spec.metric, spec.n
    events = np.asarray(events, dtype=float)
    if events.shape[:1] == (0,):
        raise GeometryError("the TCC check needs at least one event, got 0")
    if events.shape[1:] != (n + 1,):
        raise GeometryError(f"events must have shape (m, {n + 1}), got {events.shape}")

    m, k = len(events), _TCC_DIRECTIONS
    ricci = np.empty((m, n + 1, n + 1))
    frame = np.zeros((m, n + 1, n + 1))  # frame[j, a] = hatted basis vector a at event j
    chi = np.zeros((m, k))
    d = np.empty((m, k, n))
    for j, event in enumerate(events):
        bundle = curvature_at(metric, event)
        ricci[j], frame[j] = bundle.ricci, np.diag(np.abs(np.diagonal(bundle.g)) ** -0.5)
        chi[j, 1:] = rng.uniform(0.0, 2.5, k - 1)
        d[j] = rng.normal(size=(k, n))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    # nu[j, l] is direction l at event j, and values[j, l] its Ric(nu, nu)
    chi = chi[..., None]
    nu = np.cosh(chi) * frame[:, None, 0] + np.sinh(chi) * (d @ frame[:, 1:])
    values = np.einsum("jlb,jlb->jl", nu @ ricci, nu)

    minimum = float(np.min(values))
    violations = tuple(
        (tuple(events[j]), tuple(nu[j, l]), float(values[j, l]))
        for j, l in np.argwhere(~(values >= -tol))
    )
    return TccReport(
        minimum=minimum,
        passed=minimum >= -tol,
        samples=values.size,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Gauge moves


class _TimeChange(TimeFunction):
    """f o phi + log phi' for the time change tau = phi(s), up to order 3.

    ``phi`` is an expression in tau.  One program gives phi and its first
    three derivatives and log phi' with its first three; f's derivatives at
    phi(s) enter by the chain rule.
    """

    def __init__(self, base: TimeFunction, phi: Expression):
        self.base = base
        exprs = [phi, Call("log", differentiate(phi, "tau"))]
        jets = [differentiate(e, "tau", k) for e in exprs for k in range(4)]
        self._program = compile_jet(jets, ("tau",))

    def derivative(self, tau: float, order: int) -> float:
        if not 0 <= order <= 3:
            raise ValueError(f"derivative order {order} not available (max 3)")
        phi, d1, d2, d3, *log_d1 = self._program(np.array([tau])).tolist()
        b = [self.base.derivative(phi, k) if k <= order else 0.0 for k in range(4)]
        chain = (
            b[0],
            b[1] * d1,
            b[2] * d1 * d1 + b[1] * d2,
            b[3] * d1**3 + 3.0 * b[2] * d1 * d2 + b[1] * d3,
        )
        return chain[order] + log_d1[order]


def normalize(spec: ARWSpec, grid: QuadratureGrid | None = None):
    """Rescale the spatial metric to unit-sphere volume.

    Returns (spec', scale) with sigma_bar -> scale * sigma_bar.  Keeping the
    spacetime fixed as a tensor forces the time change tau = phi(s) with
    phi(s) = s / sqrt(scale), a -> sqrt(scale) a: f -> f o phi + log phi'
    sheds the constant the spatial rescale absorbed, and psi and lambda are
    composed with phi.  The constant log phi' goes into sigma_scale, not
    into lambda.  Both volumes are taken with the grid's own rule, the
    limiting one from the lambda-profile at tau = 0, where admissible
    perturbations vanish; a spec already of unit volume keeps scale 1.0.
    """
    _require_spec(spec)
    grid = grid or quadrature_grid(spec.n)
    lam0 = fold_constants(substitute(spec.lam, "tau", Num(0.0)))
    lam = compile_jet([lam0], ("theta1",))(grid.axis_nodes[0][:, None])[:, 0]
    density = (spec.sigma_scale * np.exp(2.0 * lam)) ** (spec.n / 2.0)
    unit, vol = integrate_node_values(grid, [np.ones_like(lam), density])
    scale = float((unit / vol) ** (2.0 / spec.n))
    if abs(scale - 1.0) < 1e-14:
        return spec, 1.0
    root = math.sqrt(scale)
    stretched = Var("tau") / Num(root)
    return replace(
        spec,
        f=_TimeChange(spec.f, stretched),
        psi=fold_constants(substitute(spec.psi, "tau", stretched)),
        lam=fold_constants(substitute(spec.lam, "tau", stretched)),
        a=root * spec.a,
        sigma_scale=spec.sigma_scale * scale,
    ), scale


def reparametrize_time(spec: ARWSpec, eps: float) -> ARWSpec:
    """Present the same spacetime in the time coordinate with tau = phibar(s).

    phibar(s) = s + eps s^2 must be increasing on the new domain.  The
    Gaussian form is restored by

        f~ = f o phibar + log phibar',   lambda~ = lambda o phibar - log phibar',
        psi~ = psi o phibar,

    which leaves omega and the recovered mass unchanged (phibar' -> 1 at the
    singularity).  Any time profile is accepted, the Schwarzschild-AdS one
    included.
    """
    _require_spec(spec)
    if eps == 0.0:
        return spec
    disc = 1.0 + 4.0 * eps * spec.a
    if disc <= 0.0:
        raise GeometryError(f"phibar is not monotone over [{spec.a}, 0) for eps = {eps}")
    a_new = (-1.0 + math.sqrt(disc)) / (2.0 * eps)
    if 1.0 + 2.0 * eps * a_new <= 0.0:
        raise GeometryError(f"phibar is not monotone over [{spec.a}, 0) for eps = {eps}")

    phi = fold_constants(Var("tau") + Num(eps) * Var("tau") * Var("tau"))
    dphi = fold_constants(Num(1.0) + Num(2.0 * eps) * Var("tau"))
    return replace(
        spec,
        f=_TimeChange(spec.f, phi),
        psi=fold_constants(substitute(spec.psi, "tau", phi)),
        lam=fold_constants(substitute(spec.lam, "tau", phi) - Call("log", dphi)),
        a=a_new,
    )
