"""Spacetime metrics in Gaussian form, spec containers, quadrature, validation.

Metrics here are conformally split:

    ds^2 = e^{2 psi_tilde} ( -dtau^2 + sigma_ij dx^i dx^j )

with psi_tilde = f + psi.  A SpacetimeMetric holds its sources: the time
profile f, and psi and the diagonal entries sigma_ii of sigma as expressions in
the chart coordinates, all with exact derivatives (see fields.py).  It is
the only assembler of their jets: one compiled program per jet order
evaluates psi and every non-constant sigma_ii together, so their shared
subtrees (sin theta1, e^{2 lambda}) run once per assembly.  Programs come
from fields.jet_program, compiled once per process for each source text.
The conformal metric fetches none: it reads the sigma columns of its
parent's program.
The cosmological family of interest has sigma_ij = e^{2 lambda}
sigma_bar_ij with sigma_bar the round unit n-sphere and psi_tilde = f(tau)
+ psi(tau, theta1); the future singularity sits at tau = 0 with domain
[a, 0), a < 0.

Every sigma built here is diagonal (the round sphere, the flat chart), and
so is the induced metric of every graph u(theta1).  A metric therefore
holds sigma as its n diagonal entries sigma_ii, their jets have shape
(..., n, width), and metrics are tested for degeneracy and inverted on
their diagonals.  The full curvature stack still reads g, its derivatives
and its inverse as dense (..., dim, dim) matrices.

One assembly fills one stacked array of field jets, (..., dim + 1, width):
psi_tilde, then the diagonal of eta = -dtau^2 + sigma, (-1, sigma_ii).
metric_jets tests the whole stack for finiteness in one reduction (the
jets are named only when it fails), splits it into values, gradients and
Hessians once, and keeps g's diagonal e^{2 psi_tilde} eta, which the
degeneracy test and the inverse read.  A one-event assembly is small
arrays throughout, so its cost is mostly per-call numpy overhead, and the
stack keeps the number of array operations per call low.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .expr import Call, Expression, Num, fold_constants, free_variables, parse
from .extrapolate import aitken_limit
from .fields import (
    COORD_NAMES,
    ExprField,
    ExprTimeFunction,
    TimeFunction,
    as_expression,
    as_time_function,
    jet_keys,
    jet_program,
    split_jet,
    time_jet,
)

__all__ = [
    "GeometryError",
    "QuadratureError",
    "SpacetimeMetric",
    "ARWSpec",
    "make_spec",
    "rw_family_spec",
    "flat_chart_metric",
    "QuadratureGrid",
    "quadrature_grid",
    "integrate_rotationally_symmetric",
    "integrate_node_values",
    "sphere_volume",
    "geometric_schedule",
    "arw_validate",
    "sample_events",
]


class GeometryError(Exception):
    pass


class QuadratureError(Exception):
    pass


# ---------------------------------------------------------------------------
# Metric containers


@dataclass(frozen=True, eq=False)
class SpacetimeMetric:
    """Gaussian-form Lorentzian metric on an (n+1)-dimensional chart, held as
    its sources: psi_tilde = f + psi, with ``f`` a time profile (None for
    none) and ``psi`` an expression in the chart coordinates, and
    ``sigma_diagonal`` the n expressions of sigma_ii (sigma_ij = 0 for i !=
    j).  An assembly reads their jets from :meth:`_jet_stack`, or from
    :meth:`field_jets`, which splits that stack.
    """

    n: int
    sigma_diagonal: tuple  # n Expressions, sigma_11 first
    psi: Expression = Num(0.0)
    f: TimeFunction | None = None
    # the metric whose sigma a conformal metric shares: its fields, and so
    # their derivative trees, and its programs, whose sigma columns it reads
    parent: SpacetimeMetric | None = field(default=None, repr=False)
    # one expr.Program per jet order, fetched on first use, so a call finds
    # it without building a cache key; threads share a metric, so a program
    # is only ever stored fully built
    _programs: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.n + 1

    @cached_property
    def conformal_metric(self) -> SpacetimeMetric:
        """-dtau^2 + sigma on the same chart: the conformal factor stripped.
        It shares this metric's sigma fields, and so their derivative trees,
        and evaluates this metric's programs for their sigma columns."""
        return SpacetimeMetric(n=self.n, sigma_diagonal=self.sigma_diagonal, parent=self)

    @cached_property
    def _layout(self) -> tuple:
        """(sources, fields): slot 0 holds psi and slot 1 + i sigma_ii.
        ``fields`` maps each evaluated slot, one whose source is not a
        literal, to the ExprField memoizing its derivative trees."""
        sources = (self.psi,) + tuple(self.sigma_diagonal)
        shared = self.parent._layout[1] if self.parent else {}
        fields = {
            k: shared.get(k) or ExprField(expr, self.dim)
            for k, expr in enumerate(sources)
            if not isinstance(expr, Num)
        }
        return sources, fields

    def _program(self, order: int):
        """The expr.Program of the jets to ``order`` of the evaluated slots."""
        program = self._programs.get(order)
        if program is None:
            trees = [fld._exprs for fld in self._layout[1].values()]
            program = jet_program(trees, COORD_NAMES[: self.dim], jet_keys(self.dim, order))
            self._programs[order] = program
        return program

    @cached_property
    def _fill(self) -> tuple:
        """How :meth:`_jet_stack` fills its rows psi_tilde, -1, sigma_ii:
        (the stack of the literal sources, zero elsewhere, in the layout of
        order 2, of which every lower order's is a prefix; the rows of the
        evaluated slots; the columns of the owner's program they read, or
        None for all of them in order; the owner's number of slots)."""
        sources, fields = self._layout
        slots = list((self.parent or self)._layout[1])
        row = [0] + list(range(2, self.dim + 1))  # of slot 0 (psi) and 1 + i (sigma_ii)
        literal = np.zeros((self.dim + 1, len(jet_keys(self.dim, 2))))
        literal[1, 0] = -1.0
        for k, expr in enumerate(sources):
            if isinstance(expr, Num):
                literal[row[k], 0] = expr.value
        rows = np.array([row[k] for k in fields], dtype=int)
        columns = None if slots == list(fields) else [slots.index(k) for k in fields]
        return literal, rows, columns, len(slots)

    def _jet_stack(self, events: np.ndarray, order: int) -> tuple:
        """(stack, f, psi): the jets of psi_tilde as stack[..., 0, :], of
        the diagonal eta_aa of eta = -dtau^2 + sigma (-1, then sigma_ii) as
        stack[..., 1 + a, :], and of the f and psi summed into psi_tilde,
        at events of shape (..., dim), in the fields.jet_keys layout of
        ``order``.

        One program call evaluates psi and every non-constant sigma_ii (a
        conformal metric calls its parent's and reads the sigma slots); a
        literal source is filled in, and f is zero without a time profile.
        Each jet keeps the bits of its source's own jet: ExprField.jet, or
        fields.time_jet for f.
        """
        literal, rows, columns, slots = self._fill
        width = len(jet_keys(self.dim, order))
        batch = events.shape[:-1]
        stack = np.empty(batch + (self.dim + 1, width))
        stack[...] = literal[:, :width]
        if len(rows):
            owner = self.parent or self
            values = owner._program(order)(events).reshape(batch + (slots, width))
            stack[..., rows, :] = values if columns is None else values[..., columns, :]
        psi = stack[..., 0, :]
        if self.f is None:
            return stack, np.zeros(batch + (width,)), psi
        f = time_jet(self.f, events, order)
        psi = psi.copy()
        stack[..., 0, :] += f
        return stack, f, psi

    def field_jets(self, events: np.ndarray, order: int) -> tuple:
        """(psi_tilde, sigma, f, psi): the jets of psi_tilde, of sigma_ii as
        sigma[..., i, :], and of the f and psi summed into psi_tilde, read
        from one :meth:`_jet_stack`."""
        stack, f, psi = self._jet_stack(events, order)
        return stack[..., 0, :], stack[..., 2:, :], f, psi


@dataclass(frozen=True)
class MetricJets:
    """The metric g of one assembly, its diagonal, its coordinate
    derivatives and the field jets it was built from, at one event or with
    the events' leading axes.

    ``dg`` and ``ddg`` are None beyond the assembly's order.  ``psi_tilde``
    is the jet of psi_tilde, ``sigma[..., i, :]`` the jet of sigma_ii and
    ``f`` and ``psi`` the jets summed into psi_tilde, all in the
    fields.jet_keys layout of that order.
    """

    g: np.ndarray
    g_diagonal: np.ndarray
    dg: np.ndarray | None
    ddg: np.ndarray | None
    psi_tilde: np.ndarray
    sigma: np.ndarray
    f: np.ndarray
    psi: np.ndarray


def metric_jets(metric: SpacetimeMetric, event, order: int = 2) -> MetricJets:
    """Metric g plus coordinate derivatives to the requested order, with the
    field jets they come from.

    ``event`` is one event or an array of events of shape (..., dim), and
    every returned array carries its leading axes.  The field jets come from
    one :meth:`SpacetimeMetric._jet_stack` evaluation, split once.  All
    derivatives are exact (symbolic or closed-form chain rule), nothing is
    finite differenced here.  A non-finite field jet raises GeometryError
    naming the field and its first such event, before any product is
    formed.
    """
    events = np.asarray(event, dtype=float)
    n, dim = metric.n, metric.dim
    if events.ndim == 0 or events.shape[-1] != dim:
        raise GeometryError(
            f"events of an n = {n} metric have dim = {dim} coordinates, got shape {events.shape}"
        )
    stack, f_jet, psi_jet = metric._jet_stack(events, order)
    _require_finite(stack, events)
    value, grad, hess = split_jet(stack, dim)
    # row 0 is psi_tilde, rows 1 + a the diagonal eta_aa of eta: g = e^{2
    # psi_tilde} eta, and g, dg and ddg are diagonal in their last two axes
    scale = np.exp(2.0 * value[..., :1])
    eta = value[..., 1:]
    diagonal = scale * eta
    g = _diagonal_matrix(diagonal)
    dg = ddg = None
    if order >= 1:
        p1, deta = grad[..., 0, :], grad[..., 1:, :]
        twice = 2.0 * p1
        # [a, c] = d_c g_aa, laid out as dg[c, a, a]
        first = scale[..., None] * (twice[..., None, :] * eta[..., :, None] + deta)
        dg = _diagonal_matrix(first.swapaxes(-1, -2))
    if order >= 2:
        p2, ddeta = hess[..., 0, :, :], hess[..., 1:, :, :]
        # [a, c, d] = d_c d_d g_aa, laid out as ddg[c, d, a, a]; the two
        # cross terms 2 d_c psi_tilde d_d eta_aa are transposes in (c, d)
        pp = 4.0 * p1[..., :, None] * p1[..., None, :] + 2.0 * p2
        cross = twice[..., None, :, None] * deta[..., :, None, :]
        second = pp[..., None, :, :] * eta[..., :, None, None]
        second += cross
        second += cross.swapaxes(-1, -2)
        second += ddeta
        second *= scale[..., None, None]
        ddg = _diagonal_matrix(second.swapaxes(-3, -2).swapaxes(-2, -1))
    return MetricJets(
        g=g,
        g_diagonal=diagonal,
        dg=dg,
        ddg=ddg,
        psi_tilde=stack[..., 0, :],
        sigma=stack[..., 2:, :],
        f=f_jet,
        psi=psi_jet,
    )


def _diagonal_matrix(diagonal: np.ndarray) -> np.ndarray:
    """The matrices (..., m, m) whose diagonals are ``diagonal`` (..., m)."""
    m = diagonal.shape[-1]
    matrix = np.zeros(diagonal.shape[:-1] + (m * m,))
    matrix[..., :: m + 1] = diagonal  # every (m + 1)-th entry of the flat matrix
    return matrix.reshape(diagonal.shape + (m,))


def _raise_at_first(bad, event, message: str) -> None:
    """Raise GeometryError for the first of events (..., dim) where ``bad`` holds."""
    if np.any(bad):
        events = np.reshape(event, (-1, np.shape(event)[-1]))
        first = events[int(np.argmax(np.ravel(bad)))]
        raise GeometryError(f"{message} at event {first.tolist()}")


def _require_finite(stack: np.ndarray, events: np.ndarray) -> None:
    """Raise GeometryError naming the first non-finite field jet of a
    :meth:`SpacetimeMetric._jet_stack` (psi_tilde, then sigma_ii) and its
    first such event.  One reduction tests the whole stack; the jets are
    named only when it fails."""
    if np.isfinite(stack).all():
        return
    names = ["psi_tilde", None] + [f"sigma_{i}{i}" for i in range(1, stack.shape[-2] - 1)]
    for row, name in enumerate(names):
        if name is not None:
            bad = ~np.isfinite(stack[..., row, :]).all(axis=-1)
            _raise_at_first(bad, events, f"{name} is not finite")


def _require_nondegenerate(diagonal: np.ndarray, event) -> None:
    """Raise GeometryError naming the first event of ``event`` whose
    diagonal matrix, given as its diagonal (..., m), is degenerate."""
    # the determinant over the largest entry: scale-free, so no power of
    # that entry underflows or overflows; a NaN fails the bound too
    magnitude = np.abs(diagonal)
    size = magnitude.max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = (magnitude / size).prod(axis=-1)  # |det|: rounding keeps no sign
    regular = det >= 1e-14
    if not regular.all():
        _raise_at_first(~regular, event, "degenerate metric")


def _invert_diagonal(diagonal: np.ndarray, event) -> np.ndarray:
    """Inverse, shape (..., m, m), of the diagonal matrices whose diagonals
    are ``diagonal`` (..., m), one per event of ``event``, after
    :func:`_require_nondegenerate`: diag(1 / g_aa), the entries LAPACK's
    inverse gives."""
    _require_nondegenerate(diagonal, event)
    return _diagonal_matrix(1.0 / diagonal)


def _invert_metric(g: np.ndarray, event) -> np.ndarray:
    """:func:`_invert_diagonal` of a metric g (..., m, m) held dense.

    g must be diagonal: its off-diagonal entries are exact zeros, as they
    are in every metric and every induced metric of a graph assembled
    here."""
    return _invert_diagonal(g.diagonal(axis1=-2, axis2=-1), event)


def flat_chart_metric(n: int) -> SpacetimeMetric:
    """-dtau^2 + delta_ij dx^i dx^j on the coordinate box (a flat ambient)."""
    return SpacetimeMetric(n=n, sigma_diagonal=(Num(1.0),) * n)


# ---------------------------------------------------------------------------
# The spacetime container


def _check_dimension(n: int) -> None:
    if n not in (2, 3):
        raise GeometryError(f"spatial dimension n={n} not supported (need 2 or 3)")


def _sphere_diag_sources(n: int) -> list[str]:
    _check_dimension(n)
    return ["1", "sin(theta1)^2", "sin(theta1)^2 * sin(theta2)^2"][:n]


@dataclass(frozen=True, eq=False)
class ARWSpec:
    """Cosmological spacetime data: conformal split plus decay exponent omega.

    Fields are stored exactly as given; use :func:`make_spec` to apply the
    pole damping convention for angular perturbations.  ``sigma_scale``
    multiplies the round unit-sphere metric (1.0 means normalized).
    """

    n: int
    omega: float
    f: TimeFunction
    psi: Expression = field(default_factory=lambda: Num(0.0))
    lam: Expression = field(default_factory=lambda: Num(0.0))
    a: float = -1.0
    sigma_scale: float = 1.0

    def __post_init__(self):
        _check_dimension(self.n)
        if not -math.inf < self.a < 0.0:
            raise GeometryError(f"domain start a={self.a} must be negative and finite")
        if not 0.0 < self.n + self.omega - 2.0 < math.inf:
            raise GeometryError(
                f"need n + omega - 2 > 0 and finite, got {self.n + self.omega - 2.0}"
            )
        if not 0.0 < self.sigma_scale < math.inf:
            raise GeometryError(f"sigma_scale must be positive and finite, got {self.sigma_scale}")
        for name, e in (("psi", self.psi), ("lambda", self.lam)):
            extra = free_variables(e) - {"tau", "theta1"}
            if extra:
                raise GeometryError(
                    f"{name} may depend on tau and theta1 only, found {sorted(extra)}"
                )

    @property
    def gamma_tilde(self) -> float:
        return 0.5 * (self.n + self.omega - 2.0)

    @cached_property
    def _sigma_diagonal(self) -> tuple:
        """sigma_ii = sigma_scale e^{2 lambda} sigma_bar_ii, a literal factor
        1 left out (exactly: 1 x = x, and its derivatives are x's)."""
        conformal = fold_constants(Call("exp", Num(2.0) * self.lam))
        if self.sigma_scale != 1.0:
            conformal = fold_constants(Num(self.sigma_scale) * conformal)
        diagonal = []
        for source in _sphere_diag_sources(self.n):
            sphere = parse(source)
            if conformal == Num(1.0):
                diagonal.append(sphere)
            elif sphere == Num(1.0):
                diagonal.append(conformal)
            else:
                diagonal.append(conformal * sphere)
        return tuple(diagonal)

    @cached_property
    def metric(self) -> SpacetimeMetric:
        return SpacetimeMetric(
            n=self.n, sigma_diagonal=self._sigma_diagonal, psi=self.psi, f=self.f
        )

    @property
    def conformal_metric(self) -> SpacetimeMetric:
        """Same chart with the conformal factor stripped: -dtau^2 + sigma."""
        return self.metric.conformal_metric


def make_spec(
    n: int,
    omega: float,
    f,
    a: float,
    psi=0.0,
    lam=0.0,
    sigma_scale: float = 1.0,
) -> ARWSpec:
    """Build a spec, damping angular perturbations at the chart poles.

    ``psi`` and ``lam`` may depend on tau and theta1; any theta1 dependence
    is multiplied by sin(theta1)^2 so the perturbation vanishes to second
    order at the poles.  Pure functions of tau pass through unchanged.
    """
    psi_e = as_expression(psi)
    lam_e = as_expression(lam)
    damp = parse("sin(theta1)^2")
    if "theta1" in free_variables(psi_e):
        psi_e = damp * psi_e
    if "theta1" in free_variables(lam_e):
        lam_e = damp * lam_e
    return ARWSpec(
        n=n,
        omega=omega,
        f=as_time_function(f),
        psi=psi_e,
        lam=lam_e,
        a=a,
        sigma_scale=sigma_scale,
    )


def rw_family_spec(n: int, omega: float, k: float = 1.0, a: float = -0.5) -> ARWSpec:
    """The exactly solvable family f = (1/gamma_tilde) log(-k tau).

    Its mass works out to k^2 / gamma_tilde^2 and every curvature quantity
    has a closed form, which makes it the main oracle family.
    """
    _check_dimension(n)
    if not 0.0 < k < math.inf:
        raise GeometryError(f"k must be positive and finite, got {k}")
    gamma_tilde = 0.5 * (n + omega - 2.0)
    profile = Num(1.0 / gamma_tilde) * parse(f"log(-({k!r}) * tau)")
    return ARWSpec(n=n, omega=omega, f=ExprTimeFunction(fold_constants(profile)), a=a)


# ---------------------------------------------------------------------------
# Quadrature on the spatial sphere chart


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Tensor-product Gauss-Legendre nodes on the polar chart of S^n.

    Axes theta_1..theta_{n-1} live on (0, pi), theta_n on (0, 2 pi); nodes
    are strictly interior so the chart poles are never touched.
    """

    n: int
    nodes_per_axis: int
    axis_nodes: tuple
    axis_weights: tuple
    rule: tuple  # (x, w), the unscaled rule on [-1, 1] the axes are scaled from

    @cached_property
    def _sine_powers(self) -> np.ndarray:
        """sin(theta1)^{n-1} at the theta1 nodes, the round measure's factor."""
        return np.array([math.sin(t) ** (self.n - 1) for t in self.axis_nodes[0]])


def quadrature_grid(n: int, nodes_per_axis: int = 48) -> QuadratureGrid:
    """Gauss-Legendre nodes and weights on [0, pi] per polar angle and on
    [0, 2 pi] for the last angle: one rule, scaled onto each axis."""
    if n < 2:
        raise GeometryError("grids require n >= 2")
    if nodes_per_axis < 2:
        raise GeometryError("need at least 2 nodes per axis")
    x, w = np.polynomial.legendre.leggauss(nodes_per_axis)
    nodes, weights = [], []
    for axis in range(n):
        half = 0.5 * (2.0 * math.pi if axis == n - 1 else math.pi)
        nodes.append(half * (x + 1.0))
        weights.append(half * w)
    return QuadratureGrid(
        n=n,
        nodes_per_axis=nodes_per_axis,
        axis_nodes=tuple(nodes),
        axis_weights=tuple(weights),
        rule=(x, w),
    )


def sphere_volume(n: int) -> float:
    """Volume of the round unit n-sphere: 2 pi^{(n+1)/2} / Gamma((n+1)/2)."""
    if n < 1:
        raise GeometryError("sphere dimension must be >= 1")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def integrate_rotationally_symmetric(
    grid: QuadratureGrid, fn: Callable[[float], float]
) -> float:
    """Integrate an SO(n)-invariant integrand over S^n.

    ``fn(theta1)`` must contain every factor except the round measure; this
    evaluates |S^{n-1}| * sum w * fn(theta1) * sin(theta1)^{n-1}, which
    agrees with the full tensor-product rule of the grid on integrands of
    theta1 alone (the perturbations admitted by ARWSpec).
    """
    values = [float(fn(float(theta1))) for theta1 in grid.axis_nodes[0]]
    return integrate_node_values(grid, values)


def integrate_node_values(grid: QuadratureGrid, values) -> float | np.ndarray:
    """:func:`integrate_rotationally_symmetric` of an integrand already
    evaluated at the theta1 nodes of ``grid``, over the last axis of
    ``values``: a float for shape (N,), an array for (..., N).  Rows are
    running sums in node order."""
    nodes = grid.axis_nodes[0]
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if np.any(bad):
        first = np.nonzero(bad)[-1][0]  # the node axis of the first in C order
        raise QuadratureError(f"integrand not finite at theta1={nodes[first]}")
    terms = grid.axis_weights[0] * values * grid._sine_powers
    total = sphere_volume(grid.n - 1) * np.cumsum(terms, axis=-1)[..., -1]
    return float(total) if values.ndim == 1 else total


# ---------------------------------------------------------------------------
# Sampling and schedules


def geometric_schedule(a: float, k_max: int = 10) -> np.ndarray:
    """tau_k = a 2^{-k}, k = 0..k_max (approaching the singularity at 0)."""
    if a >= 0:
        raise GeometryError("schedule start must be negative")
    if k_max < 2:
        raise GeometryError("need at least three schedule points")
    return a * np.power(2.0, -np.arange(k_max + 1, dtype=float))


def sample_events(spec: ARWSpec, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic interior sample of events (tau, theta...) for checks."""
    rng = np.random.default_rng(seed)
    dim = spec.n + 1
    events = np.empty((count, dim))
    events[:, 0] = rng.uniform(spec.a * 0.9, spec.a * 0.05, size=count)
    for axis in range(1, dim):
        if axis < dim - 1:
            events[:, axis] = rng.uniform(0.4, math.pi - 0.4, size=count)
        else:
            events[:, axis] = rng.uniform(0.3, 2.0 * math.pi - 0.3, size=count)
    return events


# ---------------------------------------------------------------------------
# Validation of the defining conditions


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    detail: str
    values: tuple = ()


@dataclass(frozen=True)
class ArwValidation:
    n: int
    omega: float
    gamma_tilde: float
    sample_times: tuple
    conditions: tuple
    mass_estimate: float
    passed: bool

    def condition(self, name: str) -> ConditionReport:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def _decade_growth_flag(times, values, factor: float = 10.0, rounding=0.0) -> bool:
    """True when |values| grew by more than ``factor`` over the last decade.

    Samples with |value| at or below ``rounding`` (scalar or per sample, the
    rounding error the value carries) count as exact zeros.
    """
    t = np.abs(np.asarray(times, dtype=float))
    v = np.abs(np.asarray(values, dtype=float))
    v = np.where(v <= rounding, 0.0, v)
    target = t[-1] * 10.0
    candidates = np.nonzero(t >= target)[0]
    if candidates.size == 0:
        return False
    j = candidates[-1]
    floor = 1e-9 * (1.0 + float(v.max(initial=0.0)))
    return v[-1] > factor * max(v[j], floor)


def arw_validate(spec: ARWSpec, sample_times=None) -> ArwValidation:
    """Check the defining conditions of the cosmological family on samples.

    Evaluates, on a geometric schedule approaching tau = 0:
      * -f' > 0,
      * the mass sequence |f'|^2 e^{(n + omega - 2) f} with its extrapolated
        limit (must converge to a positive value; divergence is growth by
        more than 10x per decade),
      * boundedness of f'' + gamma_tilde |f'|^2,
      * the derivative ratios |f^{(m)}| / |f'|^m for m = 2, 3,
      * finite psi_tilde and sigma_ii (one metric_jets assembly, angles pi/2).
    """
    if sample_times is None:
        sample_times = geometric_schedule(spec.a, 12)
    times = np.asarray(sample_times, dtype=float)
    if np.any(times >= 0) or np.any(times < spec.a):
        raise GeometryError("sample times must lie in [a, 0)")
    gt = spec.gamma_tilde
    events = np.full((len(times), spec.n + 1), 0.5 * math.pi)
    events[:, 0] = times
    metric_jets(spec.metric, events, 0)

    fv, fp, fpp, fppp = spec.f.jet(times, 3).T

    conditions = []

    lapse_ok = bool(np.all(fp < 0.0))
    conditions.append(
        ConditionReport(
            name="negative-fprime",
            passed=lapse_ok,
            detail=f"max f' = {fp.max():.6e}",
            values=tuple(fp),
        )
    )

    mass_seq = np.abs(fp) ** 2 * np.exp((spec.n + spec.omega - 2.0) * fv)

    m_hat, m_err = aitken_limit(mass_seq)
    increments = np.abs(np.diff(mass_seq)) / max(abs(mass_seq[-1]), 1e-300)
    diverging = _decade_growth_flag(times, mass_seq)
    converged = bool(increments[-1] <= 1e-3) and not diverging
    mass_ok = converged and np.isfinite(m_hat) and m_hat > 0.0
    conditions.append(
        ConditionReport(
            name="mass-limit",
            passed=mass_ok,
            detail=(
                f"extrapolated {m_hat:.8e}, last increment {increments[-1]:.2e}, "
                f"diverging={diverging}"
            ),
            values=tuple(mass_seq),
        )
    )

    accel_seq = fpp + gt * fp**2
    # f'' and gt f'^2 cancel exactly on the rw family; what survives at
    # |f'|^2 ~ 1e7 is rounding of that cancellation, not growth
    cancelled = np.abs(fpp) + gt * fp**2
    accel_ok = not _decade_growth_flag(
        times, accel_seq, rounding=16.0 * np.finfo(float).eps * cancelled
    )
    conditions.append(
        ConditionReport(
            name="accel-limit",
            passed=accel_ok,
            detail=f"last value {accel_seq[-1]:.6e}",
            values=tuple(accel_seq),
        )
    )

    for order, deriv in ((2, fpp), (3, fppp)):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.abs(deriv) / np.abs(fp) ** order
        bounded = bool(np.all(np.isfinite(ratios))) and not _decade_growth_flag(
            times, ratios
        )
        conditions.append(
            ConditionReport(
                name=f"derivative-ratio-{order}",
                passed=bounded,
                detail=f"sup ratio {np.max(ratios):.6e}",
                values=tuple(ratios),
            )
        )

    passed = all(c.passed for c in conditions)
    return ArwValidation(
        n=spec.n,
        omega=spec.omega,
        gamma_tilde=gt,
        sample_times=tuple(times),
        conditions=tuple(conditions),
        mass_estimate=float(m_hat),
        passed=passed,
    )
