"""The sources of a metric with exact partial derivatives.

Tensor assembly needs metric components together with first and second
coordinate derivatives (and occasionally third, for validation ratios).  Two
kinds of source supply them: expressions in the chart coordinates, whose
derivatives are symbolic, and functions of the time coordinate alone whose
derivatives are known in closed form (the Schwarzschild-AdS profile is
carried that way because its time coordinate has no closed-form inverse).

What assembly consumes is a *jet*: value, gradient and Hessian up to a given
order in one array, at one event or at an array of events.  An
:class:`ExprField` memoizes the derivative trees of one expression and hands
out its jet and single partials, the entry-by-entry reference;
:func:`time_jet` gives the jet of a time profile.  geometry.SpacetimeMetric
evaluates the jets of all its sources in one program, which
:func:`jet_program` compiles once per process for each source text.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache

import numpy as np

from .expr import (
    DomainError,
    EvaluationError,
    Expression,
    ExpressionError,
    Num,
    Program,
    UnboundVariableError,
    compile_expression,
    compile_jet,
    differentiate,
    free_variables,
    parse,
    to_source,
)

#: Chart coordinate names, time first.  Index 0 is always tau.
COORD_NAMES = ("tau", "theta1", "theta2", "theta3")


@lru_cache(maxsize=None)
def jet_keys(dim: int, order: int) -> tuple:
    """Partial-derivative axes of a jet, in its layout: the value, then the
    gradient, then the Hessian's upper triangle row by row."""
    keys = [()]
    if order >= 1:
        keys += [(c,) for c in range(dim)]
    if order >= 2:
        keys += [(c, d) for c in range(dim) for d in range(c, dim)]
    return tuple(keys)


@lru_cache(maxsize=None)
def _hessian_index(dim: int) -> np.ndarray:
    index = np.empty((dim, dim), dtype=int)
    rows, cols = np.triu_indices(dim)
    index[rows, cols] = index[cols, rows] = 1 + dim + np.arange(rows.size)
    return index


def split_jet(jet: np.ndarray, dim: int):
    """(value, gradient, Hessian) of a jet with trailing axis in the
    :func:`jet_keys` layout; orders the jet lacks come back as None."""
    value = jet[..., 0]
    grad = jet[..., 1 : dim + 1] if jet.shape[-1] > 1 else None
    hess = jet[..., _hessian_index(dim)] if jet.shape[-1] > dim + 1 else None
    return value, grad, hess


class ExprField:
    """An expression in the chart coordinates with its partials: symbolic,
    memoized per derivative key, then compiled.

    A jet runs the expr.Program of its :func:`jet_keys`, a partial the last
    output of the program of the value and that partial, each compiled on
    first use.  So a partial raises wherever the field itself raises, though
    its sparse derivative tree may be defined there; a jet always includes
    the value.  A structurally zero partial is 0.0 wherever the field is
    defined, even where a sibling raises (d/dtau of sqrt(theta1) at theta1
    = 0).  At one event, jet values are bit-identical to ``partial``.
    """

    def __init__(self, expr: Expression, dim: int):
        names = COORD_NAMES[:dim]
        unknown = free_variables(expr) - set(names)
        if unknown:
            raise UnboundVariableError(sorted(unknown)[0])
        self.dim = dim
        self._names = names
        self._exprs: dict[tuple[int, ...], Expression] = {(): expr}
        # Threads share a field, so a program is only ever stored fully built.
        self._programs: dict[tuple, Program] = {}

    def _expression(self, key: tuple[int, ...]) -> Expression:
        return _partial_tree(self._exprs, key, self._names)

    def _program(self, keys: tuple) -> Program:
        program = self._programs.get(keys)
        if program is None:
            program = _compile_trees([self._exprs], self._names, keys)
            self._programs[keys] = program
        return program

    def partial(self, event, axes: tuple[int, ...] = ()) -> float:
        return float(self._program(((), tuple(sorted(axes))))(event[: self.dim])[-1])

    def jet(self, events, order: int = 2) -> np.ndarray:
        return self._program(jet_keys(self.dim, order))(events)


def _partial_tree(trees: dict, key: tuple, names: tuple) -> Expression:
    """The derivative tree of ``key`` (axes into ``names``) of ``trees[()]``,
    differentiated from its prefix's and memoized in ``trees``."""
    found = trees.get(key)
    if found is None:
        found = differentiate(_partial_tree(trees, key[:-1], names), names[key[-1]])
        trees[key] = found
    return found


def _compile_trees(trees: list, names: tuple, keys: tuple) -> Program:
    partials = [_partial_tree(memo, key, names) for memo in trees for key in keys]
    return compile_jet(partials, names)


# Specs built in one process from the same expressions compile the same jet
# programs: each is compiled once.  The bound keeps a long-lived process that
# builds many distinct specs from holding every program it has seen; a spec
# has one metric program per jet order, a graph one program.
_PROGRAM_CACHE = 128


@lru_cache(maxsize=_PROGRAM_CACHE)
def _program_slot(sources: tuple, names: tuple, keys: tuple) -> dict:
    """The holder of the one program of its key, filled by its first caller."""
    return {}


def jet_program(trees: list, names: tuple, keys: tuple) -> Program:
    """The expr.Program of the partials ``keys`` (tuples of axes into
    ``names``, the program's arguments) of each expression ``trees[i][()]``
    in turn; ``trees[i]`` memoizes that expression's derivative trees by key.

    Programs are shared by the whole process, looked up by the source text
    of the expressions with ``names`` and ``keys`` (text tells -0.0 from 0.0,
    which compare equal and compile differently).  Only a miss builds
    derivative trees and compiles, and the cache holds the program alone.
    Threads that miss at once may each build it; the first one stored is
    the one they all return.  A literal inf or nan, left by a folded
    overflow, has no source text: such expressions compile every time.
    """
    try:
        sources = tuple(to_source(memo[()]) for memo in trees)
    except ExpressionError:
        return _compile_trees(trees, names, keys)
    slot = _program_slot(sources, names, keys)
    program = slot.get("program")
    if program is None:
        program = slot.setdefault("program", _compile_trees(trees, names, keys))
    return program


# ---------------------------------------------------------------------------
# Functions of the time coordinate


class TimeFunction(ABC):
    """Scalar function of tau with its derivatives."""

    @abstractmethod
    def derivative(self, tau: float, order: int) -> float: ...

    def value(self, tau: float) -> float:
        return self.derivative(tau, 0)


class ExprTimeFunction(TimeFunction):
    """Time profile backed by an expression in tau (any derivative order).

    A derivative raises wherever the profile itself raises: the profile is
    evaluated first.
    """

    def __init__(self, expr: Expression):
        unknown = free_variables(expr) - {"tau"}
        if unknown:
            raise UnboundVariableError(sorted(unknown)[0])
        self.expr = expr
        self._exprs = [expr]
        self._compiled = [compile_expression(expr, ("tau",))]

    def derivative(self, tau: float, order: int) -> float:
        while len(self._compiled) <= order:
            nxt = differentiate(self._exprs[-1], "tau")
            self._exprs.append(nxt)
            self._compiled.append(compile_expression(nxt, ("tau",)))
        try:
            if order:  # a derivative raises wherever the profile itself does
                self._compiled[0](tau)
            return self._compiled[order](tau)
        except (EvaluationError, ArithmeticError, ValueError) as exc:
            raise DomainError(f"{exc} at tau = {tau}") from None


def time_jet(tf: TimeFunction, events, order: int) -> np.ndarray:
    """The jet to ``order`` of a time profile, a field constant in the
    angles, at events of shape (..., dim), in the :func:`jet_keys` layout.

    The events of a slice share one time: the profile's derivatives are
    evaluated once per distinct tau, in order of first appearance, so the
    first failing tau raises its own error, and each event's row is gathered
    by its tau's index.  A NaN tau is a key of its own, whose NaN row
    reaches the finiteness check of the assembly.
    """
    events = np.asarray(events, dtype=float)
    dim = events.shape[-1]
    out = np.zeros(events.shape[:-1] + (len(jet_keys(dim, order)),))
    taus = events[..., 0].reshape(-1).tolist()
    index = {tau: k for k, tau in enumerate(dict.fromkeys(taus))}
    rows = np.array(
        [[tf.derivative(np.float64(tau), m) for m in range(order + 1)] for tau in index]
    )
    inverse = np.fromiter(map(index.__getitem__, taus), int, len(taus))
    positions = (0, 1, 1 + dim)[: order + 1]
    out[..., positions] = rows[inverse].reshape(out.shape[:-1] + (order + 1,))
    return out


def as_time_function(profile) -> TimeFunction:
    """Accept an Expression, a source string, or a TimeFunction."""
    if isinstance(profile, TimeFunction):
        return profile
    if isinstance(profile, Expression):
        return ExprTimeFunction(profile)
    if isinstance(profile, str):
        return ExprTimeFunction(parse(profile))
    if isinstance(profile, (int, float)):
        return ExprTimeFunction(Num(float(profile)))
    raise TypeError(f"cannot interpret {profile!r} as a time profile")


def as_expression(source) -> Expression:
    if isinstance(source, Expression):
        return source
    if isinstance(source, str):
        return parse(source)
    if isinstance(source, (int, float)):
        return Num(float(source))
    raise TypeError(f"cannot interpret {source!r} as an expression")
