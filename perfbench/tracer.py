"""Layer spans around the arwmass public functions, recorded from outside.

The tracer replaces each traced function at every module attribute of the
package that holds it (``curvature_at`` alone is bound in ``curvature``,
``mass``, ``imcf``, ``hypersurface`` and the package namespace), so calls
through any of those names are counted.  Methods are wrapped on their class.
``uninstall`` puts the originals back.

Spans are thread-aware: every thread keeps its own stack, and a span opened
on a thread with an empty stack (a CLI sub-report running on the pool) is
the child of the scenario's root span, the ``cli.run`` call that spawned
it.  A span's self time is its duration minus the part covered by its child
spans; children on the same thread never overlap, children on pool threads
may, so those are merged as intervals.  Every span carries the id of the
scenario it belongs to.

Spans of the coarse layers are kept in memory and written out by
``write_spans``; the hot leaf layers (``ExprField.partial`` and the
expression compiler, millions of calls per pass) only feed the per-layer
totals, which keeps the traced run's memory bounded.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import pkgutil
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _leading(arg, core: int) -> int:
    """Events in an array argument whose last ``core`` axes are one tensor."""
    shape = np.shape(arg)
    return int(math.prod(shape[: max(len(shape) - core, 0)])) if shape else 1


@dataclass(frozen=True)
class Layer:
    """One traced function.

    ``target`` is ``module:attribute`` or ``module:Class.method``.  ``events``
    maps the call arguments to the number of events the call evaluated (1 for
    the pointwise API; a batched API raises it).  ``observe`` sees the call
    and its result and feeds the tracer's counters.  ``wrap_arg`` names a
    positional callable argument to trace as a child span, ``wrap_result`` a
    returned callable.  ``record`` keeps every span in memory.
    """

    name: str
    target: str
    record: bool = True
    events: Callable | None = None
    observe: Callable | None = None
    wrap_arg: tuple[int, str] | None = None
    wrap_result: str | None = None


def _aitken(tracer, args, kwargs, result):
    tracer.count("extrapolate.zero_error_estimates", result[1] == 0.0)


def _slice_key(tracer, args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    per_axis = getattr(grid, "nodes_per_axis", None)
    tracer.add_key("mass.slice_integral", (tracer.scenario, float(args[1]), per_axis))


def _states(tracer, args, kwargs, result):
    tracer.count("imcf.states", len(result.states))


def _leaves(tracer, args, kwargs, result):
    tracer.count("imcf.leaves", len(result))


LAYERS = (
    Layer("expr.compile", "arwmass.expr:compile_expression", record=False),
    Layer("expr.differentiate", "arwmass.expr:differentiate", record=False),
    Layer("fields.partial", "arwmass.fields:ExprField.partial", record=False),
    Layer("geometry.metric_jets", "arwmass.geometry:metric_jets"),
    Layer(
        "geometry.quadrature",
        "arwmass.geometry:integrate_rotationally_symmetric",
        wrap_arg=(1, "geometry.integrand"),
    ),
    Layer("tensors.christoffel", "arwmass.tensors:christoffel",
          events=lambda a, k: _leading(a[0], 2)),
    Layer("tensors.christoffel_derivative", "arwmass.tensors:christoffel_derivative",
          events=lambda a, k: _leading(a[0], 2)),
    Layer("tensors.riemann_up", "arwmass.tensors:riemann_up",
          events=lambda a, k: _leading(a[0], 3)),
    Layer("tensors.ricci_from_riemann", "arwmass.tensors:ricci_from_riemann",
          events=lambda a, k: _leading(a[0], 4)),
    Layer("curvature.curvature_at", "arwmass.curvature:curvature_at",
          events=lambda a, k: _leading(a[1], 1)),
    Layer("curvature.conformal_residuals", "arwmass.curvature:conformal_residuals"),
    Layer("curvature.divergence", "arwmass.curvature:einstein_divergence_residual"),
    Layer("hypersurface.second_fundamental", "arwmass.hypersurface:second_fundamental"),
    Layer("hypersurface.intrinsic_curvature", "arwmass.hypersurface:intrinsic_curvature"),
    Layer("hypersurface.gauss_codazzi", "arwmass.hypersurface:gauss_codazzi_residuals"),
    Layer(
        "hypersurface.slice_curvature_factory",
        "arwmass.hypersurface:coordinate_slice_curvature",
        wrap_result="hypersurface.slice_curvature",
    ),
    Layer("mass.slice_integral", "arwmass.mass:slice_mass_integral", observe=_slice_key),
    Layer("mass.mass_limit", "arwmass.mass:mass_limit"),
    Layer("mass.monotonicity", "arwmass.mass:monotonicity_scan"),
    Layer("mass.tcc", "arwmass.mass:tcc_check"),
    Layer("mass.slab_balance", "arwmass.mass:slab_balance"),
    Layer("extrapolate.aitken", "arwmass.extrapolate:aitken_limit", observe=_aitken),
    Layer("imcf.run", "arwmass.imcf:imcf_run", observe=_states),
    Layer("imcf.mass_along_flow", "arwmass.imcf:mass_along_flow", observe=_leaves),
    Layer("sads.radius", "arwmass.sads:SAdSTimeFunction.radius", record=False),
    Layer("sads.r_of_x0", "arwmass.sads:r_of_x0"),
    Layer("sads.x0_of_r", "arwmass.sads:x0_of_r", record=False),
    Layer("sads.as_arw_spec", "arwmass.sads:as_arw_spec"),
    Layer("cli.run", "arwmass.cli:run"),
)

ROOT = "cli.run"


class _Frame:
    __slots__ = ("span_id", "child_s", "cross")

    def __init__(self, span_id):
        self.span_id = span_id
        self.child_s = 0.0
        self.cross = None  # child intervals from other threads (root only)


class Tracer:
    """Collects spans and per-layer totals while installed."""

    def __init__(self):
        self.scenario = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._threads = []  # (stats, spans) of every thread that traced
        self._root = None
        self._counters = {}
        self._keys = {}
        self._patched = []  # (owner, attribute, original)
        self.missing = []  # layer targets this version of the package lacks

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every layer at every package attribute that holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = []
        import arwmass

        for info in pkgutil.iter_modules(arwmass.__path__, "arwmass."):
            importlib.import_module(info.name)
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "arwmass" or name.startswith("arwmass."))
        ]
        for layer in LAYERS:
            module_name, attr = layer.target.split(":")
            owner = sys.modules.get(module_name)
            cls_name, _, method = attr.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            original = vars(holder).get(method) if holder is not None else None
            if original is None:
                self.missing.append(layer.target)
                continue
            if cls_name:
                self._patch(holder, method, original, self._wrap(layer, original))
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def bindings(self):
        """'owner.attribute' names currently rebound, for completeness checks."""
        return sorted(f"{getattr(o, '__name__', o)}.{n}" for o, n, _ in self._patched)

    # -- collection -------------------------------------------------------

    def reset(self):
        with self._lock:
            self._threads.clear()
            self._counters.clear()
            self._keys.clear()
        self._local = threading.local()

    def _state(self):
        local = self._local
        try:
            return local.stack, local.stats, local.spans
        except AttributeError:
            local.stack, local.stats, local.spans = [], {}, []
            with self._lock:
                self._threads.append((local.stats, local.spans))
            return local.stack, local.stats, local.spans

    def count(self, name: str, amount=1):
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(amount)

    def add_key(self, name: str, key):
        with self._lock:
            entry = self._keys.setdefault(name, [0, set()])
            entry[0] += 1
            entry[1].add(key)

    def _wrap(self, layer: Layer, fn):
        tracer = self
        name = layer.name
        is_root = name == ROOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer.wrap_arg is not None:
                index, child = layer.wrap_arg
                args = list(args)
                args[index] = tracer._wrap(Layer(child, "", record=False), args[index])
            stack, stats, spans = tracer._state()
            parent = stack[-1] if stack else tracer._root
            frame = _Frame(next(tracer._ids))
            if is_root:
                frame.cross = []
                tracer._root = frame
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
                duration = end - start
                covered = frame.child_s + (_union(frame.cross) if frame.cross else 0.0)
                self_s = duration - covered
                if stack:
                    stack[-1].child_s += duration
                elif parent is not None:
                    parent.cross.append((start, end))
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += self_s
                entry[3] += layer.events(args, kwargs) if layer.events else 1
                if layer.record:
                    spans.append((
                        frame.span_id,
                        parent.span_id if parent is not None else 0,
                        tracer.scenario,
                        threading.get_ident(),
                        name,
                        start,
                        end,
                        self_s,
                    ))
            if layer.observe is not None:
                layer.observe(tracer, args, kwargs, result)
            if layer.wrap_result is not None:
                return tracer._wrap(Layer(layer.wrap_result, "", record=False), result)
            return result

        return traced

    def totals(self) -> dict:
        """name -> [calls, total_s, self_s, events], merged over threads."""
        merged = {}
        with self._lock:
            threads = list(self._threads)
        for stats, _ in threads:
            for name, (calls, total, self_s, events) in stats.items():
                entry = merged.setdefault(name, [0, 0.0, 0.0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
                entry[3] += events
        return merged

    def counters(self) -> dict:
        with self._lock:
            out = dict(self._counters)
            for name, (calls, keys) in self._keys.items():
                out[name + ".calls"] = calls
                out[name + ".unique"] = len(keys)
        return out

    def spans(self) -> list:
        with self._lock:
            threads = list(self._threads)
        return sorted(span for _, spans in threads for span in spans)

    def write_spans(self, path: str):
        fields = ("id", "parent", "scenario", "thread", "name", "start", "end", "self_s")
        with open(path, "w") as fh:
            for span in self.spans():
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _union(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) pairs."""
    covered = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def layer_metrics(totals: dict, counters: dict) -> dict:
    """The per-layer metrics of one traced pass, by benchmark name."""

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0, 0])[0]

    def total(name):
        return totals.get(name, [0, 0.0, 0.0, 0])[1]

    def self_time(name):
        return totals.get(name, [0, 0.0, 0.0, 0])[2]

    def per_call(name):
        entry = totals.get(name)
        return entry[3] / entry[0] if entry and entry[0] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    tensor_names = [n for n in totals if n.startswith("tensors.")]
    tensor_calls = sum(totals[n][0] for n in tensor_names)
    radius_calls = calls("sads.radius")
    slice_calls = counters.get("mass.slice_integral.calls", 0)
    return {
        "expr.compile_calls": calls("expr.compile"),
        "expr.compile_s": total("expr.compile"),
        "expr.differentiate_calls": calls("expr.differentiate"),
        "expr.differentiate_s": total("expr.differentiate"),
        "fields.partial_calls": calls("fields.partial"),
        "fields.partial_s": total("fields.partial"),
        "geometry.metric_jets_calls": calls("geometry.metric_jets"),
        "geometry.metric_jets_s": total("geometry.metric_jets"),
        "geometry.quadrature_self_s": self_time("geometry.quadrature"),
        "tensors.calls": tensor_calls,
        "tensors.self_s": sum(totals[n][2] for n in tensor_names),
        "tensors.events_per_call": ratio(sum(totals[n][3] for n in tensor_names), tensor_calls),
        "curvature.curvature_at_calls": calls("curvature.curvature_at"),
        "curvature.curvature_at_self_s": self_time("curvature.curvature_at"),
        "curvature.events_per_call": per_call("curvature.curvature_at"),
        "curvature.conformal_residuals_s": total("curvature.conformal_residuals"),
        "curvature.divergence_s": total("curvature.divergence"),
        "hypersurface.second_fundamental_calls": calls("hypersurface.second_fundamental"),
        "hypersurface.second_fundamental_s": total("hypersurface.second_fundamental"),
        "hypersurface.intrinsic_curvature_calls": calls("hypersurface.intrinsic_curvature"),
        "hypersurface.intrinsic_curvature_s": total("hypersurface.intrinsic_curvature"),
        "hypersurface.gauss_codazzi_s": total("hypersurface.gauss_codazzi"),
        "hypersurface.slice_curvature_s": total("hypersurface.slice_curvature"),
        "mass.slice_integral_calls": calls("mass.slice_integral"),
        "mass.slice_integral_unique_ratio": ratio(
            counters.get("mass.slice_integral.unique", 0), slice_calls
        ),
        "mass.mass_limit_s": total("mass.mass_limit"),
        "mass.monotonicity_s": total("mass.monotonicity"),
        "mass.tcc_s": total("mass.tcc"),
        "mass.slab_balance_s": total("mass.slab_balance"),
        "extrapolate.aitken_calls": calls("extrapolate.aitken"),
        "extrapolate.zero_error_estimates": counters.get("extrapolate.zero_error_estimates", 0),
        "imcf.run_s": total("imcf.run"),
        "imcf.states": counters.get("imcf.states", 0),
        "imcf.mass_along_flow_s": total("imcf.mass_along_flow"),
        "imcf.leaves": counters.get("imcf.leaves", 0),
        "sads.radius_calls": radius_calls,
        "sads.r_of_x0_calls": calls("sads.r_of_x0"),
        "sads.radius_hit_ratio": ratio(max(radius_calls - calls("sads.r_of_x0"), 0), radius_calls),
        "sads.x0_of_r_calls": calls("sads.x0_of_r"),
        "sads.root_find_s": total("sads.r_of_x0"),
        "sads.as_arw_spec_s": total("sads.as_arw_spec"),
        "cli.run_calls": calls("cli.run"),
        "cli.run_self_s": self_time("cli.run"),
    }
