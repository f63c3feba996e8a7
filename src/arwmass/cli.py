"""Batch front end: scenario config in, machine-readable tables out.

A scenario is a single JSON document::

    {
      "spacetime": {"kind": "rw-family", "n": 3, "omega": 1.0, "k": 2.0, "a": -0.5},
      "command": "mass",
      "grid": 48,
      "schedule": {"K": 10},
      "seed": 0,
      "output": {"path": "out", "format": "csv"}
    }

kinds: "sads" (n, lambda, mass), "rw-family" (n, omega, k, a), "custom"
(n, omega, f, a and optional psi/lambda/sigma_scale, expressions in tau and
theta1).  Commands: validate, mass, imcf, check, sads-demo; each writes
``<command>.csv`` or ``.json`` into the output directory.  Every table
carries a ``# config-digest: <sha256>`` comment (a ``config_digest`` field
in JSON) so identical configs produce byte-identical artifacts.

Exit codes: 0 success; 1 config error (unknown kind/command, missing field,
unparseable expression, unknown variable, a count below its minimum: grid
and schedule K at least 2, imcf max_leaves at least 2, check events at least
1; an imcf t_end or tolerance, or a check "tolerances" value, that is not
a positive finite number; a start time outside the domain: a schedule a
outside [a, 0) or an imcf u0 outside (a, 0), NaN included); 2 validation
failure (a validate/check run whose conditions do not hold, or a domain
error, overflow included, while evaluating an expression); 3 numerical
abort (H <= 0, non-spacelike graph, quadrature breakdown, singular linear
algebra: numpy's LinAlgError, although a ValueError, is not a config error).

ARWMASS_THREADS caps the worker threads used for independent sub-reports.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import sads
from .curvature import conformal_residuals, einstein_divergence_residual
from .expr import ExpressionError, ParseError, UnboundVariableError
from .extrapolate import aitken_limit
from .geometry import (
    GeometryError,
    QuadratureError,
    arw_validate,
    geometric_schedule,
    make_spec,
    quadrature_grid,
    rw_family_spec,
    sample_events,
    sphere_volume,
)
from .hypersurface import (
    GraphHypersurface,
    HypersurfaceError,
    gauss_codazzi_residuals,
)
from .imcf import FlowError, flow_leaves, mass_along_flow
from .mass import mass_limit, monotonicity_scan, slab_balance, slice_mass_integral, tcc_check

__all__ = ["ConfigError", "main", "run"]

_COMMANDS = ("validate", "mass", "imcf", "check", "sads-demo")

# default residual bounds for the `check` command, overridable per check
# via the config's "tolerances" mapping
_CHECK_BOUNDS = {
    "conformal-ricci": 1e-8,
    "conformal-scalar": 1e-8,
    "gauss-trace": 1e-7,
    "gauss-full": 1e-6,
    "codazzi": 1e-6,
    "slab-balance": 1e-6,
    "einstein-divergence": 1e-3,
}
# checks whose bound is relative to the curvature scale max(1, max |R|) of the
# sampled events
_CURVATURE_SCALED = ("conformal-ricci", "conformal-scalar")


class ConfigError(Exception):
    """The scenario document is malformed or inconsistent."""


def _require(mapping, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing required field '{key}' in {context}")
    return mapping[key]


def _build_spacetime(config):
    """(spec, sads_params_or_None) from the spacetime section."""
    section = _require(config, "spacetime", "config")
    kind = _require(section, "kind", "spacetime")
    if kind == "sads":
        params = sads.SAdSParams(
            n=int(_require(section, "n", "spacetime")),
            lam=float(_require(section, "lambda", "spacetime")),
            mass=float(_require(section, "mass", "spacetime")),
        )
        return sads.as_arw_spec(params), params
    if kind == "rw-family":
        spec = rw_family_spec(
            int(_require(section, "n", "spacetime")),
            float(_require(section, "omega", "spacetime")),
            k=float(_require(section, "k", "spacetime")),
            a=float(section.get("a", -0.5)),
        )
        return spec, None
    if kind == "custom":
        spec = make_spec(
            int(_require(section, "n", "spacetime")),
            float(_require(section, "omega", "spacetime")),
            _require(section, "f", "spacetime"),
            a=float(_require(section, "a", "spacetime")),
            psi=section.get("psi", "0"),
            lam=section.get("lambda", "0"),
            sigma_scale=float(section.get("sigma_scale", 1.0)),
        )
        return spec, None
    raise ConfigError(f"unknown spacetime kind '{kind}'")


def _positive(section, key: str, default: float, name: str) -> float:
    """The positive finite number ``section[key]`` (``default`` if absent);
    ``name`` is the field as the config error names it."""
    value = float(section.get(key, default))
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if value <= 0.0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def _count(section, key: str, default: int, minimum: int, name: str) -> int:
    """The integer ``section[key]`` (``default`` if absent), which must be
    at least ``minimum``; ``name`` is the field as the config error names it."""
    value = int(section.get(key, default))
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return value


def _schedule_size(config) -> int:
    """The schedule's K: the slices tau_k = a 2^{-k} run over k = 0..K."""
    return _count(config.get("schedule", {}), "K", 10, 2, "schedule K")


def _schedule(config, spec):
    start = float(config.get("schedule", {}).get("a", spec.a))
    if not spec.a <= start < 0.0:
        raise ConfigError(f"schedule a = {start} outside [{spec.a}, 0)")
    return geometric_schedule(start, _schedule_size(config))


def _worker_count() -> int:
    raw = os.environ.get("ARWMASS_THREADS")
    if raw is None:
        return min(4, os.cpu_count() or 1)
    try:
        count = int(raw)
    except ValueError as exc:
        raise ConfigError(f"ARWMASS_THREADS is not an integer: {raw!r}") from exc
    if count < 1:
        raise ConfigError("ARWMASS_THREADS must be >= 1")
    return count


def _digest(config) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_table(path: str, digest: str, header, rows, fmt: str, payload) -> None:
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(f"# config-digest: {digest}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    else:
        document = {"config_digest": digest}
        document.update(payload)
        with open(path, "w") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Commands: each returns (exit_code, header, rows, json_payload)


def _cmd_validate(spec, config, grid, seed):
    report = arw_validate(spec)
    header = ("condition", "passed", "detail")
    rows = [(c.name, c.passed, c.detail) for c in report.conditions]
    payload = {
        "passed": report.passed,
        "mass_estimate": report.mass_estimate,
        "omega": report.omega,
        "gamma_tilde": report.gamma_tilde,
        "conditions": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.conditions
        ],
    }
    return (0 if report.passed else 2), header, rows, payload


def _cmd_mass(spec, config, grid, seed):
    schedule = _schedule(config, spec)
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        limit_f = pool.submit(mass_limit, spec, grid, schedule)
        scan_f = pool.submit(monotonicity_scan, spec, schedule, grid)
        tcc_f = pool.submit(tcc_check, spec, seed=seed)
    report, scan, tcc = limit_f.result(), scan_f.result(), tcc_f.result()

    header = (
        "k", "tau", "integral", "m_hat", "error_estimate",
        "monotone", "direction", "tcc_minimum", "tcc_passed",
    )
    rows = [
        (
            k, tau, integral, report.m_hat, report.error_estimate,
            report.monotone, scan.direction, tcc.minimum, tcc.passed,
        )
        for k, (tau, integral) in enumerate(zip(report.sample_times, report.integrals))
    ]
    payload = {
        "sample_times": list(report.sample_times),
        "integrals": list(report.integrals),
        "m_hat": report.m_hat,
        "limit": report.limit,
        "error_estimate": report.error_estimate,
        "monotone": report.monotone,
        "scan": {
            "direction": scan.direction,
            "probes": [
                {"name": p.name, "passed": p.passed, "detail": p.detail}
                for p in scan.probes
            ],
        },
        "tcc": {
            "minimum": tcc.minimum,
            "passed": tcc.passed,
            "samples": tcc.samples,
            "violations": len(tcc.violations),
        },
    }
    return 0, header, rows, payload


def _cmd_imcf(spec, config, grid, seed):
    section = config.get("imcf", {})
    u0 = float(section.get("u0", 0.5 * spec.a))
    if not spec.a < u0 < 0.0:
        raise ConfigError(f"imcf u0 = {u0} outside ({spec.a}, 0)")
    t_end = _positive(section, "t_end", 15.0, "imcf t_end")
    tolerance = _positive(section, "tolerance", 1e-10, "imcf tolerance")
    # the leaves sit at max_leaves evenly spaced flow times, 0 and t_end included
    max_leaves = _count(section, "max_leaves", 32, 2, "imcf max_leaves")

    leaves = flow_leaves(spec, u0, t_end, max_leaves, tolerance=tolerance)
    samples = mass_along_flow(spec, leaves.u, grid, max_leaves=None)

    header = ("t", "u", "H", "f_of_u", "mass_integral", "lemma_quantity")
    rows = [
        (t, u, h, f, m.mass_integral, m.lemma_quantity)
        for t, u, h, f, m in zip(
            leaves.times, leaves.u, leaves.mean_curvature, leaves.f_of_u, samples
        )
    ]
    payload = {
        "reached_singularity": leaves.reached_singularity,
        "tolerance": tolerance,
        "panels": leaves.panels,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return 0, header, rows, payload


def _cmd_check(spec, config, grid, seed):
    bounds = dict(_CHECK_BOUNDS)
    tolerances = config.get("tolerances", {})
    for name in tolerances:
        if name not in bounds:
            raise ConfigError(f"unknown check tolerance '{name}'")
        bounds[name] = _positive(tolerances, name, bounds[name], f"check tolerance '{name}'")
    count = int(config.get("events", 50))
    if count < 1:
        raise ConfigError("check needs at least one event")

    # one batched call per stage; each evaluates in bounded blocks of events
    events = sample_events(spec, count, seed=seed)
    conformal = conformal_residuals(spec, events)
    # the conformal residuals are rounding errors of curvature of size max |R|
    curvature_scale = max(1.0, float(np.max(np.abs(conformal.scalar_curvature))))
    for name in _CURVATURE_SCALED:
        bounds[name] *= curvature_scale

    surface = GraphHypersurface(
        f"{0.5 * spec.a!r}*(1 + 0.1*cos(theta1))", spec.metric
    )
    gauss = gauss_codazzi_residuals(surface, events[:10, 1:])

    slab = slab_balance(spec, 0.75 * spec.a, 0.25 * spec.a, grid)
    # The divergence check differentiates Christoffels numerically; close to
    # tau = 0 the 1/tau growth of the connection swamps the O(h^2) stencil,
    # so probe the events farthest from the singularity.
    far = events[np.argsort(events[:, 0])[:5]]
    divergence = einstein_divergence_residual(spec.metric, far, step=3e-5)

    values = {
        "conformal-ricci": np.max(conformal.ricci_residual),
        "conformal-scalar": np.max(conformal.scalar_residual),
        "gauss-trace": np.max(gauss.gauss_trace),
        "gauss-full": np.max(gauss.gauss_full),
        "codazzi": np.max(gauss.codazzi),
        "slab-balance": slab.residual,
        "einstein-divergence": np.max(divergence),
    }
    header = ("check", "value", "bound", "passed")
    rows = [
        (name, float(value), bounds[name], bool(value <= bounds[name]))
        for name, value in values.items()
    ]
    payload = {
        "checks": [dict(zip(header, row)) for row in rows],
        "passed": all(row[3] for row in rows),
    }
    return (0 if payload["passed"] else 2), header, rows, payload


def _cmd_sads_demo(spec, config, grid, seed, params):
    if params is None:
        raise ConfigError("sads-demo requires spacetime kind 'sads'")

    k_max = _schedule_size(config)
    r0 = sads.horizon(params)
    radii = [0.9 * r0 * 0.5**k for k in range(k_max + 1)]
    norm = 0.5 * params.n * (params.n - 1) * sphere_volume(params.n)

    header = ("r", "x0", "h", "h_tilde", "oracle_integral", "slice_integral", "m_hat")
    rows = []
    integrals = []
    for r in radii:
        profile = sads.profile(params, r)
        x0 = sads.x0_of_r(params, r)
        oracle = sads.oracle_mass_integral(params, r)
        measured = slice_mass_integral(spec, x0, grid)
        integrals.append(measured)
        if len(integrals) >= 3:
            m_hat, _ = aitken_limit(np.array(integrals))
            m_hat /= norm
        else:
            m_hat = measured / norm
        rows.append((r, x0, profile.h, profile.h_tilde, oracle, measured, m_hat))
    payload = {
        "horizon": r0,
        "rows": [dict(zip(header, row)) for row in rows],
        "m_hat": rows[-1][-1],
    }
    return 0, header, rows, payload


# ---------------------------------------------------------------------------


def run(config, output_dir: str | None = None) -> int:
    """Execute a scenario dict; returns the process exit code."""
    command = _require(config, "command", "config")
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command '{command}'")

    output = config.get("output", {})
    fmt = output.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format '{fmt}'")
    directory = output_dir or output.get("path", ".")
    os.makedirs(directory, exist_ok=True)

    spec, params = _build_spacetime(config)
    grid = quadrature_grid(spec.n, _count(config, "grid", 48, 2, "grid"))
    seed = int(config.get("seed", 0))

    if command == "sads-demo":
        code, header, rows, payload = _cmd_sads_demo(spec, config, grid, seed, params)
    else:
        handler = {
            "validate": _cmd_validate,
            "mass": _cmd_mass,
            "imcf": _cmd_imcf,
            "check": _cmd_check,
        }[command]
        code, header, rows, payload = handler(spec, config, grid, seed)

    path = os.path.join(directory, f"{command}.{fmt}")
    _write_table(path, _digest(config), header, rows, fmt, payload)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="arwmass",
        description="batch runner for singularity mass scenarios",
    )
    parser.add_argument("config", help="path to a JSON scenario document")
    parser.add_argument(
        "--output-dir", default=None, help="directory for result tables"
    )
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        return run(config, output_dir=args.output_dir)
    except np.linalg.LinAlgError as exc:  # a ValueError, caught before those
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ParseError, UnboundVariableError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FlowError, HypersurfaceError, QuadratureError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except (GeometryError, ExpressionError) as exc:  # domain errors included
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
