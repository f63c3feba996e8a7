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

Every section and key it may hold, with its type, default and minimum, is in
``_SCHEMA``, listed as the config reference table of the README; a document
that breaks it is a config error naming the key.  Commands: validate, mass,
imcf, check, sads-demo; each writes ``<command>.csv`` or ``.json`` into the
output directory.  Every table carries a ``# config-digest: <sha256>``
comment (a ``config_digest`` field in JSON) so identical configs produce
byte-identical artifacts.

Exit codes:

- 0 success;
- 1 config error: a document that breaks ``_SCHEMA``, an unparseable
  expression (one deeper than expr.MAX_DEPTH levels included, named by its
  key) or unknown variable, a start time outside the domain, or sads-demo
  on another kind of spacetime;
- 2 validation failure: failed conditions, or a domain error or overflow
  while evaluating an expression;
- 3 numerical abort: H <= 0, a non-spacelike graph, a quadrature breakdown,
  or numpy's LinAlgError (although a ValueError) from a LAPACK call inside
  numpy, such as the eigenvalue solve of leggauss's Gauss-Legendre rule.
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
from .expr import ExpressionError, ParseError, UnboundVariableError, parse
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
# checks whose bound is relative to the curvature scale max(1, max |R|) of the
# sampled events
_CURVATURE_SCALED = ("conformal-ricci", "conformal-scalar")
_REQUIRED = object()  # the default of a key the document must give

# The scenario document: section -> key -> (type, default, minimum of a count).
# Types: "count" is a JSON integer, "number" an integer or a float (NaN and
# infinities included), "positive" a positive finite number, "string" text,
# "section" an object read by the table of that name, and a tuple lists the
# allowed values.  A spacetime is read by "spacetime" and the table of its
# kind.  A default of None is filled in from the spec by the command.
_SCHEMA = {
    "config": {
        "command": (_COMMANDS, _REQUIRED, None),
        "spacetime": ("section", _REQUIRED, None),
        "grid": ("count", 48, 2),
        "seed": ("count", 0, 0),
        "schedule": ("section", {}, None),
        "imcf": ("section", {}, None),
        "events": ("count", 50, 1),
        "tolerances": ("section", {}, None),
        "output": ("section", {}, None),
    },
    "spacetime": {"kind": (("sads", "rw-family", "custom"), _REQUIRED, None)},
    "spacetime sads": {
        "n": ("count", _REQUIRED, None),
        "lambda": ("number", _REQUIRED, None),
        "mass": ("number", _REQUIRED, None),
    },
    "spacetime rw-family": {
        "n": ("count", _REQUIRED, None),
        "omega": ("number", _REQUIRED, None),
        "k": ("number", _REQUIRED, None),
        "a": ("number", -0.5, None),
    },
    "spacetime custom": {
        "n": ("count", _REQUIRED, None),
        "omega": ("number", _REQUIRED, None),
        "f": ("string", _REQUIRED, None),
        "a": ("number", _REQUIRED, None),
        "psi": ("string", "0", None),
        "lambda": ("string", "0", None),
        "sigma_scale": ("number", 1.0, None),
    },
    "schedule": {"K": ("count", 10, 2), "a": ("number", None, None)},
    "imcf": {
        "u0": ("number", None, None),
        "t_end": ("positive", 15.0, None),
        "tolerance": ("positive", 1e-10, None),
        # the leaves sit at max_leaves evenly spaced flow times, 0 and t_end included
        "max_leaves": ("count", 32, 2),
    },
    # the residual bounds of the check command
    "tolerances": {
        "conformal-ricci": ("positive", 1e-8, None),
        "conformal-scalar": ("positive", 1e-8, None),
        "gauss-trace": ("positive", 1e-7, None),
        "gauss-full": ("positive", 1e-6, None),
        "codazzi": ("positive", 1e-6, None),
        "slab-balance": ("positive", 1e-6, None),
        "einstein-divergence": ("positive", 1e-3, None),
    },
    "output": {"path": ("string", ".", None), "format": (("csv", "json"), "csv", None)},
}


class ConfigError(Exception):
    """The scenario document is malformed or inconsistent."""


def _read(document, section: str = "config") -> dict:
    """The typed values of a section of the scenario document, every default
    filled in; raises ConfigError naming the first key ``_SCHEMA`` rejects."""
    if not isinstance(document, dict):
        raise ConfigError(f"{section} must be an object, got {document!r}")
    table = _SCHEMA[section]
    if section == "spacetime":
        kind = _value(document, section, "kind", table["kind"])
        table = {**table, **_SCHEMA[f"spacetime {kind}"]}
    for key in document:
        if key not in table:
            raise ConfigError(f"unknown key '{key}' in {section}")
    return {key: _value(document, section, key, table[key]) for key in table}


def _value(document, section: str, key: str, entry):
    """One key of a section, checked against its ``_SCHEMA`` entry."""
    kind, default, minimum = entry
    if key not in document:
        if default is _REQUIRED:
            raise ConfigError(f"missing required field '{key}' in {section}")
        return _read(default, key) if kind == "section" else default
    value = document[key]
    if kind == "section":
        return _read(value, key)
    name = {"config": key, "tolerances": f"check tolerance '{key}'"}.get(
        section, f"{section} {key}"
    )
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"unknown {name} '{value}'")
        return value
    if kind == "string":
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        return value
    if kind == "count":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{name} must be at least {minimum}, got {value}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{name} is out of range, got {value}")
    value = float(value)
    if kind == "positive" and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if kind == "positive" and value <= 0.0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def _build_spacetime(st):
    """(spec, sads_params_or_None) from the read spacetime section."""
    if st["kind"] == "sads":
        params = sads.SAdSParams(n=st["n"], lam=st["lambda"], mass=st["mass"])
        return sads.as_arw_spec(params), params
    if st["kind"] == "rw-family":
        return rw_family_spec(st["n"], st["omega"], k=st["k"], a=st["a"]), None
    expressions = {}
    for key in ("f", "psi", "lambda"):
        try:
            expressions[key] = parse(st[key])
        except ParseError as exc:
            raise ConfigError(f"spacetime {key}: {exc}") from None
    spec = make_spec(
        st["n"], st["omega"], expressions["f"], a=st["a"],
        psi=expressions["psi"], lam=expressions["lambda"], sigma_scale=st["sigma_scale"],
    )
    return spec, None


def _schedule(schedule, spec):
    """The slices tau_k = a 2^{-k}, k = 0..K, from a read schedule section."""
    start = spec.a if schedule["a"] is None else schedule["a"]
    if not spec.a <= start < 0.0:
        raise ConfigError(f"schedule a = {start} outside [{spec.a}, 0)")
    return geometric_schedule(start, schedule["K"])


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


def _cmd_validate(spec):
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


def _cmd_mass(spec, scenario, grid):
    schedule = _schedule(scenario["schedule"], spec)
    with ThreadPoolExecutor(max_workers=1) as pool:
        limit_f = pool.submit(mass_limit, spec, grid, schedule)
        scan_f = pool.submit(monotonicity_scan, spec, schedule, grid)
        tcc_f = pool.submit(tcc_check, spec, seed=scenario["seed"])
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


def _cmd_imcf(spec, scenario, grid):
    imcf = scenario["imcf"]
    u0 = 0.5 * spec.a if imcf["u0"] is None else imcf["u0"]
    if not spec.a < u0 < 0.0:
        raise ConfigError(f"imcf u0 = {u0} outside ({spec.a}, 0)")

    leaves = flow_leaves(spec, u0, imcf["t_end"], imcf["max_leaves"], tolerance=imcf["tolerance"])
    samples = mass_along_flow(spec, leaves.u, grid)

    header = ("t", "u", "H", "f_of_u", "mass_integral", "lemma_quantity")
    rows = [
        (t, m.u, m.mean_curvature, m.f_of_u, m.mass_integral, m.lemma_quantity)
        for t, m in zip(leaves.times, samples)
    ]
    payload = {
        "reached_singularity": leaves.reached_singularity,
        "tolerance": imcf["tolerance"],
        "panels": leaves.panels,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return 0, header, rows, payload


def _cmd_check(spec, scenario, grid):
    bounds = dict(scenario["tolerances"])
    # one batched call per stage; each evaluates in bounded blocks of events
    events = sample_events(spec, scenario["events"], seed=scenario["seed"])
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


def _cmd_sads_demo(spec, scenario, grid, params):
    if params is None:
        raise ConfigError("sads-demo requires spacetime kind 'sads'")

    k_max = scenario["schedule"]["K"]
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
    scenario = _read(config)
    command, fmt = scenario["command"], scenario["output"]["format"]
    directory = output_dir or scenario["output"]["path"]
    os.makedirs(directory, exist_ok=True)

    spec, params = _build_spacetime(scenario["spacetime"])

    if command == "validate":  # the one command without a quadrature grid
        code, header, rows, payload = _cmd_validate(spec)
    else:
        grid = quadrature_grid(spec.n, scenario["grid"])
        if command == "sads-demo":
            code, header, rows, payload = _cmd_sads_demo(spec, scenario, grid, params)
        else:
            handler = {"mass": _cmd_mass, "imcf": _cmd_imcf, "check": _cmd_check}[command]
            code, header, rows, payload = handler(spec, scenario, grid)

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
    except (OSError, ValueError) as exc:  # JSONDecodeError, or an integer too long to read
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
