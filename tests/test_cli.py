import contextlib
import copy
import csv
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arwmass.cli
import arwmass.curvature
import arwmass.geometry
import arwmass.hypersurface
import arwmass.imcf
import arwmass.mass
from arwmass.cli import main

RW_MASS = {
    "spacetime": {"kind": "rw-family", "n": 3, "omega": 1.0, "k": 2.0, "a": -0.5},
    "command": "mass",
    "grid": 48,
    "schedule": {"K": 10},
    "seed": 0,
}


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        comment = fh.readline()
        assert comment.startswith("# config-digest: ")
        digest = comment.split(": ", 1)[1].strip()
        rows = list(csv.DictReader(fh))
    return digest, rows


def test_mass_command_rw_family(tmp_path):
    config = dict(RW_MASS, output={"path": str(tmp_path / "out")})
    code = main([write_config(tmp_path, config)])
    assert code == 0
    digest, rows = read_rows(tmp_path / "out" / "mass.csv")
    assert len(digest) == 64
    assert len(rows) == 11
    m_hat = float(rows[-1]["m_hat"])
    assert m_hat == pytest.approx(4.0, abs=1e-6)
    assert rows[-1]["tcc_passed"] == "true"
    assert rows[-1]["direction"] == "decreasing"


def test_reruns_are_byte_identical(tmp_path):
    config = dict(RW_MASS, output={"path": str(tmp_path / "out")})
    path = write_config(tmp_path, config)
    assert main([path]) == 0
    first = (tmp_path / "out" / "mass.csv").read_bytes()
    assert main([path]) == 0
    assert (tmp_path / "out" / "mass.csv").read_bytes() == first


def _benchmark_scenarios():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("benchmark_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.scenarios


def test_a_warm_process_writes_the_tables_of_a_cold_one(tmp_path):
    # a run in a process whose program cache is warm from an earlier run
    # writes the bytes a fresh interpreter writes: one benchmark scenario of
    # each workload (seed 2)
    scenarios = _benchmark_scenarios()
    picks = {
        "slice-mass": "custom n=3 decaying mass grid=24",
        "flow": "rw n=3 imcf",
        "check": "custom n=3 f=log(-tau) check",
    }
    src = str(pathlib.Path(arwmass.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for workload, name in picks.items():
        (config,) = [s.config for s in scenarios(workload, 2) if s.name == name]
        path = write_config(tmp_path, config, f"{workload}.json")
        runs = {run: tmp_path / workload / run for run in ("cold", "first", "warm")}
        cold = subprocess.run(
            [sys.executable, "-m", "arwmass.cli", path, "--output-dir", str(runs["cold"])],
            env=env, capture_output=True, text=True, check=False,
        )
        assert cold.returncode == 0, cold.stderr
        for run in ("first", "warm"):
            assert main([path, "--output-dir", str(runs[run])]) == 0
        names = sorted(os.listdir(runs["cold"]))
        assert names and names == sorted(os.listdir(runs["warm"]))
        for table in names:
            assert (runs["warm"] / table).read_bytes() == (runs["cold"] / table).read_bytes()


def test_output_dir_flag_wins(tmp_path):
    config = dict(RW_MASS, command="validate", output={"path": str(tmp_path / "a")})
    path = write_config(tmp_path, config)
    assert main([path, "--output-dir", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "validate.csv").exists()
    assert not (tmp_path / "a").exists()


def test_missing_field_names_the_field(tmp_path, capsys):
    config = {
        "spacetime": {"kind": "custom", "n": 3, "f": "log(-tau)", "a": -0.5},
        "command": "validate",
    }
    assert main([write_config(tmp_path, config)]) == 1
    assert "'omega'" in capsys.readouterr().err


def test_bad_expression_reports_offset(tmp_path, capsys):
    config = {
        "spacetime": {
            "kind": "custom", "n": 3, "omega": 1.0, "f": "log(-tau", "a": -0.5,
        },
        "command": "validate",
    }
    assert main([write_config(tmp_path, config)]) == 1
    assert "at offset" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutation",
    [
        {"command": "frobnicate"},
        {"spacetime": {"kind": "nope"}},
        {"output": {"format": "xml"}},
    ],
)
def test_config_mistakes_exit_one(tmp_path, mutation, capsys):
    config = dict(RW_MASS)
    config.update(mutation)
    assert main([write_config(tmp_path, config)]) == 1
    assert capsys.readouterr().err.startswith("config error")


def test_missing_and_malformed_files(tmp_path, capsys):
    assert main([str(tmp_path / "absent.json")]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main([str(broken)]) == 1
    broken.write_text('{"command": "validate", "grid": ' + "9" * 5000 + "}")
    assert main([str(broken)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


def test_validate_json_output(tmp_path):
    config = {
        "spacetime": {"kind": "rw-family", "n": 3, "omega": 1.0, "k": 1.0, "a": -0.5},
        "command": "validate",
        "output": {"path": str(tmp_path / "out"), "format": "json"},
    }
    assert main([write_config(tmp_path, config)]) == 0
    document = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert document["passed"] is True
    assert len(document["config_digest"]) == 64
    assert document["mass_estimate"] == pytest.approx(1.0, rel=1e-5)


def test_validate_failure_exits_two(tmp_path):
    config = {
        "spacetime": {"kind": "custom", "n": 3, "omega": 1.0, "f": "tau", "a": -0.5},
        "command": "validate",
        "output": {"path": str(tmp_path / "out")},
    }
    assert main([write_config(tmp_path, config)]) == 2
    # the report is still written for inspection
    assert (tmp_path / "out" / "validate.csv").exists()


def test_check_command(tmp_path):
    config = {
        "spacetime": {"kind": "rw-family", "n": 3, "omega": 1.0, "k": 1.0, "a": -0.5},
        "command": "check",
        "grid": 48,
        "events": 40,
        "seed": 3,
        "output": {"path": str(tmp_path / "out")},
    }
    assert main([write_config(tmp_path, config)]) == 0
    _, rows = read_rows(tmp_path / "out" / "check.csv")
    names = {row["check"] for row in rows}
    assert "slab-balance" in names and "einstein-divergence" in names
    assert all(row["passed"] == "true" for row in rows)


STEEP_CHECK = {
    "spacetime": {
        "kind": "custom",
        "n": 2,
        "omega": 1.0,
        "f": "2*log(-tau)",
        "a": -1.0,
        "psi": "0.05*cos(theta1)*exp(tau)",
        "lambda": "0.02*cos(theta1)",
    },
    "command": "check",
    "grid": 48,
    "seed": 0,
}


def test_check_conformal_bounds_scale_with_curvature(tmp_path):
    config = dict(STEEP_CHECK, output={"path": str(tmp_path / "out"), "format": "json"})
    assert main([write_config(tmp_path, config)]) == 0
    checks = {
        c["check"]: c
        for c in json.loads((tmp_path / "out" / "check.json").read_text())["checks"]
    }
    scalar = checks["conformal-scalar"]
    # rounding of |R| ~ 5e5 fails an absolute 1e-8; the printed bound is scaled
    assert 1e-8 < scalar["value"] <= scalar["bound"]
    assert scalar["bound"] == checks["conformal-ricci"]["bound"] > 1e3 * 1e-8
    assert checks["slab-balance"]["bound"] == 1e-6


def test_check_scaled_bounds_keep_overrides(tmp_path):
    config = dict(
        STEEP_CHECK,
        tolerances={"conformal-scalar": 1e-20},
        output={"path": str(tmp_path / "out")},
    )
    assert main([write_config(tmp_path, config)]) == 2


@pytest.mark.parametrize(
    "value, error",
    [(math.nan, "finite, got nan"), (math.inf, "finite, got inf"), (0, "positive, got 0.0"),
     (-1, "positive, got -1.0")],
)
def test_check_tolerances_must_be_positive_and_finite(tmp_path, value, error, capsys):
    config = dict(STEEP_CHECK, tolerances={"codazzi": value}, output={"path": str(tmp_path)})
    assert main([write_config(tmp_path, config)]) == 1
    assert capsys.readouterr().err == f"config error: check tolerance 'codazzi' must be {error}\n"
    assert not (tmp_path / "check.csv").exists()


def record_assemblies(monkeypatch):
    """The number of events of every curvature_batch, metric_jets and
    warped_einstein call, by kernel, through each module binding the check
    battery reaches."""
    sizes = {}
    for name in ("curvature_batch", "metric_jets", "warped_einstein"):
        original = getattr(arwmass.curvature, name)
        calls = sizes[name] = []

        def recording(metric, events, *args, _original=original, _calls=calls, **kwargs):
            _calls.append(int(np.prod(np.shape(events)[:-1])))
            return _original(metric, events, *args, **kwargs)

        for module in (arwmass.geometry, arwmass.curvature, arwmass.hypersurface, arwmass.mass):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recording)
    return sizes


def test_check_assembles_at_most_one_block_of_events(tmp_path, monkeypatch):
    config = dict(
        STEEP_CHECK,
        spacetime=dict(STEEP_CHECK["spacetime"], n=3),
        grid=32,
        output={"path": str(tmp_path / "out")},
    )
    sizes = record_assemblies(monkeypatch)
    assert arwmass.cli.run(config) == 0
    # the full stack: metric_jets for the 50 conformal events (full and
    # conformal metric), the 10 Gauss-Codazzi nodes in blocks of 8 and 2
    # (nodes and stencils) and the 5 divergence events with their stencils;
    # curvature_batch for the conformal metric and the divergence
    full = sizes["metric_jets"] + sizes["curvature_batch"]
    assert len(sizes["metric_jets"]) == 7 and len(sizes["curvature_batch"]) == 2
    assert max(full) <= arwmass.curvature._BLOCK_EVENTS
    # the base kernel: the slab's 2 + 32 slices of 32 nodes, 12 slices a block
    assert arwmass.curvature._BASE_BLOCK_EVENTS // 32 == 12
    assert sizes["warped_einstein"] == [12 * 32, 12 * 32, 10 * 32]


def test_check_runs_many_events_in_bounded_blocks(tmp_path, monkeypatch):
    config = dict(STEEP_CHECK, events=2000, output={"path": str(tmp_path / "out")})
    sizes = record_assemblies(monkeypatch)
    assert main([write_config(tmp_path, config)]) == 0
    assert max(sizes["metric_jets"] + sizes["curvature_batch"]) <= arwmass.curvature._BLOCK_EVENTS
    # the 2000 conformal residuals take 2 assemblies (full and conformal metric) a block
    blocks = -(-2000 // arwmass.curvature._BLOCK_EVENTS)
    assert sizes["metric_jets"].count(arwmass.curvature._BLOCK_EVENTS) >= 2 * (blocks - 1)
    # the slab's 2 + 48 slices of 48 nodes, 8 slices a block
    assert arwmass.curvature._BASE_BLOCK_EVENTS // 48 == 8
    assert sizes["warped_einstein"] == [8 * 48] * 6 + [2 * 48]


def test_check_needs_an_event(tmp_path, capsys):
    config = dict(STEEP_CHECK, events=0, output={"path": str(tmp_path / "out")})
    assert main([write_config(tmp_path, config)]) == 1
    assert capsys.readouterr().err == "config error: events must be at least 1, got 0\n"


def test_imcf_command(tmp_path):
    config = {
        "spacetime": {"kind": "rw-family", "n": 3, "omega": 1.0, "k": 1.0, "a": -0.5},
        "command": "imcf",
        "grid": 48,
        "imcf": {"u0": -0.25, "t_end": 12.0, "max_leaves": 12},
        "output": {"path": str(tmp_path / "out")},
    }
    assert main([write_config(tmp_path, config)]) == 0
    _, rows = read_rows(tmp_path / "out" / "imcf.csv")
    assert 2 <= len(rows) <= 12
    leaves = [float(row["u"]) for row in rows]
    assert all(b > a for a, b in zip(leaves, leaves[1:]))
    assert float(rows[0]["mass_integral"]) == pytest.approx(
        6 * math.pi**2 * (1 + 0.25**2), rel=1e-9
    )


def test_numerical_abort_exits_three(tmp_path, capsys):
    config = {
        "spacetime": {
            "kind": "custom", "n": 3, "omega": 1.0, "f": "log(-tau)",
            "a": -1.0, "psi": "5*tau",
        },
        "command": "imcf",
        "imcf": {"u0": -0.9, "t_end": 10.0},
        "output": {"path": str(tmp_path / "out")},
    }
    assert main([write_config(tmp_path, config)]) == 3
    assert "numerical abort" in capsys.readouterr().err


def test_sads_demo(tmp_path):
    config = {
        "spacetime": {"kind": "sads", "n": 3, "lambda": 0.0, "mass": 1.0},
        "command": "sads-demo",
        "grid": 48,
        "schedule": {"K": 10},
        "output": {"path": str(tmp_path / "out")},
    }
    assert main([write_config(tmp_path, config)]) == 0
    _, rows = read_rows(tmp_path / "out" / "sads-demo.csv")
    assert float(rows[-1]["m_hat"]) == pytest.approx(1.0, abs=1e-5)
    radii = [float(row["r"]) for row in rows]
    assert all(b < a for a, b in zip(radii, radii[1:]))


SADS_DEMO = {
    "spacetime": {"kind": "sads", "n": 3, "lambda": 0.0, "mass": 1.0},
    "command": "sads-demo",
    "grid": 8,
}
SMALL_IMCF = {
    "spacetime": {"kind": "rw-family", "n": 3, "omega": 1.0, "k": 1.0, "a": -0.5},
    "command": "imcf",
    "grid": 8,
    "imcf": {"u0": -0.25, "t_end": 1.0},
}


@pytest.mark.parametrize(
    "config, field",
    [
        (dict(SADS_DEMO, schedule={"K": -1}), "schedule K must be at least 2, got -1"),
        (dict(SADS_DEMO, schedule={"K": 0}), "schedule K must be at least 2, got 0"),
        (dict(SADS_DEMO, schedule={"K": 1}), "schedule K must be at least 2, got 1"),
        (dict(RW_MASS, schedule={"K": 1}), "schedule K must be at least 2, got 1"),
        (dict(RW_MASS, grid=1), "grid must be at least 2, got 1"),
        (dict(SADS_DEMO, grid=0), "grid must be at least 2, got 0"),
        *(
            (
                dict(SMALL_IMCF, imcf=dict(SMALL_IMCF["imcf"], max_leaves=count)),
                f"imcf max_leaves must be at least 2, got {count}",
            )
            for count in (-3, 0, 1)
        ),
    ],
    ids=["sads-demo K=-1", "sads-demo K=0", "sads-demo K=1", "mass K=1", "grid=1",
         "sads-demo grid=0", "max_leaves=-3", "max_leaves=0", "max_leaves=1"],
)
def test_counts_below_their_minimum_are_config_errors(tmp_path, config, field, capsys):
    config = dict(config, output={"path": str(tmp_path / "out")})
    assert main([write_config(tmp_path, config)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {field}\n"
    assert not (tmp_path / "out" / f"{config['command']}.csv").exists()


def test_two_leaves_keep_the_first_and_the_last(tmp_path):
    config = dict(
        SMALL_IMCF,
        imcf=dict(SMALL_IMCF["imcf"], max_leaves=2),
        output={"path": str(tmp_path / "out")},
    )
    assert main([write_config(tmp_path, config)]) == 0
    _, rows = read_rows(tmp_path / "out" / "imcf.csv")
    assert [float(row["t"]) for row in rows] == pytest.approx([0.0, 1.0], abs=1e-15)


def test_sads_demo_requires_sads_spacetime(tmp_path, capsys):
    config = dict(RW_MASS, command="sads-demo")
    assert main([write_config(tmp_path, config)]) == 1
    assert "sads" in capsys.readouterr().err


def test_overflow_during_evaluation_exits_two(tmp_path, capsys):
    # exp(-800 tau) overflows at the domain end tau = -1
    config = {
        "spacetime": {
            "kind": "custom", "n": 2, "omega": 1.0,
            "f": "log(-tau) + exp(-800*tau)", "a": -1.0,
        },
        "command": "validate",
        "output": {"path": str(tmp_path / "out")},
    }
    assert main([write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "validation failure: math range error at tau = -1.0" in err


NON_FINITE_PSI = {
    "kind": "custom", "n": 3, "omega": 1.0,
    "f": "log(-tau)", "a": -1.0, "psi": "1e308*10*tau",
}


def test_non_finite_literal_in_an_expression_exits_two(tmp_path, capsys):
    # 1e308*10 folds to inf: the program runs, and metric_jets names the
    # field whose jet is not finite before it forms any product
    config = {
        "spacetime": NON_FINITE_PSI,
        "command": "mass",
        "grid": 8,
        "schedule": {"K": 3},
        "output": {"path": str(tmp_path / "out")},
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([write_config(tmp_path, config)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "validation failure: psi_tilde is not finite at event [-1.0, " in err


def test_validate_rejects_a_non_finite_psi(tmp_path, capsys):
    # the conditions read f alone; the assembly at the sample times reads psi
    config = {
        "spacetime": NON_FINITE_PSI,
        "command": "validate",
        "output": {"path": str(tmp_path / "out")},
    }
    assert main([write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "validation failure: psi_tilde is not finite at event [-1.0, " in err
    assert not (tmp_path / "out" / "validate.csv").exists()


SADS = {"kind": "sads", "n": 3, "lambda": -1.0, "mass": 1.0}
RW = {"kind": "rw-family", "n": 3, "omega": 1.0, "k": 2.0, "a": -0.5}
CUSTOM = {"kind": "custom", "n": 2, "omega": 1.0, "f": "log(-tau)", "a": -1.0}


@pytest.mark.parametrize(
    "spacetime, field, value, message",
    [
        (SADS, "lambda", math.nan, "Lambda must be finite and <= 0, got nan"),
        (SADS, "lambda", math.inf, "Lambda must be finite and <= 0, got inf"),
        (SADS, "lambda", -math.inf, "Lambda must be finite and <= 0, got -inf"),
        (SADS, "lambda", 1.0, "Lambda must be finite and <= 0, got 1.0"),
        (SADS, "mass", math.inf, "mass parameter must be positive and finite, got inf"),
        (SADS, "mass", math.nan, "mass parameter must be positive and finite, got nan"),
        (SADS, "mass", -1.0, "mass parameter must be positive and finite, got -1.0"),
        (RW, "k", math.nan, "k must be positive and finite, got nan"),
        (RW, "k", math.inf, "k must be positive and finite, got inf"),
        (RW, "k", -1.0, "k must be positive and finite, got -1.0"),
        (RW, "omega", math.inf, "need n + omega - 2 > 0 and finite, got inf"),
        (CUSTOM, "sigma_scale", math.nan, "sigma_scale must be positive and finite, got nan"),
        (CUSTOM, "sigma_scale", math.inf, "sigma_scale must be positive and finite, got inf"),
        (CUSTOM, "sigma_scale", -1.0, "sigma_scale must be positive and finite, got -1.0"),
        (CUSTOM, "omega", math.nan, "need n + omega - 2 > 0 and finite, got nan"),
        (CUSTOM, "a", -math.inf, "domain start a=-inf must be negative and finite"),
    ],
)
def test_spacetime_parameters_out_of_range_or_not_finite_exit_two(
    tmp_path, spacetime, field, value, message, capsys
):
    config = {
        "spacetime": dict(spacetime, **{field: value}),
        "command": "validate",
        "output": {"path": str(tmp_path / "out")},
    }
    assert main([write_config(tmp_path, config)]) == 2
    assert capsys.readouterr().err == f"validation failure: {message}\n"


@pytest.mark.parametrize("spacetime", [SADS, RW, CUSTOM], ids=["sads", "rw-family", "custom"])
@pytest.mark.parametrize("n", [4, 10**400], ids=["n=4", "huge n"])
def test_an_unsupported_dimension_exits_two_for_every_kind(tmp_path, spacetime, n, capsys):
    # the dimension is checked before any float arithmetic on n
    config = {"spacetime": dict(spacetime, n=n), "command": "validate"}
    assert main([write_config(tmp_path, config), "--output-dir", str(tmp_path / "out")]) == 2
    message = f"spatial dimension n={n} not supported (need 2 or 3)"
    assert capsys.readouterr().err == f"validation failure: {message}\n"


def test_unknown_variable_is_a_config_error(tmp_path, capsys):
    config = {
        "spacetime": {"kind": "custom", "n": 2, "omega": 1.0, "f": "log(-t)", "a": -1.0},
        "command": "validate",
    }
    assert main([write_config(tmp_path, config)]) == 1
    assert capsys.readouterr().err.startswith("config error")


def test_singular_linear_algebra_exits_three(tmp_path, monkeypatch, capsys):
    # LinAlgError is a ValueError, yet a numerical abort, not a config error
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(arwmass.cli, "_cmd_validate", singular)
    config = dict(RW_MASS, command="validate", output={"path": str(tmp_path / "out")})
    assert main([write_config(tmp_path, config)]) == 3
    assert capsys.readouterr().err == "numerical abort: Singular matrix\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("t_end", 0.0, "imcf t_end must be positive, got 0.0"),
        ("t_end", -2.0, "imcf t_end must be positive, got -2.0"),
        ("t_end", math.nan, "imcf t_end must be finite, got nan"),
        ("t_end", math.inf, "imcf t_end must be finite, got inf"),
        ("tolerance", 0.0, "imcf tolerance must be positive, got 0.0"),
        ("tolerance", -1e-10, "imcf tolerance must be positive, got -1e-10"),
        ("tolerance", math.nan, "imcf tolerance must be finite, got nan"),
        ("tolerance", math.inf, "imcf tolerance must be finite, got inf"),
    ],
)
def test_imcf_t_end_and_tolerance_must_be_positive_and_finite(
    tmp_path, field, value, message, capsys
):
    config = dict(
        SMALL_IMCF,
        imcf=dict(SMALL_IMCF["imcf"], **{field: value}),
        output={"path": str(tmp_path / "out")},
    )
    assert main([write_config(tmp_path, config)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out" / "imcf.csv").exists()


@pytest.mark.parametrize(
    "config, message",
    [
        *(
            (dict(SMALL_IMCF, imcf=dict(SMALL_IMCF["imcf"], u0=u0)),
             f"imcf u0 = {float(u0)} outside (-0.5, 0)")
            for u0 in (0.3, math.nan, -5.0)
        ),
        *(
            (dict(RW_MASS, schedule={"K": 10, "a": a}),
             f"schedule a = {float(a)} outside [-0.5, 0)")
            for a in (0.3, -5.0, math.nan)
        ),
    ],
    ids=["u0=0.3", "u0=nan", "u0=-5", "schedule a=0.3", "schedule a=-5", "schedule a=nan"],
)
def test_start_times_outside_the_domain_are_config_errors(tmp_path, config, message, capsys):
    config = dict(config, output={"path": str(tmp_path / "out")})
    assert main([write_config(tmp_path, config)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out" / f"{config['command']}.csv").exists()


def test_imcf_leaves_sit_at_fixed_flow_times(tmp_path):
    for fmt in ("csv", "json"):
        config = dict(
            SMALL_IMCF,
            imcf={"u0": -0.25, "t_end": 7.0, "max_leaves": 9},
            output={"path": str(tmp_path / fmt), "format": fmt},
        )
        assert main([write_config(tmp_path, config)]) == 0
    times = np.linspace(0.0, 7.0, 9).tolist()
    _, rows = read_rows(tmp_path / "csv" / "imcf.csv")
    assert [float(row["t"]) for row in rows] == times
    payload = json.loads((tmp_path / "json" / "imcf.json").read_text())
    assert [row["t"] for row in payload["rows"]] == times
    assert set(payload) == {
        "config_digest", "reached_singularity", "tolerance", "panels", "rows"
    }
    assert payload["panels"] >= 1 and not payload["reached_singularity"]


def test_imcf_evaluates_the_slice_fields_of_its_leaves_once(tmp_path, monkeypatch):
    # the panels of t(u) take 24 slices each; the 9 leaves take one
    # evaluation, whose H and f(u) columns the table reads too
    shapes = []
    original = arwmass.imcf._slice_leaf_fields

    def counting(metric, u):
        shapes.append(np.shape(u))
        return original(metric, u)

    monkeypatch.setattr(arwmass.imcf, "_slice_leaf_fields", counting)
    config = dict(
        SMALL_IMCF,
        imcf={"u0": -0.25, "t_end": 7.0, "max_leaves": 9},
        output={"path": str(tmp_path / "out")},
    )
    assert main([write_config(tmp_path, config)]) == 0
    assert shapes.count((9,)) == 1
    assert set(shapes) == {(9,), (arwmass.imcf._PANEL_POINTS,)}


CUSTOM_VALIDATE = {
    "spacetime": dict(CUSTOM, psi="0.05*cos(theta1)*exp(tau)"),
    "command": "validate",
}


@pytest.mark.parametrize(
    "config, message",
    [
        (dict(RW_MASS, spacetime=dict(RW, n=2.9)), "spacetime n must be an integer, got 2.9"),
        (dict(RW_MASS, grid=12.9), "grid must be an integer, got 12.9"),
        (dict(RW_MASS, grid="12"), "grid must be an integer, got '12'"),
        (dict(RW_MASS, grid=True), "grid must be an integer, got True"),
        (dict(RW_MASS, schedule={"K": 3.7}), "schedule K must be an integer, got 3.7"),
        (dict(RW_MASS, seed=1.5), "seed must be an integer, got 1.5"),
        (dict(SMALL_IMCF, seed=-1), "seed must be at least 0, got -1"),
        (dict(STEEP_CHECK, events=2.5), "events must be an integer, got 2.5"),
        (dict(RW_MASS, spacetime=dict(RW, k="2.0")), "spacetime k must be a number, got '2.0'"),
        (dict(RW_MASS, spacetime=dict(RW, k=True)), "spacetime k must be a number, got True"),
        (dict(RW_MASS, shedule={"K": 3}), "unknown key 'shedule' in config"),
        (dict(RW_MASS, spacetime=dict(RW, kk=2.0)), "unknown key 'kk' in spacetime"),
        (dict(CUSTOM_VALIDATE, spacetime=dict(CUSTOM, lamda="0.1*cos(theta1)")),
         "unknown key 'lamda' in spacetime"),
        (dict(CUSTOM_VALIDATE, spacetime=dict(CUSTOM, psi=0)),
         "spacetime psi must be a string, got 0"),
        (dict(RW_MASS, schedule=[1]), "schedule must be an object, got [1]"),
        (dict(RW_MASS, output="x"), "output must be an object, got 'x'"),
        (dict(SMALL_IMCF, imcf=[1]), "imcf must be an object, got [1]"),
        (dict(STEEP_CHECK, tolerances=["codazzi"]),
         "tolerances must be an object, got ['codazzi']"),
        (dict(RW_MASS, spacetime=[RW]), f"spacetime must be an object, got {[RW]!r}"),
        (dict(STEEP_CHECK, tolerances={"codazzi": "nan"}),
         "check tolerance 'codazzi' must be a number, got 'nan'"),
        (dict(STEEP_CHECK, tolerances={"codaz": 1e-6}), "unknown key 'codaz' in tolerances"),
        (dict(SMALL_IMCF, imcf=dict(SMALL_IMCF["imcf"], u0="nan")),
         "imcf u0 must be a number, got 'nan'"),
        (dict(RW_MASS, schedule={"K": 10, "a": "nan"}), "schedule a must be a number, got 'nan'"),
        (dict(RW_MASS, spacetime=dict(RW, k=10**400)),
         f"spacetime k is out of range, got {10**400}"),
    ],
    ids=["n=2.9", "grid=12.9", "grid='12'", "grid=true", "K=3.7", "seed=1.5", "seed=-1",
         "events=2.5", "k='2.0'", "k=true", "shedule", "spacetime kk", "spacetime lamda",
         "psi=0", "schedule list", "output string", "imcf list", "tolerances list",
         "spacetime list", "tolerance 'nan'", "tolerance codaz", "u0='nan'",
         "schedule a='nan'", "huge k"],
)
def test_documents_that_break_the_schema_are_config_errors(tmp_path, config, message, capsys):
    # every rejection names its key; nothing runs and nothing is written
    assert main([write_config(tmp_path, config), "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# small valid documents of every command (grid 4, K 2, events 1), so that a
# mutant runs in milliseconds even when it falls back to a default
SMALL_RW = {"kind": "rw-family", "n": 2, "omega": 1.5, "k": 1.0, "a": -0.5}
SMALL_SADS = {"kind": "sads", "n": 2, "lambda": -1.0, "mass": 1.0}
VALID = (
    {"spacetime": SMALL_RW, "command": "mass", "grid": 4,
     "schedule": {"K": 2, "a": -0.5}, "seed": 0, "output": {"format": "json"}},
    {"spacetime": SMALL_RW, "command": "imcf", "grid": 4,
     "imcf": {"u0": -0.25, "t_end": 1.0, "tolerance": 1e-8, "max_leaves": 2}},
    {"spacetime": {**CUSTOM, "psi": "0.05*cos(theta1)*exp(tau)", "lambda": "0.02*cos(theta1)",
                   "sigma_scale": 1.0},
     "command": "check", "grid": 4, "events": 1, "seed": 1, "tolerances": {"codazzi": 1e-6}},
    {"spacetime": SMALL_SADS, "command": "sads-demo", "grid": 4, "schedule": {"K": 2}},
    {"spacetime": SMALL_SADS, "command": "validate", "grid": 4, "output": {"path": "x"}},
)
# no large integer among them, so no mutant asks for a huge grid
ODD_VALUES = (None, True, "12", 2.5, -1, [1], {}, math.nan, math.inf)
NAMES = ("grid", "seed", "events", "K", "a", "n", "kind", "imcf", "shedule", "kk")


@st.composite
def mutants(draw):
    """A valid document with one key dropped, renamed or given an odd value,
    or one section replaced by an odd value."""
    config = copy.deepcopy(draw(st.sampled_from(VALID)))
    spots = [(config, key) for key in config]
    spots += [(section, key) for section in config.values() if isinstance(section, dict)
              for key in section]
    parent, key = draw(st.sampled_from(spots))
    how = draw(st.sampled_from(("drop", "rename", "section", "value")))
    if how == "drop":
        del parent[key]
    elif how == "rename":
        parent[draw(st.sampled_from(NAMES))] = parent.pop(key)
    elif how == "section":
        config[draw(st.sampled_from([k for k, v in config.items() if isinstance(v, dict)]))] = (
            draw(st.sampled_from(ODD_VALUES))
        )
    else:
        parent[key] = draw(st.sampled_from(ODD_VALUES))
    return config


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(config=mutants())
def test_mutated_documents_exit_with_a_documented_code(tmp_path_factory, config):
    directory = tmp_path_factory.mktemp("mutant")
    path = directory / "scenario.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(path), "--output-dir", str(directory / "out")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("config error: ")


def test_readme_config_reference_is_the_schema():
    lines = (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| section | key | type | default | minimum |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    expected = []
    for section, table in arwmass.cli._SCHEMA.items():
        for key, (kind, default, minimum) in table.items():
            if isinstance(kind, tuple):
                kind = "one of " + ", ".join(f"`{value}`" for value in kind)
            if default is arwmass.cli._REQUIRED:
                default = "required"
            elif default is not None:  # None: the command derives it from the spec
                default = f"`{json.dumps(default)}`"
            minimum = "" if minimum is None else str(minimum)
            expected.append([f"`{section}`", f"`{key}`", kind, default, minimum])
    assert [row[:2] for row in rows] == [row[:2] for row in expected]
    for row, want in zip(rows, expected):
        if want[3] is None:
            assert "spacetime's `a`" in row[3], row
            want[3] = row[3]
        assert row == want
