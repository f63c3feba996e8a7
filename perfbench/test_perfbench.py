"""Checks of the benchmark's own machinery: tracing and scenario generation."""

import threading

import pytest

import arwmass
import arwmass.cli
import arwmass.curvature
import arwmass.fields
import scenarios
from tracer import Tracer, _union, layer_metrics

TINY_MASS = {
    "spacetime": {"kind": "rw-family", "n": 3, "omega": 1.0, "k": 2.0, "a": -0.5},
    "command": "mass",
    "grid": 8,
    "schedule": {"K": 2},
    "output": {"format": "json"},
}


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_every_binding_is_wrapped_and_restored():
    original = arwmass.curvature.curvature_at
    t = Tracer()
    t.install()
    try:
        bound = set(t.bindings())
        assert t.missing == []
        for module in ("arwmass", "arwmass.curvature", "arwmass.mass",
                       "arwmass.imcf", "arwmass.hypersurface"):
            assert f"{module}.curvature_at" in bound
        assert "arwmass.sads.r_of_x0" in bound
        assert "arwmass.extrapolate.aitken_limit" in bound
        assert "ExprField.partial" in bound
        assert arwmass.curvature_at is not original
    finally:
        t.uninstall()
    assert arwmass.curvature_at is original
    assert arwmass.cli.run.__module__ == "arwmass.cli"


def test_pool_spans_are_children_of_the_scenario_root(tracer, tmp_path):
    tracer.scenario = "s0"
    assert arwmass.cli.run(TINY_MASS, str(tmp_path)) == 0
    spans = tracer.spans()
    root = next(s for s in spans if s[4] == "cli.run")
    reports = [s for s in spans if s[4] in ("mass.mass_limit", "mass.monotonicity", "mass.tcc")]
    assert len(reports) == 3
    assert all(s[1] == root[0] and s[2] == "s0" for s in reports)
    assert all(s[3] != threading.get_ident() for s in reports)

    totals = tracer.totals()
    calls, total, self_s, _ = totals["cli.run"]
    assert calls == 1 and 0.0 <= self_s < total
    metrics = layer_metrics(totals, tracer.counters())
    # mass_limit and monotonicity_scan integrate the same three slices
    assert metrics["mass.slice_integral_calls"] == 6
    assert metrics["mass.slice_integral_unique_ratio"] == 0.5
    assert metrics["extrapolate.aitken_calls"] == 1
    assert metrics["curvature.events_per_call"] == 1.0
    assert metrics["curvature.curvature_at_calls"] > 100


def test_union_merges_overlapping_intervals():
    assert _union([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0


def test_scenarios_depend_on_the_seed_only():
    for workload in scenarios.WORKLOADS:
        first = [s.config for s in scenarios.scenarios(workload, 7)]
        assert first == [s.config for s in scenarios.scenarios(workload, 7)]
        assert first != [s.config for s in scenarios.scenarios(workload, 8)]
        assert [c["command"] for c in first] == [
            c["command"] for c in (s.config for s in scenarios.scenarios(workload, 8))
        ]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ExprTimeFunction.derivative fills its derivative list without a lock",
)
def test_time_function_derivative_fill_is_not_thread_safe(monkeypatch):
    f = arwmass.fields.ExprTimeFunction(arwmass.as_expression("tau*tau*tau"))
    both_inside = threading.Barrier(2, timeout=10)
    differentiate = arwmass.fields.differentiate

    def lockstep(expr, name):
        both_inside.wait()  # two threads extend the list at once
        return differentiate(expr, name)

    monkeypatch.setattr(arwmass.fields, "differentiate", lockstep)
    threads = [threading.Thread(target=f.derivative, args=(-1.0, 1)) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    monkeypatch.setattr(arwmass.fields, "differentiate", differentiate)
    assert f.derivative(-1.0, 2) == -6.0
