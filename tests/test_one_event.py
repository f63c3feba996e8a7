"""One curvature event against a dense reference, and time jets against
derivatives, bit for bit.

The reference assembly is the metric_jets algebra written out on dense
matrices: the field jets of each source one by one (``source_jets``), eta
= (-1, sigma_ii) as its own array, g, dg and ddg filled entry by entry with
the same floating-point operations in the same order, and g^-1 as the
reciprocals of g's diagonal.  ``curvature_at`` and ``metric_jets`` must
give its bits at every event.
"""

import math
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest

from arwmass import tensors
from arwmass.curvature import curvature_at, curvature_from_jets
from arwmass.expr import DomainError, Program, parse
from arwmass.fields import ExprTimeFunction, split_jet
from arwmass.geometry import GeometryError, make_spec, metric_jets, rw_family_spec, sample_events
from arwmass.mass import _TimeChange
from arwmass.sads import SAdSParams, SAdSTimeFunction, as_arw_spec
from sources import source_jets

EVENTS = 200


def _specs():
    angular = {"psi": "0.05*cos(theta1)*tau", "lam": "0.03*cos(theta1)*tau"}
    return {
        "rw n=2": rw_family_spec(2, 1.5, k=1.3, a=-0.5),
        "rw n=3": rw_family_spec(3, 1.0, k=2.0, a=-0.5),
        "custom n=2": make_spec(2, 1.2, "log(-tau)/0.6", a=-1.0, **angular),
        "custom n=3": make_spec(3, 1.0, "log(-2*tau)", a=-1.0, **angular),
        "sads n=2": as_arw_spec(SAdSParams(n=2, lam=-1.0, mass=0.9)),
        "sads n=3": as_arw_spec(SAdSParams(n=3, lam=0.0, mass=1.0)),
    }


SPECS = _specs()


def _bits(array):
    return np.asarray(array, dtype=float).view(np.int64)


def reference_metric_jets(metric, events):
    """(g, dg, ddg, sources) of the order-2 assembly at events (..., dim),
    dense, from the sources' own jets."""
    dim = metric.dim
    sources = source_jets(metric, events, 2)
    p0, p1, p2 = split_jet(sources.psi_tilde, dim)
    time = np.zeros_like(sources.psi_tilde[..., None, :])
    time[..., 0] = -1.0
    eta, deta, ddeta = split_jet(np.concatenate((time, sources.sigma), axis=-2), dim)
    scale = np.exp(2.0 * p0)
    lead = events.shape[:-1]
    g = np.zeros(lead + (dim, dim))
    dg = np.zeros(lead + (dim,) * 3)
    ddg = np.zeros(lead + (dim,) * 4)
    for a in range(dim):
        g[..., a, a] = scale * eta[..., a]
        for c in range(dim):
            dg[..., c, a, a] = scale * (2.0 * p1[..., c] * eta[..., a] + deta[..., a, c])
            for d in range(dim):
                pp = 4.0 * p1[..., c] * p1[..., d] + 2.0 * p2[..., c, d]
                entry = pp * eta[..., a]
                entry = entry + 2.0 * p1[..., c] * deta[..., a, d]
                entry = entry + 2.0 * p1[..., d] * deta[..., a, c]
                entry = entry + ddeta[..., a, c, d]
                ddg[..., c, d, a, a] = entry * scale
    return g, dg, ddg, sources


def reference_curvature(metric, event):
    g, dg, ddg, _ = reference_metric_jets(metric, event)
    g_inv = np.zeros_like(g)
    for a in range(metric.dim):
        g_inv[..., a, a] = 1.0 / g[..., a, a]
    gamma = tensors.christoffel(g_inv, dg)
    return curvature_from_jets(g, dg, ddg, g_inv, gamma)


BUNDLE_FIELDS = ("g", "g_inv", "christoffel", "riemann", "ricci", "scalar", "einstein")


@pytest.mark.parametrize("name", SPECS)
def test_one_event_keeps_the_bits_of_the_dense_reference(name):
    spec = SPECS[name]
    for event in sample_events(spec, EVENTS, seed=7):
        got, want = curvature_at(spec.metric, event), reference_curvature(spec.metric, event)
        for field in BUNDLE_FIELDS:
            npt.assert_array_equal(_bits(getattr(got, field)), _bits(getattr(want, field)))


@pytest.mark.parametrize("name", SPECS)
def test_metric_jets_keep_the_bits_of_the_dense_reference(name):
    # one event and a block of them: every jet and every field it carries
    spec = SPECS[name]
    events = sample_events(spec, 24, seed=8)
    for at in (events[0], events, events.reshape(4, 6, -1)):
        jets = metric_jets(spec.metric, at, 2)
        g, dg, ddg, sources = reference_metric_jets(spec.metric, at)
        for got, want in ((jets.g, g), (jets.dg, dg), (jets.ddg, ddg)):
            npt.assert_array_equal(_bits(got), _bits(want))
        for field in ("psi_tilde", "sigma", "f", "psi"):
            npt.assert_array_equal(_bits(getattr(jets, field)), _bits(getattr(sources, field)))


# ---------------------------------------------------------------------------
# TimeFunction.jet


def _profiles():
    sads = SAdSParams(n=3, lam=-1.0, mass=1.0)
    start = as_arw_spec(sads).a
    return {
        "expr": (ExprTimeFunction(parse("log(-2*tau) + 0.1*tau^3")), -0.5),
        "sads": (SAdSTimeFunction(sads), start),
        "time change": (
            _TimeChange(ExprTimeFunction(parse("log(-tau)")), parse("tau + 0.1*tau*tau")),
            -0.5,
        ),
    }


PROFILES = _profiles()


@pytest.mark.parametrize("name", PROFILES)
def test_a_time_jet_has_the_bits_of_the_derivatives(name):
    profile, start = PROFILES[name]
    taus = start * np.array([[0.9, 0.3, 0.9], [0.05, 0.3, 0.6]])  # 0.9 and 0.3 repeat
    for order in range(4):
        jet = profile.jet(taus, order)
        assert jet.shape == taus.shape + (order + 1,)
        want = [[[profile.derivative(t, m) for m in range(order + 1)] for t in row] for row in taus]
        npt.assert_array_equal(_bits(jet), _bits(want))
        one = profile.jet(taus[1, 0], order)
        assert one.shape == (order + 1,)
        npt.assert_array_equal(_bits(one), _bits(want[1][0]))


@pytest.mark.parametrize("name", PROFILES)
def test_a_time_jet_raises_the_first_failing_times_error(name):
    # the times are taken in order of first appearance: 0.25 fails first,
    # and 0.5 would fail too
    profile, start = PROFILES[name]
    taus = np.array([0.5 * start, 0.25, 0.5 * start, 0.5])
    for order in range(4):
        with pytest.raises((DomainError, GeometryError)) as expected:
            for m in range(order + 1):
                profile.derivative(np.float64(0.25), m)
        with pytest.raises(type(expected.value)) as got:
            profile.jet(taus, order)
        assert str(got.value) == str(expected.value)


def test_a_derivative_failing_where_its_profile_does_not_names_its_time():
    # sqrt(-tau) is 0 at tau = 0, its derivative divides by zero there
    profile = ExprTimeFunction(parse("sqrt(-tau)"))
    assert profile.jet(np.array([-0.25, 0.0]), 0)[1, 0] == 0.0
    for order in (1, 2, 3):
        with pytest.raises(DomainError, match=r"^division by zero at tau = 0\.0$"):
            profile.jet(np.array([-0.25, 0.0, -0.5]), order)


@pytest.mark.parametrize("name", ["expr", "time change"])
def test_a_nan_time_gets_a_nan_row(name):
    profile, start = PROFILES[name]
    taus = np.array([0.5 * start, math.nan, math.nan, 0.5 * start])
    jet = profile.jet(taus, 3)
    assert np.isnan(jet[1:3]).all()
    assert np.isfinite(jet[[0, 3]]).all()
    npt.assert_array_equal(_bits(jet[0]), _bits([profile.derivative(taus[0], m) for m in range(4)]))


def test_a_nan_time_of_the_sads_profile_raises_like_its_derivative():
    profile, start = PROFILES["sads"]
    with pytest.raises(GeometryError, match=r"^time coordinate must be negative, got nan$"):
        profile.jet(np.array([0.5 * start, math.nan]), 2)


def test_an_expression_profile_evaluates_one_program_per_distinct_time(monkeypatch):
    profile = ExprTimeFunction(parse("log(-2*tau) + 0.1*tau^3"))
    at, programs = Program.at, []

    def counting(self, *args):
        programs.append(self)
        return at(self, *args)

    monkeypatch.setattr(Program, "at", counting)
    for order in range(4):
        programs.clear()
        profile.jet(np.array([-0.3, -0.2, -0.3, -0.1, -0.2]), order)
        assert programs == [profile._jets[order]] * 3


def test_time_jet_programs_are_safe_to_fill_from_several_threads():
    # threads share a spec's profile: each order's program is stored once,
    # fully built, and every thread gets the bits of the derivatives
    taus = np.array([-0.5, -0.25, -0.5, -0.1])
    source = "log(-2*tau) + 0.1*tau^3"
    reference = ExprTimeFunction(parse(source))
    expected = [[[reference.derivative(t, m) for m in range(order + 1)] for t in taus]
                for order in range(4)]
    profile = ExprTimeFunction(parse(source))
    results, start = [], threading.Barrier(6, timeout=30)

    def work():
        start.wait()
        results.append([profile.jet(taus, order) for order in range(4)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6
    assert sorted(profile._jets) == [0, 1, 2, 3]
    for got in results:
        for jet, want in zip(got, expected):
            npt.assert_array_equal(_bits(jet), _bits(want))
