import json
import math
import os
import re
import subprocess
import sys
import threading

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import arwmass.sads as sads
from arwmass.geometry import GeometryError, arw_validate, sphere_volume
from arwmass.sads import (
    SAdSParams,
    SAdSTimeFunction,
    as_arw_spec,
    horizon,
    oracle_mass_integral,
    profile,
    r_of_x0,
    x0_of_r,
)

PI2 = math.pi**2


@pytest.fixture(scope="module")
def vacuum():
    return SAdSParams(n=3, lam=0.0, mass=1.0)


@pytest.fixture(scope="module")
def ads():
    return SAdSParams(n=3, lam=-1.0, mass=1.0)


def test_parameter_validation():
    with pytest.raises(GeometryError):
        SAdSParams(n=3, lam=0.5, mass=1.0)
    with pytest.raises(GeometryError):
        SAdSParams(n=3, lam=0.0, mass=0.0)
    with pytest.raises(GeometryError):
        SAdSParams(n=1, lam=0.0, mass=1.0)


def test_profile_values(vacuum):
    # h = 1 - m r^{1-n} inside the horizon of the Lambda = 0 family
    p = profile(vacuum, 0.5)
    assert p.h == pytest.approx(1.0 - 4.0)
    assert p.h_tilde == pytest.approx(3.0)
    assert p.dh_dr == pytest.approx(2.0 * 1.0 / 0.5**3)


def test_horizon_vacuum(vacuum):
    # h(r0) = 0 at r0 = m^{1/(n-1)}
    assert horizon(vacuum) == pytest.approx(1.0, abs=1e-12)


def test_horizon_ads(ads):
    # 1 + r^2/6 - r^-2 = 0  =>  r0^2 = sqrt(15) - 3
    r0 = horizon(ads)
    assert r0 == pytest.approx(math.sqrt(math.sqrt(15.0) - 3.0), abs=1e-12)
    assert profile(ads, r0).h == pytest.approx(0.0, abs=1e-12)


def test_x0_is_decreasing_in_r(ads):
    radii = [0.1, 0.2, 0.4, 0.7, 0.9 * horizon(ads)]
    values = [x0_of_r(ads, r) for r in radii]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(v < 0 for v in values)


def test_x0_round_trip(vacuum, ads):
    for params in (vacuum, ads):
        for r in (0.05, 0.3, 0.6):
            x0 = x0_of_r(params, r)
            assert r_of_x0(params, x0) == pytest.approx(r, rel=1e-10)


def test_x0_small_radius_asymptotics(vacuum):
    # x0 ~ -(2/(n-1)) r^{(n-1)/2} / sqrt(m) as r -> 0
    for r in (1e-3, 1e-4):
        expected = -(2.0 / 2.0) * r / math.sqrt(vacuum.mass)
        assert x0_of_r(vacuum, r) == pytest.approx(expected, rel=5e-3)


def test_time_function_derivatives_match_finite_differences(ads):
    f = SAdSTimeFunction(ads)
    tau = x0_of_r(ads, 0.45)
    h = 1e-6
    d1 = (f.value(tau + h) - f.value(tau - h)) / (2 * h)
    assert f.derivative(tau, 1) == pytest.approx(d1, rel=1e-8)
    h = 1e-4  # second difference: larger step keeps roundoff subdominant
    d2 = (f.value(tau + h) - 2 * f.value(tau) + f.value(tau - h)) / h**2
    assert f.derivative(tau, 2) == pytest.approx(d2, rel=1e-5)


def test_radius_recovery(ads):
    f = SAdSTimeFunction(ads)
    tau = x0_of_r(ads, 0.3)
    assert f.radius(tau) == pytest.approx(0.3, rel=1e-10)
    # e^f == r along the brane
    assert math.exp(f.value(tau)) == pytest.approx(0.3, rel=1e-10)


def test_as_arw_spec_validates(vacuum, ads):
    for params in (vacuum, ads):
        spec = as_arw_spec(params)
        assert spec.n == 3 and spec.omega == pytest.approx(1.0)
        report = arw_validate(spec)
        assert report.passed
        assert report.mass_estimate == pytest.approx(params.mass, rel=1e-4)


def test_oracle_integral_values(vacuum, ads):
    # (1/2) n(n-1) |S^n| (m + 2 Lambda r^{n+1}/(n(n+1)))
    assert oracle_mass_integral(vacuum, 0.37) == pytest.approx(6 * PI2, rel=1e-14)
    expected = 6 * PI2 * (1.0 - 0.5**4 / 6.0)
    assert oracle_mass_integral(ads, 0.5) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# The time coordinate near the horizon and its inversion


def reference_x0_of_r(params, r):
    """x0_of_r before the near-horizon change: one quadrature in s up to r."""
    n, m = params.n, params.mass
    rm = 1.0 / math.sqrt(m)
    leading = 2.0 / (n - 1.0) * rm * r ** ((n - 1.0) / 2.0)

    def remainder(s):
        return rm * s ** ((n - 3.0) / 2.0) * (1.0 / math.sqrt(1.0 - sads._relative_defect(params, s)) - 1.0)

    return -(leading + quad(remainder, 0.0, r, epsabs=1e-13, epsrel=1e-12, limit=200)[0])


def reference_r_of_x0(params, x0):
    """The inversion by bisection to 1e-6 r0 plus a Newton polish, which
    r_of_x0 replaced; about 24 x0_of_r quadratures per call."""
    r0 = horizon(params)
    hi = r0 * (1.0 - 1e-9)
    lo = r0 * 1e-12
    for _ in range(60):
        if hi - lo <= 1e-6 * r0:
            break
        mid = 0.5 * (lo + hi)
        if x0_of_r(params, mid) > x0:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    for _ in range(40):
        step = (x0_of_r(params, r) - x0) * r * math.sqrt(profile(params, r).h_tilde)
        r = min(max(r + step, 0.5 * lo), r0 * (1.0 - 1e-12))
        if abs(step) <= 1e-15 * r:
            break
    return r


def mpmath_x0_of_r(params, r):
    mpmath.mp.dps = 30
    n, lam, m = params.n, mpmath.mpf(params.lam), mpmath.mpf(params.mass)

    def integrand(s):
        h = 1 - 2 * lam * s**2 / (n * (n + 1)) - m * s ** (1 - n)
        return 1 / (s * mpmath.sqrt(-h))

    r = mpmath.mpf(r)
    return float(-mpmath.quad(integrand, [0, r / 2, r * (1 - mpmath.mpf("1e-3")), r]))


FAMILIES = [SAdSParams(n, lam, 0.854) for n in (2, 3, 4, 5) for lam in (0.0, -1.0)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_x0_of_r_near_the_horizon_matches_mpmath(n, lam):
    params = SAdSParams(n, lam, 0.854)
    r0 = horizon(params)
    for eps in (1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 1e-9):
        r = r0 * (1.0 - eps)
        assert abs(x0_of_r(params, r) - mpmath_x0_of_r(params, r)) <= 1e-12


def test_x0_of_r_is_unchanged_inside_the_domain():
    for params in FAMILIES[::3]:
        r0 = horizon(params)
        for frac in (1e-6, 1e-3, 0.2, 0.7, 0.99):
            r = frac * r0
            assert x0_of_r(params, r) == pytest.approx(reference_x0_of_r(params, r), rel=1e-14)


@pytest.mark.parametrize("params", FAMILIES, ids=lambda p: f"n={p.n} lam={p.lam}")
def test_r_of_x0_matches_the_bisection_inversion(params):
    r0 = horizon(params)
    for frac in (1e-6, 1e-3, 0.05, 0.3, 0.61, 0.9, 0.99):
        x0 = x0_of_r(params, frac * r0)
        reference = reference_r_of_x0(params, x0)
        assert r_of_x0(params, x0) == pytest.approx(reference, rel=1e-13)


def test_r_of_x0_takes_few_quadratures(monkeypatch):
    rng = np.random.default_rng(11)
    cases = []
    for params in FAMILIES:
        r0 = horizon(params)
        r_of_x0(params, x0_of_r(params, 0.5 * r0))  # builds the table
        fracs = np.concatenate((10 ** rng.uniform(-6, 0, 120), 1 - 10 ** rng.uniform(-8, -2, 5)))
        cases += [(params, frac * r0, x0_of_r(params, frac * r0)) for frac in fracs]
    exact = sads.x0_of_r
    calls = []
    monkeypatch.setattr(sads, "x0_of_r", lambda p, r: calls.append(r) or exact(p, r))
    counts = []
    for params, r, x0 in cases:
        before = len(calls)
        assert r_of_x0(params, x0) == pytest.approx(r, rel=1e-12)
        counts.append(len(calls) - before)
    assert sum(counts) / len(counts) <= 3.0
    assert max(counts) <= 5


def test_table_is_built_on_first_inversion_only(monkeypatch):
    params = SAdSParams(3, -0.3, 0.97)  # used by no other test
    calls = []
    exact = sads.x0_of_r
    monkeypatch.setattr(sads, "x0_of_r", lambda p, r: calls.append(r) or exact(p, r))
    spec = as_arw_spec(params)
    assert len(calls) == 1  # the domain end; no table yet
    spec.f.radius(0.5 * spec.a)
    assert len(calls) > 64


def test_r_of_x0_domain_errors(ads):
    with pytest.raises(GeometryError, match="must be negative"):
        r_of_x0(ads, 0.0)
    with pytest.raises(GeometryError, match="must be negative"):
        r_of_x0(ads, 0.3)
    top = x0_of_r(ads, horizon(ads) * (1.0 - 1e-9))
    with pytest.raises(GeometryError, match="beyond the horizon"):
        r_of_x0(ads, top)
    with pytest.raises(GeometryError, match="beyond the horizon"):
        r_of_x0(ads, 2.0 * top)
    # just inside the top table node the inversion still converges
    x0 = x0_of_r(ads, horizon(ads) * (1.0 - 1e-6))
    assert r_of_x0(ads, x0) == pytest.approx(horizon(ads) * (1.0 - 1e-6), rel=1e-12)


def test_radius_cache_is_bounded(ads):
    f = SAdSTimeFunction(ads)
    a = x0_of_r(ads, 0.99 * horizon(ads))
    times = a * (1.0 - np.arange(1, 10_001) / 10_002.0)
    first = [f.radius(tau) for tau in times]
    assert f._radius.cache_info().currsize <= sads._RADIUS_CACHE
    for k in (0, 1, 4999, 9999):  # evicted and cached times alike
        assert f.radius(times[k]) == first[k] == r_of_x0(ads, times[k])


def test_radius_cache_and_table_are_safe_to_fill_from_several_threads():
    # the CLI's sub-report pool shares a spec's time function between threads
    params = SAdSParams(2, -0.45, 1.07)  # used by no other test: no table yet
    r0 = horizon(params)
    radii = r0 * np.linspace(0.02, 0.98, 40)
    times = [x0_of_r(params, r) for r in radii]
    f = SAdSTimeFunction(params)
    results, start = [], threading.Barrier(6, timeout=30)

    def work(shift):
        start.wait()
        order = times[shift:] + times[:shift]  # threads miss on different times
        results.append(dict(zip(order, (f.radius(tau) for tau in order))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6
    expected = {tau: r_of_x0(params, tau) for tau in times}
    for got in results:
        assert got == expected
    for tau, r in zip(times, radii):
        assert expected[tau] == pytest.approx(r, rel=1e-12)


SCIPY_PROBE = """
import json, sys, tempfile
import arwmass, arwmass.cli
from arwmass.sads import SAdSParams, as_arw_spec
spec = as_arw_spec(SAdSParams(3, -1.0, 1.0))
spec.f.radius(0.5 * spec.a)
config = {
    "spacetime": {"kind": "sads", "n": 2, "lambda": -0.7, "mass": 1.1},
    "command": "imcf",
    "grid": 8,
    "imcf": {"t_end": 0.5, "max_leaves": 2},
    "output": {"format": "json"},
}
with tempfile.TemporaryDirectory() as out:
    code = arwmass.cli.run(config, out)
print(json.dumps([code, "scipy" in sys.modules]))
"""


def test_package_import_leaves_scipy_unloaded():
    # neither the import, an SAdS inversion nor an SAdS imcf run loads scipy
    import arwmass

    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(arwmass.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [0, False]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("mass", [0.854, 1.7])
def test_x0_of_r_meets_the_vacuum_closed_form(n, mass):
    # Lambda = 0: x0(r) = -(2/(n-1)) arcsin(r^{(n-1)/2} / sqrt(m))
    params = SAdSParams(n, 0.0, mass)
    r0 = horizon(params)
    for frac in (1e-6, 1e-3, 0.3, 0.7, 0.9, 0.99):
        r = frac * r0
        exact = -(2.0 / (n - 1)) * math.asin(r ** ((n - 1) / 2) / math.sqrt(mass))
        assert abs(x0_of_r(params, r) - exact) <= 1e-14 * abs(exact)


@pytest.mark.parametrize(
    "frac, rule", [(0.3, "_FAR_WEIGHTS"), (0.9, "_FAR_WEIGHTS"), (0.9, "_NEAR_WEIGHTS")]
)
def test_disagreeing_embedded_rules_raise_naming_r(monkeypatch, frac, rule):
    params = SAdSParams(3, -1.0, 0.854)
    r = frac * horizon(params)
    weights = getattr(sads, rule).copy()
    weights[:, 1] *= 1.01  # the low rule now sums 1% high
    monkeypatch.setattr(sads, rule, weights)
    with pytest.raises(GeometryError, match=re.escape(f"quadrature unreliable at r = {r}")):
        x0_of_r(params, r)
