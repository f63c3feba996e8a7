"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package, prints a single
PASS/FAIL line with the measured numbers, and is independent of the others.
All expected values come from closed forms computed away from the code under
test (warped-product curvature formulas, the exponential solution of the
scalar flow, and the exactly known black-hole family).
"""

import math

import numpy as np
import pytest

from arwmass.curvature import conformal_residuals, curvature_at
from arwmass.expr import Num, Var
from arwmass.geometry import (
    ARWSpec,
    geometric_schedule,
    make_spec,
    quadrature_grid,
    rw_family_spec,
    sample_events,
    sphere_volume,
)
from arwmass.hypersurface import (
    GraphHypersurface,
    conformal_extrinsic_residual,
    gauss_codazzi_residuals,
    graph_geometry,
    second_fundamental,
)
from arwmass.imcf import flow_diagnostics, imcf_run, mass_along_flow
from arwmass.mass import (
    _TimeChange,
    mass_limit,
    normalize,
    reparametrize_time,
    slab_balance,
    slice_mass_integral,
)
from arwmass.sads import SAdSParams, as_arw_spec, horizon, profile, x0_of_r

PI2 = math.pi**2
GRID = quadrature_grid(3, 48)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def builtin_specs():
    return [
        rw_family_spec(3, 1.0, k=1.0, a=-0.5),
        rw_family_spec(3, 1.0, k=2.0, a=-0.5),
        rw_family_spec(2, 1.0, k=1.0, a=-0.5),
        as_arw_spec(SAdSParams(n=3, lam=0.0, mass=1.0)),
        as_arw_spec(SAdSParams(n=3, lam=-1.0, mass=1.0)),
        make_spec(
            3, 1.0, "log(-tau)", a=-0.5,
            psi="0.05*cos(theta1)*exp(tau)", lam="0.02*sin(theta1)^2",
        ),
    ]


def test_criterion_1_black_hole_reproduction():
    vacuum = SAdSParams(n=3, lam=0.0, mass=1.0)
    spec = as_arw_spec(vacuum)
    worst = 0.0
    for r in (0.8, 0.4, 0.2, 0.1, 0.05, 0.02):
        value = slice_mass_integral(spec, x0_of_r(vacuum, r), GRID)
        worst = max(worst, abs(value - 6 * PI2) / (6 * PI2))
    m_vac = mass_limit(spec, GRID).m_hat

    ads = SAdSParams(n=3, lam=-1.0, mass=1.0)
    spec_ads = as_arw_spec(ads)
    report_ads = mass_limit(spec_ads, GRID)
    diffs = np.diff(report_ads.integrals)
    monotone_up = bool((diffs > 0).all())
    m_ads = report_ads.m_hat

    ok = (
        worst <= 1e-6
        and abs(m_vac - 1.0) <= 1e-5
        and monotone_up
        and abs(m_ads - 1.0) <= 1e-5
    )
    report(
        1,
        ok,
        f"flat-level slices off by {worst:.2e} rel (<=1e-6), "
        f"m_hat[vac]={m_vac:.10f}, m_hat[ads]={m_ads:.10f} (both 1 +/- 1e-5), "
        f"ads sequence strictly increasing: {monotone_up}",
    )


def test_criterion_2_pointwise_einstein_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for params in (
        SAdSParams(n=3, lam=0.0, mass=1.0),
        SAdSParams(n=3, lam=-1.0, mass=1.0),
    ):
        spec = as_arw_spec(params)
        r0 = horizon(params)
        for _ in range(100):
            r = rng.uniform(0.05, 0.95) * r0
            event = np.array(
                [
                    x0_of_r(params, r),
                    rng.uniform(0.1, math.pi - 0.1),
                    rng.uniform(0.1, math.pi - 0.1),
                    rng.uniform(0.1, 2 * math.pi - 0.1),
                ]
            )
            # G(nu, nu) e^{2f} = G_00 in the Gaussian chart
            got = curvature_at(spec.metric, event).einstein[0, 0]
            want = 3.0 * (profile(params, r).h_tilde + 1.0)
            worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-7
    report(2, ok, f"G(nu,nu)e^{{2f}} vs 3(h_tilde+1) at 200 points: {worst:.2e} rel (<=1e-7)")


def test_criterion_3_conformal_identities():
    # The sampled events run up to tau = 0.05 a, where curvatures reach ~1e7;
    # identities between exploding quantities are meaningful in relative
    # terms, so residuals are normalized by the returned curvature magnitude.
    # Each spec's events and nodes go through the batched checks at once.
    worst_ricci = worst_scalar = worst_extrinsic = 0.0
    for spec in builtin_specs():
        events = sample_events(spec, 100, seed=1)
        res = conformal_residuals(spec, events)
        bundle = curvature_at(spec.metric, events)
        ricci_scale = np.maximum(1.0, np.max(np.abs(bundle.ricci), axis=(-2, -1)))
        scalar_scale = np.maximum(1.0, np.abs(bundle.scalar))
        worst_ricci = max(worst_ricci, float(np.max(res.ricci_residual / ricci_scale)))
        worst_scalar = max(worst_scalar, float(np.max(res.scalar_residual / scalar_scale)))
        tau0 = 0.5 * spec.a
        u = f"{tau0!r} + {0.05 * abs(tau0)!r}*cos(theta1)"
        extrinsic = conformal_extrinsic_residual(spec, u, events[:, 1:])
        worst_extrinsic = max(worst_extrinsic, float(np.max(extrinsic)))
    ok = max(worst_ricci, worst_scalar, worst_extrinsic) <= 1e-8
    report(
        3,
        ok,
        f"conformal Ricci {worst_ricci:.2e}, scalar {worst_scalar:.2e}, "
        f"extrinsic {worst_extrinsic:.2e} over 100 events x {len(builtin_specs())} specs (<=1e-8)",
    )


def test_criterion_4_gauss_codazzi():
    worst_trace = worst_full = worst_codazzi = 0.0
    for spec in builtin_specs():
        tau0 = 0.5 * spec.a
        surfaces = [
            GraphHypersurface(u=tau0, ambient=spec.metric),
            GraphHypersurface(
                u=f"{tau0!r} + {0.05 * abs(tau0)!r}*cos(theta1)", ambient=spec.metric
            ),
        ]
        nodes = sample_events(spec, 20, seed=2)[:, 1:]
        for surface in surfaces:
            res = gauss_codazzi_residuals(surface, nodes)
            worst_trace = max(worst_trace, float(np.max(res.gauss_trace)))
            worst_full = max(worst_full, float(np.max(res.gauss_full)))
            worst_codazzi = max(worst_codazzi, float(np.max(res.codazzi)))
    ok = worst_trace <= 1e-7 and worst_full <= 1e-6 and worst_codazzi <= 1e-6
    report(
        4,
        ok,
        f"traced Gauss {worst_trace:.2e} (<=1e-7), full Gauss {worst_full:.2e}, "
        f"Codazzi {worst_codazzi:.2e} (both <=1e-6) on slices and tilted graphs",
    )


def test_criterion_5_slab_balance():
    rw = rw_family_spec(3, 1.0, k=1.0, a=-0.5)
    ads = SAdSParams(n=3, lam=-1.0, mass=1.0)
    sads_spec = as_arw_spec(ads)
    t_of = lambda r: x0_of_r(ads, r)

    slabs = [
        (rw, -0.45, -0.3),
        (rw, -0.25, -0.1),
        (sads_spec, t_of(0.7), t_of(0.5)),
        (sads_spec, t_of(0.4), t_of(0.2)),
    ]
    worst = max(slab_balance(spec, t1, t2, GRID).residual for spec, t1, t2 in slabs)

    t1, t2, t3 = -0.45, -0.25, -0.1
    left = slab_balance(rw, t1, t2, GRID).volume
    right = slab_balance(rw, t2, t3, GRID).volume
    full = slab_balance(rw, t1, t3, GRID).volume
    telescope = abs(left + right - full) / max(abs(full), 1.0)

    ok = worst <= 1e-6 and telescope <= 1e-9
    report(
        5,
        ok,
        f"worst slab residual {worst:.2e} (<=1e-6) over two disjoint slabs on each family, "
        f"additivity defect {telescope:.2e} (<=1e-9)",
    )


def test_criterion_6_flow_exactness():
    spec = rw_family_spec(3, 1.0, k=1.0, a=-1.0)
    tol = 1e-10
    run = imcf_run(spec, u0=-0.5, t_end=15.0, tolerance=tol)
    worst_u = max(abs(s.u - (-0.5) * math.exp(-s.t / 3.0)) for s in run.states)
    slope, decay = flow_diagnostics(run)

    lemma_run = imcf_run(spec, u0=-0.5, t_end=33.0, tolerance=tol)
    # 16 evenly spaced leaves of the run, the first and last included
    spaced = np.linspace(0, len(lemma_run.states) - 1, 16).round().astype(int)
    samples = mass_along_flow(spec, lemma_run.leaves[np.unique(spaced)], GRID)
    lemma = [s.lemma_quantity for s in samples]
    lemma_monotone = all(b < a for a, b in zip(lemma, lemma[1:]))

    ok = (
        worst_u <= 10 * tol
        and abs(slope + 1.0 / 3.0) <= 1e-6
        and abs(decay + 1.0 / 3.0) <= 1e-6
        and lemma_monotone
        and lemma[-1] < 1e-6
    )
    report(
        6,
        ok,
        f"max |u - exact| {worst_u:.2e} (<=10*tol={10 * tol:.0e}), slope {slope:.9f}, "
        f"decay {decay:.9f} (-1/3 +/- 1e-6), curvature-defect integral monotone to {lemma[-1]:.2e} (<1e-6)",
    )


def test_criterion_7_presentation_independence():
    spec = rw_family_spec(3, 1.0, k=1.5, a=-0.5)
    m_ref = mass_limit(spec, GRID).m_hat

    drift = 0.0
    omega_stable = True
    for eps in (-0.1, 0.1):
        other = reparametrize_time(spec, eps)
        omega_stable &= other.omega == spec.omega
        drift = max(drift, abs(mass_limit(other, GRID).m_hat - m_ref))

    c = 2.3
    pre = ARWSpec(
        n=3,
        omega=1.0,
        f=_TimeChange(spec.f, Var("tau") / Num(math.sqrt(c))),
        a=math.sqrt(c) * spec.a,
        sigma_scale=c,
    )
    renormed, scale = normalize(pre, GRID)
    m_norm = mass_limit(renormed, GRID).m_hat
    norm_defect = abs(m_norm - m_ref)

    ok = drift <= 1e-4 and omega_stable and norm_defect <= 1e-9
    report(
        7,
        ok,
        f"reparametrization m_hat drift {drift:.2e} (<=1e-4) with omega unchanged: {omega_stable}, "
        f"normalize recovers m_hat to {norm_defect:.2e}",
    )


def test_criterion_8_randomized_property_suite():
    rng = np.random.default_rng(2024)
    small = quadrature_grid(3, 24)
    coarse_grid, fine_grid = quadrature_grid(3, 32), quadrature_grid(3, 48)
    worst = {"riemann": 0.0, "normal": 0.0, "even": 0.0, "grid": 0.0, "fd": 0.0}

    for case in range(100):
        n = int(rng.integers(2, 4))
        omega = float(rng.uniform(0.5, 2.0))
        k = float(rng.uniform(0.5, 2.0))
        a = float(rng.uniform(-1.0, -0.3))
        spec = rw_family_spec(n, omega, k=k, a=a)

        tau = float(rng.uniform(0.2, 0.9) * a)
        angles = [float(rng.uniform(0.2, math.pi - 0.2)) for _ in range(n - 1)]
        angles.append(float(rng.uniform(0.2, 2 * math.pi - 0.2)))
        event = np.array([tau] + angles)

        # tensor symmetries of the ambient curvature
        R = curvature_at(spec.metric, event).riemann_lower
        scale = abs(R).max()
        defect = max(
            abs(R + R.transpose(1, 0, 2, 3)).max(),
            abs(R + R.transpose(0, 1, 3, 2)).max(),
            abs(R - R.transpose(2, 3, 0, 1)).max(),
            abs(R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)).max(),
        ) / scale
        worst["riemann"] = max(worst["riemann"], defect)

        # unit-normal identities on a random tilted graph
        amp = float(rng.uniform(0.0, 0.1)) * abs(tau)
        surface = GraphHypersurface(
            u=f"{tau!r} + {amp!r}*cos(theta1)", ambient=spec.metric
        )
        node = np.array(angles)
        ext = graph_geometry(surface, node)
        from arwmass.geometry import metric_jets

        g = metric_jets(spec.metric, ext.event, order=1).g
        worst["normal"] = max(
            worst["normal"],
            abs(ext.past_normal @ g @ ext.past_normal + 1.0),
            abs(ext.past_normal @ g @ ext.tangents).max(),
        )

        # mass integrand even under normal flip
        G = curvature_at(spec.metric, ext.event).einstein
        plus = ext.past_normal @ G @ ext.past_normal
        minus = (-ext.past_normal) @ G @ (-ext.past_normal)
        worst["even"] = max(worst["even"], abs(plus - minus) / max(abs(plus), 1e-30))

        # quadrature refinement stays inside a tight band
        if n == 3:
            c = slice_mass_integral(spec, tau, coarse_grid)
            f = slice_mass_integral(spec, tau, fine_grid)
            worst["grid"] = max(worst["grid"], abs(c - f) / abs(f))

        # symbolic time derivatives match central differences
        h = 1e-5 * abs(tau)
        fd = (spec.f.value(tau + h) - spec.f.value(tau - h)) / (2 * h)
        worst["fd"] = max(
            worst["fd"], abs(spec.f.derivative(tau, 1) - fd) / max(abs(fd), 1.0)
        )

    ok = (
        worst["riemann"] <= 1e-10
        and worst["normal"] <= 1e-10
        and worst["even"] == 0.0
        and worst["grid"] <= 1e-10
        and worst["fd"] <= 1e-8
    )
    report(
        8,
        ok,
        "100 randomized cases: riemann {riemann:.1e}, normal {normal:.1e}, "
        "evenness {even:.1e}, grid {grid:.1e}, fd {fd:.1e}".format(**worst),
    )
