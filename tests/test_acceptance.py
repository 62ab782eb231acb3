"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

from isofp.cli import reports_for_pair
from isofp.corpus import corpus_anisotropic
from isofp.densities import make_density, parse_density_spec, closed_form_weight
from isofp.fpsolver import build_solver, perturbed_initial_state, verify_hellinger_decay
from isofp.inequality import check_gaussian_anisotropic
from isofp.weights import (
    angular_weight,
    optimal_barenblatt_weight,
    optimal_cauchy_weight,
    steady_state_residual,
    weight_from_density,
)

from oracles import dissipation_entropy_sqrt_form, maximize_family_constant, steady_state

SEED = 2024
RATIO_TOL = 1e-6


def _verdict(num, label, ok, t0, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {label} ({time.time() - t0:.1f}s) {detail}")
    assert ok, f"criterion {num}: {label} {detail}"


WEIGHT_MATRIX = (
    [("gaussian", {"sigma": 1.0}, n) for n in (1, 2, 3)]
    + [("gaussian", {"sigma": 2.5}, 4)]
    + [("cauchy_type", {"beta": b}, n) for b in (2.0, 3.0, 4.0) for n in (1, 2, 3)]
    + [("exponential_type", {"beta": b}, n) for b in (1.0, 2.0) for n in (2, 3)]
    + [("barenblatt", {"a": 1.0, "p": p}, n) for p in (2.0, 3.0) for n in (1, 2)]
)


def test_criterion_01_weight_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for kind, params, n in WEIGHT_MATRIX:
        d = make_density(kind, params, n)
        K_cf = closed_form_weight(d)
        hi = d.support_radius if np.isfinite(d.support_radius) else 5.0
        grid = np.linspace(0.01 * hi, 0.99 * hi, 50)
        for rho in grid:
            kq = weight_from_density(d, float(rho))
            kc = float(K_cf(rho))
            worst = max(worst, abs(kq - kc) / abs(kc))
    _verdict(1, "quadrature weight matches closed forms (50-pt grids)",
             worst < 1e-6, t0, f"max rel err {worst:.2e}")


def test_criterion_02_steady_state_residual():
    t0 = time.time()
    worst = 0.0
    cases = WEIGHT_MATRIX + [("inverse_gamma_1d", {"mu": 2.0}, 1)]
    for kind, params, n in cases:
        d = make_density(kind, params, n)
        K = closed_form_weight(d)
        hi = d.support_radius if np.isfinite(d.support_radius) else 6.0
        lo = 0.3 if kind == "inverse_gamma_1d" else 0.02 * hi
        rho = np.linspace(lo, 0.95 * hi, 60)
        res = steady_state_residual(d, K, rho)
        scale = np.max(np.abs((rho - d.drift_mean) * d.eval(rho)))
        worst = max(worst, float(np.max(np.abs(res)) / scale))
    _verdict(2, "d/drho[K f] + (rho - m) f = 0 for every catalog weight",
             worst < 1e-5, t0, f"max scaled residual {worst:.2e}")


SOUNDNESS_DENSITIES = [
    "gaussian:sigma=1,n=1",
    "gaussian:sigma=1,n=3",
    "cauchy:beta=3,n=2",
    "cauchy:beta=4,n=3",
    "exponential:beta=1,n=2",
    "barenblatt:a=1,p=2,n=2",
    "inverse_gamma:mu=2,n=1",
]

ANISO_COVARIANCES = [
    np.eye(2),
    np.diag([1.0, 4.0]),
    np.array([[1.75, -1.299038105676658], [-1.299038105676658, 3.25]]),
]


def test_criterion_03_inequality_soundness():
    t0 = time.time()
    failures = []
    sharp = []
    min_members = math.inf
    for spec in SOUNDNESS_DENSITIES:
        d = parse_density_spec(spec)
        for theorem in ("poincare_1d", "product", "isotropic_Wstar",
                        "refined_outside_ball"):
            result = reports_for_pair(d, theorem, SEED, RATIO_TOL)
            if isinstance(result, str):
                continue
            checked = [r for r in result if r.status == "ok"]
            min_members = min(min_members, len(checked))
            for r in checked:
                if not r.passed:
                    failures.append((spec, theorem, r.witness, r.ratio))
            if theorem == "poincare_1d" and d.kind == "gaussian":
                lin = [r for r in result if r.witness == "linear"]
                if lin:
                    sharp.append(lin[0].ratio)
    for V in ANISO_COVARIANCES:
        reports = check_gaussian_anisotropic(V, corpus_anisotropic(V, seed=SEED),
                                             tol=RATIO_TOL)
        min_members = min(min_members, len(reports))
        for r in reports:
            if not r.passed:
                failures.append(("anisotropic", "gaussian_anisotropic",
                                 r.witness, r.ratio))
        if np.allclose(V, np.eye(2)):
            lin = [r for r in reports if r.witness == "linear_x1"][0]
            sharp.append(lin.ratio)
    sharp_ok = all(abs(s - 1.0) <= 1e-6 for s in sharp) and len(sharp) >= 2
    ok = not failures and sharp_ok and min_members >= 40
    _verdict(3, "soundness across the density matrix (>= 40 members/theorem)",
             ok, t0,
             f"min members {min_members}, sharp ratios {[f'{s:.8f}' for s in sharp]}, "
             f"failures {failures[:3]}")


def test_criterion_04_angular_bounds():
    t0 = time.time()
    ok = True
    detail = []
    for n in (3, 4):
        for i in range(1, n - 1):
            th = np.linspace(1e-4, math.pi - 1e-4, 400)
            mx = float(np.max(angular_weight(i, n, th)))
            detail.append(f"P_{i}(n={n}) max {mx:.6f}")
            ok &= mx <= math.pi ** 2 / 8.0 + 1e-9
    th2 = np.linspace(1e-6, 2 * math.pi - 1e-6, 400)
    azim = angular_weight(2, 3, th2)
    exact = math.pi * th2 - th2 ** 2 / 2.0
    ok &= bool(np.max(np.abs(azim - exact)) < 1e-12)
    ok &= abs(angular_weight(2, 3, math.pi) - math.pi ** 2 / 2.0) < 1e-12
    _verdict(4, "angular weights: polar <= pi^2/8, azimuthal exact with max pi^2/2",
             ok, t0, "; ".join(detail))


def test_criterion_05_alpha_family_optimizer():
    t0 = time.time()
    worst = 0.0
    cauchy_sweep = [(1.6, 2), (1.8, 2), (2.0, 2), (2.4, 2), (2.2, 3),
                    (2.6, 3), (3.0, 3), (4.0, 3), (2.9, 4), (6.0, 4)]
    for beta, n in cauchy_sweep:
        beta_star = beta - (n - 1) / 2.0
        alpha_num, h_num = maximize_family_constant(
            lambda a: (2.0 * a - 1.0) * (beta_star - a))
        coef_num = 1.0 / (2.0 * h_num)
        coef_cf = float(optimal_cauchy_weight(beta, n)(0.0))
        worst = max(worst, abs(coef_num - coef_cf))
    bar_sweep = [(2.0, 1), (2.0, 2), (3.0, 2), (1.5, 3), (4.0, 3),
                 (2.5, 1), (1.2, 2), (5.0, 2), (3.5, 3), (2.0, 3)]
    for p, n in bar_sweep:
        beta = 1.0 / (p - 1.0)
        _, h_num = maximize_family_constant(
            lambda a: (2.0 * a - 1.0) * (a + beta + n - 1.0))
        coef_num = 1.0 / (2.0 * h_num)
        coef_cf = float(optimal_barenblatt_weight(p, n, 1.0)(0.0))
        worst = max(worst, abs(coef_num - coef_cf))
    _verdict(5, "numeric alpha optimizer reproduces both closed-form branches",
             worst < 1e-10, t0, f"max coefficient error {worst:.2e}")


def test_criterion_06_fixed_point_and_conservation():
    t0 = time.time()
    ok = True
    detail = []
    for kind, params, n in [("gaussian", {"sigma": 1.0}, 1),
                            ("cauchy_type", {"beta": 4.0}, 1),
                            ("exponential_type", {"beta": 1.0}, 2),
                            ("barenblatt", {"a": 1.0, "p": 2.0}, 2),
                            ("inverse_gamma_1d", {"mu": 2.0}, 1)]:
        d = make_density(kind, params, n)
        solver = build_solver(d, closed_form_weight(d), cells=400)
        state = steady_state(solver)
        out = state
        for _ in range(200):
            out = solver.step(out, 0.05)
        sup_drift = (np.max(np.abs(out.values - state.values))
                     / np.max(state.values)) / 10.0
        mass_drift = abs(out.mass - state.mass) / state.mass
        detail.append(f"{kind}: sup {sup_drift:.1e} mass {mass_drift:.1e}")
        ok &= sup_drift < 1e-11 and mass_drift < 1e-10
    _verdict(6, "equilibrium fixed point and mass conservation (5 kinds, T=10)",
             ok, t0, "; ".join(detail))


def test_criterion_07_chi2_rates(gaussian_run, cauchy_run):
    t0 = time.time()
    _, g_trace = gaussian_run
    _, c_trace = cauchy_run
    mono = (bool(np.all(np.diff(g_trace.theta_chi2) <= 1e-9))
            and bool(np.all(np.diff(c_trace.theta_chi2) <= 1e-9)))
    # Gaussian: w = K with c = 1; Cauchy at n = 1 has w = K as well (2 beta -
    # (n+1) = 2 (beta - 1)), so both bounds are 2/c = 2
    ok = g_trace.fitted_rate >= 1.95 and c_trace.fitted_rate >= 0.95 * 2.0 and mono
    _verdict(7, "chi-square decay rates beat the Poincare bound 2/c", ok, t0,
             f"gaussian {g_trace.fitted_rate:.3f} >= 1.95, "
             f"cauchy {c_trace.fitted_rate:.3f} >= 1.90, monotone {mono}")


def test_criterion_08_hellinger_surrogates(gaussian_run, cauchy_run):
    t0 = time.time()
    ok = True
    detail = []
    for label, (_, trace) in (("gaussian", gaussian_run), ("cauchy", cauchy_run)):
        rep = verify_hellinger_decay(trace, c_const=1.0)
        d_h = np.sqrt(np.maximum(trace.hellinger2, 0.0))
        l1_ok = bool(np.all(trace.l1_dist <= 2.0 * d_h + 1e-12))
        ok &= rep["passed"] and l1_ok
        detail.append(f"{label}: monotone {rep['monotone']}, "
                      f"tail {rep['t_h2_tail_decreasing']}, "
                      f"integral {rep['cumulative_integral']:.3e} <= "
                      f"{rep['cumulative_bound']:.3e}, L1<=2dH {l1_ok}")
    _verdict(8, "Hellinger decay surrogates", ok, t0, "; ".join(detail))


def test_criterion_09_dissipation_identity(gaussian_run):
    t0 = time.time()
    solver, trace = gaussian_run
    worst = 0.0
    for theta, I in ((trace.theta_chi2, trace.dissipation_chi2),
                     (trace.theta_entropy, trace.dissipation_entropy)):
        window = (theta / theta[0] >= 1e-8) & (theta / theta[0] <= 0.5)
        idx = np.nonzero(window[:-1] & window[1:])[0]
        dt_s = np.diff(trace.times)[idx]
        dth = (theta[idx + 1] - theta[idx]) / dt_s
        I_avg = 0.5 * (I[idx + 1] + I[idx])
        worst = max(worst, float(np.max(np.abs(dth + I_avg) / I_avg)))
    state = perturbed_initial_state(solver, "cosine", eps=0.1)
    two_forms = abs(solver.dissipation(state, "entropy")
                    - dissipation_entropy_sqrt_form(solver, state))
    two_forms_rel = two_forms / solver.dissipation(state, "entropy")
    ok = worst < 0.02 and two_forms_rel < 1e-8
    _verdict(9, "discrete dissipation identity and entropy two-form agreement",
             ok, t0, f"max identity err {worst:.2e}, two-form rel {two_forms_rel:.1e}")


def test_criterion_10_mesh_refinement(gaussian_run, gaussian_run_fine,
                                      cauchy_run, cauchy_run_fine):
    t0 = time.time()
    _, g400 = gaussian_run
    _, g800 = gaussian_run_fine
    _, c400 = cauchy_run
    _, c800 = cauchy_run_fine
    g_change = abs(g400.fitted_rate - g800.fitted_rate) / g800.fitted_rate
    c_change = abs(c400.fitted_rate - c800.fitted_rate) / c800.fitted_rate
    ok = g_change < 0.01 and c_change < 0.01
    _verdict(10, "halving the mesh changes fitted rates by < 1%", ok, t0,
             f"gaussian {g_change:.2%}, cauchy {c_change:.2%}")
