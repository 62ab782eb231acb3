import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from isofp.cli import catalog_K
from isofp.densities import make_density, closed_form_weight
from isofp.fpsolver import (
    FPState,
    SolverError,
    build_solver,
    fit_decay_rate,
    functional_theta,
    make_radial_grid,
    perturbed_initial_state,
    verify_hellinger_decay,
)
from isofp.weights import WeightFunction

from conftest import CATALOG_REPRESENTATIVES


def bad_weight():
    return WeightFunction(lambda r: np.asarray(r, dtype=float) - 2.0,
                          "closed_form", (0.0, math.inf))


class TestRadialGrid:
    def test_volumes_sum_to_ball_measure(self):
        d = make_density("barenblatt", {"a": 1.0, "p": 2.0}, 2)
        grid = make_radial_grid(d, 100)
        assert abs(grid.cell_volumes.sum() - math.pi) < 1e-12

    def test_edges_start_at_zero_and_increase(self):
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        grid = make_radial_grid(d, 50)
        assert grid.edges[0] == 0.0
        assert np.all(np.diff(grid.edges) > 0.0)

    def test_truncation_leaves_tiny_tail(self):
        from isofp.quadrature import integrate_interval

        d = make_density("cauchy_type", {"beta": 4.0}, 1)
        grid = make_radial_grid(d, 100, tail_mass=1e-12)
        tail, _ = integrate_interval(
            lambda r: d.radial_weight(r) * float(d.eval(r)),
            grid.edges[-1], math.inf)
        assert tail < 1e-12


class TestBuildSolver:
    def test_rejects_nonpositive_K(self):
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        with pytest.raises(SolverError, match="nonpositive"):
            build_solver(d, bad_weight(), cells=64, check_steady=False)

    def test_rejects_inconsistent_weight(self):
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        wrong = WeightFunction(
            lambda r: np.full_like(np.asarray(r, dtype=float), 3.0),
            "closed_form", (0.0, math.inf))
        with pytest.raises(SolverError, match="inconsistent"):
            build_solver(d, wrong, cells=64)

    def test_barenblatt_boundary_flux_vanishes(self):
        d = make_density("barenblatt", {"a": 1.0, "p": 2.0}, 2)
        K = closed_form_weight(d)
        solver = build_solver(d, K, cells=128)
        assert float(K(1.0)) == 0.0
        # boundary faces are not part of the stencil: flux is structurally 0
        assert len(solver.face_coeff) == solver.grid.cells - 1
        state = solver.steady_state()
        assert np.max(np.abs(solver.apply_flux_divergence(
            solver.quotient(state)))) < 1e-15

    def test_inverse_gamma_discrete_steady_residual(self):
        d = make_density("inverse_gamma_1d", {"mu": 2.0}, 1)
        solver = build_solver(d, catalog_K(d), cells=400)
        state = solver.steady_state()
        residual = solver.apply_flux_divergence(solver.quotient(state))
        assert np.max(np.abs(residual)) < 1e-10


class TestFixedPointAndConservation:
    @pytest.mark.parametrize("kind,params,n", CATALOG_REPRESENTATIVES)
    def test_equilibrium_is_fixed(self, kind, params, n):
        d = make_density(kind, params, n)
        solver = build_solver(d, catalog_K(d), cells=400)
        state = solver.steady_state()
        out = state
        for _ in range(20):
            out = solver.step(out, 0.5)
        drift = np.max(np.abs(out.values - state.values)) / np.max(state.values)
        assert drift / 10.0 < 1e-11  # per unit time
        assert abs(out.mass - state.mass) < 1e-10 * state.mass

    def test_mass_per_step(self, gaussian_1d):
        solver = build_solver(gaussian_1d, catalog_K(gaussian_1d), cells=200)
        state = perturbed_initial_state(solver, "tanh", eps=0.2)
        m0 = state.mass
        for _ in range(5):
            state = solver.step(state, 0.01)
            assert abs(state.mass - m0) < 1e-12 * m0

    def test_explicit_method_cfl(self, gaussian_1d):
        solver = build_solver(gaussian_1d, catalog_K(gaussian_1d), cells=100)
        state = perturbed_initial_state(solver, "cosine", eps=0.1)
        with pytest.raises(SolverError, match="CFL"):
            solver.step(state, 1.0, method="explicit")
        # a tiny explicit step agrees with the implicit one to O(dt^2)
        dt = 1e-6
        imp = solver.step(state, dt).values
        exp = solver.step(state, dt, method="explicit").values
        assert np.max(np.abs(imp - exp)) < 1e-10 * np.max(state.values)


def banded_step(solver, state, dt):
    """Implicit Euler values by a banded solve of (D - dt A) F = D F_old."""
    c = solver.face_coeff
    ab = np.zeros((3, solver.grid.cells))
    ab[0, 1:] = -dt * c
    ab[2, :-1] = -dt * c
    ab[1] = solver.D
    ab[1, :-1] += dt * c
    ab[1, 1:] += dt * c
    return solve_banded((1, 1), ab, solver.D * solver.quotient(state)) * solver.f_eq


class TestFactoredStep:
    @pytest.mark.parametrize("kind,params,n", CATALOG_REPRESENTATIVES)
    def test_matches_banded_solve(self, kind, params, n):
        d = make_density(kind, params, n)
        solver = build_solver(d, catalog_K(d), cells=300)
        state = perturbed_initial_state(solver, "shell", eps=0.2)
        # a new step size refactors; returning to the first one does too
        for dt in (1e-3, 0.05, 1e-3):
            got = solver.step(state, dt).values
            ref = banded_step(solver, state, dt)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestFunctionals:
    def test_equilibrium_gives_zero(self, gaussian_1d):
        solver = build_solver(gaussian_1d, catalog_K(gaussian_1d), cells=128)
        state = solver.steady_state()
        for kind in ("chi2", "entropy", "hellinger2"):
            assert abs(functional_theta(state, gaussian_1d, kind)) < 1e-14
            assert abs(solver.dissipation(state, kind)) < 1e-14

    def test_two_level_split_gives_eps_squared(self, gaussian_1d):
        solver = build_solver(gaussian_1d, catalog_K(gaussian_1d), cells=400)
        state = solver.steady_state()
        masses = state.values * solver.grid.cell_volumes
        cum = np.cumsum(masses) / masses.sum()
        k = int(np.searchsorted(cum, 0.5))
        eps = 0.07
        vals = state.values.copy()
        vals[:k + 1] *= 1.0 + eps
        vals[k + 1:] *= 1.0 - eps
        split = FPState(solver.grid, vals, 0.0)
        chi2 = functional_theta(split, gaussian_1d, "chi2")
        assert abs(chi2 - eps ** 2 * state.mass) < 1e-12

    def test_custom_convex_functional(self, gaussian_1d):
        solver = build_solver(gaussian_1d, catalog_K(gaussian_1d), cells=128)
        state = perturbed_initial_state(solver, "cosine", eps=0.1)
        quartic = functional_theta(state, gaussian_1d, lambda r: (r - 1.0) ** 4)
        assert quartic > 0.0
        chi2 = functional_theta(state, gaussian_1d, "chi2")
        assert quartic <= 0.1 ** 2 * chi2 + 1e-15  # (r-1)^4 <= eps^2 (r-1)^2

    def test_entropy_requires_positive_quotient(self, gaussian_1d):
        solver = build_solver(gaussian_1d, catalog_K(gaussian_1d), cells=64)
        state = solver.steady_state()
        vals = state.values.copy()
        vals[3] = 0.0
        broken = FPState(solver.grid, vals, 0.0)
        with pytest.raises(SolverError, match="F > 0"):
            functional_theta(broken, gaussian_1d, "entropy")


class TestDecay:
    def test_monotone_functionals(self, gaussian_run):
        _, trace = gaussian_run
        assert np.all(np.diff(trace.theta_chi2) <= 1e-9)
        assert np.all(np.diff(trace.theta_entropy) <= 1e-9)
        assert np.all(np.diff(trace.hellinger2) <= 1e-9)

    def test_hellinger_below_chi2(self, gaussian_run):
        _, trace = gaussian_run
        assert np.all(trace.hellinger2 <= trace.theta_chi2 + 1e-15)

    def test_l1_below_twice_hellinger(self, gaussian_run):
        _, trace = gaussian_run
        d_h = np.sqrt(np.maximum(trace.hellinger2, 0.0))
        assert np.all(trace.l1_dist <= 2.0 * d_h + 1e-12)

    def test_gaussian_rate_exceeds_bound(self, gaussian_run):
        _, trace = gaussian_run
        assert trace.fitted_rate >= 1.95

    def test_cauchy_rate_exceeds_bound(self, cauchy_run):
        # w = K at n = 1, so c = 1 and the predicted rate floor is 2/c = 2
        _, trace = cauchy_run
        assert trace.fitted_rate >= 0.95 * 2.0

    def test_dissipation_identity(self, gaussian_run):
        _, trace = gaussian_run
        for key, diss in (("theta_chi2", "dissipation_chi2"),
                          ("theta_entropy", "dissipation_entropy")):
            theta = getattr(trace, key)
            I = getattr(trace, diss)
            window = (theta / theta[0] >= 1e-8) & (theta / theta[0] <= 0.5)
            idx = np.nonzero(window[:-1] & window[1:])[0]
            assert len(idx) > 50
            dt_s = np.diff(trace.times)[idx]
            dth = (theta[idx + 1] - theta[idx]) / dt_s
            I_avg = 0.5 * (I[idx + 1] + I[idx])
            rel = np.abs(dth + I_avg) / I_avg
            assert np.max(rel) < 0.02

    def test_entropy_two_forms_agree(self, gaussian_run):
        solver, _ = gaussian_run
        state = perturbed_initial_state(solver, "cosine", eps=0.1)
        a = solver.dissipation(state, "entropy")
        b = solver.dissipation_entropy_sqrt_form(state)
        assert abs(a - b) / a < 1e-8

    def test_hellinger_decay_report(self, gaussian_run):
        _, trace = gaussian_run
        rep = verify_hellinger_decay(trace, c_const=1.0)
        assert rep["passed"]

    def test_hellinger_decay_short_trace_inconclusive(self, gaussian_run):
        from isofp.fpsolver import DecayTrace

        _, trace = gaussian_run
        short = DecayTrace(*[getattr(trace, k)[:5] for k in
                             ("times", "theta_chi2", "theta_entropy",
                              "hellinger2", "dissipation_chi2",
                              "dissipation_entropy", "mass", "l1_dist")])
        rep = verify_hellinger_decay(short, c_const=1.0)
        assert rep["status"] == "inconclusive"

    def test_mesh_refinement_rate_stability(self, gaussian_run, gaussian_run_fine):
        _, coarse = gaussian_run
        _, fine = gaussian_run_fine
        assert abs(coarse.fitted_rate - fine.fitted_rate) / fine.fitted_rate < 0.01


class TestInitialData:
    def test_perturbation_bounds(self, gaussian_1d):
        solver = build_solver(gaussian_1d, catalog_K(gaussian_1d), cells=128)
        for name in ("cosine", "tanh", "shell", "ramp"):
            state = perturbed_initial_state(solver, name, eps=0.2)
            F = solver.quotient(state)
            assert np.all(F >= 0.8 - 1e-12) and np.all(F <= 1.2 + 1e-12)
            assert abs(state.mass - solver.steady_state().mass) < 1e-12

    def test_eps_guard(self, gaussian_1d):
        solver = build_solver(gaussian_1d, catalog_K(gaussian_1d), cells=64)
        with pytest.raises(ValueError, match="eps"):
            perturbed_initial_state(solver, "cosine", eps=0.5)


class TestRateFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 12.0, 400)
        theta = 3.0 * np.exp(-1.7 * t)
        assert abs(fit_decay_rate(t, theta) - 1.7) < 1e-10

    def test_window_excludes_transient(self):
        t = np.linspace(0.0, 20.0, 800)
        theta = np.exp(-2.0 * t) + 0.5 * np.exp(-20.0 * t)
        assert abs(fit_decay_rate(t, theta) - 2.0) < 0.01

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="fewer than 5"):
            fit_decay_rate(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
