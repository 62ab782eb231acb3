import math

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpttrs
from scipy.special import gammaincc

from isofp import fpsolver, quadrature
from isofp.cli import DEFAULT_CONFIG
from isofp.densities import (
    closed_form_weight,
    make_density,
    parse_density_spec,
    surface_measure,
)
from isofp.fpsolver import (
    FPState,
    SolverError,
    TruncationError,
    _truncation_radius,
    build_solver,
    fit_decay_rate,
    make_radial_grid,
    perturbed_initial_state,
    verify_hellinger_decay,
)
from isofp.weights import WeightFunction, bisect, residual_step, steady_state_residual

from conftest import CATALOG_REPRESENTATIVES
from test_catalog_sweep import SPECS as SWEEP_SPECS
from oracles import apply_flux_divergence, dissipation_entropy_sqrt_form, steady_state


def bad_weight():
    return WeightFunction(lambda r: np.asarray(r, dtype=float) - 2.0)


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
            lambda r: d.radial_weight(r) * float(d.eval(r)), grid.edges[-1])
        assert tail < 1e-12


def bisection_60(d, tail_mass=1e-12):
    """The truncation radius by a fixed 60 rounds of bisection: the oracle
    the early-stopping bisection must reproduce float for float."""
    if np.isfinite(d.support_radius):
        return d.support_radius

    def tail(R):
        return quadrature.integrate_interval(
            lambda r: d.radial_weight(r) * d.eval(r), R)[0]

    lo, hi = 1.0, 2.0
    while tail(hi) > tail_mass:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tail(mid) > tail_mass:
            lo = mid
        else:
            hi = mid
    return hi


# the densities perfbench's line-relax workload evolves
LINE_RELAX = ["gaussian:sigma=1,n=1", "cauchy:beta=4,n=1",
              "inverse_gamma:mu=2,n=1", "cauchy:beta=4,n=3"]
# the catalog sweep's densities whose tails are too heavy to truncate
TOO_HEAVY = ["cauchy:beta=1.1,n=1", "cauchy:beta=1.05,n=1", "cauchy:beta=1.6,n=2",
             "cauchy:beta=1.55,n=2", "cauchy:beta=2.1,n=3", "cauchy:beta=2.05,n=3",
             "inverse_gamma:mu=0.5,n=1"]
EVOLVED = sorted(set(DEFAULT_CONFIG["evolve_densities"]) | set(LINE_RELAX)
                 | set(SWEEP_SPECS) - set(TOO_HEAVY))


def count_tails(monkeypatch):
    """A list whose one entry counts the adaptive tails taken from now on."""
    calls = [0]
    integrate = quadrature.integrate_interval

    def counting(*args, **kwargs):
        calls[0] += 1
        return integrate(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_interval", counting)
    return calls


class TestTruncationRadius:
    # the narrow Gaussian's tail already holds at 1.0, the radius returned
    # before any bracket is searched
    @pytest.mark.parametrize("spec", EVOLVED + ["gaussian:sigma=0.01,n=1"])
    def test_same_float_as_fixed_rounds(self, spec):
        d = parse_density_spec(spec)
        assert _truncation_radius(d) == bisection_60(d)

    @pytest.mark.parametrize("spec,most", [(spec, 16) for spec in LINE_RELAX] + [
        # the tail at r = 2 holds, and so does the tail at 1.0
        ("gaussian:sigma=0.01,n=1", 3),
    ])
    def test_few_tails(self, spec, most, monkeypatch):
        calls = count_tails(monkeypatch)
        _truncation_radius(parse_density_spec(spec))
        assert calls[0] <= most

    def test_line_relax_takes_at_most_60_tails(self, monkeypatch):
        calls = count_tails(monkeypatch)
        for spec in LINE_RELAX:
            _truncation_radius(parse_density_spec(spec))
        assert calls[0] <= 60

    @pytest.mark.parametrize("spec", TOO_HEAVY)
    def test_heavy_tail_raises(self, spec):
        with pytest.raises(TruncationError, match="tail too heavy"):
            _truncation_radius(parse_density_spec(spec))

    # QUADPACK returns a negative tail for each of these at some probe of
    # the search; a positive integrand has none, so the search ends there
    @pytest.mark.parametrize("spec", ["cauchy:beta=2.5,n=3", "cauchy:beta=1.6,n=1",
                                      "inverse_gamma:mu=1,n=1", "inverse_gamma:mu=1.25,n=1",
                                      "cauchy:beta=1.5,n=2"])
    def test_negative_tail_raises(self, spec, monkeypatch):
        tails = []
        integrate = quadrature.integrate_interval

        def record(*args):
            val, err = integrate(*args)
            tails.append(val)
            return val, err

        monkeypatch.setattr(quadrature, "integrate_interval", record)
        with pytest.raises(TruncationError, match="tail too heavy") as info:
            _truncation_radius(parse_density_spec(spec))
        assert info.value.__cause__ is None
        assert tails[-1] < 0.0 and min(tails[:-1]) >= 0.0

    # rho^(n-1) overflows at QUADPACK's mapped nodes from n = 37 on, which
    # ended the search in an overflow warning (and the Gaussian's at n = 40
    # in "tail too heavy").  |X| is chi with n degrees of freedom for the
    # Gaussian and Gamma(n, 1) for the exponential, whose tail masses are
    # the regularised upper incomplete Gamma Q(n/2, r^2/2) and Q(n, r)
    @pytest.mark.parametrize("n", [37, 38, 39, 40])
    @pytest.mark.parametrize("kind,tail", [
        ("gaussian:sigma=1", lambda n, r: gammaincc(n / 2, r * r / 2)),
        ("exponential:beta=1", lambda n, r: gammaincc(n, r)),
    ], ids=["gaussian", "exponential"])
    def test_high_dimensions(self, kind, tail, n):
        r = _truncation_radius(parse_density_spec(f"{kind},n={n}"))
        assert tail(n, r * (1.0 + 1e-8)) <= 1e-12 < tail(n, r * (1.0 - 1e-8))

    def test_log_space_meets_the_direct_product(self, monkeypatch):
        # cauchy beta = 20 at n = 37: f dV ~ c rho^-4 far out, where rho^36
        # overflows and (1 + rho^2)^-20 underflows; across the radius where
        # the integrand turns to log space it keeps that law to roundoff
        integrands = []
        integrate = quadrature.integrate_interval

        def record(g, lo):
            integrands.append(g)
            return integrate(g, lo)

        monkeypatch.setattr(quadrature, "integrate_interval", record)
        _truncation_radius(parse_density_spec("cauchy:beta=20,n=37"))
        r = np.geomspace(1e7, 1e13, 241)
        scaled = np.array([integrands[0](x) for x in r]) * r ** 4
        assert np.all(np.isfinite(scaled)) and np.ptp(scaled) <= 1e-12 * scaled.max()

    def test_search_gives_up_at_the_cap(self, monkeypatch):
        # a tail that never falls to the target: the search raises at 2^29,
        # the last doubling of 1 below 1e9, and probes nothing beyond it
        probes = []

        def tail(g, R):
            probes.append(R)
            return R ** -0.1, 0.0

        monkeypatch.setattr(quadrature, "integrate_interval", tail)
        with pytest.raises(TruncationError, match="tail too heavy") as info:
            _truncation_radius(parse_density_spec("cauchy:beta=4,n=1"))
        assert info.value.__cause__ is None
        assert probes[-1] == max(probes) == 2.0 ** 29

    def test_probe_cap_hands_the_bracket_to_bisect(self, monkeypatch):
        # a tail that rises and falls on each side of R0 = 20.25 and steps
        # down across it: the Gaussian's density at 20 is ~1e-88, so every
        # Newton step leaves the bracket, and the midpoints alone would need
        # about 50 probes to close it
        R0, mass = 20.25, 1e-12
        monkeypatch.setattr(quadrature, "integrate_interval", lambda g, R: (
            mass * ((3.0 if R < R0 else 0.5) + 0.4 * math.sin(7.0 * R)), 0.0))
        bisected = []

        def spy(holds, lo, hi):
            bisected.append((lo, hi))
            return bisect(holds, lo, hi)

        monkeypatch.setattr(fpsolver, "bisect", spy)
        got = _truncation_radius(parse_density_spec("gaussian:sigma=1,n=1"), mass)
        assert len(bisected) == 1
        assert got == R0


def formula_volumes(d, grid):
    return d.geometry_factor * np.diff(grid.edges ** grid.n) / grid.n


class TestGridGeometry:
    # a radial grid and a line grid
    @pytest.mark.parametrize("spec", ["cauchy:beta=4,n=3", "inverse_gamma:mu=2,n=1"])
    def test_cached_geometry_is_the_formula(self, spec):
        d = parse_density_spec(spec)
        grid = make_radial_grid(d, 400)
        e = grid.edges
        if d.half_line:
            # factor 1 at n = 1: the volumes are the widths, the weight is 1
            assert np.array_equal(formula_volumes(d, grid), np.diff(e))
            assert np.array_equal(d.radial_weight([0.0, 1e-300, np.inf, np.nan, -1.0]),
                                  np.ones(5))
        else:
            assert d.geometry_factor == surface_measure(d.n)
        for name, want in (("centers", 0.5 * (e[:-1] + e[1:])),
                           ("widths", np.diff(e)),
                           ("cell_volumes", formula_volumes(d, grid))):
            got = getattr(grid, name)
            assert np.array_equal(got, want)
            assert getattr(grid, name) is got
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            grid.edges[0] = 1.0

    @pytest.mark.parametrize("spec", ["cauchy:beta=4,n=3", "inverse_gamma:mu=2,n=1"])
    def test_mass_after_100_steps(self, spec):
        d = parse_density_spec(spec)
        solver = build_solver(d, closed_form_weight(d), cells=400)
        state = perturbed_initial_state(solver, "cosine", eps=0.1)
        values = state.values
        for _ in range(100):
            state = solver.step(state, 1e-3)
            # the implicit step written out; no value goes negative here
            dd, e = solver._factor(1e-3)
            values = dpttrs(dd, e, solver.D * (values / solver.f_eq))[0] * solver.f_eq
        assert np.array_equal(state.values, values)
        assert state.mass == float(np.dot(values, formula_volumes(d, solver.grid)))


class TestBuildSolver:
    def test_rejects_nonpositive_K(self):
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        with pytest.raises(SolverError, match="nonpositive"):
            build_solver(d, bad_weight(), cells=64)

    def test_rejects_inconsistent_weight(self):
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        wrong = WeightFunction(lambda r: np.full_like(np.asarray(r, dtype=float), 3.0))
        with pytest.raises(SolverError, match="inconsistent"):
            build_solver(d, wrong, cells=64)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_barenblatt_with_small_support_evolves(self, n):
        # support radius 0.5: the steady-state check must keep every probe's
        # stencil inside the support
        d = parse_density_spec(f"barenblatt:a=0.5,p=3,n={n}")
        solver = build_solver(d, closed_form_weight(d), cells=400)
        trace = solver.evolve(perturbed_initial_state(solver, "cosine", eps=0.1), 1.0, 1e-3)
        assert np.all(np.diff(trace.theta_chi2) <= 1e-9)
        assert trace.theta_chi2[-1] < 1e-2 * trace.theta_chi2[0]

    @pytest.mark.parametrize("a", [1.0, 0.3, 0.01, 0.002])
    def test_residual_step_follows_the_support(self, a):
        # h = 1e-3 max(rho, 1) once missed the support's curvature below a
        # radius of about 0.4 and rejected the weight; scaled by the radius,
        # the relative residual is the same at every a
        d = parse_density_spec(f"barenblatt:a={a},p=3,n=1")
        rho = np.linspace(0.1, 0.9, 9) * d.support_radius
        assert np.array_equal(residual_step(d, rho), 1e-3 * np.maximum(rho, 1.0) * a)
        K = closed_form_weight(d)
        res = steady_state_residual(d, K, rho) / np.max(rho * d.eval(rho))
        assert np.max(np.abs(res)) < 1e-6
        build_solver(d, K, cells=400)

    def test_unbounded_support_keeps_its_step(self):
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        rho = np.array([1e-3, 0.5, 1.0, 7.0])
        assert np.array_equal(residual_step(d, rho), 1e-3 * np.maximum(rho, 1.0))

    def test_one_cell_grid_has_no_probe(self):
        # the probes keep off both ends of the grid, so one cell has none
        d = parse_density_spec("barenblatt:a=1,p=3,n=1")
        with pytest.raises(SolverError, match="no steady-state probe lies 2h inside"):
            build_solver(d, closed_form_weight(d), cells=1)

    def test_barenblatt_boundary_flux_vanishes(self):
        d = make_density("barenblatt", {"a": 1.0, "p": 2.0}, 2)
        K = closed_form_weight(d)
        solver = build_solver(d, K, cells=128)
        assert float(K(1.0)) == 0.0
        # boundary faces are not part of the stencil: flux is structurally 0
        assert len(solver.face_coeff) == len(solver.grid.edges) - 2
        state = steady_state(solver)
        assert np.max(np.abs(apply_flux_divergence(
            solver, solver.quotient(state)))) < 1e-15

    def test_inverse_gamma_discrete_steady_residual(self):
        d = make_density("inverse_gamma_1d", {"mu": 2.0}, 1)
        solver = build_solver(d, closed_form_weight(d), cells=400)
        state = steady_state(solver)
        residual = apply_flux_divergence(solver, solver.quotient(state))
        assert np.max(np.abs(residual)) < 1e-10


class TestFixedPointAndConservation:
    @pytest.mark.parametrize("kind,params,n", CATALOG_REPRESENTATIVES)
    def test_equilibrium_is_fixed(self, kind, params, n):
        d = make_density(kind, params, n)
        solver = build_solver(d, closed_form_weight(d), cells=400)
        state = steady_state(solver)
        out = state
        for _ in range(20):
            out = solver.step(out, 0.5)
        drift = np.max(np.abs(out.values - state.values)) / np.max(state.values)
        assert drift / 10.0 < 1e-11  # per unit time
        assert abs(out.mass - state.mass) < 1e-10 * state.mass

    def test_mass_per_step(self, gaussian_1d):
        solver = build_solver(gaussian_1d, closed_form_weight(gaussian_1d), cells=200)
        state = perturbed_initial_state(solver, "tanh", eps=0.2)
        m0 = state.mass
        for _ in range(5):
            state = solver.step(state, 0.01)
            assert abs(state.mass - m0) < 1e-12 * m0


def banded_step(solver, state, dt):
    """Implicit Euler values by a banded solve of (D - dt A) F = D F_old."""
    c = solver.face_coeff
    ab = np.zeros((3, len(solver.grid.edges) - 1))
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
        solver = build_solver(d, closed_form_weight(d), cells=300)
        state = perturbed_initial_state(solver, "shell", eps=0.2)
        # a new step size refactors; returning to the first one does too
        for dt in (1e-3, 0.05, 1e-3):
            got = solver.step(state, dt).values
            ref = banded_step(solver, state, dt)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestFunctionals:
    def test_equilibrium_gives_zero(self, gaussian_1d):
        solver = build_solver(gaussian_1d, closed_form_weight(gaussian_1d), cells=128)
        state = steady_state(solver)
        for kind in ("chi2", "entropy", "hellinger2"):
            assert abs(solver.theta(state, kind)) < 1e-14
        for kind in ("chi2", "entropy"):
            assert abs(solver.dissipation(state, kind)) < 1e-14

    def test_two_level_split_gives_eps_squared(self, gaussian_1d):
        solver = build_solver(gaussian_1d, closed_form_weight(gaussian_1d), cells=400)
        state = steady_state(solver)
        masses = state.values * solver.grid.cell_volumes
        cum = np.cumsum(masses) / masses.sum()
        k = int(np.searchsorted(cum, 0.5))
        eps = 0.07
        vals = state.values.copy()
        vals[:k + 1] *= 1.0 + eps
        vals[k + 1:] *= 1.0 - eps
        split = FPState(solver.grid, vals, 0.0)
        chi2 = solver.theta(split, "chi2")
        assert abs(chi2 - eps ** 2 * state.mass) < 1e-12

    def test_entropy_requires_positive_quotient(self, gaussian_1d):
        solver = build_solver(gaussian_1d, closed_form_weight(gaussian_1d), cells=64)
        state = steady_state(solver)
        vals = state.values.copy()
        vals[3] = 0.0
        broken = FPState(solver.grid, vals, 0.0)
        with pytest.raises(SolverError, match="F > 0"):
            solver.theta(broken, "entropy")


def per_state_trace(solver, state, t_final, dt):
    """Every state the march samples at each step, and each one's functionals
    by the one-state methods, in DecayTrace column order."""
    rows = []
    for k in range(int(round(t_final / dt)) + 1):
        if k:
            state = solver.step(state, dt)
        rows.append((state.t, solver.theta(state, "chi2"), solver.theta(state, "entropy"),
                     solver.theta(state, "hellinger2"), solver.dissipation(state, "chi2"),
                     solver.dissipation(state, "entropy"), state.mass,
                     solver.l1_distance(state)))
    return [np.array(column) for column in zip(*rows)]


class TestSampling:
    # a half-line solver and an n = 3 radial one, sampled at every step
    @pytest.mark.parametrize("spec", ["inverse_gamma:mu=2,n=1", "cauchy:beta=4,n=3"])
    def test_trace_is_the_per_state_values(self, spec):
        d = parse_density_spec(spec)
        solver = build_solver(d, closed_form_weight(d), cells=400)
        state = perturbed_initial_state(solver, "cosine", eps=0.1)
        trace = solver.evolve(state, 0.5, 5e-3, sample_every=5e-3)
        assert len(trace) == 101
        columns = (trace.times, trace.theta_chi2, trace.theta_entropy, trace.hellinger2,
                   trace.dissipation_chi2, trace.dissipation_entropy, trace.mass,
                   trace.l1_dist)
        for got, want in zip(columns, per_state_trace(solver, state, 0.5, 5e-3)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    # a negative cell would make the first step raise "negative density" if
    # the entropy were not taken before it
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_quotient_still_raises(self, value, gaussian_1d):
        solver = build_solver(gaussian_1d, closed_form_weight(gaussian_1d), cells=64)
        vals = steady_state(solver).values.copy()
        vals[3] = value
        with pytest.raises(SolverError,
                           match=r"^entropy functional requires F > 0 on the grid$"):
            solver.evolve(FPState(solver.grid, vals, 0.0), 1.0, 1e-2)


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
        b = dissipation_entropy_sqrt_form(solver, state)
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
        solver = build_solver(gaussian_1d, closed_form_weight(gaussian_1d), cells=128)
        for name in ("cosine", "tanh", "shell", "ramp"):
            state = perturbed_initial_state(solver, name, eps=0.2)
            F = solver.quotient(state)
            assert np.all(F >= 0.8 - 1e-12) and np.all(F <= 1.2 + 1e-12)
            assert abs(state.mass - steady_state(solver).mass) < 1e-12

    def test_eps_guard(self, gaussian_1d):
        solver = build_solver(gaussian_1d, closed_form_weight(gaussian_1d), cells=64)
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
