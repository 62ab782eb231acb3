import math

import numpy as np
import pytest

from isofp.densities import (
    make_density,
    radial_marginal,
    sin_power_density,
    uniform_angle_density,
    closed_form_weight,
)
from isofp.weights import (
    WeightError,
    WeightFunction,
    angular_weight,
    bisect,
    composite_Wstar,
    critical_tail_radius,
    gamma_radial_weight,
    optimal_barenblatt_weight,
    optimal_cauchy_weight,
    p_weight_1d,
    p_weight_function,
    steady_state_residual,
    weight_from_density,
)

from oracles import (Integrator, PQPair, barenblatt_pq, cauchy_pq, integrate_interval,
                     maximize_family_constant, std_normal_1d, w_from_pq)


class TestKokWeight:
    def test_gaussian_is_constant_sigma(self):
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        for rho in (0.1, 0.7, 2.0):
            assert abs(weight_from_density(d, rho) - 1.0) < 1e-8
        d25 = make_density("gaussian", {"sigma": 2.5}, 4)
        assert abs(weight_from_density(d25, 1.3) - 2.5) < 1e-8

    def test_exponential(self):
        d = make_density("exponential_type", {"beta": 1.0}, 2)
        assert abs(weight_from_density(d, 2.0) - 3.0) < 1e-10

    def test_barenblatt(self):
        d = make_density("barenblatt", {"a": 1.0, "p": 3.0}, 2)
        assert abs(weight_from_density(d, 0.5) - 0.25) < 1e-10

    def test_cauchy_integral_value(self):
        # the integral formula evaluates to (1 + rho^2) / (2 (beta - 1));
        # the factor 2 in the denominator comes straight out of the
        # antiderivative and is confirmed by the steady-state identity
        d = make_density("cauchy_type", {"beta": 3.0}, 2)
        assert abs(weight_from_density(d, 1.0) - 0.5) < 1e-10

    def test_boundary_rejected(self):
        d = make_density("barenblatt", {"a": 1.0, "p": 2.0}, 2)
        with pytest.raises(WeightError):
            weight_from_density(d, 1.0)
        with pytest.raises(WeightError):
            weight_from_density(d, 1.2)

    @pytest.mark.parametrize("kind,params,n", [
        ("gaussian", {"sigma": 1.0}, 2),
        ("cauchy_type", {"beta": 3.0}, 2),
        ("exponential_type", {"beta": 2.0}, 3),
        ("barenblatt", {"a": 1.0, "p": 2.0}, 2),
    ])
    def test_matches_closed_form_on_grid(self, kind, params, n):
        d = make_density(kind, params, n)
        K_cf = closed_form_weight(d)
        hi = d.support_radius if np.isfinite(d.support_radius) else 5.0
        for rho in np.linspace(0.02 * hi, 0.98 * hi, 9):
            kq = weight_from_density(d, float(rho))
            kc = float(K_cf(rho))
            assert abs(kq - kc) / kc < 1e-6

    # the rho grid of `isofp weights` with its default 50 points
    WEIGHTS_GRID = np.linspace(6.0 * 0.01, 6.0 * 0.99, 50)

    @pytest.mark.parametrize("beta", [1.3, 1.5])
    def test_heavy_cauchy_tail_matches_closed_form(self, beta):
        # the tail s (1 + s^2)^-beta decays slowly; below beta = 1.3 the
        # fixed rule no longer resolves it to 1e-6
        d = make_density("cauchy_type", {"beta": beta}, 2)
        rho = self.WEIGHTS_GRID
        got = weight_from_density(d, rho)
        assert np.max(np.abs(got / closed_form_weight(d)(rho) - 1.0)) < 1e-6

    def test_inverse_gamma_is_the_P_weight_about_one(self):
        d = make_density("inverse_gamma_1d", {"mu": 2.0}, 1)
        f = radial_marginal(d).as_density1d()
        rho = self.WEIGHTS_GRID
        assert np.array_equal(weight_from_density(d, rho), p_weight_1d(f, 1.0, rho))
        assert weight_from_density(d, 1.3) == p_weight_1d(f, 1.0, 1.3)

    def test_quadrature_weight_satisfies_steady_state(self):
        d = make_density("cauchy_type", {"beta": 4.0}, 3)
        K = WeightFunction(lambda r: weight_from_density(d, r))
        rho = np.linspace(0.3, 4.0, 25)
        res = steady_state_residual(d, K, rho)
        scale = np.max(np.abs(rho * d.eval(rho)))
        assert np.max(np.abs(res)) < 1e-5 * scale


class TestPWeight1D:
    def test_std_normal_gives_one(self):
        f = std_normal_1d()
        for x in (-1.2, 0.0, 0.3, 2.0):
            assert abs(p_weight_1d(f, 0.0, x) - 1.0) < 1e-10

    def test_azimuthal_formula(self):
        f = uniform_angle_density()
        for th in (0.5, 2.0, math.pi, 5.0):
            assert abs(p_weight_1d(f, math.pi, th)
                       - (math.pi * th - th * th / 2.0)) < 1e-10

    def test_polar_value_and_bound(self):
        f = sin_power_density(1)
        val = p_weight_1d(f, math.pi / 2.0, math.pi / 2.0)
        assert abs(val - (math.pi / 2.0 - 1.0)) < 1e-10
        assert val <= math.pi ** 2 / 8.0

    def test_branches_agree_at_mean(self):
        f = std_normal_1d()
        left = p_weight_1d(f, 0.0, -1e-9)
        right = p_weight_1d(f, 0.0, +1e-9)
        assert abs(left - right) < 1e-7

    def test_inverse_gamma_quadratic(self):
        d = make_density("inverse_gamma_1d", {"mu": 2.0}, 1)
        f = radial_marginal(d).as_density1d()
        for x in (0.4, 1.0, 3.5):
            assert abs(p_weight_1d(f, 1.0, x) - x * x / 2.0) < 1e-8

    def test_outside_support_rejected(self):
        f = uniform_angle_density()
        with pytest.raises(WeightError):
            p_weight_1d(f, math.pi, 7.0)

    def test_divergent_mean_names_the_hypothesis(self):
        # the radial marginal of cauchy beta = 1.9 in n = 3 has no first moment
        f = radial_marginal(make_density("cauchy_type", {"beta": 1.9}, 3)).as_density1d()
        with pytest.raises(WeightError, match="finite mean"):
            p_weight_function(f)
        with pytest.raises(WeightError, match="finite mean"):
            p_weight_1d(f, None, 1.0)


ORACLE = Integrator(rel_tol=1e-13, abs_tol=0.0, max_subdivisions=500)


def quadpack_P(f, m, x):
    """P(x) one point at a time by adaptive quadrature, branch by branch."""
    a, b = f.support
    if x <= m:
        val, _ = integrate_interval(lambda y: (m - y) * float(f(y)), a, x, ORACLE)
    else:
        val, _ = integrate_interval(lambda y: (y - m) * float(f(y)), x, b, ORACLE)
    return val / float(f(x))


def quadpack_K(d, rho):
    """K(rho) one radius at a time by adaptive quadrature in y = rho^2."""
    g = lambda y: float(d.eval(math.sqrt(y)))
    val, _ = integrate_interval(g, rho * rho, d.support_radius ** 2, ORACLE)
    return val / (2.0 * float(d.eval(rho)))


def _marginal(kind, params, n):
    return radial_marginal(make_density(kind, params, n)).as_density1d()


# (density, mean, points): +-1e-9 around the mean, deep tails, unsorted, and
# a duplicate of the first point
P_CASES = {
    "std_normal": (std_normal_1d, 0.0, [0.3, -8.0, -1e-9, 1e-9, 0.0, 6.5, -2.0, 8.5, 0.3]),
    "sin1": (lambda: sin_power_density(1), math.pi / 2,
             [2.5, 1e-4, math.pi / 2 - 1e-9, math.pi / 2 + 1e-9, math.pi - 1e-4, 0.1, 2.5]),
    "sin2": (lambda: sin_power_density(2), math.pi / 2,
             [1.0, 1e-3, math.pi / 2, math.pi / 2 + 1e-9, math.pi - 1e-3, 1.0]),
    "gaussian_n3": (lambda: _marginal("gaussian", {"sigma": 1.0}, 3), None,
                    [0.5, 1e-3, 8.0, 3.0, 10.0, 0.05, 0.5]),
    "exponential_n2": (lambda: _marginal("exponential_type", {"beta": 1.0}, 2), None,
                       [2.5, 1e-3, 60.0, 0.5, 30.0, 2.5]),
    "inverse_gamma": (lambda: _marginal("inverse_gamma_1d", {"mu": 2.0}, 1), 1.0,
                      [3.0, 0.02, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1e3, 0.2, 3.0]),
}


class TestTabulatedWeights:
    """P and K for a whole array in one fixed-rule pass, against adaptive
    quadrature one point at a time."""

    @pytest.mark.parametrize("case", sorted(P_CASES))
    def test_P_matches_adaptive_oracle(self, case):
        make, m, xs = P_CASES[case]
        f = make()
        m = f.mean if m is None else m
        xs = np.array(xs)
        got = p_weight_1d(f, m, xs)
        ref = np.array([quadpack_P(f, m, x) for x in xs])
        assert got.shape == xs.shape
        assert np.max(np.abs(got - ref) / ref) < 1e-10
        assert got[0] == got[-1]  # a duplicate gets the same value
        # a scalar gives a float; alone it gets its own rule
        one = p_weight_1d(f, m, float(xs[0]))
        assert isinstance(one, float) and abs(one - ref[0]) < 1e-10 * ref[0]

    def test_inverse_gamma_closed_form(self):
        mu = 2.0
        f = _marginal("inverse_gamma_1d", {"mu": mu}, 1)
        x = np.array(P_CASES["inverse_gamma"][2])
        assert np.max(np.abs(p_weight_1d(f, 1.0, x) / (x * x / mu) - 1.0)) < 1e-10

    def test_branches_meet_at_mean(self):
        for make, m, _ in P_CASES.values():
            f = make()
            m = f.mean if m is None else m
            left, right = p_weight_1d(f, m, np.array([m - 1e-9, m + 1e-9]))
            assert abs(left - right) < 1e-8 * abs(right)

    @pytest.mark.parametrize("kind,params,n", [
        ("gaussian", {"sigma": 1.0}, 3),
        ("exponential_type", {"beta": 1.0}, 2),
        ("cauchy_type", {"beta": 3.0}, 2),
        ("barenblatt", {"a": 1.0, "p": 3.0}, 2),
    ])
    def test_K_matches_adaptive_oracle(self, kind, params, n):
        d = make_density(kind, params, n)
        hi = d.support_radius if np.isfinite(d.support_radius) else 8.0
        rho = np.array([0.5 * hi, 0.0, 0.999 * hi, 1e-3, 0.25 * hi, 0.5 * hi])
        got = weight_from_density(d, rho)
        ref = np.array([quadpack_K(d, r) for r in rho])
        assert np.max(np.abs(got - ref) / ref) < 1e-10
        assert got[0] == got[-1]
        one = weight_from_density(d, float(rho[0]))
        assert isinstance(one, float) and abs(one - ref[0]) < 1e-10 * ref[0]


class TestGammaRadialWeight:
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_is_the_P_weight_of_the_marginal(self, beta, n):
        # the radial marginal of exp(-beta rho) is Gamma(n, rate beta), whose
        # P weight is rho / beta
        f = _marginal("exponential_type", {"beta": beta}, n)
        rho = np.array([0.05, 0.5, 1.0, 2.0, 5.0, 10.0]) / beta
        got = gamma_radial_weight(beta)(rho)
        ref = p_weight_1d(f, None, rho)
        assert np.max(np.abs(got - ref) / ref) < 1e-12


class TestPQFamily:
    def test_linear_drift_returns_p(self):
        # Q(x) = x - m implies Q' = 1 and w = P
        pq = PQPair(P=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                    Q=lambda x: np.asarray(x, dtype=float),
                    domain=(-math.inf, math.inf), Qprime=lambda x: np.ones_like(
                        np.asarray(x, dtype=float)), name="ou")
        w = w_from_pq(pq)
        assert abs(w(1.7) - 1.0) < 1e-14

    def test_cauchy_pair_respects_bound(self):
        beta, n, alpha = 3.0, 2, 1.0
        w = w_from_pq(cauchy_pq(beta, n, alpha))
        grid = np.linspace(0.05, 20.0, 200)
        bound = (1.0 + grid ** 2) / ((2 * alpha - 1)
                                     * (2 * (beta - alpha) - (n - 1)))
        assert np.all(w(grid) <= bound * (1.0 + 1e-12))

    def test_barenblatt_pair_respects_bound(self):
        a, p, n, alpha = 1.0, 2.0, 2, 1.0
        beta = 1.0 / (p - 1.0)
        w = w_from_pq(barenblatt_pq(a, p, n, alpha))
        grid = np.linspace(0.02, 0.98, 150)
        bound = (a ** 2 - grid ** 2) / (2 * (2 * alpha - 1)
                                        * (alpha + beta + n - 1))
        assert np.all(w(grid) <= bound * (1.0 + 1e-12))

    def test_analytic_qprime_matches_difference(self):
        pq = cauchy_pq(4.0, 3, 0.8)
        grid = np.linspace(0.3, 5.0, 30)
        fd = PQPair(pq.P, pq.Q, pq.domain, Qprime=None).qprime(grid)
        assert np.max(np.abs(fd - pq.qprime(grid)) / np.abs(fd)) < 1e-8

    def test_nonpositive_qprime_rejected(self):
        bad = PQPair(P=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                     Q=lambda x: -np.asarray(x, dtype=float),
                     domain=(-math.inf, math.inf),
                     Qprime=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
                     name="bad")
        with pytest.raises(WeightError, match="Q' <= 0"):
            w_from_pq(bad)

    def test_boundary_sign_rejected(self):
        # drift positive at the lower end violates the inflow condition
        bad = PQPair(P=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                     Q=lambda x: np.asarray(x, dtype=float) + 10.0,
                     domain=(0.0, 1.0),
                     Qprime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                     name="bad_signs")
        with pytest.raises(WeightError, match="boundary signs"):
            w_from_pq(bad)

    def test_alpha_out_of_range(self):
        with pytest.raises(WeightError):
            cauchy_pq(3.0, 2, 0.5)
        with pytest.raises(WeightError):
            barenblatt_pq(1.0, 2.0, 2, 1.2)


class TestOptimalWeights:
    def test_cauchy_first_branch(self):
        w = optimal_cauchy_weight(1.8, 2)
        assert abs(w(1.0) - 2.0 / 0.8 ** 2) < 1e-12

    def test_cauchy_second_branch(self):
        w = optimal_cauchy_weight(4.0, 3)
        assert abs(w(1.0) - 2.0 / 4.0) < 1e-12

    def test_cauchy_junction_continuity(self):
        n = 2
        beta = n / 2.0 + 1.0
        w = optimal_cauchy_weight(beta, n)
        assert abs(w(0.0) - 1.0) < 1e-12
        below = optimal_cauchy_weight(beta - 1e-9, n)
        assert abs(below(0.0) - w(0.0)) < 1e-7

    def test_cauchy_requires_large_beta(self):
        with pytest.raises(WeightError):
            optimal_cauchy_weight(1.5, 2)

    def test_barenblatt_values(self):
        w = optimal_barenblatt_weight(2.0, 1, 1.0)
        assert abs(w(0.0) - 0.25) < 1e-14
        assert abs(w(1.0)) < 1e-14  # vanishes at the support boundary
        w2 = optimal_barenblatt_weight(3.0, 2, 1.0)
        assert abs(w2(0.0) - 0.2) < 1e-14

    def test_barenblatt_rejects_bad_params(self):
        with pytest.raises(WeightError):
            optimal_barenblatt_weight(1.0, 2, 1.0)
        with pytest.raises(WeightError):
            optimal_barenblatt_weight(2.0, 2, -1.0)

    @pytest.mark.parametrize("beta,n", [(1.8, 2), (2.0, 2), (2.3, 3),
                                        (4.0, 3), (6.5, 4)])
    def test_numeric_optimizer_matches_cauchy_branches(self, beta, n):
        beta_star = beta - (n - 1) / 2.0
        h = lambda a: (2.0 * a - 1.0) * (beta_star - a)
        alpha_num, h_num = maximize_family_constant(h)
        w = optimal_cauchy_weight(beta, n)
        assert abs(1.0 / (2.0 * h_num) - w(0.0)) < 1e-10
        assert 0.5 < alpha_num <= 1.0

    @pytest.mark.parametrize("p,n", [(2.0, 1), (3.0, 2), (1.5, 3)])
    def test_numeric_optimizer_matches_barenblatt(self, p, n):
        beta = 1.0 / (p - 1.0)
        h = lambda a: (2.0 * a - 1.0) * (a + beta + n - 1.0)
        alpha_num, h_num = maximize_family_constant(h)
        assert abs(2.0 * h_num - 2.0 * (n + beta)) < 1e-10
        assert alpha_num == 1.0


class TestAngularWeights:
    def test_azimuthal_exact_and_max(self):
        assert abs(angular_weight(2, 3, math.pi) - math.pi ** 2 / 2.0) < 1e-14
        th = np.linspace(1e-6, 2 * math.pi - 1e-6, 500)
        vals = angular_weight(2, 3, th)
        assert np.max(vals) <= math.pi ** 2 / 2.0 + 1e-12

    @pytest.mark.parametrize("i,n", [(1, 3), (1, 4), (2, 4)])
    def test_polar_bound(self, i, n):
        th = np.linspace(1e-3, math.pi - 1e-3, 120)
        vals = angular_weight(i, n, th)
        assert np.max(vals) <= math.pi ** 2 / 8.0 + 1e-9
        assert np.all(vals > 0.0)

    def test_polar_finite_limit_at_zero(self):
        vals = angular_weight(1, 3, np.array([1e-4, 1e-3, 1e-2]))
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        # P_1(0+) = lim int_0^t (pi/2 - s) s ds / t = 0 with slope pi/2
        assert vals[0] < 1e-3

    def test_range_validation(self):
        with pytest.raises(WeightError):
            angular_weight(1, 3, 3.5)
        with pytest.raises(WeightError):
            angular_weight(2, 3, 6.5)
        with pytest.raises(WeightError):
            angular_weight(3, 3, 1.0)


class TestCompositeWstar:
    def test_exponential_crossover(self):
        beta = 1.0
        d = make_density("exponential_type", {"beta": beta}, 2)
        w = composite_Wstar(d, gamma_radial_weight(beta))
        crossover = 2.0 / (beta * math.pi ** 2)
        assert any(abs(b - crossover) < 1e-10 for b in w.breakpoints)
        below = 0.5 * crossover
        above = 2.0 * crossover
        assert abs(w(below) - below / beta) < 1e-14
        assert abs(w(above) - math.pi ** 2 / 2.0 * above ** 2) < 1e-12

    @pytest.mark.parametrize("spec", ["exponential:beta=1,n=2", "cauchy:beta=3,n=2",
                                      "barenblatt:a=1,p=2,n=2", "gaussian:sigma=1,n=3"])
    def test_kinks_follow_the_sign_change(self, spec):
        # each kink is the first float at which w - pi^2 rho^2 / 2 has the
        # sign of the far side of its change
        from isofp.cli import marginal_weight
        from isofp.densities import parse_density_spec

        d = parse_density_spec(spec)
        w0 = marginal_weight(d)
        kinks = composite_Wstar(d, w0).breakpoints
        assert kinks
        for k in kinks:
            before = math.nextafter(k, 0.0)
            diff = [float(w0(r)) - math.pi ** 2 / 2.0 * r * r for r in (before, k)]
            assert diff[1] != 0.0 and np.sign(diff[0]) != np.sign(diff[1])

    def test_cauchy_envelope(self):
        # the pointwise max is dominated by the clean multiple of (1+rho^2)
        # quoted as the Cauchy conclusion, and matches it asymptotically
        beta, n = 4.0, 3
        d = make_density("cauchy_type", {"beta": beta}, n)
        w0 = optimal_cauchy_weight(beta, n)
        w = composite_Wstar(d, w0)
        coef = max(float(w0(0.0)), math.pi ** 2 / 2.0)
        rho = np.array([0.0, 0.5, 2.0, 7.0, 50.0])
        envelope = coef * (1.0 + rho ** 2)
        assert np.all(w(rho) <= envelope * (1.0 + 1e-12))
        assert w(1e4) / (coef * (1.0 + 1e8)) > 1.0 - 1e-6

    def test_value_at_origin(self):
        d = make_density("gaussian", {"sigma": 1.0}, 2)
        w0 = WeightFunction(lambda r: np.full_like(np.asarray(r, dtype=float), 1.0))
        w = composite_Wstar(d, w0)
        assert w(0.0) == 1.0


def scalar_scan_radius(d, K, scan=4000):
    """R by the scan of one scalar K call per point, with the same bracket
    and root finder as :func:`critical_tail_radius`."""
    from isofp.weights import _numeric_support

    def g(r):
        return (d.n - 1) * float(K(r)) / r ** 2 - 0.5

    r_hi = min(_numeric_support(d) * 0.98, 1e6)
    a = d.support_radius
    if np.isfinite(a):
        rs = np.linspace(a * 1e-4, min(r_hi, a * (1.0 - 1e-9)), scan)
    else:
        rs = np.geomspace(1e-4, r_hi, scan)
    pos = np.nonzero(np.array([g(r) for r in rs]) > 0.0)[0]
    if len(pos) == 0:
        return 0.0
    return bisect(lambda r: g(r) <= 0.0, rs[pos[-1]], rs[pos[-1] + 1])[1]


class TestBisect:
    @pytest.mark.parametrize("holds,lo,hi", [
        (lambda x: x * x >= 2.0, 1.0, 2.0),
        (lambda x: math.exp(-x) <= 1e-12, np.float64(1.0), np.float64(64.0)),
        (lambda x: x >= 1e-300, 0.0, 1.0),
        (lambda x: x > -0.3, -1.0, 0.5),
    ])
    def test_brackets_the_change_between_adjacent_floats(self, holds, lo, hi):
        lo, hi = bisect(holds, lo, hi)
        assert type(lo) is float and type(hi) is float
        assert math.nextafter(lo, math.inf) == hi
        assert not holds(lo) and holds(hi)

    def test_ends_are_not_tested(self):
        seen = []

        def holds(x):
            seen.append(x)
            return x >= 0.75

        lo, hi = bisect(holds, 0.0, 1.0)
        assert 0.0 not in seen and 1.0 not in seen
        assert (lo, hi) == (math.nextafter(0.75, 0.0), 0.75)


class TestCriticalRadius:
    @pytest.mark.parametrize("kind,params,n", [
        ("gaussian", {"sigma": 1.0}, 2),
        ("gaussian", {"sigma": 1.0}, 3),
        ("gaussian", {"sigma": 2.5}, 4),
        ("cauchy_type", {"beta": 3.0}, 2),
        ("cauchy_type", {"beta": 4.0}, 3),
        ("cauchy_type", {"beta": 5.0}, 4),
        ("exponential_type", {"beta": 1.0}, 2),
        ("exponential_type", {"beta": 2.0}, 3),
        ("barenblatt", {"a": 1.0, "p": 2.0}, 2),
    ])
    def test_same_radius_as_scalar_scan(self, kind, params, n):
        # the scan takes K on all points at once; R is the same float
        d = make_density(kind, params, n)
        K = closed_form_weight(d)
        assert critical_tail_radius(d, K) == scalar_scan_radius(d, K)

    def test_gaussian_algebraic(self):
        # (n-1) sigma / r^2 = 1/2 at r = sqrt(2 (n-1) sigma) = 2, which the
        # float condition meets exactly
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        assert critical_tail_radius(d, closed_form_weight(d)) == 2.0

    def test_dimension_one_vacuous(self):
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        assert critical_tail_radius(d, closed_form_weight(d)) == 0.0

    def test_exponential_quadratic_root(self):
        d = make_density("exponential_type", {"beta": 1.0}, 2)
        R = critical_tail_radius(d, closed_form_weight(d))
        # (1 + r) / r^2 = 1/2 at r = 1 + sqrt(3)
        assert abs(R - (1.0 + math.sqrt(3.0))) <= math.ulp(R)

    def test_unsatisfiable_raises(self):
        d = make_density("cauchy_type", {"beta": 2.0}, 2)
        with pytest.raises(WeightError, match="never satisfied"):
            critical_tail_radius(d, closed_form_weight(d))

    def test_tail_condition_holds_beyond_radius(self):
        d = make_density("cauchy_type", {"beta": 4.0}, 3)
        K = closed_form_weight(d)
        R = critical_tail_radius(d, K)
        # (1 + r^2) / (3 r^2) = 1/2 at r = sqrt(2)
        assert abs(R - math.sqrt(2.0)) <= math.ulp(R)
        r = np.linspace(R, 50.0, 1000)
        assert np.all((d.n - 1) * K(r) / r ** 2 <= 0.5 + 1e-12)
