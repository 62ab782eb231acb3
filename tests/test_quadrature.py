import math
import random
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import ive

from isofp.cli import DEFAULT_CONFIG
from isofp.corpus import (
    Fn1D,
    GaussianMixture,
    PolarMember,
    _bump,
    _bump_deriv,
    corpus_anisotropic,
    corpus_nd,
    corpus_outside_ball,
)
from isofp.densities import (closed_form_weight, make_density, parse_density_spec,
                             radial_marginal)
from isofp.fpsolver import TruncationError, _truncation_radius
import isofp.inequality as inequality
import isofp.quadrature as quadrature
from isofp.inequality import (
    check_gaussian_anisotropic,
    check_hybrid,
    check_isotropic_Wstar,
    check_refined_outside_ball,
)
from isofp.quadrature import (
    ANGULAR_AZIMUTHAL_BOUND,
    ANGULAR_POLAR_BOUND,
    HypersphericalGrid,
    QuadratureError,
    TestFunction,
    build_grid,
    grid_moments,
    interval_rule,
    sphere_dirichlet,
)
from isofp.weights import (
    WeightFunction,
    composite_Wstar,
    critical_tail_radius,
    hybrid_weight,
    optimal_cauchy_weight,
)
from oracles import (Integrator, integrate_interval, linear_members,
                     mixture_angular_two_pass, node_moments, pointwise, sphere_walk)


def const_weight(c, hi=math.inf):
    return WeightFunction(lambda r: np.full_like(np.asarray(r, dtype=float), c))


def grid_variance(d, phi, grid=None):
    grid = grid or build_grid(d, [phi])
    return grid_moments(grid, phi).variance


def grid_dirichlet(d, w, phi, grid=None):
    """E[w(|X|) |grad phi|^2] on a grid split at the knots of phi and w."""
    grid = grid or build_grid(d, [phi], extra_breakpoints=w.breakpoints)
    return grid_moments(grid, phi, [grid.radial_values(w)]).dirichlet[0]


def grid_split(d, phi, w, grid=None):
    """Radial part and bound-weighted angular part of the product
    decomposition."""
    grid = grid or build_grid(d, [phi])
    m = grid_moments(grid, phi, split_weight=grid.radial_values(w))
    bounds = [ANGULAR_POLAR_BOUND] * (d.n - 2) + [ANGULAR_AZIMUTHAL_BOUND]
    return m.radial, float(np.dot(bounds, m.angular))


class TestIntegrateInterval:
    def test_exponential_tail(self):
        val, err = integrate_interval(lambda y: math.exp(-y), 0.0, math.inf)
        assert abs(val - 1.0) < 1e-12
        assert err <= max(1e-10 * abs(val), 1e-13)

    def test_sine(self):
        val, _ = integrate_interval(math.sin, 0.0, math.pi)
        assert abs(val - 2.0) < 1e-12

    def test_algebraic_endpoint(self):
        # Barenblatt-type endpoint behaviour
        val, _ = integrate_interval(lambda y: math.sqrt(1.0 - y), 0.0, 1.0)
        assert abs(val - 2.0 / 3.0) < 1e-12

    def test_full_line(self):
        val, _ = integrate_interval(lambda x: math.exp(-x * x / 2.0),
                                    -math.inf, math.inf)
        assert abs(val - math.sqrt(2.0 * math.pi)) < 1e-10

    def test_budget_exhaustion_carries_estimate(self):
        integrator = Integrator(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=3)
        with pytest.raises(QuadratureError) as exc:
            integrate_interval(lambda x: math.sin(50.0 / (x + 0.01)), 0.0, 1.0,
                               integrator)
        assert np.isfinite(exc.value.value)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_interval(math.sin, 1.0, 1.0)

    def test_breakpoints_restore_accuracy(self):
        kink = lambda x: abs(x - 0.3) ** 1.5
        exact = (0.3 ** 2.5 + 0.7 ** 2.5) / 2.5
        val, _ = integrate_interval(kink, 0.0, 1.0, breakpoints=(0.3,))
        assert abs(val - exact) < 1e-12


# scipy's QUADPACK messages, by the flag (ier) of dqagse they report
QUADPACK_MESSAGES = (("maximum number of subdivisions", 1), ("occurrence of roundoff", 2),
                     ("Extremely bad integrand", 3), ("extrapolation table", 4),
                     ("probably divergent", 5))


def scipy_qagse(f, a, b, epsabs, epsrel, limit):
    """scipy's ``quad`` on the arguments of ``quadrature._qagse``, as its
    (value, abserr, last, ier); ``f`` takes arrays, and quad's points go in
    one at a time."""
    out = quad(lambda x: f(np.array([x]))[0], a, b, epsabs=epsabs, epsrel=epsrel,
               limit=limit, full_output=1)
    ier = 0 if len(out) == 3 else next(i for key, i in QUADPACK_MESSAGES if key in out[3])
    return out[0], out[1], out[2]["last"], ier


def seeded_integrands(seed, count):
    """(name, f) on (0, 1), f taking arrays: endpoint power and log
    singularities, interior peaks, jumps and poles, oscillation, divergence
    and noise; seeds 0 and 2 together reach every flag, the cut of the
    epsilon table and each roundoff count."""
    rng = random.Random(seed)
    for _ in range(count):
        p, c, w = rng.uniform(-0.95, 0.5), rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-4, -1)
        yield from [
            ("power", lambda x, p=p: x ** p),
            ("log", lambda x, p=p: (-np.log(x)) ** (1.0 - 3.0 * p) * x ** (0.5 * p)),
            ("peak", lambda x, c=c, w=w: w / ((x - c) ** 2 + w * w)),
            ("jump", lambda x, c=c: np.where(x < c, 1.0, -2.0 * x)),
            ("oscillation", lambda x, w=w: np.cos(x / w) / np.sqrt(x)),
            ("pole", lambda x, c=c: 1.0 / np.maximum(abs(x - c), 1e-300)),
            ("divergent", lambda x, p=p: x ** (-1.25 + 0.2 * p)),
            # near x^-1: long extrapolation tables, past QUADPACK's 50 entries
            ("log-edge", lambda x, p=p: (-np.log(x)) ** (3.0 + p) * x ** -0.95),
            # noise of size 1e-9 that differs at every float, so no bisection
            # resolves it
            ("noise", lambda x, p=p: x ** p + 1e-9 * (
                np.array([hash(v) for v in x.tolist()]) % 1009 / 1009.0 - 0.5)),
        ]


class TestQuadpackPort:
    """The package's dqagse returns scipy's value, error estimate,
    subinterval count and flag bit for bit."""

    def test_seeded_family_reaches_every_flag(self, monkeypatch):
        extrapolations = [0]
        qelg = quadrature._qelg

        def count(*args):
            extrapolations[0] += 1
            return qelg(*args)

        monkeypatch.setattr(quadrature, "_qelg", count)
        flags = set()
        for limit in (5, 50, 200):
            for name, f in [*seeded_integrands(0, 6), *seeded_integrands(2, 6)]:
                # the package's tolerances, and a relative one below QUADPACK's
                # roundoff level 100 eps, which flags a smooth integrand at once
                for epsabs, epsrel in ((1e-13, 1e-10), (1e-300, 1e-14)):
                    want = scipy_qagse(f, 0.0, 1.0, epsabs, epsrel, limit)
                    assert quadrature._qagse(f, 0.0, 1.0, epsabs, epsrel, limit) == want, (
                        name, limit, epsrel)
                    flags.add(want[3])
        assert flags == {0, 1, 2, 3, 4, 5}
        assert extrapolations[0] > 1000

    # the evolved densities of the default run and line-relax, the tails CI
    # ends as too heavy, and the dimensions whose mass density turns to log space
    @pytest.mark.parametrize("spec", sorted(
        {*DEFAULT_CONFIG["evolve_densities"], "gaussian:sigma=1,n=1", "cauchy:beta=4,n=1",
         "inverse_gamma:mu=2,n=1", "cauchy:beta=4,n=3", "cauchy:beta=1.6,n=2",
         "inverse_gamma:mu=0.5,n=1", "cauchy:beta=2.5,n=3"}
        | {f"gaussian:sigma=1,n={n}" for n in range(37, 41)}))
    def test_every_probe_tail_of_the_truncation_radius(self, spec, monkeypatch):
        calls = []
        qagse = quadrature._qagse

        def record(*args):
            calls.append((args, qagse(*args)))
            return calls[-1][1]

        monkeypatch.setattr(quadrature, "_qagse", record)
        try:
            _truncation_radius(parse_density_spec(spec))
        except TruncationError:
            pass
        assert len(calls) >= 5
        for args, got in calls:
            assert got == scipy_qagse(*args), args[1:]

    def test_failure_carries_the_best_estimate(self):
        # (1 + r)^-1.05 on (10, inf): flagged (no convergence of the
        # extrapolation) with an error estimate above 1e-10 relative
        g, lo = (lambda r: (1.0 + r) ** -1.05), 10.0

        def mapped(t):
            u = 1.0 - t
            return g(lo + t / u) / (u * u)

        value, err, _, ier = scipy_qagse(mapped, 0.0, 1.0, 1e-13, 1e-10, 200)
        assert ier == 4 and err > 1e-10 * value
        with pytest.raises(QuadratureError, match="the extrapolation does not converge") as exc:
            quadrature.integrate_interval(g, lo)
        assert (exc.value.value, exc.value.err_estimate) == (value, err)
        assert abs(value - 20.0 * 11.0 ** -0.05) <= err


class TestTruncationTail:
    """The package's one adaptive integral, a tail (lo, inf) with the default
    tolerances of the oracle integrator, which it matches float for float."""

    # tails of evolved densities at radii where a tolerance 10 times
    # tighter moves the float: epsrel at 2.0, epsabs at 37.5 and 1000.0
    @pytest.mark.parametrize("spec", ["cauchy:beta=4,n=1", "inverse_gamma:mu=2,n=1"])
    @pytest.mark.parametrize("lo", [0.0, 2.0, 37.5, 1000.0])
    def test_same_float_as_the_oracle(self, spec, lo):
        d = parse_density_spec(spec)

        def mass(r):
            return d.radial_weight(r) * d.eval(r)

        assert quadrature.integrate_interval(mass, lo) == integrate_interval(
            mass, lo, math.inf)

    @pytest.mark.parametrize("lo", [-math.inf, math.inf, math.nan])
    def test_takes_only_tails(self, lo):
        with pytest.raises(ValueError, match="takes a tail"):
            quadrature.integrate_interval(math.exp, lo)

    def test_takes_no_upper_limit(self):
        with pytest.raises(TypeError):
            quadrature.integrate_interval(math.exp, 0.0, math.inf)


class TestIntervalRule:
    def test_finite_polynomial_exact(self):
        x, w = interval_rule(0.0, 2.0, order=8, levels=4)
        assert abs(np.dot(w, x ** 7) - 2.0 ** 8 / 8.0) < 1e-12

    def test_semi_infinite_gaussian(self):
        x, w = interval_rule(0.0, math.inf, order=12, levels=20)
        assert abs(np.dot(w, np.exp(-x ** 2 / 2.0)) - math.sqrt(math.pi / 2.0)) < 1e-12

    @pytest.mark.parametrize("order", [8, 12, 20, 24])
    def test_gauss_legendre_cache_is_leggauss(self, order):
        cached = quadrature._leggauss(order)
        assert quadrature._leggauss(order) is cached
        for got, want in zip(cached, leggauss(order)):
            assert np.array_equal(got, want)
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0.0

    @pytest.mark.parametrize("halved", [False, True])
    def test_rule_is_the_uncached_rule(self, halved, monkeypatch):
        args = (0.5, math.inf, 12, 20, (1.0, 3.0), halved)
        cached = interval_rule(*args)
        monkeypatch.setattr(quadrature, "_leggauss", leggauss)
        for got, want in zip(cached, interval_rule(*args)):
            assert np.array_equal(got, want)


GRID_CASES = [
    ("gaussian", {"sigma": 1.0}, 1),
    ("gaussian", {"sigma": 2.5}, 3),
    ("cauchy_type", {"beta": 2.0}, 2),
    ("cauchy_type", {"beta": 4.0}, 3),
    ("exponential_type", {"beta": 1.0}, 2),
    ("barenblatt", {"a": 1.0, "p": 2.0}, 2),
    ("barenblatt", {"a": 1.0, "p": 3.0}, 3),
]


class TestHypersphericalGrid:
    @pytest.mark.parametrize("kind,params,n", GRID_CASES)
    def test_unit_mass(self, kind, params, n):
        d = make_density(kind, params, n)
        grid = HypersphericalGrid(d)
        assert abs(grid.mass - 1.0) < 1e-7

    def test_unit_mass_n4(self):
        d = make_density("gaussian", {"sigma": 1.0}, 4)
        grid = HypersphericalGrid(d)
        assert abs(grid.mass - 1.0) < 1e-7

    def test_rejects_a_density_without_unit_mass(self):
        # cauchy beta = 1.2 in n = 2 has a tail ~ rho^-1.4 that the radial
        # rule misses by 1.6e-4; renormalising r_weights would hide that
        d = make_density("cauchy_type", {"beta": 1.2}, 2)
        with pytest.raises(ValueError, match="within 1e-7"):
            HypersphericalGrid(d)

    def test_rejects_n5(self):
        d = make_density("gaussian", {"sigma": 1.0}, 5)
        with pytest.raises(ValueError):
            HypersphericalGrid(d)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_points_list_every_node(self, n):
        # the benchmark's tracer reads the node count as len(grid.points)
        grid = HypersphericalGrid(make_density("gaussian", {"sigma": 1.0}, n))
        assert len(grid.points) == len(grid.r_nodes) * len(grid.ang_weights)
        # radial index major: each row is its radius times its direction
        J, A = len(grid.r_nodes), len(grid.ang_weights)
        expect = grid.r_nodes[:, None, None] * grid.unit[None]
        assert np.array_equal(grid.points.reshape(J, A, n), expect)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_only_points_is_node_sized(self, n):
        # the node list is built on access; no stored array has J * A rows
        grid = HypersphericalGrid(make_density("cauchy_type", {"beta": 4.0}, n))
        J, A = len(grid.r_nodes), len(grid.ang_weights)
        arrays = {k: v for k, v in vars(grid).items() if isinstance(v, np.ndarray)}
        assert {"r_nodes", "r_weights", "unit", "ang_weights", "tangents"} <= set(arrays)
        assert [k for k, v in arrays.items() if J * A in v.shape] == []
        assert len(grid.points) == J * A and "points" not in vars(grid)
        assert len(grid.tangents) == n - 1


class TestGridMoments:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_size_does_not_matter(self, n, monkeypatch):
        # the polar kernel against the walk in many small blocks merged by
        # the pairwise update
        d = make_density("cauchy_type", {"beta": 3.0}, n)
        phi = radial_test_function(n)
        lin = linear_test_function(n)
        grid = build_grid(d, [phi])
        w = grid.radial_values(lambda r: 1.0 + r)
        ref = [grid_moments(grid, f, [w], split_weight=w) for f in (phi, lin)]
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 7 * len(grid.ang_weights))
        got = [node_moments(grid, pointwise(f), [w], split_weight=w) for f in (phi, lin)]
        for a, b in zip(ref, got):
            assert abs(a.variance - b.variance) <= 1e-13 * a.variance
            assert abs(a.dirichlet[0] - b.dirichlet[0]) <= 1e-13 * a.dirichlet[0]
            assert abs(a.radial - b.radial) <= 1e-13 * a.radial
            total = a.radial + sum(a.angular)
            for x, y in zip(a.angular, b.angular):
                assert abs(x - y) <= 1e-13 * total

    def test_member_without_a_kernel_is_refused(self):
        d = make_density("gaussian", {"sigma": 1.0}, 2)
        phi = pointwise(linear_test_function(2))
        grid = build_grid(d, [phi])
        for kernel in (lambda: grid_moments(grid, phi), lambda: sphere_dirichlet(grid, phi, 1.0)):
            with pytest.raises(TypeError, match="'linear' has neither polar nor mixture"):
                kernel()

    def test_without_split_weight(self):
        d = make_density("gaussian", {"sigma": 1.0}, 2)
        phi = linear_test_function(2)
        m = grid_moments(build_grid(d, [phi]), phi)
        assert m.dirichlet == () and math.isnan(m.radial) and m.angular == ()
        assert abs(m.variance - 1.0) < 1e-10

    def test_axis_weights(self):
        # phi = x_1 + 2 x_2: E[w (c_1 + 4 c_2)] for each radial weight w; the
        # variance and the radial and angular parts do not see c
        d = make_density("gaussian", {"sigma": 1.0}, 2)
        phi = PolarMember("x1+2x2", 2, RHO, [(1.0, (1, 0)), (2.0, (0, 1))], bounded=False)
        grid = build_grid(d, [phi])
        w = [np.ones_like(grid.r_nodes), 1.0 + grid.r_nodes]
        plain = grid_moments(grid, phi, w, split_weight=w[0])
        m = grid_moments(grid, phi, w, split_weight=w[0], axis_weights=[2.0, 0.25])
        assert abs(plain.dirichlet[0] - 5.0) < 1e-10 and abs(m.dirichlet[0] - 3.0) < 1e-10
        assert abs(m.dirichlet[1] - 0.6 * plain.dirichlet[1]) < 1e-10
        assert (m.variance, m.radial, m.angular) == (plain.variance, plain.radial, plain.angular)


RHO = Fn1D("rho", lambda r: r, np.ones_like)


def constant_profile(c):
    return Fn1D(f"const_{c}", lambda r: np.full_like(r, c), np.zeros_like)


def radial_member(name, n, s, ds, breakpoints=()):
    """The polar member s(|x|), its direction factor a = 1."""
    return PolarMember(name, n, Fn1D(name, s, ds, breakpoints=breakpoints), [(1.0, (0,) * n)])


def radial_test_function(n, sigma=1.0):
    return radial_member("gauss_profile", n, lambda r: np.exp(-r * r / sigma),
                         lambda r: (-2.0 / sigma) * r * np.exp(-r * r / sigma))


def linear_test_function(n, axis=0):
    return PolarMember("linear", n, RHO, [(1.0, tuple(int(j == axis) for j in range(n)))],
                       bounded=False)


class TestVariance:
    def test_constant_is_zero(self):
        d = make_density("gaussian", {"sigma": 1.0}, 2)
        phi = PolarMember("const", 2, constant_profile(1.0), [(1.0, (0, 0))])
        assert grid_variance(d, phi) == 0.0

    def test_constant_is_zero_n3(self):
        # the n = 3 mass-normalised weights miss 1 by ~1e-15, which centring
        # on the raw mean turns into a variance of ~(eps c)^2
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        phi = PolarMember("const", 3, constant_profile(-7.3), [(1.0, (0, 0, 0))])
        assert grid_variance(d, phi) == 0.0

    def test_offset_hides_no_variance(self):
        # 1000 + 1e-6 |x|^2 has variance 1e-12 Var(chi^2_3) = 6e-12; each
        # profile value carries a rounding of ~1e-7 relative to its 1e-6
        # part, which the grid averages below 1e-8, and so does the walk
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        phi = radial_member("offset_radial", 3, lambda r: 1000.0 + 1e-6 * r * r,
                            lambda r: 2e-6 * r)
        grid = build_grid(d, [phi])
        assert abs(grid_variance(d, phi, grid) - 6e-12) < 1e-8 * 6e-12
        assert abs(node_moments(grid, pointwise(phi)).variance - 6e-12) < 1e-8 * 6e-12

    def test_gaussian_linear(self):
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        assert abs(grid_variance(d, linear_test_function(1)) - 1.0) < 1e-10

    def test_shift_invariance(self):
        d = make_density("cauchy_type", {"beta": 3.0}, 2)
        phi = radial_test_function(2)
        grid = build_grid(d, [phi])
        v = grid_variance(d, phi, grid)
        s = phi.polar[0]
        shifted = radial_member("shifted", 2, lambda r: s(r) + 11.5, s.deriv)
        assert abs(grid_variance(d, shifted, grid) - v) < 1e-10 * max(1.0, v)

    def test_homogeneity(self):
        d = make_density("exponential_type", {"beta": 1.0}, 2)
        phi = radial_test_function(2)
        grid = build_grid(d, [phi])
        v = grid_variance(d, phi, grid)
        c, s = 3.7, phi.polar[0]
        scaled = radial_member("scaled", 2, lambda r: c * s(r), lambda r: c * s.deriv(r))
        assert abs(grid_variance(d, scaled, grid) - c ** 2 * v) < 1e-10 * c ** 2 * v

    def test_truncated_radius_against_monte_carlo(self):
        # Monte Carlo oracle: inverse-CDF sampling of the radial marginal
        d = make_density("cauchy_type", {"beta": 3.0}, 2)
        cap = 10.0
        phi = radial_member("capped_radius", 2, lambda r: np.minimum(r, cap),
                            lambda r: np.where(r < cap, 1.0, 0.0), breakpoints=(cap,))
        v = grid_variance(d, phi)

        marg = radial_marginal(d)
        r_grid = np.concatenate([[0.0], np.geomspace(1e-4, 2e4, 4000)])
        pdf = marg.eval(r_grid)
        cdf = np.concatenate([[0.0], np.cumsum(np.diff(r_grid)
                                               * 0.5 * (pdf[1:] + pdf[:-1]))])
        cdf /= cdf[-1]
        rng = np.random.default_rng(987)
        u = rng.uniform(size=1_000_000)
        rho = np.interp(u, cdf, r_grid)
        samples = np.minimum(rho, cap)
        mc_var = samples.var()
        m2 = (samples - samples.mean()) ** 2
        se = math.sqrt(m2.var() / len(samples))
        assert v > 0
        assert abs(v - mc_var) < 3.0 * se


class TestWeightedDirichlet:
    def test_constant_phi(self):
        d = make_density("gaussian", {"sigma": 1.0}, 2)
        phi = PolarMember("const", 2, constant_profile(1.0), [(1.0, (0, 0))])
        assert grid_dirichlet(d, const_weight(1.0), phi) == 0.0

    def test_gaussian_linear_1d(self):
        sigma = 1.7
        d = make_density("gaussian", {"sigma": sigma}, 1)
        val = grid_dirichlet(d, const_weight(sigma), linear_test_function(1))
        assert abs(val - sigma) < 1e-10

    def test_dimensional_reduction_oracle(self):
        # radial integrand reduces to a 1-D integral against the marginal
        d = make_density("exponential_type", {"beta": 1.0}, 2)
        w = WeightFunction(lambda r: 1.0 + np.asarray(r, dtype=float))
        phi = radial_member("exp_radial", 2, lambda r: np.exp(-r), lambda r: -np.exp(-r))
        val = grid_dirichlet(d, w, phi)
        sn = d.geometry_factor
        oracle, _ = integrate_interval(
            lambda r: sn * (1.0 + r) * math.exp(-2.0 * r) * r * float(d.eval(r)),
            0.0, math.inf)
        assert abs(val - oracle) < 1e-8


class TestSplit:
    def test_radial_phi_has_no_angular_part(self):
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        _, angular = grid_split(d, radial_test_function(3), const_weight(1.0))
        assert abs(angular) < 1e-20

    def test_angular_phi_has_no_radial_part(self):
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        phi = PolarMember("cos_theta1", 3, constant_profile(1.0), [(1.0, (1, 0, 0))])
        radial, angular = grid_split(d, phi, const_weight(1.0))
        assert abs(radial) < 1e-20
        assert angular > 0

    def test_composite_weight_dominates_split(self):
        # the W* Dirichlet form dominates the sharper radial+angular bound
        from isofp.weights import composite_Wstar

        d = make_density("gaussian", {"sigma": 1.0}, 3)
        w = const_weight(1.0)
        phi = linear_test_function(3)
        grid = build_grid(d, [phi])
        radial, angular = grid_split(d, phi, w, grid=grid)
        full = grid_dirichlet(d, composite_Wstar(d, w), phi, grid=grid)
        assert radial + angular <= full * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Polar-separable members
# ---------------------------------------------------------------------------


def polar_families(n, R):
    """One member of every polar family: the radial profiles in |x|^2 and
    |x|, the radial bumps, monomials times a Gaussian, bump x u_k, the
    linear members and the tail bumps, tail directions and tail mixtures."""
    nd = corpus_nd(n, seed=2024) + linear_members(n)
    tail = list(corpus_outside_ball(n, R, seed=2024))
    picks = ["exp_u", "cos_u_damped", "rho3_gauss", "bump[0,0.6]w0.5",
             "bump[0.8,1.2]w0.4", "x100_c1", "x300_c0.25", "x110_c0.5",
             "x020_c1", "bump_dir2", "linear_x1", "linear_x2"]
    if n >= 3:
        picks += ["x111_c1", "x001_c0.5"]
    members = [m for m in nd if m.name in picks]
    members += [m for m in tail if m.name in ("tail_bump3", "tail_dir4", "tail_random1")]
    assert len(members) == len(picks) + 3
    return members


def linear_witness(n):
    """``linear_x1`` of the anisotropic corpus under a rotated V, and its b:
    the linear form b . y with b = H^T e_1, H = Q sqrt(D), every b_i nonzero."""
    Q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(n, n)))
    V = Q @ np.diag(np.arange(1.0, n + 1.0)) @ Q.T
    lam, Qv = np.linalg.eigh(V)
    b = (Qv * np.sqrt(lam))[0]
    (phi,) = [m for m in corpus_anisotropic(V, seed=2024) if m.name == "linear_x1"]
    assert isinstance(phi, PolarMember) and len(phi.polar[1]) == n
    return phi, b


def checker_grid(kind, n):
    """The grid, radial weights and split weight of one isotropic checker
    for cauchy beta = 4 (see :mod:`isofp.inequality`)."""
    d = make_density("cauchy_type", {"beta": 4.0}, n)
    w, K = optimal_cauchy_weight(4.0, n), closed_form_weight(d)
    R = critical_tail_radius(d, K)
    if kind == "Wstar":
        W = composite_Wstar(d, w)
        corpus, weights, split, bp = corpus_nd(n, seed=2024), [W, w], w, W.breakpoints
    elif kind == "refined":
        corpus, weights, split = corpus_outside_ball(n, R, seed=2024), [K], K
        bp = (R, *K.breakpoints)
    else:
        W = hybrid_weight(w, K, R)
        corpus, weights, split, bp = corpus_nd(n, seed=2024), [W], W, W.breakpoints
    grid = build_grid(d, corpus, extra_breakpoints=bp)
    return (grid, [grid.radial_values(v) for v in weights], grid.radial_values(split), R)


def with_angular_order(monkeypatch, order, build, *args):
    """``build(*args)`` with every grid built on ``order`` points per angle."""
    with monkeypatch.context() as mp:
        mp.setattr(quadrature, "_ANGULAR_ORDER", order)
        return build(*args)


def assert_axis_weights_match_block_walk(n, members, seed, monkeypatch=None, order=None):
    """Axis-weighted Dirichlet forms of ``members`` on the standard-normal
    grid against the block walk of the same members without factors, on
    the same grid or, with an ``order``, on its rebuild at that angular
    order."""
    d = make_density("gaussian", {"sigma": 1.0}, n)
    grid = build_grid(d, members)
    oracle = grid if order is None else with_angular_order(monkeypatch, order, build_grid,
                                                            d, members)
    c = np.random.default_rng(seed).uniform(0.2, 5.0, n)
    w = [np.ones_like(grid.r_nodes), 1.0 + grid.r_nodes]
    for phi in members:
        got = grid_moments(grid, phi, w, axis_weights=c)
        want = node_moments(oracle, pointwise(phi), w, axis_weights=c)
        assert got.dirichlet != grid_moments(grid, phi, w).dirichlet, phi.name
        assert abs(got.variance - want.variance) <= 1e-12 * want.variance, phi.name
        for x, y in zip(got.dirichlet, want.dirichlet, strict=True):
            assert abs(x - y) <= 1e-12 * y, phi.name


class TestPolarMoments:
    """Members that declare phi = s(rho) u^e take one radial and one
    angular moment; the block walk over the grid is their oracle."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", ["Wstar", "refined", "hybrid"])
    def test_matches_block_walk(self, kind, n):
        grid, weights, split, R = checker_grid(kind, n)
        for phi in polar_families(n, R):
            got = grid_moments(grid, phi, weights, split_weight=split)
            want = node_moments(grid, pointwise(phi), weights, split_weight=split)
            assert abs(got.variance - want.variance) <= 1e-12 * want.variance, phi.name
            for x, y in zip(got.dirichlet, want.dirichlet, strict=True):
                assert abs(x - y) <= 1e-12 * y, phi.name
            assert abs(got.radial - want.radial) <= 1e-12 * want.radial, phi.name
            assert len(got.angular) == n - 1
            assert_angular_close(got, want, phi.name)

    def test_n1_two_directions(self):
        # u = +-1: odd monomials flip sign, even ones are constant
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        members = [m for m in corpus_nd(1, seed=2024) + linear_members(1) if m.polar]
        grid = build_grid(d, members)
        w = [grid.radial_values(lambda r: 1.0 + r)]
        for phi in members:
            got = grid_moments(grid, phi, w, split_weight=w[0])
            want = node_moments(grid, pointwise(phi), w, split_weight=w[0])
            assert abs(got.variance - want.variance) <= 1e-12 * want.variance, phi.name
            assert abs(got.dirichlet[0] - want.dirichlet[0]) <= 1e-12 * want.dirichlet[0]
            assert abs(got.radial - want.radial) <= 1e-12 * want.radial
            assert got.angular == want.angular == got.angular_halved == ()

    @pytest.mark.parametrize("n", [2, 3])
    def test_axis_weights_match_block_walk(self, n):
        # the anisotropic check's standard-normal grid, random axis weights
        members = polar_families(n, 2.0) + [linear_witness(n)[0]]
        assert_axis_weights_match_block_walk(n, members, seed=n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_profile_vanishes_at_the_origin(self, n):
        # E_r[w s^2 / rho^2] needs s = O(rho) wherever u^e is not constant
        members = (corpus_nd(n, seed=2024) + linear_members(n)
                   + list(corpus_outside_ball(n, 2.0, seed=2024)))
        angular = [m for m in members
                   if m.polar and any(any(e) for _, e in m.polar[1])]
        assert len(angular) >= 20
        for phi in angular:
            s = phi.polar[0]
            assert abs(float(s(1e-8))) / 1e-8 <= 1.0 + 1e-12, phi.name

    def test_refined_check_never_reaches_the_grid(self, monkeypatch):
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        K = closed_form_weight(d)
        corpus = corpus_outside_ball(3, 2.0, seed=5)
        assert all(m.polar for m in corpus)
        sizes, grids = count_member_calls(monkeypatch)
        reports = check_refined_outside_ball(d, K, 2.0, corpus)
        assert len(reports) == len(corpus) and all(r.passed for r in reports)
        (grid,) = grids
        largest = max(len(grid.r_nodes), len(grid.ang_weights), inequality._BALL_RADII)
        assert sizes and max(sizes) <= largest < len(grid.points)


def count_member_calls(monkeypatch, names=None):
    """Record the number of points of every member and profile evaluation,
    and every grid an inequality check builds; with a list ``names`` also
    the name of the member or profile of each evaluation."""
    sizes, grids = [], []
    real_build = inequality.build_grid

    def build(*args, **kw):
        grids.append(real_build(*args, **kw))
        return grids[-1]

    def counting(method):
        def wrapper(self, x):
            sizes.append(np.size(x, 0) if np.ndim(x) == 2 else np.size(x))
            if names is not None:
                names.append(self.name)
            return method(self, x)
        return wrapper

    monkeypatch.setattr(inequality, "build_grid", build)
    for cls, methods in ((TestFunction, ("__call__", "grad")), (Fn1D, ("__call__", "deriv"))):
        for method in methods:
            monkeypatch.setattr(cls, method, counting(getattr(cls, method)))
    return sizes, grids


# ---------------------------------------------------------------------------
# Polar members against their Cartesian formulas
# ---------------------------------------------------------------------------


def _cartesian_mono_gauss(exps, c):
    """prod_j x_j^e_j exp(-c |x|^2) and its gradient, coordinate by coordinate."""
    exps = np.asarray(exps)

    def ev(x):
        return np.prod(x ** exps, axis=1) * np.exp(-c * np.sum(x * x, axis=1))

    def gr(x):
        damp = np.exp(-c * np.sum(x * x, axis=1))
        mono = np.prod(x ** exps, axis=1)
        out = np.empty_like(x)
        for j, e in enumerate(exps):
            others = np.prod(np.delete(x, j, axis=1) ** np.delete(exps, j), axis=1)
            dmono = e * x[:, j] ** (e - 1) * others if e else 0.0
            out[:, j] = (dmono - 2.0 * c * x[:, j] * mono) * damp
        return out

    return ev, gr


def _cartesian_bump_direction(r0, r1, w, axis):
    """bump(|x|) x_axis / |x| and its gradient; both read 0 at the origin."""

    def parts(x):
        rho = np.linalg.norm(x, axis=1)
        safe = np.where(rho == 0.0, 1.0, rho)
        return safe, _bump(rho, r0, r1, w, w), _bump_deriv(rho, r0, r1, w, w)

    def ev(x):
        safe, b, _ = parts(x)
        return b * x[:, axis] / safe

    def gr(x):
        safe, b, db = parts(x)
        cosd = x[:, axis] / safe
        out = (db * cosd / safe)[:, None] * x
        out[:, axis] += b / safe
        out -= (b * cosd / safe ** 2)[:, None] * x
        return out

    return ev, gr


def _cartesian_rho3_gauss():
    def ev(x):
        rho = np.linalg.norm(x, axis=1)
        return rho ** 3 * np.exp(-rho ** 2)

    def gr(x):
        rho = np.linalg.norm(x, axis=1)
        return ((3.0 * rho - 2.0 * rho ** 3) * np.exp(-rho ** 2))[:, None] * x

    return ev, gr


def _cartesian_exp_u():
    def ev(x):
        return np.exp(-np.sum(x * x, axis=1))

    def gr(x):
        return (-2.0 * np.exp(-np.sum(x * x, axis=1)))[:, None] * x

    return ev, gr


def _cartesian_linear(axis):
    def gr(x):
        out = np.zeros_like(x)
        out[:, axis] = 1.0
        return out

    return (lambda x: x[:, axis].copy()), gr


def cartesian_references(n, R):
    """Member name -> (value, gradient) from the Cartesian formulas, for the
    default-scale corpus_nd(n) and corpus_outside_ball(n, R)."""
    refs = {
        "x110_c0.5": _cartesian_mono_gauss((1, 1, 0)[:n], 0.5),
        "x300_c0.25": _cartesian_mono_gauss((3,) + (0,) * (n - 1), 0.25),
        "bump_dir2": _cartesian_bump_direction(0.6, 1.0, 0.3, axis=1),
        "rho3_gauss": _cartesian_rho3_gauss(),
        "exp_u": _cartesian_exp_u(),
        "linear_x2": _cartesian_linear(1),
    }
    if n >= 3:
        refs["x111_c1"] = _cartesian_mono_gauss((1, 1, 1), 1.0)
    # tail_dir4 is bump(|x|) x_1 / |x| on the knots (r0 - w, r0, r1, r1 + w)
    tail = {m.name: m for m in corpus_outside_ball(n, R, seed=2024)}
    lo, r0, r1, hi = tail["tail_dir4"].radial_breakpoints
    refs["tail_dir4"] = _cartesian_bump_direction(r0, r1, r0 - lo, axis=0)
    return refs, tail


def assert_close(got, want, tol, label):
    err = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
    assert err <= tol, f"{label}: {err:.2e}"


class TestPolarMember:
    """A :class:`PolarMember` is defined by (s, e) alone and has no values
    at points; the values and gradients :func:`oracles.pointwise` takes
    from (s, e) match the Cartesian formulas of the same member, and the
    sphere integral of its kernel matches the walk over the directions."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_cartesian_formulas(self, n):
        R = 2.0
        refs, tail = cartesian_references(n, R)
        members = {m.name: m for m in corpus_nd(n, seed=2024) + linear_members(n)}
        members.update(tail)
        members["witness"], b = linear_witness(n)
        refs["witness"] = (lambda x: x @ b), (lambda x: np.broadcast_to(b, x.shape))
        rng = np.random.default_rng(11)
        bulk = rng.uniform(-4.0, 4.0, size=(64, n))
        dirs = rng.normal(size=(8, n))
        tiny = 1e-8 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = np.vstack([bulk, tiny, np.zeros((1, n))])
        assert len(refs) == (9 if n >= 3 else 8)
        for name, (ev, gr) in refs.items():
            phi = members[name]
            assert isinstance(phi, PolarMember), name
            at_points = pointwise(phi)
            assert_close(at_points(pts), ev(pts), 1e-12, name)
            assert_close(at_points.grad(pts), gr(pts), 1e-12, name)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_origin(self, n):
        members = {m.name: m for m in corpus_nd(n, seed=2024) + linear_members(n)}
        zero = np.zeros((1, n))
        e1 = np.eye(n)[:1]
        assert np.array_equal(pointwise(members["linear_x1"]).grad(zero), e1)
        assert np.array_equal(pointwise(members["x100_c1"]).grad(zero), e1)
        radial = [m for m in members.values()
                  if isinstance(m, PolarMember) and m.polar[1] == ((1.0, (0,) * n),)]
        assert len(radial) >= 18
        for phi in radial:
            at_points = pointwise(phi)
            assert np.all(at_points.grad(zero) == 0.0), phi.name
            assert at_points(zero)[0] == phi.polar[0](0.0), phi.name

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_member_has_values_at_points(self, n):
        V = np.diag(np.arange(1.0, n + 1.0))
        pts = np.ones((3, n))
        members = (corpus_nd(n, seed=2024) + linear_members(n)
                   + list(corpus_outside_ball(n, 2.0, seed=2024))
                   + list(corpus_anisotropic(V, seed=2024)))
        for phi in members:
            for method in (phi, phi.grad):
                with pytest.raises(TypeError) as err:
                    method(pts)
                assert str(err.value) == f"member {phi.name!r} has no values at points"

    @pytest.mark.parametrize("n", [2, 3])
    def test_sphere_dirichlet_matches_the_walk(self, n):
        # at the hybrid check's radius on its grid for cauchy beta = 4, R =
        # sqrt(2), where the profile of u_exp_u_wide peaks: both of its
        # integrals are roundoff of 0, below 1e-30
        grid, _, _, R = checker_grid("hybrid", n)
        polar = [m for m in corpus_nd(n, seed=2024) if m.polar is not None]
        assert len(polar) >= 30
        for phi in polar:
            got = sphere_dirichlet(grid, phi, R)
            want = sphere_walk(grid, phi, R)
            assert abs(got - want) <= 1e-13 * want + 1e-30, phi.name

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_smooth_member_is_polar(self, n):
        # only the random mixtures are not polar (see TestShellKernels)
        nd = corpus_nd(n, seed=2024) + linear_members(n)
        generic = [m.name for m in nd if not isinstance(m, PolarMember)]
        assert generic and all(name.startswith("random") for name in generic)
        tail = corpus_outside_ball(n, 2.0, seed=2024)
        assert all(isinstance(m, PolarMember) for m in tail)
        assert all(m.support == ("outside_ball", 2.0) for m in tail)

    def test_wrong_exponent_count_is_rejected(self):
        rho = Fn1D("rho", lambda r: r, np.ones_like)
        with pytest.raises(ValueError, match="exponents"):
            PolarMember("bad_length", 3, rho, [(1.0, (1, 0))])
        with pytest.raises(ValueError, match="exponents"):
            PolarMember("bad_sign", 2, rho, [(1.0, (1, -1))])

    def test_outside_ball_support_is_checked(self):
        # a bump on (0.3, 1.3) declared to vanish on |x| <= 2
        s = Fn1D("bump", lambda r: _bump(r, 0.6, 1.0, 0.3, 0.3),
                 lambda r: _bump_deriv(r, 0.6, 1.0, 0.3, 0.3), breakpoints=(0.3, 0.6, 1.0, 1.3))
        d = make_density("gaussian", {"sigma": 1.0}, 2)
        for R, status in ((2.0, "rejected"), (0.25, "ok")):
            phi = PolarMember("bump_x", 2, s, [(1.0, (1, 0))], support=("outside_ball", R))
            (rep,) = check_refined_outside_ball(d, closed_form_weight(d), R, [phi])
            assert rep.status == status, R


# ---------------------------------------------------------------------------
# Gaussian mixtures
# ---------------------------------------------------------------------------


def _cartesian_mixture(amps, centres, widths):
    """sum_k a_k exp(-b_k |x - c_k|^2) and its gradient, term by term."""

    def ev(x):
        out = np.zeros(len(x))
        for a, c, b in zip(amps, centres, widths):
            out += a * np.exp(-b * np.sum((x - c) ** 2, axis=1))
        return out

    def gr(x):
        out = np.zeros_like(x)
        for a, c, b in zip(amps, centres, widths):
            out += (-2.0 * a * b * np.exp(-b * np.sum((x - c) ** 2, axis=1)))[:, None] * (x - c)
        return out

    return ev, gr


def random_members(n):
    members = [m for m in corpus_nd(n, seed=2024) if m.name.startswith("random")]
    assert len(members) == 14
    return members


def assert_moments_close(got, want, tol, label):
    """Variance, every Dirichlet form and the radial part within ``tol``
    relative."""
    assert abs(got.variance - want.variance) <= tol * want.variance, label
    for x, y in zip(got.dirichlet, want.dirichlet, strict=True):
        assert abs(x - y) <= tol * y, label
    assert abs(got.radial - want.radial) <= tol * want.radial, label


def assert_angular_close(got, want, label):
    """The angular parts, and those on the halved azimuth, within 1e-12 of
    the radial and angular total."""
    total = want.radial + sum(want.angular)
    assert len(got.angular) == len(want.angular) == len(got.angular_halved)
    for x, y in zip(got.angular + got.angular_halved, want.angular + want.angular_halved,
                    strict=True):
        assert abs(x - y) <= 1e-12 * total, label


class TestMixtureMoments:
    """A :class:`GaussianMixture` is exact in angle, except for its angular
    parts.  The block walk over the node rows is its oracle: on the grid
    itself at n = 1, where the two directions are exact, and on the grid
    rebuilt with a 64-point angular rule at n = 2, 3, since the 24-point
    rule is off by up to 3e-7 in a Dirichlet form (at n = 3 both grids
    share a coarser radial rule to keep the walk short).  The angular parts
    stay on the grid's rule and keep its walk as their oracle, for every
    member."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["Wstar", "hybrid"])
    def test_matches_block_walk(self, kind, n, monkeypatch):
        grid, weights, split, _ = checker_grid(kind, n)
        exact = (grid, weights, split)
        if n == 3:
            # both sides share one coarse radial rule (204 shells instead
            # of 744), which keeps the 64-point walk near 0.3 s a member
            monkeypatch.setattr(quadrature, "_RADIAL_ORDER", 6)
            monkeypatch.setattr(quadrature, "_RADIAL_LEVELS", 8)
            exact = checker_grid(kind, n)[:3]
        fine = exact
        if n > 1:
            fine = with_angular_order(monkeypatch, 64, checker_grid, kind, n)[:3]
            assert np.array_equal(fine[0].r_nodes, exact[0].r_nodes)
        for phi in random_members(n):
            got = grid_moments(exact[0], phi, exact[1], split_weight=exact[2])
            want = node_moments(fine[0], pointwise(phi), fine[1], split_weight=fine[2])
            assert len(got.dirichlet) == len(weights)
            assert_moments_close(got, want, 1e-12, phi.name)
            got = grid_moments(grid, phi, split_weight=split)
            want = node_moments(grid, pointwise(phi), split_weight=split)
            assert_angular_close(got, want, phi.name)

    def test_n4_against_the_grid(self, monkeypatch):
        # the 24-point rule is the oracle, off by 4.2e-9 in the Dirichlet
        # form, 1.3e-9 in the radial part and 7.9e-10 in the variance of
        # random0; both sides share a coarse radial rule, which keeps the
        # walk over 2.7M nodes near 1.5 s
        monkeypatch.setattr(quadrature, "_RADIAL_LEVELS", 8)
        (phi,) = [m for m in corpus_nd(4, seed=2024) if m.name == "random0"]
        grid = build_grid(make_density("gaussian", {"sigma": 1.0}, 4), [phi])
        w = [grid.radial_values(lambda r: 1.0 + r)]
        got = grid_moments(grid, phi, w, split_weight=w[0])
        want = node_moments(grid, pointwise(phi), w, split_weight=w[0])
        assert_moments_close(got, want, 2e-8, phi.name)
        assert_angular_close(got, want, phi.name)

    @pytest.mark.parametrize("n", [2, 3])
    def test_nearly_constant_mixture(self, n, monkeypatch):
        # rates near 1e-4: phi varies by ~1e-4 of its size, so E[phi^2] -
        # E[phi]^2 would keep only about 9 digits (4e-10 relative); the
        # shell-by-shell variance matches the 64-point walk to 2e-14
        rng = np.random.default_rng(7)
        phi = GaussianMixture("flat", n, [0.7, -0.4, 1.1], rng.uniform(-1.5, 1.5, (3, n)),
                              rng.uniform(0.5e-4, 2e-4, 3))
        d = make_density("gaussian", {"sigma": 1.0}, n)
        grid = build_grid(d, [phi])
        fine = with_angular_order(monkeypatch, 64, build_grid, d, [phi])
        w = [grid.radial_values(lambda r: 1.0 + r)]
        got = grid_moments(grid, phi, w, split_weight=w[0])
        want = node_moments(fine, pointwise(phi), w, split_weight=w[0])
        assert 0.0 < got.variance < 1e-6
        assert_moments_close(got, want, 1e-12, phi.name)

    @pytest.mark.parametrize("n", [2, 3])
    def test_finite_on_the_cauchy_grid(self, n):
        # radii up to 4.5e8 put |Z| = 2 rho |b_k c_k + b_l c_l| past 1e9,
        # where scipy's ive returns nan; such pairs have underflowed and
        # are skipped
        grid, weights, split, _ = checker_grid("Wstar", n)
        assert grid.r_nodes.max() > 4e8
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for phi in random_members(n):
                m = grid_moments(grid, phi, weights, split_weight=split)
                assert np.all(np.isfinite([m.variance, *m.dirichlet, m.radial, *m.angular]))
                assert m.variance > 0.0, phi.name

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sphere_dirichlet_matches_a_finer_rule(self, n, monkeypatch):
        # the hybrid check's surface integral; the 24-point rule misses it
        # by up to 2.9e-4, the 64-point rule by up to 5e-12 at radius 6
        d = make_density("exponential_type", {"beta": 1.0}, n)
        grid = HypersphericalGrid(d)
        fine = with_angular_order(monkeypatch, 96, HypersphericalGrid, d)
        for phi in random_members(n):
            for radius in (0.5, 2.7, 6.0):
                got = sphere_dirichlet(grid, phi, radius)
                want = sphere_walk(fine, phi, radius)
                assert abs(got - want) <= 1e-12 * want, (phi.name, radius)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_cartesian_formulas(self, n):
        rng = np.random.default_rng(12)
        members = random_members(n)
        centres = np.vstack([m.mixture[1] for m in members])
        pts = np.vstack([rng.uniform(-4.0, 4.0, size=(64, n)), np.zeros((1, n)),
                         centres + 1e-3 * rng.normal(size=centres.shape)])
        for phi in members:
            assert isinstance(phi, GaussianMixture) and phi.polar is None
            ev, gr = _cartesian_mixture(*phi.mixture)
            at_points = pointwise(phi)
            assert_close(at_points(pts), ev(pts), 1e-12, phi.name)
            assert_close(at_points.grad(pts), gr(pts), 1e-12, phi.name)
            # the member itself has no values at points
            for method in (phi, phi.grad):
                with pytest.raises(TypeError, match=f"{phi.name!r} has no values at points"):
                    method(pts)

    @pytest.mark.parametrize("n", [2, 3])
    def test_axis_weights_match_block_walk(self, n, monkeypatch):
        assert_axis_weights_match_block_walk(n, random_members(n)[::3], seed=10 + n,
                                             monkeypatch=monkeypatch, order=64)


class TestMixtureAngular:
    """The angular kernel takes a block's exponents in one batched product;
    the two-pass kernel of :mod:`oracles` is its oracle, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind,params", [
        ("cauchy_type", {"beta": 4.0}), ("cauchy_type", {"beta": 3.0}),
        ("exponential_type", {"beta": 1.0}), ("barenblatt", {"a": 1.0, "p": 2.0}),
    ], ids=["n3-grid", "cauchy3", "exponential", "barenblatt"])
    def test_corpus_mixtures(self, kind, params, n, monkeypatch):
        # the n3-grid and n2-mixed densities in each dimension; at n = 4
        # coarse radial and angular rules keep the pass short
        if n == 4:
            monkeypatch.setattr(quadrature, "_RADIAL_LEVELS", 4)
            monkeypatch.setattr(quadrature, "_ANGULAR_ORDER", 12)
        d = make_density(kind, params, n)
        scale = 0.45 * d.support_radius if np.isfinite(d.support_radius) else 1.0
        mixtures = [m.mixture for m in corpus_nd(n, seed=2024, scale=scale)
                    if m.mixture is not None]
        grid = build_grid(d, corpus_nd(n, seed=2024, scale=scale))
        assert len(mixtures) == 14
        for mixture in mixtures:
            got = quadrature._mixture_angular(grid, mixture)
            assert np.array_equal(got, mixture_angular_two_pass(grid, mixture))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gaps_and_a_partial_block(self, n, monkeypatch):
        # narrow terms at |c| = 1 and 6 underflow between them and far out,
        # so the live shells have a gap, and blocks of 7 shells leave the
        # last one partial
        monkeypatch.setattr(quadrature, "_RADIAL_LEVELS", 6)
        d = make_density("gaussian", {"sigma": 2.0}, n)
        e0 = np.eye(n)[0]
        phi = GaussianMixture("gappy", n, [0.8, -1.3, 0.5],
                              np.array([e0, 6.0 * np.eye(n)[n - 1], -e0 + 0.1]),
                              np.array([400.0, 300.0, 500.0]))
        grid = build_grid(d, [phi])
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 7 * len(grid.ang_weights))
        _, centres, widths = phi.mixture
        dist = grid.r_nodes - np.linalg.norm(centres, axis=1)[:, None]
        top = np.max(-widths[:, None] * dist ** 2, axis=0)
        rows = np.flatnonzero((top >= quadrature._EXP_FLOOR) & (grid.r_weights > 0.0))
        assert np.any(np.diff(rows) > 1) and rows[-1] < len(grid.r_nodes) - 1
        assert len(rows) > 7 and len(rows) % 7 != 0
        got = quadrature._mixture_angular(grid, phi.mixture)
        assert np.all(got > 0.0)
        assert np.array_equal(got, mixture_angular_two_pass(grid, phi.mixture))


class TestHalfIntegerBessel:
    """At odd n the sphere averages take exp(-z) I_nu(z), nu half an odd
    integer, from elementary functions instead of scipy's ``ive``."""

    @pytest.mark.parametrize("nu", [-0.5, 0.5, 1.5, 2.5])
    def test_matches_scipy(self, nu):
        z = np.concatenate([1.0 + np.logspace(-12, 0, 200), np.logspace(1e-3, 9, 2000)])
        want = ive(nu, z)
        assert np.max(np.abs(quadrature._ive_half(nu, z) - want) / want) <= 1e-13

    @pytest.mark.parametrize("n", [1, 3])
    def test_odd_n_never_calls_ive(self, n, monkeypatch):
        grid, weights, split, _ = checker_grid("Wstar", n)
        want = [grid_moments(grid, phi, weights, split_weight=split)
                for phi in random_members(n)]

        def refuse(nu, z):
            raise AssertionError("scipy's ive was called")

        monkeypatch.setattr(quadrature, "ive", refuse)
        for phi, m in zip(random_members(n), want):
            got = grid_moments(grid, phi, weights, split_weight=split)
            assert got == m, phi.name
        # the patch reaches the even-n path
        grid2, weights2, split2, _ = checker_grid("Wstar", 2)
        with pytest.raises(AssertionError, match="ive was called"):
            grid_moments(grid2, random_members(2)[0], weights2, split_weight=split2)

    def test_n3_moments_agree_with_ive(self, monkeypatch):
        grid, weights, split, _ = checker_grid("hybrid", 3)
        got = [grid_moments(grid, phi, weights, split_weight=split)
               for phi in random_members(3)]
        monkeypatch.setattr(quadrature, "_ive_half", ive)
        for phi, g in zip(random_members(3), got):
            want = grid_moments(grid, phi, weights, split_weight=split)
            assert_moments_close(g, want, 1e-13, phi.name)


class TestShellKernels:
    """Every default member reaches the grid through its factors, so no
    n-D check walks the grid's nodes."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_member_has_a_shell_kernel(self, n):
        V = np.diag(np.arange(1.0, n + 1.0))
        for corpus in (corpus_nd(n, seed=2024) + linear_members(n),
                       corpus_outside_ball(n, 2.0, seed=2024),
                       corpus_anisotropic(V, seed=2024)):
            for phi in corpus:
                assert isinstance(phi, (PolarMember, GaussianMixture)), phi.name

    @pytest.mark.parametrize("kind", ["Wstar", "hybrid", "anisotropic"])
    def test_isotropic_checks_never_reach_the_grid(self, kind, monkeypatch):
        d = make_density("cauchy_type", {"beta": 4.0}, 3)
        w, K = optimal_cauchy_weight(4.0, 3), closed_form_weight(d)
        corpus = corpus_nd(3, seed=2024)
        if kind == "anisotropic":
            Q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))
            V = Q @ np.diag([0.5, 2.0, 3.5]) @ Q.T
            corpus = corpus_anisotropic(V, seed=2024)
            assert sum(not m.bounded for m in corpus) == 4
        sizes, grids = count_member_calls(monkeypatch)
        passes = []
        real_angular = quadrature._mixture_angular

        def angular(grid, mixture):
            passes.append(mixture)
            return real_angular(grid, mixture)

        monkeypatch.setattr(quadrature, "_mixture_angular", angular)
        if kind == "Wstar":
            reports = check_isotropic_Wstar(d, corpus, w)
        elif kind == "hybrid":
            reports = check_hybrid(d, w, K, critical_tail_radius(d, K), corpus)
        else:
            reports = check_gaussian_anisotropic(V, corpus)
        assert len(reports) == len(corpus) and all(r.passed for r in reports)
        # only Wstar's angular parts take a pass over the mixture's nodes
        mixtures = [m.mixture for m in corpus if m.mixture is not None]
        assert len(mixtures) == 14
        assert len(passes) == (len(mixtures) if kind == "Wstar" else 0)
        assert all(p is m for p, m in zip(passes, mixtures))
        (grid,) = grids
        largest = max(len(grid.r_nodes), len(grid.ang_weights), 8 * d.n)
        assert sizes and max(sizes) <= largest < len(grid.points)
