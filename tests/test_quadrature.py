import math

import numpy as np
import pytest

from isofp.densities import make_density, radial_marginal
import isofp.quadrature as quadrature
from isofp.quadrature import (
    ANGULAR_AZIMUTHAL_BOUND,
    ANGULAR_POLAR_BOUND,
    HypersphericalGrid,
    Integrator,
    QuadratureError,
    TestFunction,
    build_grid,
    grid_moments,
    integrate_interval,
    interval_rule,
)
from isofp.weights import WeightFunction


def const_weight(c, hi=math.inf):
    return WeightFunction(lambda r: np.full_like(np.asarray(r, dtype=float), c),
                          "closed_form", (0.0, hi))


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


class TestIntervalRule:
    def test_finite_polynomial_exact(self):
        x, w = interval_rule(0.0, 2.0, order=8, levels=4)
        assert abs(np.dot(w, x ** 7) - 2.0 ** 8 / 8.0) < 1e-12

    def test_semi_infinite_gaussian(self):
        x, w = interval_rule(0.0, math.inf, order=12, levels=20)
        assert abs(np.dot(w, np.exp(-x ** 2 / 2.0)) - math.sqrt(math.pi / 2.0)) < 1e-12


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
        grid = HypersphericalGrid(d, angular_order=12, radial_levels=10)
        assert abs(grid.mass - 1.0) < 1e-7

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
        grid = HypersphericalGrid(make_density("cauchy_type", {"beta": 4.0}, n))
        arrays = {k: v for k, v in vars(grid).items() if isinstance(v, np.ndarray)}
        node_sized = [k for k, v in arrays.items() if v.shape[:1] == grid.points.shape[:1]]
        assert node_sized == ["points"]
        assert len(grid.tangents) == n - 1


class TestGridMoments:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_size_does_not_matter(self, n, monkeypatch):
        # many small blocks merged by the pairwise update against the default
        d = make_density("cauchy_type", {"beta": 3.0}, n)
        phi = radial_test_function(n)
        lin = linear_test_function(n)
        grid = build_grid(d, [phi])
        w = grid.radial_values(lambda r: 1.0 + r)
        ref = [grid_moments(grid, f, [w], split_weight=w) for f in (phi, lin)]
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 7 * len(grid.ang_weights))
        got = [grid_moments(grid, f, [w], split_weight=w) for f in (phi, lin)]
        for a, b in zip(ref, got):
            assert abs(a.variance - b.variance) <= 1e-13 * a.variance
            assert abs(a.dirichlet[0] - b.dirichlet[0]) <= 1e-13 * a.dirichlet[0]
            assert abs(a.radial - b.radial) <= 1e-13 * a.radial
            total = a.radial + sum(a.angular)
            for x, y in zip(a.angular, b.angular):
                assert abs(x - y) <= 1e-13 * total

    def test_without_split_weight(self):
        d = make_density("gaussian", {"sigma": 1.0}, 2)
        phi = linear_test_function(2)
        m = grid_moments(build_grid(d, [phi]), phi)
        assert m.dirichlet == () and math.isnan(m.radial) and m.angular == ()
        assert abs(m.variance - 1.0) < 1e-10

    def test_affine_map(self):
        # x = u + H x* with x* standard normal: Var[x_1] = (H H^T)_11
        d = make_density("gaussian", {"sigma": 1.0}, 2)
        phi = linear_test_function(2)
        grid = build_grid(d, [phi])
        H = np.array([[2.0, 1.0], [0.0, 0.5]])
        m = grid_moments(grid, phi, [np.ones_like(grid.r_nodes)],
                         affine=(np.array([3.0, -1.0]), H))
        assert abs(m.variance - 5.0) < 1e-10
        assert abs(m.dirichlet[0] - 1.0) < 1e-10


def radial_test_function(n, sigma=1.0):
    def ev(p):
        u = np.einsum("ij,ij->i", p, p)
        return np.exp(-u / sigma)

    def gr(p):
        u = np.einsum("ij,ij->i", p, p)
        return (-2.0 / sigma) * np.exp(-u / sigma)[:, None] * p

    return TestFunction("gauss_profile", n, ev, gr)


def linear_test_function(n, axis=0):
    def ev(p):
        return p[:, axis].copy()

    def gr(p):
        out = np.zeros_like(p)
        out[:, axis] = 1.0
        return out

    return TestFunction("linear", n, ev, gr, bounded=False)


class TestTestFunction:
    def test_gradient_self_test_catches_bad_gradient(self):
        with pytest.raises(ValueError, match="self-test"):
            TestFunction("broken", 2,
                         lambda p: np.einsum("ij,ij->i", p, p),
                         lambda p: 3.0 * p)  # should be 2 p

    def test_support_flag_checked(self):
        def ev(p):
            return np.exp(-np.einsum("ij,ij->i", p, p))

        def gr(p):
            return -2.0 * np.exp(-np.einsum("ij,ij->i", p, p))[:, None] * p

        with pytest.raises(ValueError, match="outside_ball"):
            TestFunction("liar", 2, ev, gr, support=("outside_ball", 1.0))


class TestVariance:
    def test_constant_is_zero(self):
        d = make_density("gaussian", {"sigma": 1.0}, 2)
        phi = TestFunction("const", 2,
                           lambda p: np.ones(len(p)),
                           lambda p: np.zeros_like(p))
        assert grid_variance(d, phi) == 0.0

    def test_constant_is_zero_n3(self):
        # the n = 3 mass-normalised weights miss 1 by ~1e-15, which centring
        # on the raw mean turns into a variance of ~(eps c)^2
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        phi = TestFunction("const", 3, lambda p: np.full(len(p), -7.3),
                           lambda p: np.zeros_like(p))
        assert grid_variance(d, phi) == 0.0

    def test_offset_hides_no_variance(self):
        # 1000 + 1e-6 x_1 has variance 1e-12; each node value carries a
        # rounding of ~1e-7 relative to the 1e-6 x_1 part, which the grid
        # averages below 1e-8
        d = make_density("gaussian", {"sigma": 1.0}, 3)

        def gr(p):
            g = np.zeros_like(p)
            g[:, 0] = 1e-6
            return g

        phi = TestFunction("offset_linear", 3, lambda p: 1000.0 + 1e-6 * p[:, 0], gr)
        assert abs(grid_variance(d, phi) - 1e-12) < 1e-8 * 1e-12

    def test_gaussian_linear(self):
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        assert abs(grid_variance(d, linear_test_function(1)) - 1.0) < 1e-10

    def test_shift_invariance(self):
        d = make_density("cauchy_type", {"beta": 3.0}, 2)
        phi = radial_test_function(2)
        grid = build_grid(d, [phi])
        v = grid_variance(d, phi, grid)
        shifted = TestFunction("shifted", 2, lambda p: phi(p) + 11.5, phi.grad)
        assert abs(grid_variance(d, shifted, grid) - v) < 1e-10 * max(1.0, v)

    def test_homogeneity(self):
        d = make_density("exponential_type", {"beta": 1.0}, 2)
        phi = radial_test_function(2)
        grid = build_grid(d, [phi])
        v = grid_variance(d, phi, grid)
        s = 3.7
        scaled = TestFunction("scaled", 2, lambda p: s * phi(p),
                              lambda p: s * phi.grad(p))
        assert abs(grid_variance(d, scaled, grid) - s ** 2 * v) < 1e-10 * s ** 2 * v

    def test_truncated_radius_against_monte_carlo(self):
        # Monte Carlo oracle: inverse-CDF sampling of the radial marginal
        d = make_density("cauchy_type", {"beta": 3.0}, 2)
        cap = 10.0

        def ev(p):
            return np.minimum(np.linalg.norm(p, axis=1), cap)

        def gr(p):
            rho = np.linalg.norm(p, axis=1)
            safe = np.where(rho == 0.0, 1.0, rho)
            return np.where(rho < cap, 1.0, 0.0)[:, None] * p / safe[:, None]

        phi = TestFunction("capped_radius", 2, ev, gr, radial_breakpoints=(cap,),
                           self_test=False)  # kink at rho = cap
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
        phi = TestFunction("const", 2, lambda p: np.ones(len(p)),
                           lambda p: np.zeros_like(p))
        assert grid_dirichlet(d, const_weight(1.0), phi) == 0.0

    def test_gaussian_linear_1d(self):
        sigma = 1.7
        d = make_density("gaussian", {"sigma": sigma}, 1)
        val = grid_dirichlet(d, const_weight(sigma), linear_test_function(1))
        assert abs(val - sigma) < 1e-10

    def test_dimensional_reduction_oracle(self):
        # radial integrand reduces to a 1-D integral against the marginal
        d = make_density("exponential_type", {"beta": 1.0}, 2)
        w = WeightFunction(lambda r: 1.0 + np.asarray(r, dtype=float),
                           "closed_form", (0.0, math.inf))

        def ev(p):
            return np.exp(-np.linalg.norm(p, axis=1))

        def gr(p):
            rho = np.linalg.norm(p, axis=1)
            safe = np.where(rho == 0.0, 1.0, rho)
            return (-np.exp(-rho) / safe)[:, None] * p

        phi = TestFunction("exp_radial", 2, ev, gr)
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

        def ev(p):
            rho = np.linalg.norm(p, axis=1)
            safe = np.where(rho == 0.0, 1.0, rho)
            return p[:, 0] / safe

        def gr(p):
            rho = np.linalg.norm(p, axis=1)
            safe = np.where(rho == 0.0, 1.0, rho)
            out = -(p[:, 0] / safe ** 3)[:, None] * p
            out[:, 0] += 1.0 / safe
            return out

        phi = TestFunction("cos_theta1", 3, ev, gr, self_test=False)
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
