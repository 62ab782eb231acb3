import math

import numpy as np
import pytest
from scipy.special import gamma as sp_gamma

from isofp.densities import (
    density_mass,
    full_line_density,
    make_density,
    parse_density_spec,
    radial_marginal,
    sin_power_density,
    std_normal_1d,
    surface_measure,
    uniform_angle_density,
    closed_form_weight,
)
from isofp.quadrature import QuadratureError, integrate_interval
from isofp.weights import steady_state_residual

MASS_MATRIX = [
    ("gaussian", {"sigma": 1.0}, 1),
    ("gaussian", {"sigma": 2.5}, 4),
    ("cauchy_type", {"beta": 2.0}, 1),
    ("cauchy_type", {"beta": 2.0}, 2),
    ("cauchy_type", {"beta": 4.0}, 3),
    ("exponential_type", {"beta": 1.0}, 2),
    ("exponential_type", {"beta": 2.0}, 3),
    ("barenblatt", {"a": 1.0, "p": 2.0}, 1),
    ("barenblatt", {"a": 2.0, "p": 3.0}, 3),
    ("inverse_gamma_1d", {"mu": 2.0}, 1),
    ("inverse_gamma_1d", {"mu": 0.7}, 1),
]


class TestMakeDensity:
    @pytest.mark.parametrize("kind,params,n", MASS_MATRIX)
    def test_unit_mass(self, kind, params, n):
        d = make_density(kind, params, n)
        assert abs(density_mass(d) - 1.0) < 1e-8

    def test_gaussian_closed_form(self):
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        assert abs(d.norm_const - (2.0 * math.pi) ** -1.5) < 1e-15
        assert abs(d.eval(1.0) - (2 * math.pi) ** -1.5 * math.exp(-0.5)) < 1e-15

    def test_barenblatt_1d_norm(self):
        # int_{-1}^{1} (1 - x^2) dx = 4/3, so the constant is 3/4
        d = make_density("barenblatt", {"a": 1.0, "p": 2.0}, 1)
        assert abs(d.norm_const - 0.75) < 1e-12

    def test_cauchy_norm_matches_gamma_closed_form(self):
        beta, n = 3.0, 2
        d = make_density("cauchy_type", {"beta": beta}, n)
        exact = sp_gamma(beta) / (math.pi ** (n / 2.0) * sp_gamma(beta - n / 2.0))
        assert abs(d.norm_const - exact) / exact < 1e-10

    def test_barenblatt_norm_matches_beta_closed_form(self):
        a, p, n = 1.5, 2.0, 2
        b = 1.0 / (p - 1.0)
        d = make_density("barenblatt", {"a": a, "p": p}, n)
        exact = (math.pi ** (n / 2.0) * a ** (n + 2 * b)
                 * sp_gamma(b + 1.0) / sp_gamma(b + 1.0 + n / 2.0))
        assert abs(d.norm_const - 1.0 / exact) * exact < 1e-10

    @pytest.mark.parametrize("kind,params,n,msg", [
        ("cauchy_type", {"beta": 1.0}, 2, "beta > n/2"),
        ("cauchy_type", {"beta": 1.5}, 3, "beta > n/2"),
        ("barenblatt", {"a": 1.0, "p": 1.0}, 1, "p > 1"),
        ("barenblatt", {"a": -1.0, "p": 2.0}, 1, "a > 0"),
        ("gaussian", {"sigma": 0.0}, 1, "sigma > 0"),
        ("inverse_gamma_1d", {"mu": -1.0}, 1, "mu > 0"),
    ])
    def test_rejects_bad_parameters(self, kind, params, n, msg):
        with pytest.raises(ValueError, match=msg):
            make_density(kind, params, n)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            make_density("gaussian", {"sigma": 1.0}, 0)

    def test_inverse_gamma_needs_n1(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            make_density("inverse_gamma_1d", {"mu": 2.0}, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown density kind"):
            make_density("laplace", {}, 1)


class TestEvalDensity:
    def test_std_normal_peak(self):
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        assert abs(d.eval(0.0) - 1.0 / math.sqrt(2 * math.pi)) < 1e-15

    def test_vanishes_at_support_boundary(self):
        d = make_density("barenblatt", {"a": 1.0, "p": 2.0}, 1)
        assert d.eval(1.0) == 0.0
        assert d.eval(1.5) == 0.0

    def test_exponential_value(self):
        beta, n = 2.0, 3
        d = make_density("exponential_type", {"beta": beta}, n)
        expected = (beta ** n * math.gamma(n / 2.0)
                    / (2.0 * math.pi ** (n / 2.0) * math.gamma(n))
                    * math.exp(-beta))
        assert abs(d.eval(1.0) - expected) < 1e-15

    def test_positive_inside_support(self):
        d = make_density("cauchy_type", {"beta": 2.0}, 2)
        assert np.all(d.eval(np.linspace(0.0, 50.0, 100)) > 0.0)

    def test_inverse_gamma_vanishes_at_origin(self):
        d = make_density("inverse_gamma_1d", {"mu": 2.0}, 1)
        assert d.eval(0.0) == 0.0
        assert d.eval(1.0) > 0.0


def where_eval(d, rho):
    """f(rho) by the np.where formula of each profile over the whole input:
    the oracle of the evaluation restricted to the support."""
    rho = np.asarray(rho, dtype=float)
    inside = (rho >= 0.0) & (rho <= d.support_radius)
    if d.half_line:
        inside &= rho > 0.0
    r = np.where(inside, rho, 0.0)
    p = dict(d.params)
    if d.kind == "gaussian":
        prof = np.exp(-(r ** 2) / (2.0 * p["sigma"]))
    elif d.kind == "cauchy_type":
        prof = (1.0 + r ** 2) ** (-p["beta"])
    elif d.kind == "exponential_type":
        prof = np.exp(-p["beta"] * r)
    elif d.kind == "barenblatt":
        prof = np.clip(p["a"] ** 2 - r ** 2, 0.0, None) ** (1.0 / (p["p"] - 1.0))
    else:
        mu = p["mu"]
        with np.errstate(divide="ignore", over="ignore"):
            prof = np.where(r > 0.0, np.exp(-mu / np.where(r > 0, r, 1.0))
                            * np.where(r > 0, r, 1.0) ** (-(2.0 + mu)), 0.0)
    return d.norm_const * np.where(inside, prof, 0.0)


EVAL_CASES = [
    ("gaussian", {"sigma": 1.0}, 1),
    ("gaussian", {"sigma": 2.5}, 3),
    ("cauchy_type", {"beta": 4.0}, 3),
    ("exponential_type", {"beta": 1.0}, 2),
    ("barenblatt", {"a": 1.0, "p": 2.0}, 2),
    ("barenblatt", {"a": 2.0, "p": 3.0}, 3),
    ("inverse_gamma_1d", {"mu": 2.0}, 1),
    ("inverse_gamma_1d", {"mu": 0.7}, 1),
]


class TestEvalInsideSupport:
    @pytest.mark.parametrize("kind,params,n", EVAL_CASES)
    def test_matches_where_formula(self, kind, params, n):
        d = make_density(kind, params, n)
        edge = d.support_radius if math.isfinite(d.support_radius) else 1e4
        points = [0.0, -0.0, -1.0, -1e-300, 1e-60, 1e-3, 0.37, 1.0, 2.5,
                  30.0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf),
                  1.5 * edge, math.inf, -math.inf]
        for rho in points + [np.float64(0.5), np.array(0.5), 2]:
            got, want = d.eval(rho), where_eval(d, rho)
            assert type(got) is type(want) and np.shape(got) == ()
            assert got == want, rho
        for rho in (np.array(points), np.array(points).reshape(4, 4), np.array([])):
            got, want = d.eval(rho), where_eval(d, rho)
            assert type(got) is np.ndarray and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.xfail(raises=(AssertionError, RuntimeWarning), strict=True,
                       reason="exp(-mu/rho) rho^-(2+mu) is 0 * inf = nan where "
                              "the power overflows")
    def test_inverse_gamma_vanishes_near_the_origin(self):
        d = make_density("inverse_gamma_1d", {"mu": 2.0}, 1)
        assert d.eval(1e-100) == 0.0


class TestRadialMarginal:
    @pytest.mark.parametrize("kind,params,n", MASS_MATRIX)
    def test_marginal_mass(self, kind, params, n):
        d = make_density(kind, params, n)
        f = radial_marginal(d).as_density1d()
        assert abs(f.mass() - 1.0) < 1e-8

    def test_exponential_marginal_is_gamma(self):
        beta, n = 2.0, 3
        d = make_density("exponential_type", {"beta": beta}, n)
        marg = radial_marginal(d)
        rho = np.linspace(0.1, 6.0, 25)
        expected = beta ** n / math.gamma(n) * rho ** (n - 1) * np.exp(-beta * rho)
        assert np.max(np.abs(marg.eval(rho) - expected)) < 1e-12

    def test_gaussian_1d_marginal_is_folded_normal(self):
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        marg = radial_marginal(d)
        assert abs(marg.eval(0.5)
                   - 2.0 / math.sqrt(2 * math.pi) * math.exp(-0.125)) < 1e-15

    def test_cauchy_marginal_quadrature_mass(self):
        d = make_density("cauchy_type", {"beta": 2.0}, 2)
        val, _ = integrate_interval(lambda r: float(radial_marginal(d).eval(r)),
                                    0.0, math.inf)
        assert abs(val - 1.0) < 1e-8

    def test_inverse_gamma_marginal_is_itself(self):
        d = make_density("inverse_gamma_1d", {"mu": 2.0}, 1)
        marg = radial_marginal(d)
        assert marg.sigma_n == 1.0
        assert abs(marg.eval(1.3) - d.eval(1.3)) < 1e-16

    def test_divergent_mean_is_cached(self, monkeypatch):
        # cauchy beta = 1.9 in n = 3: the marginal has no first moment
        import isofp.densities as densities

        f = radial_marginal(make_density("cauchy_type", {"beta": 1.9}, 3)).as_density1d()
        with pytest.raises(QuadratureError):
            f.mean
        calls = []
        monkeypatch.setattr(densities, "integrate_interval",
                            lambda *a, **k: calls.append(a) or integrate_interval(*a, **k))
        with pytest.raises(QuadratureError):
            f.mean
        assert calls == []


class TestSteadyState:
    @pytest.mark.parametrize("kind,params,n", [
        ("gaussian", {"sigma": 1.0}, 3),
        ("gaussian", {"sigma": 2.5}, 2),
        ("cauchy_type", {"beta": 3.0}, 2),
        ("exponential_type", {"beta": 2.0}, 3),
    ])
    def test_closed_form_weight_residual(self, kind, params, n):
        d = make_density(kind, params, n)
        K = closed_form_weight(d)
        rho = np.linspace(0.2, 5.0, 60)
        res = steady_state_residual(d, K, rho)
        scale = np.max(np.abs(rho * d.eval(rho)))
        assert np.max(np.abs(res)) < 1e-6 * scale

    def test_barenblatt_residual_interior(self):
        d = make_density("barenblatt", {"a": 1.0, "p": 2.0}, 2)
        K = closed_form_weight(d)
        rho = np.linspace(0.05, 0.9, 40)
        res = steady_state_residual(d, K, rho)
        scale = np.max(np.abs(rho * d.eval(rho)))
        assert np.max(np.abs(res)) < 1e-6 * scale

    def test_inverse_gamma_has_no_closed_form(self):
        d = make_density("inverse_gamma_1d", {"mu": 2.0}, 1)
        assert closed_form_weight(d) is None


class TestHelpers:
    def test_surface_measure(self):
        assert abs(surface_measure(2) - 2 * math.pi) < 1e-14
        assert abs(surface_measure(3) - 4 * math.pi) < 1e-14
        assert abs(surface_measure(1) - 2.0) < 1e-14

    def test_std_normal_density(self):
        f = std_normal_1d()
        assert abs(f.mass() - 1.0) < 1e-10
        assert f.mean == 0.0

    def test_uniform_angle(self):
        f = uniform_angle_density()
        assert abs(f.mass() - 1.0) < 1e-12
        assert abs(f.mean - math.pi) < 1e-14

    def test_sin_power(self):
        f = sin_power_density(2)
        assert abs(f.mass() - 1.0) < 1e-10

    def test_full_line_density(self):
        d = make_density("cauchy_type", {"beta": 4.0}, 1)
        f = full_line_density(d)
        assert abs(f.mass() - 1.0) < 1e-9
        with pytest.raises(ValueError):
            full_line_density(make_density("gaussian", {"sigma": 1.0}, 2))


class TestParseSpec:
    def test_roundtrip(self):
        d = parse_density_spec("cauchy:beta=3,n=2")
        assert d.kind == "cauchy_type" and d.n == 2 and d.param("beta") == 3.0

    def test_aliases(self):
        assert parse_density_spec("exponential:beta=1,n=3").kind == "exponential_type"
        assert parse_density_spec("inverse_gamma:mu=2").kind == "inverse_gamma_1d"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown density kind"):
            parse_density_spec("levy:alpha=1")

    def test_malformed_params(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_density_spec("gaussian:sigma")
