import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import isofp.inequality as inequality
import isofp.quadrature as quadrature

from isofp.cli import marginal_weight
from isofp.corpus import (
    Fn1D,
    PolarMember,
    SeparableMember,
    corpus_1d,
    corpus_anisotropic,
    corpus_nd,
    corpus_outside_ball,
    corpus_product,
)
from isofp.densities import (
    Density1D,
    full_line_density,
    make_density,
    parse_density_spec,
    radial_marginal,
    sin_power_density,
    uniform_angle_density,
    closed_form_weight,
)
from isofp.inequality import (
    check_gaussian_anisotropic,
    check_hybrid,
    check_isotropic_Wstar,
    check_poincare_1d,
    check_product,
    check_refined_outside_ball,
    summarize_reports,
    _factor_rules,
)
from isofp.quadrature import (
    ANGULAR_AZIMUTHAL_BOUND,
    ANGULAR_POLAR_BOUND,
    TestFunction,
    build_grid,
    interval_rule,
    shifted_variance,
    sphere_dirichlet,
)
from isofp.weights import (
    WeightFunction,
    angular_weight_function,
    critical_tail_radius,
    gamma_radial_weight,
    optimal_cauchy_weight,
    p_weight_function,
)

from oracles import (Integrator, bilinear_member, integrate_interval, linear_members,
                     node_moments, pointwise, std_normal_1d, walk_plain_members)


def unit_weight():
    return WeightFunction(lambda x: np.ones_like(np.asarray(x, dtype=float)))


def one_shape():
    return Fn1D("one", lambda x: np.ones_like(np.asarray(x, dtype=float)),
                lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def identity_shape():
    return Fn1D("id", lambda x: np.asarray(x, dtype=float),
                lambda x: np.ones_like(np.asarray(x, dtype=float)))


def dirichlet_form(d, w, phi):
    """E[w(|X|) |grad phi|^2] on a grid split at the knots of phi and w,
    walked over its nodes."""
    grid = build_grid(d, [phi], extra_breakpoints=w.breakpoints)
    return node_moments(grid, pointwise(phi), [grid.radial_values(w)]).dirichlet[0]


@pytest.fixture
def walk_plain(monkeypatch):
    """The n-D checks take a member with neither kernel through the
    oracle walk over the grid's nodes."""
    walk_plain_members(monkeypatch)


def assert_all_pass(reports, tol=1e-6):
    s = summarize_reports(reports)
    assert s["failed"] == 0, [r.witness for r in reports
                              if r.status == "ok" and not r.passed]
    assert s["passed"] > 0
    assert s["max_ratio"] <= 1.0 + tol
    return s


class TestCorpora:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nd_size(self, n):
        assert len(corpus_nd(n, seed=0)) >= 40

    def test_1d_size(self):
        assert len(corpus_1d((-math.inf, math.inf), seed=0)) >= 40
        assert len(corpus_1d((0.0, math.inf), seed=0)) >= 40
        assert len(corpus_1d((0.0, 2 * math.pi), seed=0)) >= 40

    def test_outside_ball_size_and_support(self):
        c = corpus_outside_ball(3, 2.0, seed=0)
        assert len(c) >= 40
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.0, 2.0, size=(200, 3))
        pts = pts[np.linalg.norm(pts, axis=1) <= 2.0]
        for m in c:
            assert np.max(np.abs(m(pts))) < 1e-13
            assert np.max(np.abs(m.grad(pts))) < 1e-13

    def test_product_size(self):
        assert len(corpus_product([(-math.inf, math.inf)] * 2, seed=0)) >= 40

    def test_seed_reproducibility(self):
        a = corpus_nd(2, seed=7)
        b = corpus_nd(2, seed=7)
        pts = np.random.default_rng(1).normal(size=(50, 2))
        for ma, mb in zip(a, b):
            assert ma.name == mb.name
            assert np.array_equal(pointwise(ma)(pts), pointwise(mb)(pts))


class TestPoincare1D:
    def test_gaussian_sharp_witness(self):
        f = std_normal_1d()
        corpus = corpus_1d(f.support, seed=3, include_linear=True)
        reports = check_poincare_1d(f, unit_weight(), corpus)
        assert_all_pass(reports)
        linear = [r for r in reports if r.witness == "linear"][0]
        assert abs(linear.ratio - 1.0) < 1e-6

    def test_gamma_radial_weight(self):
        d = make_density("exponential_type", {"beta": 1.0}, 3)
        f = radial_marginal(d).as_density1d()
        reports = check_poincare_1d(f, gamma_radial_weight(1.0),
                                    corpus_1d(f.support, seed=4))
        assert_all_pass(reports)

    def test_uniform_azimuthal_cosine(self):
        from isofp.corpus import Fn1D

        f = uniform_angle_density()
        member = Fn1D("cos", lambda t: np.cos(np.asarray(t, dtype=float)),
                      lambda t: -np.sin(np.asarray(t, dtype=float)))
        reports = check_poincare_1d(f, angular_weight_function(2, 3), [member])
        assert reports[0].passed and reports[0].ratio <= 1.0

    def test_cauchy_full_line_with_K(self):
        d = make_density("cauchy_type", {"beta": 4.0}, 1)
        f = full_line_density(d)
        reports = check_poincare_1d(f, closed_form_weight(d),
                                    corpus_1d(f.support, seed=5))
        assert_all_pass(reports)

    def test_report_scale_invariance(self):
        from isofp.corpus import Fn1D

        f = std_normal_1d()
        g = Fn1D("tanh", lambda x: np.tanh(np.asarray(x, dtype=float)),
                 lambda x: 1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2)
        s, c = 4.2, -3.1
        gs = Fn1D("tanh_scaled", lambda x: s * np.tanh(np.asarray(x, dtype=float)) + c,
                  lambda x: s / np.cosh(np.asarray(x, dtype=float)) ** 2)
        r1 = check_poincare_1d(f, unit_weight(), [g])[0]
        r2 = check_poincare_1d(f, unit_weight(), [gs])[0]
        assert abs(r1.ratio - r2.ratio) < 1e-9


# ---------------------------------------------------------------------------
# Nested-quadrature oracle: the adaptive path the 1-D check used to take
# ---------------------------------------------------------------------------

NESTED = Integrator(rel_tol=1e-11, abs_tol=1e-13, max_subdivisions=400)


def nested_poincare_1d(f, w, phi):
    """(lhs, rhs) by three adaptive integrals with w inside the integrand."""
    a, b = f.support
    bp = tuple(set(phi.breakpoints) | set(w.breakpoints))
    shift = float(phi(f.mean))
    mean, _ = integrate_interval(lambda x: (float(phi(x)) - shift) * float(f(x)),
                                 a, b, NESTED, bp)
    lhs, _ = integrate_interval(lambda x: (float(phi(x)) - shift - mean) ** 2 * float(f(x)),
                                a, b, NESTED, bp)

    def rhs_integrand(x):
        fv = float(f(x))
        return 0.0 if fv <= 0.0 else float(w(x)) * float(phi.deriv(x)) ** 2 * fv

    rhs, _ = integrate_interval(rhs_integrand, a, b, NESTED, bp)
    return lhs, rhs


def chi3_P(x):
    """P(x) of the chi law with 3 degrees of freedom (the radial marginal of
    the standard Gaussian in n = 3) in closed form, one point at a time."""
    from scipy.special import erf, erfcx

    m = 2.0 * math.sqrt(2.0 / math.pi)
    c = math.sqrt(math.pi / 2.0)
    if x <= m:
        e = math.exp(-x * x / 2.0)
        inner = m * (c * erf(x / math.sqrt(2.0)) - x * e) - (2.0 - (x * x + 2.0) * e)
        return inner / (x * x * e)
    return (x * x + 2.0 - m * (x + c * erfcx(x / math.sqrt(2.0)))) / (x * x)


def line_problem(spec):
    """The density and weight that ``reports_for_pair`` checks for ``spec``."""
    d = parse_density_spec(spec)
    if d.n == 1 and not d.half_line:
        return full_line_density(d), closed_form_weight(d)
    f = radial_marginal(d).as_density1d()
    return f, (closed_form_weight(d) if d.half_line else marginal_weight(d))


class TestPoincare1DAgainstNested:
    """The fixed-rule check against the adaptive nested path it replaced,
    on the seed-2024 corpora of the ``run`` densities."""

    @pytest.mark.parametrize("spec", [
        "gaussian:sigma=1,n=1",
        "gaussian:sigma=1,n=3",
        "inverse_gamma:mu=2,n=1",
        "cauchy:beta=3,n=2",
        "exponential:beta=1,n=2",
        "barenblatt:a=1,p=2,n=2",
    ])
    def test_matches_nested_quadrature(self, spec):
        f, w = line_problem(spec)
        corpus = corpus_1d(f.support, seed=2024, include_linear=spec.startswith("gaussian"))
        reports = {r.witness: r for r in check_poincare_1d(f, w, corpus)}
        # the oracle takes P of the chi-3 marginal in closed form, so the
        # check's tabulated P is compared as well
        w_oracle = w
        if spec == "gaussian:sigma=1,n=3":
            w_oracle = WeightFunction(chi3_P)
        for phi in corpus:
            rep = reports[phi.name]
            lhs, rhs = nested_poincare_1d(f, w_oracle, phi)
            assert rep.status == "ok" and rep.passed, phi.name
            assert abs(rep.lhs - lhs) <= 1e-9 * lhs, phi.name
            assert abs(rep.rhs - rhs) <= 1e-9 * rhs, phi.name
            assert abs(rep.ratio - lhs / rhs) <= 1e-9 * rep.ratio, phi.name
            assert rep.details["order"] == 12 and rep.details["nodes"][0] > 100
            assert rep.details["err_estimate"] <= 1e-9

    def test_unresolved_member_is_inconclusive(self):
        # cos(300 x) oscillates many times per panel: the halved rule
        # disagrees, and the member is inconclusive, not failed
        fast = Fn1D("cos300", lambda x: np.cos(300.0 * np.asarray(x, dtype=float)),
                    lambda x: -300.0 * np.sin(300.0 * np.asarray(x, dtype=float)))
        slow = Fn1D("tanh", lambda x: np.tanh(np.asarray(x, dtype=float)),
                    lambda x: 1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2)
        fast_rep, slow_rep = check_poincare_1d(std_normal_1d(), unit_weight(), [fast, slow])
        assert fast_rep.status == "inconclusive" and not fast_rep.passed
        assert fast_rep.details["err_estimate"] > 1e-6
        assert slow_rep.status == "ok" and slow_rep.passed
        s = summarize_reports([fast_rep, slow_rep])
        assert (s["inconclusive"], s["failed"], s["passed"]) == (1, 0, 1)


class TestProduct:
    def test_two_normals_bilinear(self):
        f = std_normal_1d()
        corpus = corpus_product([f.support] * 2, seed=4) + [bilinear_member(2)]
        reports = check_product([f, f], [unit_weight()] * 2, corpus)
        assert_all_pass(reports)
        bil = [r for r in reports if "bilinear" in r.witness][0]
        assert abs(bil.lhs - 1.0) < 1e-9
        assert abs(bil.rhs - 2.0) < 1e-9

    def test_single_coordinate_consistency(self):
        # a member of x_1 alone reproduces the 1-D report of its shape
        f, w = std_normal_1d(), unit_weight()
        g = Fn1D("gauss", lambda x: np.exp(-(np.asarray(x, dtype=float) - 0.5) ** 2),
                 lambda x: -2.0 * (np.asarray(x, dtype=float) - 0.5)
                 * np.exp(-(np.asarray(x, dtype=float) - 0.5) ** 2))
        r1d = check_poincare_1d(f, w, [g])[0]
        member = SeparableMember("only_g", [g, one_shape()], "product")
        rep = check_product([f, f], [w, w], [member])[0]
        for got, want in ((rep.lhs, r1d.lhs), (rep.rhs, r1d.rhs), (rep.ratio, r1d.ratio)):
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_unresolved_member_is_inconclusive(self):
        # cos(300 x_1) is not resolved by the factor rule, tanh(x_2) is
        f = std_normal_1d()
        fast = Fn1D("cos300", lambda x: np.cos(300.0 * np.asarray(x, dtype=float)),
                    lambda x: -300.0 * np.sin(300.0 * np.asarray(x, dtype=float)))
        slow = Fn1D("tanh", lambda x: np.tanh(np.asarray(x, dtype=float)),
                    lambda x: 1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2)
        members = [SeparableMember("cos300_x1", [fast, one_shape()], "product"),
                   SeparableMember("tanh_x2", [one_shape(), slow], "product")]
        fast_rep, slow_rep = check_product([f, f], [unit_weight()] * 2, members)
        assert fast_rep.status == "inconclusive" and not fast_rep.passed
        assert fast_rep.details["err_estimate"] > 1e-6
        assert slow_rep.status == "ok" and slow_rep.passed
        s = summarize_reports([fast_rep, slow_rep])
        assert (s["inconclusive"], s["failed"], s["passed"]) == (1, 0, 1)

    def test_spherical_factorization(self):
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        f_r = radial_marginal(d).as_density1d()
        f1, f2 = sin_power_density(1), uniform_angle_density()
        corpus = corpus_product([f_r.support, f1.support, f2.support], seed=9)
        reports = check_product(
            [f_r, f1, f2],
            [p_weight_function(f_r), angular_weight_function(1, 3),
             angular_weight_function(2, 3)],
            corpus)
        assert_all_pass(reports)

    def test_five_normals_sum_is_sharp(self):
        f = std_normal_1d()
        member = SeparableMember("sum_x", [identity_shape()] * 5, "sum")
        rep = check_product([f] * 5, [unit_weight()] * 5, [member])[0]
        # rhs is five factor masses and lhs five factor variances E[x^2]
        assert abs(rep.rhs - 5.0) < 1e-12
        assert abs(rep.lhs - 5.0) < 1e-11
        assert abs(rep.ratio - 1.0) < 1e-11

    def test_member_has_no_values_at_points(self):
        member = corpus_product([(-math.inf, math.inf)] * 2, seed=0)[0]
        pts = np.zeros((3, 2))
        for method in (member, member.grad):
            with pytest.raises(TypeError, match=f"{member.name!r} has no values at points"):
                method(pts)

    def test_rejects_member_without_factor_shapes(self):
        f = std_normal_1d()
        member = constant_member(2, 1.0)
        with pytest.raises(ValueError, match="const_1.0.*factor shapes"):
            check_product([f, f], [unit_weight()] * 2, [member])

    def test_matches_tensor_mesh(self):
        # the tensor mesh over the same factor rules, evaluated with the
        # members' own __call__ and grad, is the oracle for the 1-D moments
        d = make_density("cauchy_type", {"beta": 3.0}, 2)
        factors = [radial_marginal(d).as_density1d(), uniform_angle_density()]
        weights = [optimal_cauchy_weight(3.0, 2), angular_weight_function(1, 2)]
        corpus = list(corpus_product([f.support for f in factors], seed=2024))
        reports = check_product(factors, weights, corpus)

        rules = [_factor_rules(f, w, set().union(*(m.shapes[i].breakpoints for m in corpus)))[0]
                 for i, (f, w) in enumerate(zip(factors, weights))]
        pts = np.stack([x.ravel() for x in
                        np.meshgrid(*(r[0] for r in rules), indexing="ij")], axis=1)
        pw = np.multiply.outer(rules[0][1], rules[1][1]).ravel()
        w_mesh = [m.ravel() for m in np.meshgrid(*(r[3] for r in rules), indexing="ij")]
        anchor = int(np.argmax(pw))

        def close(got, want):
            return abs(got - want) <= 1e-12 * abs(want)

        by_name = {m.name: m for m in corpus}
        assert len(reports) == len(corpus)
        for rep in reports:
            phi = pointwise(by_name[rep.witness])
            lhs = shifted_variance(pw, phi(pts), anchor)
            g = phi.grad(pts)
            per_axis = [float(np.dot(pw, w_mesh[i] * g[:, i] ** 2)) for i in range(2)]
            assert close(rep.lhs, lhs), rep.witness
            assert close(rep.rhs, sum(per_axis)), rep.witness
            for got, want in zip(rep.details["per_axis"], per_axis):
                assert close(got, want), rep.witness


class TestWstar:
    def test_cauchy(self):
        d = make_density("cauchy_type", {"beta": 4.0}, 3)
        reports = check_isotropic_Wstar(d, corpus_nd(3, seed=12),
                                        optimal_cauchy_weight(4.0, 3))
        assert_all_pass(reports)

    def test_constant_phi_ratio_zero(self):
        d = make_density("gaussian", {"sigma": 1.0}, 2)
        reports = check_isotropic_Wstar(d, [constant_member(2, 2.5)], unit_weight())
        assert reports[0].passed and reports[0].ratio == 0.0

    def test_split_recorded_and_dominated(self):
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        w = unit_weight()
        corpus = list(corpus_nd(3, seed=2))[:6]
        reports = check_isotropic_Wstar(d, corpus, w)
        for r in reports:
            split_sum = r.details["radial_part"] + r.details["angular_part"]
            # variance <= split bound <= composite-weight bound
            assert r.lhs <= split_sum * (1.0 + 1e-6) + 1e-15
            assert split_sum <= r.rhs * (1.0 + 1e-9) + 1e-15

    @pytest.mark.parametrize("n", [2, 3])
    def test_angular_err_covers_the_angular_rule(self, n, monkeypatch):
        # against a 64-point rule: the halved azimuth's difference covers
        # the error of a mixture's angular part, and a polar member's
        # angular factor is a low-degree polynomial, exact on both rules
        d = make_density("gaussian", {"sigma": 1.0}, n)
        corpus = list(corpus_nd(n, seed=2024))[::3]
        reports = check_isotropic_Wstar(d, corpus, unit_weight())
        monkeypatch.setattr(quadrature, "_ANGULAR_ORDER", 64)
        fine = check_isotropic_Wstar(d, corpus, unit_weight())
        mixtures = 0
        for rep, ref in zip(reports, fine, strict=True):
            part, err = rep.details["angular_part"], rep.details["angular_err"]
            total = rep.details["radial_part"] + part
            if rep.witness.startswith("random"):
                mixtures += 1
                assert 0.0 < abs(part - ref.details["angular_part"]) <= err, rep.witness
            else:
                assert err <= 1e-13 * total, rep.witness
        assert mixtures >= 4

    def test_inflated_weight_dominates(self):
        d = make_density("exponential_type", {"beta": 1.0}, 2)
        w = gamma_radial_weight(1.0)
        corpus = list(corpus_nd(2, seed=3))[:8]
        base = check_isotropic_Wstar(d, corpus, w)
        doubled = WeightFunction(lambda r: 2.0 * w(r))
        inflated = check_isotropic_Wstar(d, corpus, doubled)
        for rb, ri in zip(base, inflated):
            assert ri.rhs >= rb.rhs * (1.0 - 1e-12)

    def test_gaussian_n4(self):
        # the polar members and one mixture on the n = 4 grid of 10M nodes
        d = parse_density_spec("gaussian:sigma=2.5,n=4")
        corpus = [m for m in corpus_nd(4, seed=2024) if m.polar or m.name == "random0"]
        reports = check_isotropic_Wstar(d, corpus, marginal_weight(d))
        assert len(reports) == len(corpus) == 51
        assert_all_pass(reports)


def constant_member(n, c):
    """The constant c as a polar member, which the polar kernel takes."""
    return PolarMember(f"const_{c}", n, Fn1D("c", lambda r: np.full_like(r, c), np.zeros_like),
                       [(1.0, (0,) * n)])


def offset_linear_member(n):
    """1000 + 1e-6 x_1: variance 1e-12 under a standard normal."""
    def gr(p):
        g = np.zeros_like(p)
        g[:, 0] = 1e-6
        return g

    return TestFunction("offset_linear", n, lambda p: 1000.0 + 1e-6 * p[:, 0], gr)


def offset_radial_member(n):
    """1000 + 1e-6 |x|^2 as a polar member: variance 2n 1e-12 and E|grad|^2
    4n 1e-12 under a standard normal, so ratio 1/2."""
    return PolarMember("offset_radial", n,
                       Fn1D("offset", lambda r: 1000.0 + 1e-6 * r * r, lambda r: 2e-6 * r),
                       [(1.0, (0,) * n)])


def assert_exact_zero(report):
    assert report.lhs == 0.0 and report.ratio == 0.0 and report.passed


class TestConstantMembers:
    """Both sides vanish on constants, so every checker reports ratio 0.

    Centring on the raw mean leaves a roundoff variance of ~(eps c)^2
    against an exact rhs of 0, which read as ratio inf.
    """

    @pytest.mark.parametrize("c", [2.5, -7.3, 1000.0])
    def test_product_three_normals(self, c):
        f = std_normal_1d()
        const = Fn1D(f"const_{c}", lambda x: np.full_like(np.asarray(x, dtype=float), c),
                     lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        one = Fn1D("one", lambda x: np.ones_like(np.asarray(x, dtype=float)),
                   lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        member = SeparableMember(f"const_{c}", [const, one, one], "product")
        reports = check_product([f] * 3, [unit_weight()] * 3, [member])
        assert_exact_zero(reports[0])

    @pytest.mark.parametrize("c", [2.5, 1000.0])
    def test_gaussian_anisotropic(self, c):
        reports = check_gaussian_anisotropic(np.diag([1.0, 2.0, 3.0]),
                                             [constant_member(3, c)])
        assert_exact_zero(reports[0])

    def test_hybrid_gaussian_n3(self):
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        reports = check_hybrid(d, unit_weight(), closed_form_weight(d), 1.5,
                               [constant_member(3, -7.3)])
        assert_exact_zero(reports[0])
        assert reports[0].details["empirical_constant"] == 0.0

    @pytest.mark.parametrize("kind,params", [("gaussian", {"sigma": 1.0}),
                                             ("cauchy_type", {"beta": 4.0})])
    def test_wstar_n3(self, kind, params):
        d = make_density(kind, params, 3)
        reports = check_isotropic_Wstar(d, [constant_member(3, 1000.0)], unit_weight())
        assert_exact_zero(reports[0])

    def test_poincare_1d_std_normal(self):
        from isofp.corpus import Fn1D

        member = Fn1D("const", lambda x: np.full_like(np.asarray(x, dtype=float), 1000.0),
                      lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        reports = check_poincare_1d(std_normal_1d(), unit_weight(), [member])
        assert_exact_zero(reports[0])
        assert reports[0].details["mean"] == 1000.0

    def test_poincare_1d_divergent_mean(self):
        # the radial marginal of cauchy beta = 1.9 in n = 3 has no first
        # moment; the shift point falls back to a point inside the support
        from isofp.corpus import Fn1D

        f = radial_marginal(make_density("cauchy_type", {"beta": 1.9}, 3)).as_density1d()
        member = Fn1D("const", lambda x: np.full_like(np.asarray(x, dtype=float), 2.5),
                      lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        reports = check_poincare_1d(f, unit_weight(), [member])
        assert_exact_zero(reports[0])


class TestShiftHidesNoVariance:
    """The shift removes only roundoff: an offset member keeps its variance
    and the sharp Gaussian witnesses stay at ratio 1.

    The sharp witness with an offset, 1000 + 1e-6 x_1, has no polar form
    s(rho) a(u), so its n-D checks walk the grid's nodes; the polar kernel
    sees an offset in 1000 + 1e-6 |x|^2."""

    def test_gaussian_anisotropic_sharp(self, walk_plain):
        reports = check_gaussian_anisotropic(np.eye(3), [offset_linear_member(3)])
        assert abs(reports[0].lhs - 1e-12) < 1e-8 * 1e-12
        assert abs(reports[0].ratio - 1.0) < 1e-6

    def test_gaussian_anisotropic_polar_offset(self):
        reports = check_gaussian_anisotropic(np.eye(3), [offset_radial_member(3)])
        assert abs(reports[0].lhs - 6e-12) < 1e-8 * 6e-12
        assert abs(reports[0].ratio - 0.5) < 1e-6

    def test_poincare_1d_sharp(self):
        from isofp.corpus import Fn1D

        member = Fn1D("offset_linear",
                      lambda x: 1000.0 + 1e-6 * np.asarray(x, dtype=float),
                      lambda x: np.full_like(np.asarray(x, dtype=float), 1e-6))
        reports = check_poincare_1d(std_normal_1d(), unit_weight(), [member])
        assert abs(reports[0].ratio - 1.0) < 1e-6

    def test_wstar_unit_weight(self, walk_plain):
        # W* = max(1, pi^2 rho^2 / 2) exceeds the unit weight off a small
        # ball, so the full ratio is below 1; its radial part E[|phi'|^2]
        # is the sharp Gaussian bound, and the ratio is that of plain x_1,
        # which the polar kernel takes
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        (plain,) = linear_members(1)
        r_plain, r = check_isotropic_Wstar(d, [offset_linear_member(1), plain],
                                           unit_weight())
        assert r.witness == "offset_linear"
        assert abs(r.lhs / r.details["radial_part"] - 1.0) < 1e-6
        assert abs(r.ratio - r_plain.ratio) < 1e-6 * r_plain.ratio


class TestRefined:
    def test_gaussian_tail_bump(self):
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        K = closed_form_weight(d)
        reports = check_refined_outside_ball(d, K, 2.0,
                                             corpus_outside_ball(3, 2.0, seed=5))
        assert_all_pass(reports)

    def test_exponential_tail(self):
        d = make_density("exponential_type", {"beta": 1.0}, 2)
        K = closed_form_weight(d)
        R = 1.0 + math.sqrt(3.0)
        reports = check_refined_outside_ball(d, K, R,
                                             corpus_outside_ball(2, R, seed=6))
        assert_all_pass(reports)

    def test_barenblatt_inside_support(self):
        d = make_density("barenblatt", {"a": 1.0, "p": 2.0}, 2)
        K = closed_form_weight(d)
        R = critical_tail_radius(d, K)
        assert 0.0 < R < 1.0
        corpus = corpus_outside_ball(2, R, r_max=1.0, seed=7)
        reports = check_refined_outside_ball(d, K, R, corpus)
        assert_all_pass(reports)

    def test_support_guard_rejects(self):
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        K = closed_form_weight(d)
        intruder = list(corpus_nd(3, seed=1))[0]
        tail = list(corpus_outside_ball(3, 2.0, seed=5))[:2]
        reports = check_refined_outside_ball(d, K, 2.0, tail + [intruder])
        rejected = [r for r in reports if r.status == "rejected"]
        assert len(rejected) == 1
        assert "support" in rejected[0].details["reason"]

    def test_needs_two_dimensions(self):
        d = make_density("gaussian", {"sigma": 1.0}, 1)
        with pytest.raises(ValueError, match="n >= 2"):
            check_refined_outside_ball(d, closed_form_weight(d), 0.0, [])


@pytest.fixture(scope="module")
def setting():
    d = make_density("exponential_type", {"beta": 1.0}, 2)
    K = closed_form_weight(d)
    R = critical_tail_radius(d, K)
    w = gamma_radial_weight(1.0)
    return d, w, K, R


class TestHybrid:

    def test_inside_ball_member_has_zero_surface(self, setting):
        d, w, K, R = setting
        # supported strictly inside B_R: surface and outer terms vanish
        from isofp.corpus import _bump, _bump_deriv

        r1, wd = 0.5 * R, 0.2 * R

        def s(r):
            return _bump(r, 0.0, r1, 0.0, wd)

        def ds(r):
            return _bump_deriv(r, 0.0, r1, 0.0, wd)

        phi = PolarMember("inner_bump", 2, Fn1D("inner_bump", s, ds, breakpoints=(r1, r1 + wd)),
                          [(1.0, (0, 0))])
        reports = check_hybrid(d, w, K, R, [phi])
        r = reports[0]
        assert r.passed
        assert abs(r.details["surface_term"]) < 1e-14
        # the volume term reduces to the inner weight max(w, rho^2)
        inner = WeightFunction(
            lambda rr: np.maximum(w(rr), np.asarray(rr, dtype=float) ** 2),
            breakpoints=(r1, r1 + wd))
        direct = dirichlet_form(d, inner, phi)
        assert abs(r.details["volume_term"] - direct) < 1e-10 * max(direct, 1e-12)

    def test_outer_member_uses_K_only(self, setting):
        d, w, K, R = setting
        corpus = corpus_outside_ball(2, R + 1.0, seed=8)
        phi = list(corpus)[0]
        reports = check_hybrid(d, w, K, R, [phi])
        r = reports[0]
        assert abs(r.details["surface_term"]) < 1e-14
        direct = dirichlet_form(d, K, phi)
        assert abs(r.details["volume_term"] - direct) < 1e-9 * max(direct, 1e-12)

    def test_straddling_members_have_finite_empirical_constant(self, setting):
        d, w, K, R = setting
        corpus = corpus_nd(2, seed=31)
        reports = check_hybrid(d, w, K, R, corpus)
        ok = [r for r in reports if r.status == "ok"]
        assert len(ok) >= 40
        for r in ok:
            assert np.isfinite(r.details["empirical_constant"])
            assert r.details["empirical_constant"] <= 4.0  # default C_mult passes
        assert any("not pinned" in r.details["constants_note"] for r in ok)

    def test_unbounded_member_rejected(self, setting):
        d, w, K, R = setting
        corpus = corpus_nd(2, seed=1) + linear_members(2)
        reports = check_hybrid(d, w, K, R, corpus)
        rejected = [r for r in reports if r.status == "rejected"]
        assert rejected and "bounded" in rejected[0].details["reason"]


class TestGaussianAnisotropic:
    def test_identity_sharp(self):
        V = np.eye(2)
        reports = check_gaussian_anisotropic(V, corpus_anisotropic(V, seed=11))
        assert_all_pass(reports)
        lin = [r for r in reports if r.witness == "linear_x1"][0]
        assert abs(lin.ratio - 1.0) < 1e-6

    def test_diagonal_second_axis_sharp(self):
        V = np.diag([1.0, 4.0])
        reports = check_gaussian_anisotropic(V, corpus_anisotropic(V, seed=12))
        assert_all_pass(reports)
        lin = [r for r in reports if r.witness == "linear_x2"][0]
        assert abs(lin.lhs - 4.0) < 1e-8
        assert abs(lin.rhs - 4.0) < 1e-8

    def test_rotated_with_mean(self):
        # the whitened check has no mean: u drops out of both sides
        # (TestFullNodeOracle compares with the sums in x at u != 0)
        th = math.radians(30.0)
        Q = np.array([[math.cos(th), -math.sin(th)],
                      [math.sin(th), math.cos(th)]])
        V = Q @ np.diag([1.0, 4.0]) @ Q.T
        reports = check_gaussian_anisotropic(V, corpus_anisotropic(V, seed=13))
        assert_all_pass(reports)
        top = [r for r in reports if r.witness == "linear_top_eigvec"][0]
        assert abs(top.ratio - 1.0) < 1e-6
        bottom = [r for r in reports if r.witness == "linear_bottom_eigvec"][0]
        assert abs(bottom.ratio - 0.25) < 1e-8

    def test_rotated_n3(self):
        Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
        V = Q @ np.diag([0.5, 2.0, 3.5]) @ Q.T
        corpus = corpus_anisotropic(V, seed=14)
        reports = check_gaussian_anisotropic(V, corpus)
        assert len(reports) == len(corpus) >= 40
        assert_all_pass(reports)
        by_name = {r.witness: r for r in reports}
        assert abs(by_name["linear_top_eigvec"].ratio - 1.0) < 1e-10
        assert abs(by_name["linear_bottom_eigvec"].ratio - 0.5 / 3.5) < 1e-10

    def test_diagonal_n4(self):
        # each witness a . x has the ratio a^T V a / (lambda_max |a|^2)
        V = np.diag([1.0, 2.0, 3.0, 4.0])
        corpus = [m for m in corpus_anisotropic(V, seed=2024) if m.polar]
        reports = check_gaussian_anisotropic(V, corpus)
        assert len(reports) == len(corpus) >= 50
        assert_all_pass(reports)
        by_name = {r.witness: r.ratio for r in reports}
        exact = {"linear_x1": 0.25, "linear_x2": 0.5,
                 "linear_top_eigvec": 1.0, "linear_bottom_eigvec": 0.25}
        for name, ratio in exact.items():
            assert abs(by_name[name] - ratio) < 1e-6, name

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            check_gaussian_anisotropic(np.diag([1.0, -2.0]), [])

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_gaussian_anisotropic(np.array([[1.0, 0.5], [0.0, 1.0]]), [])


def scaled(w, s):
    return dataclasses.replace(w, fn=lambda r, fn=w.fn: s * fn(r))


class TestNegativeControls:
    """Each isotropic check, the 1-D check and the product check can fail:
    with its bound shrunk by s = 1e-3, members fail, and every ratio grows
    by exactly 1/s because the right-hand side is linear in the weight."""

    S = 1e-3

    def assert_scaled(self, base, shrunk):
        assert summarize_reports(shrunk)["failed"] > 0
        ok = [(a, b) for a, b in zip(base, shrunk) if a.status == "ok"]
        assert len(ok) >= 5
        for a, b in ok:
            assert a.witness == b.witness
            assert abs(b.ratio - a.ratio / self.S) <= 1e-12 * b.ratio, a.witness

    def test_wstar(self, monkeypatch):
        # scaling w alone would leave the pi^2 rho^2 / 2 branch of W*
        d = make_density("exponential_type", {"beta": 1.0}, 2)
        w = gamma_radial_weight(1.0)
        corpus = list(corpus_nd(2, seed=3))[::7]
        base = check_isotropic_Wstar(d, corpus, w)
        wstar = inequality.composite_Wstar
        monkeypatch.setattr(inequality, "composite_Wstar",
                            lambda d, w: scaled(wstar(d, w), self.S))
        self.assert_scaled(base, check_isotropic_Wstar(d, corpus, w))

    def test_refined(self):
        d = make_density("exponential_type", {"beta": 1.0}, 2)
        K = closed_form_weight(d)
        R = 1.0 + math.sqrt(3.0)
        corpus = list(corpus_outside_ball(2, R, seed=6))[:8]
        base = check_refined_outside_ball(d, K, R, corpus)
        self.assert_scaled(base, check_refined_outside_ball(d, scaled(K, self.S), R, corpus))

    def test_hybrid(self, setting):
        d, w, K, R = setting
        corpus = list(corpus_nd(2, seed=31))[::7]
        base = check_hybrid(d, w, K, R, corpus)
        self.assert_scaled(base, check_hybrid(d, w, K, R, corpus, C_mult=self.S * 4.0))

    def test_product(self):
        d = make_density("cauchy_type", {"beta": 3.0}, 2)
        factors = [radial_marginal(d).as_density1d(), uniform_angle_density()]
        weights = [optimal_cauchy_weight(3.0, 2), angular_weight_function(1, 2)]
        corpus = list(corpus_product([f.support for f in factors], seed=5))[::4]
        base = check_product(factors, weights, corpus)
        shrunk = check_product(factors, [scaled(w, self.S) for w in weights], corpus)
        self.assert_scaled(base, shrunk)

    def test_poincare_1d(self):
        # a Laplace law centred at its mean c, with the kink at c not listed
        # among its breakpoints: only P's breakpoint at the mean, a panel
        # edge of the rule, resolves it.  P(x) = 1 + |x - c| makes the
        # linear member sharp.
        c = 0.7
        f = Density1D("laplace@0.7", (-math.inf, math.inf),
                      lambda x: 0.5 * np.exp(-np.abs(np.asarray(x, dtype=float) - c)),
                      mean=c)
        w = p_weight_function(f)
        corpus = corpus_1d(f.support, seed=3, include_linear=True)
        corpus = corpus[:-1:5] + corpus[-1:]
        base = check_poincare_1d(f, w, corpus)
        linear = [r for r in base if r.witness == "linear"][0]
        assert abs(linear.ratio - 1.0) < 1e-9
        self.assert_scaled(base, check_poincare_1d(f, scaled(w, self.S), corpus))


# ---------------------------------------------------------------------------
# Full-node oracle: the per-node arrays the grid used to materialise
# ---------------------------------------------------------------------------


def _to_cartesian(rho, theta):
    m, k = theta.shape
    x = np.empty((m, k + 1))
    prefix = rho.copy()
    for j in range(k):
        x[:, j] = prefix * np.cos(theta[:, j])
        prefix = prefix * np.sin(theta[:, j])
    x[:, k] = prefix
    return x


def _dx_dtheta(rho, theta, i):
    m, k = theta.shape
    out = np.zeros((m, k + 1))
    sin, cos = np.sin(theta), np.cos(theta)
    prefix = np.empty((m, k + 1))
    prefix[:, 0] = rho
    for j in range(k):
        prefix[:, j + 1] = prefix[:, j] * sin[:, j]
    ii = i - 1
    out[:, ii] = -prefix[:, ii] * sin[:, ii]
    for j in range(ii + 1, k):
        out[:, j] = prefix[:, j] * cos[:, ii] / sin[:, ii] * cos[:, j]
    out[:, k] = prefix[:, k] * cos[:, ii] / sin[:, ii]
    return out


class FullNodes:
    """Node-sized arrays of a grid built with the default orders: radii,
    probability weights, points, e_rho = x / |x| and the tangents
    d x / d theta_i, each with one row per node.  The polar angles take
    24-point Gauss-Legendre and the azimuth the 24-point midpoint
    trapezoid rule."""

    def __init__(self, density, breakpoints, order=24):
        n = density.n
        r, r_w = interval_rule(0.0, density.support_radius, order=12, levels=22,
                               breakpoints=tuple(sorted(breakpoints)))
        if n == 1:
            self.theta, self.ang_w = np.zeros((2, 0)), np.ones(2)
            signs = np.array([1.0, -1.0])
        else:
            xg, wg = leggauss(order)
            step = 2.0 * math.pi / order
            axes = ([(xg + 1.0) * 0.5 * math.pi] * (n - 2)
                    + [(np.arange(order) + 0.5) * step])
            ws = [wg * 0.5 * math.pi * np.sin(axes[0]) ** (n - 1 - j)
                  for j in range(1, n - 1)] + [np.full(order, step)]
            self.theta = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                                  axis=1)
            w = ws[0]
            for wj in ws[1:]:
                w = np.multiply.outer(w, wj)
            self.ang_w = w.ravel()
        A = len(self.ang_w)
        self.r_nodes, self.density = r, density
        self.rho = np.repeat(r, A)
        weights = np.repeat(r_w * r ** (n - 1), A) * np.tile(self.ang_w, len(r))
        f = density.eval(self.rho)
        self.pw = weights * f / np.dot(weights, f)
        self.anchor = int(np.argmax(self.pw))
        if n == 1:
            self.points = (self.rho * np.tile(signs, len(r)))[:, None]
        else:
            theta = np.tile(self.theta, (len(r), 1))
            self.points = _to_cartesian(self.rho, theta)
            self.tangents = [_dx_dtheta(self.rho, theta, i) for i in range(1, n)]
        self.e_rho = self.points / self.rho[:, None]

    def radial(self, fn):
        vals = np.zeros_like(self.r_nodes)
        pos = self.density.eval(self.r_nodes) > 0.0
        vals[pos] = fn(self.r_nodes[pos])
        return np.repeat(vals, len(self.ang_w))

    def dirichlet(self, w_nodes, g):
        return float(np.dot(self.pw, w_nodes * np.einsum("ij,ij->i", g, g)))


def close(got, want, scale=0.0):
    return abs(got - want) <= 1e-12 * max(abs(want), scale)


class TestFullNodeOracle:
    """Each checker against the full-node formulas it used before the
    kernel, on grids walked in at least two radial blocks.  A Gaussian
    mixture's variance and Dirichlet forms are exact in angle, so theirs
    come from the walk on a 64-point angular rule (:meth:`fine_walk`)."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """The grids the checkers build, the breakpoints they split at, and
        the sizes of the evaluations of a counting member."""
        out = {"grids": [], "calls": []}
        real = inequality.build_grid

        def build(density, phis=(), extra_breakpoints=()):
            bp = set(extra_breakpoints).union(*(p.radial_breakpoints for p in phis))
            out["grids"].append((real(density, phis, extra_breakpoints), bp))
            return out["grids"][-1][0]

        monkeypatch.setattr(inequality, "build_grid", build)
        walk_plain_members(monkeypatch)  # the counting member
        return out

    def counting(self, member, calls):
        def ev(p):
            calls.append(len(p))
            return member(p)

        return TestFunction(member.name, member.n, ev, member.grad, support=member.support,
                            bounded=member.bounded,
                            radial_breakpoints=member.radial_breakpoints)

    def oracle(self, recorded, corpus):
        (grid, bp), = recorded["grids"]
        nodes = FullNodes(grid.density, bp)
        assert np.array_equal(nodes.r_nodes, grid.r_nodes)
        assert np.allclose(grid.points, nodes.points, rtol=0.0, atol=1e-13 * nodes.rho.max())
        # the counting member is evaluated once per block, and the blocks
        # tile the grid
        A = len(grid.ang_weights)
        blocks = [c for c in recorded["calls"] if c % A == 0]
        assert sum(blocks) == len(nodes.points) and len(blocks) >= 2
        return nodes, {m.name: m for m in corpus}

    def fine_walk(self, recorded, phi, monkeypatch, weight, split=None, radius=None):
        """The moments of ``phi`` walked over the checker's grid rebuilt
        with a 64-point angular rule, and with a ``radius`` also its
        :func:`sphere_dirichlet` there on that rule.  The 24-point rule
        misses a mixture's Dirichlet forms by up to 3e-7 and its sphere
        integrals by up to 3e-4."""
        (grid, bp), = recorded["grids"]
        with monkeypatch.context() as mp:
            mp.setattr(quadrature, "_ANGULAR_ORDER", 64)
            fine = quadrature.HypersphericalGrid(grid.density, tuple(sorted(bp)))
        walker = pointwise(phi)
        split = None if split is None else fine.radial_values(split)
        m = node_moments(fine, walker, [fine.radial_values(weight)], split_weight=split)
        return m if radius is None else (m, sphere_dirichlet(fine, walker, radius))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_wstar(self, n, recorded, monkeypatch):
        if n < 3:
            monkeypatch.setattr(quadrature, "_BLOCK_NODES", 256)
        d = make_density("cauchy_type", {"beta": 4.0}, n)
        w = optimal_cauchy_weight(4.0, n)
        members = list(corpus_nd(n, seed=2024))[::8]  # radial, angular and mixed
        corpus = [self.counting(members[0], recorded["calls"])] + members[1:]
        reports = check_isotropic_Wstar(d, corpus, w)
        assert n == 1 or sum(r.details["angular_part"] > 1e-3 for r in reports) >= 3
        nodes, by_name = self.oracle(recorded, corpus)
        wstar = nodes.radial(inequality.composite_Wstar(d, w))
        w_rad = nodes.radial(w)
        bounds = [ANGULAR_POLAR_BOUND] * (n - 2) + [ANGULAR_AZIMUTHAL_BOUND] * (n > 1)
        for rep in reports:
            phi = by_name[rep.witness]
            at = pointwise(phi)
            g = at.grad(nodes.points)
            radial = float(np.dot(nodes.pw, w_rad * np.einsum("ij,ij->i", g, nodes.e_rho) ** 2))
            angular = sum(b * float(np.dot(nodes.pw, np.einsum("ij,ij->i", g, t) ** 2))
                          for b, t in zip(bounds, getattr(nodes, "tangents", [])))
            lhs = shifted_variance(nodes.pw, at(nodes.points), nodes.anchor)
            rhs = nodes.dirichlet(wstar, g)
            if phi.mixture is not None:
                m = self.fine_walk(recorded, phi, monkeypatch,
                                   inequality.composite_Wstar(d, w), w)
                lhs, (rhs,), radial = m.variance, m.dirichlet, m.radial
            assert close(rep.lhs, lhs)
            assert close(rep.rhs, rhs)
            assert close(rep.details["radial_part"], radial)
            assert close(rep.details["angular_part"], angular, radial + angular)

    def test_refined(self, recorded):
        d = make_density("gaussian", {"sigma": 1.0}, 3)
        K = closed_form_weight(d)
        members = list(corpus_outside_ball(3, 2.0, seed=5))[:5]
        corpus = [self.counting(members[0], recorded["calls"])] + members[1:]
        reports = check_refined_outside_ball(d, K, 2.0, corpus)
        nodes, by_name = self.oracle(recorded, corpus)
        K_nodes = nodes.radial(K)
        for rep in reports:
            phi = by_name[rep.witness]
            assert close(rep.lhs, shifted_variance(nodes.pw, phi(nodes.points), nodes.anchor))
            assert close(rep.rhs, 2.0 * nodes.dirichlet(K_nodes, phi.grad(nodes.points)))

    def test_hybrid(self, setting, recorded, monkeypatch):
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 256)
        d, w, K, R = setting
        members = [m for m in corpus_nd(2, seed=31) if m.bounded][::7]
        corpus = [self.counting(members[0], recorded["calls"])] + members[1:]
        reports = check_hybrid(d, w, K, R, corpus)
        nodes, by_name = self.oracle(recorded, corpus)
        W_nodes = nodes.radial(inequality.hybrid_weight(w, K, R))
        sphere = _to_cartesian(np.full(len(nodes.theta), R), nodes.theta)
        f_R = float(d.eval(R))
        assert any(r.details["surface_term"] > 1e-3 for r in reports)
        for rep in reports:
            phi = by_name[rep.witness]
            at = pointwise(phi)
            volume = nodes.dirichlet(W_nodes, at.grad(nodes.points))
            lhs = shifted_variance(nodes.pw, at(nodes.points), nodes.anchor)
            gs = at.grad(sphere)
            on_sphere = float(np.dot(nodes.ang_w, np.einsum("ij,ij->i", gs, gs)))
            if phi.mixture is not None:
                m, on_sphere = self.fine_walk(recorded, phi, monkeypatch,
                                              inequality.hybrid_weight(w, K, R), radius=R)
                lhs, (volume,) = m.variance, m.dirichlet
            surface = f_R * R ** (d.n - 1) * on_sphere
            assert close(rep.lhs, lhs)
            assert close(rep.details["volume_term"], volume)
            assert close(rep.details["surface_term"], surface, volume + surface)
            assert close(rep.rhs, 4.0 * (volume + rep.details["c_R"] * surface))

    def test_gaussian_anisotropic(self, recorded):
        # each member psi(y) is the test function phi(x) = psi(G (x - u)),
        # G = H^-1, and the report is Var[phi] <= lambda_max E[|grad phi|^2]
        # under N(u, V), summed over the nodes x = u + H y
        V = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 3.0]])
        u = np.array([0.4, -0.7, 0.1])
        members = list(corpus_anisotropic(V, seed=13))[::8]
        # polar members, a mixture and a linear witness
        assert {"exp_u@whitened", "random6@whitened", "linear_x1"} <= {m.name for m in members}
        corpus = [self.counting(members[0], recorded["calls"])] + members[1:]
        reports = check_gaussian_anisotropic(V, corpus)
        nodes, by_name = self.oracle(recorded, corpus)
        lam, Q = np.linalg.eigh(V)
        H = Q @ np.diag(np.sqrt(lam))
        G = np.linalg.inv(H)
        pts_x = u[None, :] + nodes.points @ H.T
        pts_y = (pts_x - u[None, :]) @ G.T
        ones = np.ones(len(nodes.pw))
        for rep in reports:
            psi = pointwise(by_name[rep.witness])
            grad_x = psi.grad(pts_y) @ G
            assert close(rep.lhs, shifted_variance(nodes.pw, psi(pts_y), nodes.anchor))
            assert close(rep.rhs, lam.max() * nodes.dirichlet(ones, grad_x))
