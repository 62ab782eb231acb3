"""Every derivative the checks read, against finite differences.

The checks take a member's exact derivative: a 1-D shape's ``deriv`` (the
1-D and product checks), a polar profile's ``s.deriv`` (the polar kernel,
the hybrid check's sphere integral and the refined check's guard), or a
mixture's parameters.  Members are not checked when they are built, so
this module compares each of them with a Richardson-extrapolated central
difference on the corpora the default ``run`` and the benchmark
workloads build, and checks that every outside-ball member vanishes,
with its gradient, on the closed ball.
"""

import math

import numpy as np
import pytest

from isofp.cli import DEFAULT_CONFIG
from isofp.corpus import (Fn1D, PolarMember, corpus_1d, corpus_anisotropic,
                          corpus_nd, corpus_outside_ball, corpus_product)
from isofp.densities import closed_form_weight, make_density, parse_density_spec
from isofp.inequality import check_refined_outside_ball
from isofp.weights import WeightError, critical_tail_radius

from oracles import Pointwise, bilinear_member, linear_members, pointwise

# the default corpus seed and the reference seeds of the n3-grid and
# line-relax benchmark workloads
SEEDS = (2024, 2025, 2026, 2027, 2047, 2077, 2079)
TOL = 1e-6  # relative to max(1, |derivative|)
KNOT_GAP = 1e-3  # probes keep this far from a C^2 knot, where f''' jumps
PROBES = 32


def fd_mismatch(f, pts, grad, h=1e-5):
    """max |fd - grad| / max(1, |grad|) over the rows of ``pts`` (m, n).

    fd takes central differences at h and h / 2 along each axis, all in
    one call of ``f``, Richardson-extrapolated: O(h^4), so a probe on a
    steep C^2 rise does not pass its O(h^2) error off as a wrong gradient.
    """
    m, n = pts.shape
    steps = np.multiply.outer([h, -h, 0.5 * h, -0.5 * h], np.eye(n))
    vals = np.asarray(f((pts[None, None] + steps[:, :, None]).reshape(-1, n)))
    vals = vals.reshape(4, n, m)
    d_h = (vals[0] - vals[1]) / (2.0 * h)
    d_half = (vals[2] - vals[3]) / h
    fd = ((4.0 * d_half - d_h) / 3.0).T
    grad = np.asarray(grad).reshape(m, n)
    return float(np.max(np.abs(fd - grad) / np.maximum(1.0, np.abs(grad))))


def away_from(x, knots):
    """The entries of ``x`` at least KNOT_GAP from every knot."""
    if not len(knots):
        return x
    return x[np.min(np.abs(x[:, None] - np.asarray(knots)[None, :]), axis=1) > KNOT_GAP]


def shape_mismatch(g, lo, hi, rng):
    """fd_mismatch of a 1-D shape or profile against its ``deriv`` on (lo, hi)."""
    x = away_from(rng.uniform(lo, hi, PROBES), g.breakpoints)[:, None]
    return fd_mismatch(lambda p: g(p[:, 0]), x, g.deriv(x[:, 0]))


def member_mismatch(phi, lo, hi, rng):
    """fd_mismatch of an n-D member's ``grad`` against its values, at radii
    in (lo, hi) away from its radial knots and uniform directions; the
    member takes its values and gradients from :mod:`oracles`."""
    phi = pointwise(phi)
    rho = away_from(rng.uniform(lo, hi, 4 * PROBES), phi.radial_breakpoints)[:PROBES]
    u = rng.normal(size=(len(rho), phi.n))
    pts = rho[:, None] * u / np.linalg.norm(u, axis=1)[:, None]
    return fd_mismatch(phi, pts, phi.grad(pts))


def window(a, b):
    """A probe interval for the support (a, b): infinite ends are cut."""
    lo = a if math.isfinite(a) else -6.0
    return lo, (b if math.isfinite(b) else lo + 12.0)


def assert_members(corpus, lo, hi, seed):
    """Every member's gradient, and every polar member's profile, on radii (lo, hi)."""
    rng = np.random.default_rng(seed)
    for phi in corpus:
        assert member_mismatch(phi, lo, hi, rng) <= TOL, phi.name
        if isinstance(phi, PolarMember):
            assert shape_mismatch(phi.polar[0], 0.0, hi, rng) <= TOL, phi.name


def tail_settings():
    """(n, R, r_max) of the outside-ball corpus of every default n >= 2
    density with a tail radius, and of the steep Barenblatt case, each
    with the density as its id."""
    out = []
    for spec in DEFAULT_CONFIG["densities"] + ["barenblatt:a=2,p=1.5,n=2"]:
        d = parse_density_spec(spec)
        if d.n < 2:
            continue
        try:
            R = critical_tail_radius(d, closed_form_weight(d))
        except WeightError:
            continue
        out.append(pytest.param(d.n, R, d.support_radius, id=spec))
    return out


TAILS = tail_settings()
SUPPORTS_1D = [(-math.inf, math.inf), (0.0, math.inf), (0.0, 1.0), (0.0, math.pi),
               (0.0, 2.0 * math.pi)]
PRODUCT_BOXES = [((0.0, math.inf), (0.0, 2.0 * math.pi)),
                 ((0.0, math.inf), (0.0, math.pi), (0.0, 2.0 * math.pi)),
                 ((0.0, 1.0), (0.0, 2.0 * math.pi))]
COVARIANCES = [spec["V"] for spec in DEFAULT_CONFIG["anisotropic_covariances"]] + [
    np.diag([0.5, 2.0, 3.5])]


@pytest.mark.parametrize("seed", SEEDS)
class TestDerivatives:
    @pytest.mark.parametrize("support", SUPPORTS_1D, ids=str)
    def test_corpus_1d(self, seed, support):
        rng = np.random.default_rng(seed)
        lo, hi = window(*support)
        for g in corpus_1d(support, seed=seed, include_linear=True):
            assert shape_mismatch(g, lo, hi, rng) <= TOL, g.name

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [1.0, 0.45])
    def test_corpus_nd(self, seed, n, scale):
        corpus = corpus_nd(n, seed=seed, scale=scale) + linear_members(n)
        assert_members(corpus, 0.0, 4.0 * scale, seed)

    @pytest.mark.parametrize("n,R,r_max", TAILS)
    def test_corpus_outside_ball(self, seed, n, R, r_max):
        corpus = corpus_outside_ball(n, R, r_max=r_max, seed=seed)
        span = r_max - R if math.isfinite(r_max) else max(2.0, R)
        assert_members(corpus, R, R + span, seed)

    @pytest.mark.parametrize("V", COVARIANCES, ids=["V0", "V1", "V2", "diag3"])
    def test_corpus_anisotropic(self, seed, V):
        assert_members(corpus_anisotropic(V, seed=seed), 0.0, 4.0, seed)

    @pytest.mark.parametrize("supports", PRODUCT_BOXES, ids=lambda s: f"n{len(s)}")
    def test_corpus_product(self, seed, supports):
        rng = np.random.default_rng(seed)
        windows = [window(*s) for s in supports]
        for phi in corpus_product(supports, seed=seed) + [bilinear_member(len(supports))]:
            for g, (lo, hi) in zip(phi.shapes, windows):
                assert shape_mismatch(g, lo, hi, rng) <= TOL, (phi.name, g.name)
            pts = np.stack([away_from(rng.uniform(lo, hi, 4 * PROBES), g.breakpoints)[:PROBES]
                            for g, (lo, hi) in zip(phi.shapes, windows)], axis=1)
            at_points = pointwise(phi)  # the product or sum of oracles
            assert fd_mismatch(at_points, pts, at_points.grad(pts)) <= TOL, phi.name

    @pytest.mark.parametrize("n,R,r_max", TAILS)
    def test_outside_ball_members_vanish_on_the_ball(self, seed, n, R, r_max):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(256, n))
        u /= np.linalg.norm(u, axis=1)[:, None]
        # radii uniform on [0, R], the sphere |x| = R included
        pts = R * np.append(rng.uniform(0.0, 1.0, 224), np.ones(32))[:, None] * u
        for phi in corpus_outside_ball(n, R, r_max=r_max, seed=seed):
            assert phi.support == ("outside_ball", R), phi.name
            at_points = pointwise(phi)
            assert np.max(np.abs(at_points(pts))) <= 1e-13, phi.name
            assert np.max(np.abs(at_points.grad(pts))) <= 1e-13, phi.name


class TestTheCheckCanFail:
    def square(self, p):
        return np.einsum("ij,ij->i", p, p)

    def test_gradient_check_catches_bad_gradient(self):
        pts = np.random.default_rng(0).uniform(-3.0, 3.0, (PROBES, 2))
        assert fd_mismatch(self.square, pts, 2.0 * pts) <= TOL
        assert fd_mismatch(self.square, pts, 3.0 * pts) > TOL  # should be 2 p

    def test_gradient_check_catches_small_error(self):
        # a 2e-6 relative error is twice the tolerance
        pts = np.random.default_rng(0).uniform(-3.0, 3.0, (PROBES, 2))
        assert fd_mismatch(self.square, pts, 2.0 * (1.0 + 2e-6) * pts) > TOL
        rho = Fn1D("rho2", lambda r: r * r, lambda r: 2.0 * (1.0 + 2e-6) * r)
        assert shape_mismatch(rho, 0.0, 3.0, np.random.default_rng(0)) > TOL

    def test_refined_check_rejects_a_member_not_vanishing_inside(self):
        # exp(-|x|^2) with no polar factors, and exp(-rho^2) u_1^2 u_2^2, whose
        # angular factor vanishes on the coordinate axes: it reads 0.15 at
        # (0.5, 0.5), and probes along the axes would admit it
        gauss = Fn1D("gauss", lambda r: np.exp(-r * r), lambda r: -2.0 * r * np.exp(-r * r))
        plain = Pointwise("liar", 2, lambda p: np.exp(-self.square(p)),
                          lambda p: -2.0 * np.exp(-self.square(p))[:, None] * p,
                          support=("outside_ball", 1.0))
        polar = PolarMember("polar_liar", 2, gauss, [(1.0, (2, 2))],
                            support=("outside_ball", 1.0))
        at_points = pointwise(polar)
        assert at_points(np.eye(2)).tolist() == [0.0, 0.0]
        assert abs(at_points(np.array([[0.5, 0.5]]))[0] - 0.25 * math.exp(-0.5)) < 1e-15
        d = make_density("gaussian", {"sigma": 1.0}, 2)
        reports = check_refined_outside_ball(d, closed_form_weight(d), 1.0, [plain, polar])
        assert [r.witness for r in reports] == ["liar", "polar_liar"]
        for report in reports:
            assert report.status == "rejected" and not report.passed, report.witness
            assert "support" in report.details["reason"]
