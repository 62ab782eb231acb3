"""Adaptive interval integration and hyperspherical tensor quadrature.

Provides the two integration backends used everywhere else: an adaptive
Gauss-Kronrod wrapper for 1-D integrals (semi-infinite domains are mapped
onto (0, 1) by the rational substitution r = t/(1-t)), and fixed tensor
grids in hyperspherical coordinates, kept as radial and angular factors,
with one kernel for the variance and weighted Dirichlet forms of a test
function on such a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

__all__ = [
    "Integrator",
    "QuadratureError",
    "integrate_interval",
    "interval_rule",
    "TestFunction",
    "HypersphericalGrid",
    "build_grid",
    "shifted_variance",
    "GridMoments",
    "grid_moments",
    "sphere_dirichlet",
    "ANGULAR_POLAR_BOUND",
    "ANGULAR_AZIMUTHAL_BOUND",
]

# Upper bounds for the angular one-dimensional weights in the product
# decomposition: polar angles and the azimuthal angle.
ANGULAR_POLAR_BOUND = math.pi ** 2 / 8.0
ANGULAR_AZIMUTHAL_BOUND = math.pi ** 2 / 2.0


class QuadratureError(RuntimeError):
    """Adaptive integration failed; carries the best available estimate."""

    def __init__(self, message, value=math.nan, err_estimate=math.inf):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


@dataclass(frozen=True)
class Integrator:
    """Tolerances and budget for adaptive 1-D integration.

    Endpoints are always treated as open: the underlying Gauss-Kronrod
    nodes are interior, so integrable endpoint singularities are fine.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_subdivisions: int = 200


DEFAULT_INTEGRATOR = Integrator()


def _quad_finite(g, lo, hi, integrator, points):
    pts = sorted(p for p in points if lo < p < hi)
    out = quad(
        g,
        lo,
        hi,
        epsabs=integrator.abs_tol,
        epsrel=integrator.rel_tol,
        limit=integrator.max_subdivisions,
        points=pts if pts else None,
        full_output=1,
    )
    value, err = out[0], out[1]
    if len(out) > 3:
        # QUADPACK flags roundoff conservatively; accept when the achieved
        # error still meets the requested tolerance.
        if err > max(integrator.rel_tol * abs(value), integrator.abs_tol):
            raise QuadratureError(
                f"adaptive integration on ({lo}, {hi}) did not converge: {out[3]}",
                value=value,
                err_estimate=err,
            )
    return value, err


def integrate_interval(g, lo, hi, integrator=None, breakpoints=()):
    """Integrate ``g`` over (lo, hi); either limit may be infinite.

    Semi-infinite pieces are mapped to (0, 1) with r = t/(1-t) before the
    adaptive subdivision runs.  Returns ``(value, err_estimate)`` and raises
    :class:`QuadratureError` (with the best estimate attached) when the
    subdivision budget is exhausted.
    """
    integrator = integrator or DEFAULT_INTEGRATOR
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")

    if np.isinf(lo) and np.isinf(hi):
        mid = 0.0
        v1, e1 = integrate_interval(g, lo, mid, integrator, breakpoints)
        v2, e2 = integrate_interval(g, mid, hi, integrator, breakpoints)
        return v1 + v2, e1 + e2

    if np.isinf(hi):
        # r = lo + t/(1-t), dr = dt/(1-t)^2
        def gt(t):
            u = 1.0 - t
            return g(lo + t / u) / (u * u)

        pts = [(p - lo) / (1.0 + p - lo) for p in breakpoints if p > lo and np.isfinite(p)]
        return _quad_finite(gt, 0.0, 1.0, integrator, pts)

    if np.isinf(lo):
        return integrate_interval(lambda x: g(-x), -hi, math.inf, integrator,
                                  [-p for p in breakpoints if np.isfinite(p)])

    return _quad_finite(g, lo, hi, integrator, breakpoints)


# ---------------------------------------------------------------------------
# Fixed rules: composite Gauss-Legendre with dyadic grading toward endpoints.
# ---------------------------------------------------------------------------


def _panel_edges(lo, hi, levels, breakpoints, halved):
    width = hi - lo
    grading = width * 0.5 ** np.arange(1, levels + 1)
    bp = np.asarray(breakpoints, dtype=float).ravel()
    edges = np.unique(np.concatenate([[lo, hi], lo + grading, hi - grading,
                                      bp[(bp > lo) & (bp < hi)]]))
    if halved:
        edges = np.unique(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    return edges


def _gauss_on_panels(edges, order):
    xg, wg = leggauss(order)
    a = edges[:-1]
    h = np.diff(edges)
    nodes = (a[:, None] + (xg[None, :] + 1.0) * 0.5 * h[:, None]).ravel()
    weights = (0.5 * h[:, None] * wg[None, :]).ravel()
    return nodes, weights


def interval_rule(lo, hi, order=12, levels=28, breakpoints=(), halved=False):
    """Fixed quadrature rule on (lo, hi); ``hi`` may be infinite.

    Composite Gauss-Legendre panels, dyadically refined toward both
    endpoints so that algebraic endpoint behaviour (Barenblatt supports,
    mapped heavy tails) is resolved.  Interior breakpoints become panel
    edges, which restores spectral accuracy for piecewise-smooth
    integrands such as the C^2 bump test functions.  Nodes run left to
    right, ``order`` per panel, so ``nodes.reshape(-1, order)`` lists the
    panels in order.  ``halved`` cuts every panel in two at its midpoint
    (in the mapped variable for an infinite end): the finer rule whose
    difference from this one estimates the quadrature error.
    """
    if np.isinf(hi):
        # map (lo, inf) -> t in (0, 1), r = lo + t/(1-t)
        bp = np.asarray(breakpoints, dtype=float).ravel()
        bp = bp[np.isfinite(bp) & (bp > lo)]
        t, wt = _gauss_on_panels(
            _panel_edges(0.0, 1.0, levels, (bp - lo) / (1.0 + bp - lo), halved), order)
        u = 1.0 - t
        return lo + t / u, wt / (u * u)
    return _gauss_on_panels(_panel_edges(lo, hi, levels, breakpoints, halved), order)


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

_PROBE_RNG_SEED = 74021


class TestFunction:
    """Smooth scalar function with gradient access and support metadata.

    ``eval_fn`` maps an (m, n) array of points to (m,) values and
    ``grad_fn`` to (m, n) gradients.  ``support`` is ``"full"``,
    ``("outside_ball", R)`` or ``("inside_ball", R)``.

    ``polar = (s, e)`` declares that phi(x) = s(|x|) u^e with u = x / |x|:
    ``s`` is a radial profile with ``s(rho)`` and ``s.deriv(rho)`` (an
    :class:`~isofp.corpus.Fn1D`) and ``e`` a tuple of n exponents.
    :func:`grid_moments` then reduces the member to moments of s on the
    radial rule and of u^e on the angular rule.

    Construction runs a finite-difference self-test of the gradient,
    compares a declared s(rho) u^e and its gradient with ``eval_fn`` and
    ``grad_fn``, and checks the support flag, so a corpus member with an
    inconsistent gradient or factorisation never reaches the inequality
    checkers.
    """

    __test__ = False  # not a pytest collection target

    def __init__(self, name, n, eval_fn, grad_fn, support="full", bounded=True,
                 radial_breakpoints=(), tags=(), self_test=True, polar=None):
        self.name = name
        self.n = int(n)
        self._eval = eval_fn
        self._grad = grad_fn
        self.support = support
        self.bounded = bool(bounded)
        self.radial_breakpoints = tuple(sorted(radial_breakpoints))
        self.tags = tuple(tags)
        self.polar = None
        if polar is not None:
            s, exps = polar
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.n or min(exps) < 0:
                raise ValueError(f"{name!r}: polar exponents {exps} are not {self.n} "
                                 "nonnegative integers")
            self.polar = (s, exps)
        if self_test:
            self._self_test()

    def __call__(self, points):
        return np.asarray(self._eval(np.atleast_2d(np.asarray(points, dtype=float))))

    def grad(self, points):
        return np.asarray(self._grad(np.atleast_2d(np.asarray(points, dtype=float))))

    def __repr__(self):
        return f"TestFunction({self.name!r}, n={self.n}, support={self.support})"

    # -- construction-time checks ------------------------------------------

    def _probe_points(self, rng, count=8):
        r_hi = 3.0
        if isinstance(self.support, tuple):
            r_hi = max(r_hi, self.support[1] + 2.0)
        pts = rng.uniform(-r_hi, r_hi, size=(4 * count, self.n))
        if isinstance(self.support, tuple) and self.support[0] == "outside_ball":
            pts = pts[np.linalg.norm(pts, axis=1) > self.support[1] * 1.02]
        # keep probes away from the C^2 knots where the third derivative jumps
        if self.radial_breakpoints:
            rho = np.linalg.norm(pts, axis=1)
            dist = np.min(np.abs(rho[:, None] - np.array(self.radial_breakpoints)[None, :]), axis=1)
            pts = pts[dist > 1e-3]
        return pts[:count]

    def _self_test(self, rel_tol=1e-6):
        rng = np.random.default_rng(_PROBE_RNG_SEED)
        pts = self._probe_points(rng)
        if len(pts) == 0:
            return
        g = self.grad(pts)
        h = 1e-5
        fd = np.empty_like(g)
        for j in range(self.n):
            e = np.zeros(self.n)
            e[j] = h
            fd[:, j] = (self(pts + e) - self(pts - e)) / (2.0 * h)
        scale = np.maximum(1.0, np.abs(g))
        err = np.max(np.abs(fd - g) / scale)
        if err > rel_tol:
            raise ValueError(
                f"gradient self-test failed for {self.name!r}: fd mismatch {err:.2e}"
            )
        if self.polar is not None:
            # s(rho) u^e and its gradient are the member itself, to roundoff
            s, exps = self.polar
            rho = np.linalg.norm(pts, axis=1)
            u = pts / rho[:, None]
            a, grad_a = _sphere_monomial(u, exps)
            s_vals = s(rho)
            vals = s_vals * a
            grads = (s.deriv(rho) * a)[:, None] * u + (s_vals / rho)[:, None] * grad_a
            err = max(np.max(np.abs(vals - self(pts)) / np.maximum(1.0, np.abs(vals))),
                      np.max(np.abs(grads - g) / scale))
            if not err <= 1e-10:
                raise ValueError(
                    f"polar self-test failed for {self.name!r}: s(rho) u^{exps} "
                    f"mismatch {err:.2e}"
                )
        if isinstance(self.support, tuple) and self.support[0] == "outside_ball":
            R = self.support[1]
            inner = rng.uniform(-R, R, size=(64, self.n))
            inner = inner[np.linalg.norm(inner, axis=1) <= R]
            if len(inner):
                if np.max(np.abs(self(inner))) > 1e-13 or np.max(np.abs(self.grad(inner))) > 1e-13:
                    raise ValueError(
                        f"{self.name!r} tagged outside_ball({R}) but does not vanish inside"
                    )


# ---------------------------------------------------------------------------
# Hyperspherical grids
# ---------------------------------------------------------------------------


class HypersphericalGrid:
    """Tensor quadrature grid (rho, theta_1..theta_{n-1}) for one density,
    kept as its radial and angular factors.

    The radial rule carries the rho^(n-1) Jacobian and the density and is
    divided by ``mass``, so ``r_weights[j] * ang_weights[a]`` is the
    probability weight of the node ``r_nodes[j] * unit[a]``.  Each polar
    angle theta_j in (0, pi) carries sin^(n-1-j) and the azimuthal angle
    lives on (0, 2pi); ``ang_weights`` is their product rule on the unit
    sphere and ``tangents[i - 1]`` holds d u / d theta_i at its nodes.  For
    n = 1 the sphere is the two directions +-1, each of angular weight 1, so
    odd test functions integrate correctly.  ``points`` lists every node,
    radial index major: rows j*A .. (j+1)*A - 1 lie at radius ``r_nodes[j]``.

    Integrating the constant 1 against the density gives ``mass``, which
    must be 1 within 1e-7.  The normalised weights sum to one only up to
    roundoff, so :func:`grid_moments` shifts a member by its value at
    ``anchor``, the node of largest probability weight, before centring: a
    function constant on the nodes then has zero data in every block, and
    its variance is exactly 0 after the blocks are merged.
    """

    def __init__(self, density, angular_order=32, radial_order=12,
                 radial_levels=22, radial_breakpoints=()):
        n = density.n
        if n > 4:
            raise ValueError("full tensor grids are limited to n <= 4")
        self.density = density
        self.n = n
        self.r_nodes, r_rule = interval_rule(
            0.0, density.support_radius, order=radial_order, levels=radial_levels,
            breakpoints=radial_breakpoints,
        )
        self.unit, self.ang_weights, self.tangents = _angular_rule(n, angular_order)
        r_mass = r_rule * self.r_nodes ** (n - 1) * density.eval(self.r_nodes)
        self.mass = float(r_mass.sum() * self.ang_weights.sum())
        self.r_weights = r_mass / self.mass
        self.anchor = (int(np.argmax(self.r_weights)) * len(self.ang_weights)
                       + int(np.argmax(self.ang_weights)))
        self.points = (self.r_nodes[:, None, None] * self.unit[None]).reshape(-1, n)

    def radial_values(self, fn):
        """A function of rho on ``r_nodes``.  Nodes where the density
        underflows carry zero measure, so the function is not evaluated
        there (quadrature-backed weights are undefined past the numeric
        support) and reads 0."""
        vals = np.zeros_like(self.r_nodes)
        pos = self.r_weights > 0.0
        if np.any(pos):
            vals[pos] = np.asarray(fn(self.r_nodes[pos]), dtype=float)
        return vals


def _angular_rule(n, order):
    """Unit directions (A, n), angular weights (A,) including the sin-power
    Jacobians, and tangents d u / d theta_i stacked as (n - 1, A, n)."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.ones(2), np.zeros((0, 2, 1))
    xg, wg = leggauss(order)
    axes, weights = [], []
    for j in range(1, n - 1):  # polar angles, Jacobian sin^(n-1-j)
        t = (xg + 1.0) * 0.5 * math.pi
        axes.append(t)
        weights.append(wg * 0.5 * math.pi * np.sin(t) ** (n - 1 - j))
    axes.append((xg + 1.0) * math.pi)  # azimuthal angle on (0, 2pi)
    weights.append(wg * math.pi)
    theta = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    ang_w = weights[0]
    for w in weights[1:]:
        ang_w = np.multiply.outer(ang_w, w)
    tangents = np.stack([_unit_tangent(theta, i) for i in range(1, n)])
    return _unit_vector(theta), ang_w.ravel(), tangents


def _unit_vector(theta):
    """Map angles (theta_1..theta_{n-1}) to the unit vector
    u_1 = cos t1, u_k = sin t1 .. sin t_{k-1} cos t_k, u_n = sin t1 .. sin t_{n-1}."""
    m, k = theta.shape
    u = np.empty((m, k + 1))
    prefix = np.ones(m)
    for j in range(k):
        u[:, j] = prefix * np.cos(theta[:, j])
        prefix = prefix * np.sin(theta[:, j])
    u[:, k] = prefix
    return u


def _unit_tangent(theta, i):
    """Tangent d u / d theta_i (i in 1..n-1) of the unit vector at each angle."""
    m, k = theta.shape
    out = np.zeros((m, k + 1))
    sin = np.sin(theta)
    cos = np.cos(theta)
    # prefix[:, j] = sin t1 ... sin t_j  (prefix[:, 0] = 1)
    prefix = np.ones((m, k + 1))
    for j in range(k):
        prefix[:, j + 1] = prefix[:, j] * sin[:, j]
    ii = i - 1
    # component i: factor cos t_i differentiates to -sin t_i
    out[:, ii] = -prefix[:, ii] * sin[:, ii]
    # components past i contain sin t_i; the derivative swaps it for cos t_i
    ratio = cos[:, ii] / np.where(sin[:, ii] == 0, 1.0, sin[:, ii])
    for j in range(ii + 1, k):
        out[:, j] = prefix[:, j] * ratio * cos[:, j]
    out[:, k] = prefix[:, k] * ratio
    return out


def _sphere_monomial(u, exps):
    """The monomial a(u) = prod_j u_j^e_j at unit directions ``u`` (m, n),
    and its surface gradient: the part of grad a tangent to the sphere."""
    cols = [u[:, j] ** e for j, e in enumerate(exps)]
    a = np.prod(cols, axis=0)
    grad = np.zeros_like(u)
    for j, e in enumerate(exps):
        if e:
            grad[:, j] = e * u[:, j] ** (e - 1) * np.prod(cols[:j] + cols[j + 1:], axis=0)
    grad -= np.einsum("ij,ij->i", grad, u)[:, None] * u
    return a, grad


def build_grid(density, phis=(), extra_breakpoints=(), angular_order=32,
               radial_order=12, radial_levels=22):
    """Grid for ``density`` whose radial panels split at every knot of the
    given test functions (plus any extra breakpoints such as weight kinks)."""
    bp = set(extra_breakpoints)
    for phi in phis:
        bp.update(phi.radial_breakpoints)
    return HypersphericalGrid(
        density, angular_order=angular_order, radial_order=radial_order,
        radial_levels=radial_levels, radial_breakpoints=tuple(sorted(bp)),
    )


# ---------------------------------------------------------------------------
# Variances and Dirichlet forms
# ---------------------------------------------------------------------------


def shifted_variance(prob_weights, vals, anchor):
    """Centred variance of the node values ``vals`` under ``prob_weights``.

    The data are first shifted by their value at node ``anchor``, then
    centred on the mean of the shifted data (Chan, Golub & LeVeque, 1983).
    Mass-normalised weights sum to one only up to roundoff, so centring a
    constant c on its computed mean leaves about (eps c)^2; after the shift
    a constant has all-zero data and variance exactly 0.  Anchoring at the
    node of largest weight keeps the shift inside the bulk of the measure.
    """
    dev = vals - float(vals[anchor])
    dev -= np.dot(prob_weights, dev)
    np.multiply(dev, dev, out=dev)
    return float(np.dot(prob_weights, dev))


# Members are evaluated on blocks of whole radial shells with at most this
# many nodes (at least one shell), which bounds the kernel's working memory.
_BLOCK_NODES = 1 << 16


class GridMoments(NamedTuple):
    """Moments of one member on a grid; see :func:`grid_moments`."""

    variance: float
    dirichlet: tuple  # E[w_k(rho) |grad phi|^2], one per radial weight
    radial: float  # E[w(rho) (d phi / d rho)^2] for the split weight w
    angular: tuple  # E[(d phi / d theta_i)^2] for i = 1 .. n-1


def grid_moments(grid, phi, radial_weights=(), split_weight=None, affine=None):
    """Variance and weighted Dirichlet forms of the member ``phi`` on ``grid``.

    Weights are given by their values on ``grid.r_nodes`` (see
    :meth:`HypersphericalGrid.radial_values`).  Each of ``radial_weights``
    gives one E[w_k(rho) |grad phi|^2].  With a ``split_weight`` w the
    result also carries the radial part E[w(rho) (d phi / d rho)^2] and the
    angular parts E[(d phi / d theta_i)^2] in hyperspherical coordinates;
    without one they are nan and ().  ``affine = (u, H)`` evaluates phi and
    its gradient at x = u + H x* for every grid node x*.

    A member that declares ``polar = (s, e)`` (phi = s(rho) a(u) with
    a = u^e) and is not mapped by ``affine`` is never evaluated on the
    grid.  With radial moments E_r on ``r_nodes`` and angular moments E_a
    on ``unit``, and grad_S a the surface gradient of a:

    - Var = Var_r[s] E_a[a^2] + E_r[s]^2 Var_a[a], each variance shifted at
      its factor of ``grid.anchor`` (see :func:`shifted_variance`);
    - E[w |grad phi|^2] = E_r[w s'^2] E_a[a^2] + E_r[w s^2 / rho^2] E_a[|grad_S a|^2];
    - the radial part is E_r[w s'^2] E_a[a^2] and angular part i is
      E_r[s^2] E_a[(grad_S a . d u / d theta_i)^2].

    These are the grid's tensor sums, reordered.  Any other member is
    walked over the grid in blocks of whole radial shells; each block's
    values are reshaped to (radial, angular) and contracted with the radial
    and the angular weights.  Values are shifted by their value at
    ``grid.anchor``, whose block is taken first, and the block variances are
    merged by the pairwise update of Chan, Golub & LeVeque (1983).  Either
    way a member constant on the nodes has variance exactly 0.
    """
    weights = np.reshape(radial_weights, (-1, len(grid.r_nodes)))
    if affine is None and getattr(phi, "polar", None) is not None:
        return _polar_moments(grid, phi.polar, weights, split_weight)
    A = len(grid.ang_weights)
    step = max(1, _BLOCK_NODES // A)
    j_anchor = grid.anchor // A
    starts = sorted(range(0, len(grid.r_nodes), step),
                    key=lambda j0: not j0 <= j_anchor < j0 + step)
    ang_w, ang_total = grid.ang_weights, float(grid.ang_weights.sum())
    dirichlet = np.zeros(len(weights))
    radial, angular = 0.0, np.zeros(len(grid.tangents))
    shift = None
    w_sum = mean = m2 = 0.0
    for j0 in starts:
        rows = slice(j0, j0 + step)
        p = grid.r_weights[rows]
        x = grid.points[j0 * A:(j0 + len(p)) * A]
        if affine is not None:
            x = affine[0] + x @ affine[1].T
        vals = phi(x)
        if shift is None:
            shift = float(vals[grid.anchor - j0 * A])
        w_b = float(p.sum()) * ang_total
        if w_b > 0.0:
            y = (vals - shift).reshape(len(p), A)
            mean_b = float(p @ (y @ ang_w)) / w_b
            y -= mean_b
            np.multiply(y, y, out=y)
            delta = mean_b - mean
            w_new = w_sum + w_b
            m2 += float(p @ (y @ ang_w)) + delta * delta * w_sum * w_b / w_new
            mean += delta * w_b / w_new
            w_sum = w_new
        g = phi.grad(x).reshape(len(p), A, -1)
        g2 = np.einsum("ban,ban->ba", g, g) @ ang_w
        dirichlet += weights[:, rows] @ (p * g2)
        if split_weight is not None:
            d_rho = np.einsum("ban,an->ba", g, grid.unit)
            radial += float((p * split_weight[rows]) @ ((d_rho * d_rho) @ ang_w))
            # d phi / d theta_i = rho (grad phi . d u / d theta_i)
            d_theta = np.einsum("ban,ian->iba", g, grid.tangents)
            angular += ((d_theta * d_theta) @ ang_w) @ (p * grid.r_nodes[rows] ** 2)
    if split_weight is None:
        radial, angular = math.nan, ()
    return GridMoments(m2, tuple(float(v) for v in dirichlet), radial,
                       tuple(float(v) for v in angular))


def _polar_moments(grid, polar, weights, split_weight):
    """:func:`grid_moments` of s(rho) u^e from one radial and one angular
    pass; ``weights`` holds the radial weights as rows."""
    s_fn, exps = polar
    r, p, ang_w = grid.r_nodes, grid.r_weights, grid.ang_weights
    total = float(ang_w.sum())
    j0, k0 = divmod(grid.anchor, len(ang_w))
    s, ds = s_fn(r), s_fn.deriv(r)
    a, grad_a = _sphere_monomial(grid.unit, exps)
    a2 = float(ang_w @ (a * a))
    # p_j ang_w_k is the node's probability weight; p * total and
    # ang_w / total are the radial and angular probability weights
    variance = (shifted_variance(p * total, s, j0) * a2 / total
                + (total * float(p @ s)) ** 2 * shifted_variance(ang_w / total, a, k0))
    # sum over the angular rule of |grad phi|^2 at each radius
    g2 = ds * ds * a2 + (s / r) ** 2 * float(ang_w @ np.einsum("ij,ij->i", grad_a, grad_a))
    dirichlet = weights @ (p * g2)
    if split_weight is None:
        radial, angular = math.nan, ()
    else:
        radial = float((p * split_weight) @ (ds * ds)) * a2
        d_theta = np.einsum("an,ian->ia", grad_a, grid.tangents)
        angular = float(p @ (s * s)) * ((d_theta * d_theta) @ ang_w)
    return GridMoments(variance, tuple(float(v) for v in dirichlet), radial,
                       tuple(float(v) for v in angular))


def sphere_dirichlet(grid, phi, radius):
    """Integral of |grad phi|^2 over the sphere |x| = radius against the
    grid's angular rule (the measure dTheta of the unit sphere)."""
    g = phi.grad(radius * grid.unit)
    return float(grid.ang_weights @ np.einsum("ij,ij->i", g, g))
