"""Fixed interval rules, hyperspherical tensor quadrature and an adaptive
oracle.

Every weight and inequality check integrates with fixed composite
Gauss-Legendre rules: interval rules, and tensor grids in hyperspherical
coordinates kept as radial and angular factors, with one kernel for the
variance and weighted Dirichlet forms of a test function on such a grid.
The kernel reorders the tensor sums of a polar member s(rho) a(u) into
one radial and one angular pass.  A Gaussian mixture is exact in angle:
its variance, Dirichlet forms, radial part and sphere integrals are sums
over term pairs on the radial nodes of modified Bessel functions (the von
Mises-Fisher normaliser and its first two moments), and only the angular
parts of its gradient, which are not rotation invariant, take a pass over
the angular rule.
The adaptive Gauss-Kronrod wrapper ``integrate_interval`` (semi-infinite
domains are mapped onto (0, 1) by the rational substitution r = t/(1-t))
serves only the truncation radius of the Fokker-Planck domain and the
tests, as their oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import ive

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
    ``("outside_ball", R)`` or ``("inside_ball", R)``.  ``polar`` and
    ``mixture`` are None here; :class:`~isofp.corpus.PolarMember` sets
    ``polar`` to (s, terms) and :class:`~isofp.corpus.GaussianMixture` sets
    ``mixture`` to (amps, centres, widths).

    Construction runs a finite-difference self-test of the gradient and
    checks the support flag, so a corpus member with an inconsistent
    gradient never reaches the inequality checkers.
    """

    __test__ = False  # not a pytest collection target
    polar = None
    mixture = None

    def __init__(self, name, n, eval_fn, grad_fn, support="full", bounded=True,
                 radial_breakpoints=(), tags=(), self_test=True):
        self.name = name
        self.n = int(n)
        self._eval = eval_fn
        self._grad = grad_fn
        self.support = support
        self.bounded = bool(bounded)
        self.radial_breakpoints = tuple(sorted(radial_breakpoints))
        self.tags = tuple(tags)
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
        # central differences at h and h / 2 along each axis, all in one
        # call, Richardson-extrapolated: O(h^4), so a probe on a steep
        # C^2 rise does not pass its O(h^2) error off as a wrong gradient
        h = 1e-5
        steps = np.multiply.outer([h, -h, 0.5 * h, -0.5 * h], np.eye(self.n))
        shifted = (pts[None, None] + steps[:, :, None]).reshape(-1, self.n)
        f = self(shifted).reshape(4, self.n, len(pts))
        d_h = (f[0] - f[1]) / (2.0 * h)
        d_half = (f[2] - f[3]) / h
        fd = ((4.0 * d_half - d_h) / 3.0).T
        scale = np.maximum(1.0, np.abs(g))
        err = np.max(np.abs(fd - g) / scale)
        if err > rel_tol:
            raise ValueError(
                f"gradient self-test failed for {self.name!r}: fd mismatch {err:.2e}"
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


# The grid's rules: radial Gauss order and dyadic levels, points per angle.
_RADIAL_ORDER, _RADIAL_LEVELS, _ANGULAR_ORDER = 12, 22, 32


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
    odd test functions integrate correctly.  No array with one row per node
    is stored: ``points`` builds the node list on access, radial index
    major, so rows j*A .. (j+1)*A - 1 lie at radius ``r_nodes[j]``.

    Integrating the constant 1 against the density gives ``mass``, which
    must be 1 within 1e-7, or the grid raises ``ValueError``.  The
    normalised weights sum to one only up to roundoff, so
    :func:`grid_moments` shifts a member by its value at
    ``anchor``, the node of largest probability weight, before centring: a
    function constant on the nodes then has zero data in every block, and
    its variance is exactly 0 after the blocks are merged.
    """

    def __init__(self, density, radial_breakpoints=()):
        n = density.n
        if n > 4:
            raise ValueError("full tensor grids are limited to n <= 4")
        self.density = density
        self.n = n
        self.r_nodes, r_rule = interval_rule(
            0.0, density.support_radius, order=_RADIAL_ORDER, levels=_RADIAL_LEVELS,
            breakpoints=radial_breakpoints,
        )
        self.unit, self.ang_weights, self.tangents = _angular_rule(n, _ANGULAR_ORDER)
        r_mass = r_rule * self.r_nodes ** (n - 1) * density.eval(self.r_nodes)
        self.mass = float(r_mass.sum() * self.ang_weights.sum())
        if abs(self.mass - 1.0) > 1e-7:
            raise ValueError(f"the density integrates to {self.mass!r} on the grid, "
                             "not to 1 within 1e-7")
        self.r_weights = r_mass / self.mass
        self.anchor = (int(np.argmax(self.r_weights)) * len(self.ang_weights)
                       + int(np.argmax(self.ang_weights)))

    def _shell_points(self, rows):
        """The nodes of the radial shells ``rows`` (a slice), one per row."""
        return (self.r_nodes[rows, None, None] * self.unit).reshape(-1, self.n)

    @property
    def points(self):
        """Every node, radial index major, built on each access."""
        return self._shell_points(slice(None))

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


def _sphere_polynomial(u, terms):
    """The polynomial a(u) = sum_t c_t prod_j u_j^e_tj at unit directions
    ``u`` (m, n), for ``terms`` a tuple of (c_t, e_t), and its surface
    gradient: the part of grad a tangent to the sphere, projected once
    after the terms are summed.  Factors with e_j = 0 are 1 and are left
    out of every product."""
    values, grads = [], []
    for coef, exps in terms:
        cols = {j: u[:, j] ** e for j, e in enumerate(exps) if e}
        values.append(coef * (reduce(mul, cols.values()) if cols else np.ones(len(u))))
        grad = np.zeros_like(u)
        for j in cols:
            others = [c for i, c in cols.items() if i != j]
            d_others = reduce(mul, others) if others else 1.0
            e = exps[j]
            grad[:, j] = d_others if e == 1 else e * u[:, j] ** (e - 1) * d_others
        grads.append(coef * grad)
    grad = reduce(add, grads)
    grad -= np.einsum("ij,ij->i", grad, u)[:, None] * u
    return reduce(add, values), grad


def build_grid(density, phis=(), extra_breakpoints=()):
    """Grid for ``density`` whose radial panels split at every knot of the
    given test functions (plus any extra breakpoints such as weight kinks)."""
    bp = set(extra_breakpoints)
    for phi in phis:
        bp.update(phi.radial_breakpoints)
    return HypersphericalGrid(density, radial_breakpoints=tuple(sorted(bp)))


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


def grid_moments(grid, phi, radial_weights=(), split_weight=None, axis_weights=None):
    """Variance and weighted Dirichlet forms of the member ``phi`` on ``grid``.

    Weights are given by their values on ``grid.r_nodes`` (see
    :meth:`HypersphericalGrid.radial_values`).  Each of ``radial_weights``
    gives one E[w_k(rho) |grad phi|_c^2], |v|_c^2 = sum_i c_i v_i^2 for the
    ``axis_weights`` c (default all ones).  With a ``split_weight`` w the
    result also carries the radial part E[w(rho) (d phi / d rho)^2] and the
    angular parts E[(d phi / d theta_i)^2] in hyperspherical coordinates;
    without one they are nan and ().

    A member whose ``polar`` is (s, terms), so phi = s(rho) a(u) with a the
    polynomial sum_t c_t u^e_t (a :class:`~isofp.corpus.PolarMember`), is
    never evaluated on the grid.  Its gradient is s' a u + (s / rho) grad_S
    a, with grad_S a the surface gradient of a.  With radial moments E_r on
    ``r_nodes`` and angular moments E_a on ``unit``:

    - Var = Var_r[s] E_a[a^2] + E_r[s]^2 Var_a[a], each variance shifted at
      its factor of ``grid.anchor`` (see :func:`shifted_variance`);
    - E[w |grad phi|_c^2] = E_r[w s'^2] E_a[a^2 |u|_c^2]
      + 2 E_r[w s s' / rho] E_a[a sum_i c_i u_i (grad_S a)_i]
      + E_r[w s^2 / rho^2] E_a[|grad_S a|_c^2], which for c = 1 is
      E_r[w s'^2] E_a[a^2] + E_r[w s^2 / rho^2] E_a[|grad_S a|^2];
    - the radial part is E_r[w s'^2] E_a[a^2] and angular part i is
      E_r[s^2] E_a[(grad_S a . d u / d theta_i)^2].

    These are the grid's tensor sums, reordered.

    A member whose ``mixture`` is (a, c, b), so phi = sum_k a_k exp(-b_k
    |x - c_k|^2) (a :class:`~isofp.corpus.GaussianMixture`), is exact in
    angle: on the shell |x| = rho each product of terms is exp(alpha + Z .
    u) with Z = 2 rho sum b_k c_k, and the sphere average of exp(Z . u) and
    of its first and second moments in u are modified Bessel functions of
    |Z| (see :func:`_mixture_shells`).  So the variance, every E[w_k
    |grad phi|_c^2] and the radial part are sums over term pairs on
    ``r_nodes``, and the variance is taken shell by shell: the mean of the
    within-shell variances plus the variance of the shell means, shifted at
    the shell of ``grid.anchor``.  The angular parts are not rotation
    invariant and stay on the angular rule (:func:`_mixture_angular`).

    Any other member (none in the corpora: this is the tests' reference) is
    evaluated on the nodes of blocks of whole radial shells, as (radial,
    angular) arrays of its values and of each gradient component.  Each
    block is contracted with the radial and the angular weights; values are
    shifted by their value at ``grid.anchor``, whose block is taken first,
    and the block variances are merged by the pairwise update of Chan, Golub
    & LeVeque (1983), so a member constant on the nodes has variance exactly
    0.
    """
    weights = np.reshape(radial_weights, (-1, len(grid.r_nodes)))
    if phi.polar is not None:
        return _polar_moments(grid, phi.polar, weights, split_weight, axis_weights)
    if phi.mixture is not None:
        return _mixture_moments(grid, phi.mixture, weights, split_weight, axis_weights)
    return _node_moments(grid, phi, weights, split_weight, axis_weights)


def _shell_blocks(grid):
    """Slices of whole radial shells with at most ``_BLOCK_NODES`` nodes
    (at least one shell), the one that holds ``grid.anchor`` first."""
    J, A = len(grid.r_nodes), len(grid.ang_weights)
    step = max(1, _BLOCK_NODES // A)
    j_anchor = grid.anchor // A
    starts = sorted(range(0, J, step), key=lambda j0: not j0 <= j_anchor < j0 + step)
    return [slice(j0, min(j0 + step, J)) for j0 in starts]


def _node_moments(grid, phi, weights, split_weight, axis_weights):
    """:func:`grid_moments` of ``phi`` from its values and gradient on the
    nodes, merged block by block; ``weights`` holds the radial weights as
    rows."""
    A = len(grid.ang_weights)
    ang_w, ang_total = grid.ang_weights, float(grid.ang_weights.sum())
    # directions and tangents with the angular axis innermost
    unit_t = np.ascontiguousarray(grid.unit.T)
    tangents_t = np.ascontiguousarray(grid.tangents.transpose(0, 2, 1))
    c = None if axis_weights is None else np.reshape(axis_weights, (-1, 1, 1))
    dirichlet = np.zeros(len(weights))
    radial, angular = 0.0, np.zeros(len(grid.tangents))
    shift = None
    w_sum = mean = m2 = 0.0
    for rows in _shell_blocks(grid):
        x = grid._shell_points(rows)
        vals = phi(x).reshape(-1, A)
        # the gradient as its n components of shape (radial, angular)
        g = np.moveaxis(phi.grad(x).reshape(*vals.shape, -1), -1, 0)
        p = grid.r_weights[rows]
        if shift is None:
            shift = float(vals.flat[grid.anchor - rows.start * A])
        w_b = float(p.sum()) * ang_total
        if w_b > 0.0:
            y = vals - shift
            mean_b = float(p @ (y @ ang_w)) / w_b
            y -= mean_b
            np.multiply(y, y, out=y)
            delta = mean_b - mean
            w_new = w_sum + w_b
            m2 += float(p @ (y @ ang_w)) + delta * delta * w_sum * w_b / w_new
            mean += delta * w_b / w_new
            w_sum = w_new
        g2 = np.einsum("iba,iba->ba", g if c is None else c * g, g) @ ang_w
        dirichlet += weights[:, rows] @ (p * g2)
        if split_weight is not None:
            d_rho = np.einsum("iba,ia->ba", g, unit_t)
            radial += float((p * split_weight[rows]) @ ((d_rho * d_rho) @ ang_w))
            # d phi / d theta_i = rho (grad phi . d u / d theta_i)
            d_theta = np.einsum("jba,ija->iba", g, tangents_t)
            angular += ((d_theta * d_theta) @ ang_w) @ (p * grid.r_nodes[rows] ** 2)
    if split_weight is None:
        radial, angular = math.nan, ()
    return GridMoments(m2, tuple(float(v) for v in dirichlet), radial,
                       tuple(float(v) for v in angular))


def _polar_moments(grid, polar, weights, split_weight, axis_weights):
    """:func:`grid_moments` of s(rho) a(u) from one radial and one angular
    pass; ``weights`` holds the radial weights as rows."""
    s_fn, terms = polar
    r, p, ang_w = grid.r_nodes, grid.r_weights, grid.ang_weights
    total = float(ang_w.sum())
    j0, k0 = divmod(grid.anchor, len(ang_w))
    s, ds = s_fn(r), s_fn.deriv(r)
    a, grad_a = _sphere_polynomial(grid.unit, terms)
    a2 = float(ang_w @ (a * a))
    # p_j ang_w_k is the node's probability weight; p * total and
    # ang_w / total are the radial and angular probability weights
    variance = (shifted_variance(p * total, s, j0) * a2 / total
                + (total * float(p @ s)) ** 2 * shifted_variance(ang_w / total, a, k0))
    # sum over the angular rule of |grad phi|_c^2 at each radius
    if axis_weights is None:
        uu, ug, gg = a2, 0.0, float(ang_w @ np.einsum("ij,ij->i", grad_a, grad_a))
    else:
        cu = grid.unit * axis_weights
        uu, ug, gg = (float(ang_w @ v) for v in (
            a * a * np.einsum("ij,ij->i", cu, grid.unit),
            a * np.einsum("ij,ij->i", cu, grad_a),
            np.einsum("ij,ij->i", grad_a * axis_weights, grad_a)))
    s_r = s / r
    g2 = ds * ds * uu + 2.0 * ug * ds * s_r + s_r * s_r * gg
    dirichlet = weights @ (p * g2)
    if split_weight is None:
        radial, angular = math.nan, ()
    else:
        radial = float((p * split_weight) @ (ds * ds)) * a2
        d_theta = np.einsum("an,ian->ia", grad_a, grid.tangents)
        angular = float(p @ (s * s)) * ((d_theta * d_theta) @ ang_w)
    return GridMoments(variance, tuple(float(v) for v in dirichlet), radial,
                       tuple(float(v) for v in angular))


# Exponents below this underflow exp to 0 (or to its smallest subnormal).
_EXP_FLOOR = -745.0
# Sphere averages take their power series, in this many terms, up to
# _SERIES_Z, and scipy's ``ive`` above it.
_SERIES_Z, _SERIES_TERMS = 1.0, 12


def _sphere_series(n, m, z, first=0):
    """Gamma(n/2) sum_(i >= first) (z^2/4)^i / (i! Gamma(n/2 + m + i)) for
    z <= _SERIES_Z: the power series of Gamma(n/2) (z/2)^(1-n/2-m)
    I_(n/2-1+m)(z) without its first ``first`` terms."""
    coefs = [math.gamma(0.5 * n) / (math.factorial(i) * math.gamma(0.5 * n + m + i))
             for i in range(first, _SERIES_TERMS)]
    q = 0.25 * z * z
    acc = np.full_like(z, coefs[-1])
    for coef in reversed(coefs[:-1]):
        acc *= q
        acc += coef
    return acc * q ** first


def _sphere_average(n, m, z, expo):
    """exp(expo - z) Gamma(n/2) (z/2)^(1-n/2-m) I_(n/2-1+m)(z) for z >= 0,
    and exactly 0 where ``expo`` < _EXP_FLOOR.

    With m = 0 and expo = z this is the average of exp(Z . u) over the unit
    sphere S^(n-1) for |Z| = z, the von Mises-Fisher normaliser (Mardia &
    Jupp, *Directional Statistics*, 2000): cosh z for n = 1.  Its first and
    second moments in u are m = 1 and m = 2 (see :func:`_mixture_shells`).
    Entries below the floor are never passed to ``ive``, which returns nan
    for z beyond about 1e9.
    """
    out = np.zeros_like(z)
    live = expo >= _EXP_FLOOR
    small, big = live & (z <= _SERIES_Z), live & (z > _SERIES_Z)
    out[small] = np.exp(expo[small] - z[small]) * _sphere_series(n, m, z[small])
    nu, zb = 0.5 * n - 1.0 + m, z[big]
    out[big] = np.exp(expo[big]) * math.gamma(0.5 * n) * (0.5 * zb) ** -nu * ive(nu, zb)
    return out


def _mixture_moments(grid, mixture, weights, split_weight, axis_weights):
    """:func:`grid_moments` of a Gaussian mixture from its shell averages
    (:func:`_mixture_shells`); ``weights`` holds the radial weights as
    rows."""
    P = grid.r_weights * float(grid.ang_weights.sum())  # radial probability weights
    mean, within, grad2, d_rho = _mixture_shells(grid.n, mixture, grid.r_nodes, axis_weights)
    variance = float(P @ within) + shifted_variance(P, mean, grid.anchor // len(grid.ang_weights))
    dirichlet = weights @ (P * grad2)
    if split_weight is None:
        radial, angular = math.nan, ()
    else:
        radial, angular = float((P * split_weight) @ d_rho), _mixture_angular(grid, mixture)
    return GridMoments(variance, tuple(float(v) for v in dirichlet), radial,
                       tuple(float(v) for v in angular))


def _mixture_shells(n, mixture, r, axis_weights=None):
    """Averages over the spheres |x| = ``r`` of phi = sum_k a_k exp(-b_k
    |x - c_k|^2): its mean and variance, |grad phi|_c^2 and (d phi / d
    rho)^2, each an array over ``r``.

    At x = rho u term k is exp(alpha_k + z_k . u), alpha_k = -b_k (rho^2 +
    |c_k|^2) and z_k = 2 rho b_k c_k, and the product of terms k and l is
    exp(alpha_k + alpha_l + Z . u) with Z = z_k + z_l.  With F, h, g the
    m = 0, 1, 2 values of :func:`_sphere_average` at |Z| (times 1, 1/2 and
    1/4) the sphere averages of exp(Z . u) times 1, u and u u^T are F, h Z
    and h I + g Z Z^T (Funk-Hecke; Atkinson & Han, LNM 2044, 2012).  So
    for grad phi = sum_k q_k e_k (x - c_k), q_k = -2 a_k b_k, and C =
    diag(c) for the axis weights c:

    - E_u[e_k e_l (x - c_k)^T C (x - c_l)] = rho^2 (h tr C + g Z^T C Z)
      - rho h Z^T C (c_k + c_l) + F c_k^T C c_l;
    - E_u[e_k e_l (rho - c_k . u)(rho - c_l . u)] = rho^2 F - rho h Z . (c_k
      + c_l) + h c_k . c_l + g (Z . c_k)(Z . c_l).

    Z = 2 rho B with B = b_k c_k + b_l c_l, so each is a multiple of a power
    of rho per pair k <= l.  The covariance of terms k and l on a sphere is
    F - f_k f_l, with f_k the average of term k; where |Z| and both |z_k|,
    |z_l| are at most _SERIES_Z it is taken from the series without their
    constant terms, so a nearly constant member keeps its digits.
    """
    amps, centres, widths = mixture
    r2 = r * r
    c = np.ones(n) if axis_weights is None else np.asarray(axis_weights, dtype=float)
    alpha = -widths[:, None] * (r2 + np.einsum("kn,kn->k", centres, centres)[:, None])
    z1 = 2.0 * np.linalg.norm(widths[:, None] * centres, axis=1)[:, None] * r
    f = _sphere_average(n, 0, z1, alpha + z1)
    k, l = np.triu_indices(len(amps))
    ck, cl = centres[k], centres[l]
    B = widths[k, None] * ck + widths[l, None] * cl
    z = 2.0 * np.linalg.norm(B, axis=1)[:, None] * r
    F, h, g = (_sphere_average(n, m, z, alpha[k] + alpha[l] + z) / 2.0 ** m
               for m in range(3))

    cov = F - f[k] * f[l]
    small = (z <= _SERIES_Z) & (z1[k] <= _SERIES_Z) & (z1[l] <= _SERIES_Z)
    fz, fk, fl = (_sphere_series(n, 0, v[small], first=1) for v in (z, z1[k], z1[l]))
    cov[small] = np.exp((alpha[k] + alpha[l])[small]) * (fz - fk - fl - fk * fl)
    pair = np.where(k == l, 1.0, 2.0)  # a pair k < l stands for (l, k) too
    within = (pair * amps[k] * amps[l]) @ cov

    def dot(u, v, w=np.ones(n)):
        """u^T diag(w) v for each pair, as a column."""
        return np.einsum("pn,n,pn->p", u, w, v)[:, None]

    q = -2.0 * amps * widths
    pair *= q[k] * q[l]
    grad2 = pair @ (r2 * h * (c.sum() - 2.0 * dot(B, ck + cl, c))
                    + 4.0 * r2 * r2 * g * dot(B, B, c) + F * dot(ck, cl, c))
    d_rho = pair @ (r2 * (F - 2.0 * h * dot(B, ck + cl)) + h * dot(ck, cl)
                    + 4.0 * r2 * g * dot(B, ck) * dot(B, cl))
    return amps @ f, within, grad2, d_rho


def _mixture_angular(grid, mixture):
    """E[(d phi / d theta_i)^2], i = 1 .. n-1, of a Gaussian mixture on the
    angular rule.

    Since u . d u / d theta_i = 0, d phi / d theta_i = 2 rho sum_k a_k b_k
    e_k (c_k . d u / d theta_i), so a block of shells needs only the term
    exponentials e_k and n - 1 contractions over the terms.  Shells where
    every term underflows are skipped, and every block reuses one exponent
    and one output buffer.
    """
    amps, centres, widths = mixture
    r, ang_w = grid.r_nodes, grid.ang_weights
    c_sq = np.einsum("kn,kn->k", centres, centres)
    # the largest exponent of each term on a shell is -b (rho - |c|)^2
    top = np.max(-widths[:, None] * (r - np.sqrt(c_sq)[:, None]) ** 2, axis=0)
    rows = np.flatnonzero((top >= _EXP_FLOOR) & (grid.r_weights > 0.0))
    c_u = centres @ grid.unit.T
    coef = np.einsum("k,kn,ian->ika", 2.0 * amps * widths, centres, grid.tangents)
    step = max(1, _BLOCK_NODES // len(ang_w))
    e = np.empty((len(amps), min(step, len(rows)), len(ang_w)))
    d = np.empty(e.shape[1:])
    angular = np.zeros(len(coef))
    for start in range(0, len(rows), step):
        idx = rows[start:start + step]
        rho = r[idx]
        e_b, d_b = e[:, :len(idx)], d[:len(idx)]
        for e_k, c_uk, b, c2 in zip(e_b, c_u, widths, c_sq):
            np.multiply.outer(2.0 * b * rho, c_uk, out=e_k)
            e_k -= (b * (rho * rho + c2))[:, None]
        np.exp(e_b, out=e_b)
        for i, coef_i in enumerate(coef):
            np.einsum("ka,kja->ja", coef_i, e_b, out=d_b)
            np.multiply(d_b, d_b, out=d_b)
            angular[i] += (grid.r_weights[idx] * rho * rho) @ (d_b @ ang_w)
    return angular


def sphere_dirichlet(grid, phi, radius):
    """Integral of |grad phi|^2 over the sphere |x| = radius against the
    grid's angular rule (the measure dTheta of the unit sphere), exact in
    angle for a Gaussian mixture (:func:`_mixture_shells`)."""
    if phi.mixture is not None:
        grad2 = _mixture_shells(grid.n, phi.mixture, np.array([float(radius)]))[2]
        return float(grid.ang_weights.sum() * grad2[0])
    g = phi.grad(radius * grid.unit)
    return float(grid.ang_weights @ np.einsum("ij,ij->i", g, g))
