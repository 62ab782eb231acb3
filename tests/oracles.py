"""Reference code the tests check the package against.

The P/Q' family of diffusion/drift pairs with its alpha-optimisation is the
numeric route to the optimal Cauchy-type and Barenblatt weights, whose
closed forms are ``isofp.weights.optimal_cauchy_weight`` and
``optimal_barenblatt_weight``.  The standard normal is the sharp 1-D
density of the Poincare checks.  The solver helpers read a
:class:`~isofp.fpsolver.Solver`'s discrete operator from outside: its
equilibrium state, its flux divergence and the second route to its entropy
dissipation.  The two-pass angular kernel of a Gaussian mixture is the one
:func:`isofp.quadrature._mixture_angular` must match bit for bit.  The
general adaptive integrator (QUADPACK on finite, semi-infinite and
infinite intervals, with breakpoints), the walks of a member over a grid's
nodes and over a sphere's directions, the values and gradients of polar
members, mixtures and separable members at points, and the unbounded
linear and bilinear members are the references of the integrals, the
moment kernels and the checks.

Tests import this module as ``from oracles import ...``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from isofp.corpus import Fn1D, SeparableMember, _linear_member
from isofp.densities import Density1D
from isofp.fpsolver import FPState, SolverError
from isofp import quadrature
from isofp.quadrature import QuadratureError, TestFunction
from isofp.weights import WeightError, WeightFunction


# ---------------------------------------------------------------------------
# The P/Q' family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PQPair:
    """Diffusion P and drift Q of a 1-D Fokker-Planck equation with the
    target density as steady state.

    ``Qprime`` is the analytic derivative when available; otherwise a
    fourth-order centred difference with relative step 1e-5 is used, so the
    positivity check is not polluted by difference noise.
    """

    P: Callable
    Q: Callable
    domain: tuple
    Qprime: Optional[Callable] = None
    name: str = "pq"

    def qprime(self, x):
        x = np.asarray(x, dtype=float)
        if self.Qprime is not None:
            return np.asarray(self.Qprime(x), dtype=float)
        h = 1e-5 * np.maximum(np.abs(x), 1.0)
        return (-self.Q(x + 2 * h) + 8 * self.Q(x + h)
                - 8 * self.Q(x - h) + self.Q(x - 2 * h)) / (12 * h)


_VALIDATION_POINTS = 400


def _validation_grid(domain):
    lo, hi = domain
    if np.isinf(hi):
        # geometric sweep covering several decades
        return np.concatenate([
            np.geomspace(max(lo, 1e-6) + 1e-9, 1.0, _VALIDATION_POINTS // 2),
            np.geomspace(1.0, 1e4, _VALIDATION_POINTS // 2),
        ])
    span = hi - lo
    return lo + span * (np.arange(1, _VALIDATION_POINTS + 1) / (_VALIDATION_POINTS + 1.0))


def w_from_pq(pq):
    """Weight w = P / Q' of a valid pair; rejects pairs with Q' <= 0.

    Validity is checked on a grid: P > 0, Q' > 0, and the boundary signs
    lim_{x -> lo} Q < 0 and lim_{x -> hi} Q > 0.
    """
    grid = _validation_grid(pq.domain)
    p_vals = np.asarray(pq.P(grid), dtype=float)
    qp_vals = pq.qprime(grid)
    if np.any(p_vals <= 0.0):
        raise WeightError(f"{pq.name}: P must be positive on the open domain")
    if np.any(qp_vals <= 0.0):
        bad = grid[qp_vals <= 0.0][0]
        raise WeightError(f"{pq.name}: Q' <= 0 detected at x = {bad:.6g}")
    lo, hi = pq.domain
    eps = 1e-6 * (1.0 if np.isinf(hi) else hi - lo)
    q_lo = float(pq.Q(lo + eps))
    q_hi = float(pq.Q(hi - eps)) if np.isfinite(hi) else float(pq.Q(1e6))
    if q_lo >= 0.0 or q_hi <= 0.0:
        raise WeightError(f"{pq.name}: drift boundary signs violated "
                          f"(Q(lo+) = {q_lo:.3g}, Q(hi-) = {q_hi:.3g})")
    return WeightFunction(lambda x: np.asarray(pq.P(x), dtype=float) / pq.qprime(x))


def cauchy_pq(beta, n, alpha):
    """The alpha-family pair for the radial Cauchy-type marginal.

    P = (1+rho^2)^alpha, Q = 2(beta-alpha) rho (1+rho^2)^(alpha-1)
        - (n-1) (1+rho^2)^alpha / rho, with analytic Q'.
    Requires 1/2 < alpha <= 1 and beta - alpha > (n-1)/2.
    """
    if not 0.5 < alpha <= 1.0:
        raise WeightError("alpha must lie in (1/2, 1]")
    if beta - alpha <= (n - 1) / 2.0:
        raise WeightError("requires beta - alpha > (n-1)/2")

    def P(r):
        r = np.asarray(r, dtype=float)
        return (1.0 + r ** 2) ** alpha

    def Q(r):
        r = np.asarray(r, dtype=float)
        s = 1.0 + r ** 2
        return 2.0 * (beta - alpha) * r * s ** (alpha - 1.0) - (n - 1) * s ** alpha / r

    def Qp(r):
        r = np.asarray(r, dtype=float)
        s = 1.0 + r ** 2
        term1 = 2.0 * (beta - alpha) * (1.0 + r ** 2 * (2.0 * alpha - 1.0)) * s ** (alpha - 2.0)
        term2 = -2.0 * alpha * (n - 1) * s ** (alpha - 1.0)
        term3 = (n - 1) * s ** alpha / r ** 2
        return term1 + term2 + term3

    return PQPair(P, Q, (0.0, math.inf), Qprime=Qp,
                  name=f"cauchy_pq(beta={beta},n={n},alpha={alpha})")


def barenblatt_pq(a, p, n, alpha):
    """The alpha-family pair for the radial Barenblatt marginal on (0, a).

    P = (a^2-rho^2)^alpha, Q = 2(alpha+beta) rho (a^2-rho^2)^(alpha-1)
        - (n-1)(a^2-rho^2)^alpha / rho, with beta = 1/(p-1) and analytic Q'.
    """
    if not 0.5 < alpha <= 1.0:
        raise WeightError("alpha must lie in (1/2, 1]")
    if p <= 1.0 or a <= 0.0:
        raise WeightError("requires p > 1 and a > 0")
    beta = 1.0 / (p - 1.0)

    def P(r):
        r = np.asarray(r, dtype=float)
        return (a ** 2 - r ** 2) ** alpha

    def Q(r):
        r = np.asarray(r, dtype=float)
        s = a ** 2 - r ** 2
        return 2.0 * (alpha + beta) * r * s ** (alpha - 1.0) - (n - 1) * s ** alpha / r

    def Qp(r):
        r = np.asarray(r, dtype=float)
        s = a ** 2 - r ** 2
        term1 = 2.0 * (alpha + beta) * (a ** 2 - r ** 2 * (2.0 * alpha - 1.0)) * s ** (alpha - 2.0)
        term2 = (n - 1) * s ** (alpha - 1.0) * (a ** 2 + (2.0 * alpha - 1.0) * r ** 2) / r ** 2
        return term1 + term2

    return PQPair(P, Q, (0.0, a), Qprime=Qp,
                  name=f"barenblatt_pq(a={a},p={p},n={n},alpha={alpha})")


# ---------------------------------------------------------------------------
# Family optimisation over alpha in (1/2, 1]
# ---------------------------------------------------------------------------


def maximize_family_constant(h, lo=0.5, hi=1.0, tol=1e-13):
    """Golden-section maximisation of h over (lo, hi] with an explicit
    boundary comparison, so monotone families resolve to alpha = 1 exactly."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = h(c), h(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = h(d)
        else:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = h(c)
    alpha = 0.5 * (a + b)
    best = h(alpha)
    if h(hi) >= best:
        return hi, h(hi)
    return alpha, best


# ---------------------------------------------------------------------------
# The standard normal on the line
# ---------------------------------------------------------------------------


def std_normal_1d():
    c = 1.0 / math.sqrt(2.0 * math.pi)
    return Density1D("std_normal", (-math.inf, math.inf),
                     lambda x: c * np.exp(-np.asarray(x) ** 2 / 2.0), mean=0.0)


# ---------------------------------------------------------------------------
# The solver's discrete operator, read from outside
# ---------------------------------------------------------------------------


def steady_state(solver):
    """The discretised equilibrium as an FPState (mass = discrete mass)."""
    return FPState(solver.grid, solver.f_eq.copy(), 0.0)


def apply_flux_divergence(solver, F):
    """d(mass_i)/dt for each cell given quotient values F."""
    flux = solver.face_coeff * np.diff(F)  # interior faces; boundary flux = 0
    out = np.zeros_like(F)
    out[:-1] += flux
    out[1:] -= flux
    return out


def dissipation_entropy_sqrt_form(solver, state):
    """Entropy dissipation via 4 sum c (d sqrt(F))^2 (the second route)."""
    F = solver.quotient(state)
    if np.any(F <= 0.0):
        raise SolverError("entropy dissipation requires F > 0")
    ds = np.diff(np.sqrt(F))
    return 4.0 * float(np.dot(solver.face_coeff, ds ** 2))


# ---------------------------------------------------------------------------
# The angular kernel of a Gaussian mixture, one term at a time
# ---------------------------------------------------------------------------


def mixture_angular_two_pass(grid, mixture):
    """:func:`isofp.quadrature._mixture_angular` with each term's exponents
    taken in two passes: the outer product 2 b rho (c . u), then minus b
    (rho^2 + |c|^2)."""
    amps, centres, widths = mixture
    r, ang_w = grid.r_nodes, grid.ang_weights
    c_sq = np.einsum("kn,kn->k", centres, centres)
    top = np.max(-widths[:, None] * (r - np.sqrt(c_sq)[:, None]) ** 2, axis=0)
    rows = np.flatnonzero((top >= quadrature._EXP_FLOOR) & (grid.r_weights > 0.0))
    c_u = centres @ grid.unit.T
    coef = np.einsum("k,kn,ian->ika", 2.0 * amps * widths, centres, grid.tangents)
    ang_pair = np.stack([ang_w, grid.ang_halved], axis=1)
    step = max(1, quadrature._BLOCK_NODES // len(ang_w))
    e = np.empty((len(amps), min(step, len(rows)), len(ang_w)))
    d = np.empty(e.shape[1:])
    angular = np.zeros((len(coef), 2))
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
            angular[i] += (grid.r_weights[idx] * rho * rho) @ (d_b @ ang_pair)
    return angular


# ---------------------------------------------------------------------------
# Adaptive integration on any interval
# ---------------------------------------------------------------------------


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
    from scipy.integrate import quad

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
    adaptive subdivision runs, as in :func:`isofp.quadrature.integrate_interval`,
    which takes only (lo, inf) with the default tolerances.  Returns
    ``(value, err_estimate)`` and raises :class:`QuadratureError` (with the
    best estimate attached) when the subdivision budget is exhausted.
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
# Members at points, and the walks over a grid's nodes and a sphere
# ---------------------------------------------------------------------------


class Pointwise(TestFunction):
    """A member with values and gradients at points and no kernel:
    ``eval_fn`` maps an (m, n) array of points to (m,) values and
    ``grad_fn`` to (m, n) gradients."""

    def __init__(self, name, n, eval_fn, grad_fn, support="full", bounded=True,
                 radial_breakpoints=()):
        super().__init__(name, n, support=support, bounded=bounded,
                         radial_breakpoints=radial_breakpoints)
        self._eval, self._grad = eval_fn, grad_fn

    def __call__(self, points):
        return np.asarray(self._eval(np.atleast_2d(np.asarray(points, dtype=float))))

    def grad(self, points):
        return np.asarray(self._grad(np.atleast_2d(np.asarray(points, dtype=float))))


def _polar_parts(terms, pts):
    """(|x|, |x| with 0 read as 1, u, a(u), grad_S a(u)) at the rows of
    ``pts``; the direction u reads 0 at the origin."""
    rho = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    safe = np.where(rho == 0.0, 1.0, rho)
    u = pts / safe[:, None]
    return (rho, safe, u, *quadrature._sphere_polynomial(u, terms))


def polar_values(polar, pts):
    """phi = s(rho) a(u) at the rows of ``pts`` for ``polar`` = (s, terms)."""
    s, terms = polar
    rho, _, _, a, _ = _polar_parts(terms, pts)
    return s(rho) * a


def polar_grad(polar, pts):
    """grad phi = s'(rho) a(u) u + (s(rho) / rho) grad_S a.  At x = 0 the
    direction reads 0 and s / rho its limit s'(0), so grad phi(0) is
    s'(0) b for a linear a(u) = b . u and 0 for every other member."""
    s, terms = polar
    rho, safe, u, a, grad_a = _polar_parts(terms, pts)
    ds = s.deriv(rho)
    return (np.where(rho == 0.0, ds, s(rho) / safe)[:, None] * grad_a
            + (ds * a)[:, None] * u)


def _mixture_terms(mixture, pts):
    """(a_k, b_k, x - c_k, exp(-b_k |x - c_k|^2)) for each term."""
    for a, c, b in zip(*mixture):
        d = pts - c[None, :]
        yield a, b, d, np.exp(-b * np.einsum("ij,ij->i", d, d))


def mixture_values(mixture, pts):
    """phi(x) = sum_k a_k exp(-b_k |x - c_k|^2) at the rows of ``pts`` for
    ``mixture`` = (amps, centres, widths)."""
    out = np.zeros(len(pts))
    for a, _, _, e in _mixture_terms(mixture, pts):
        out += a * e
    return out


def mixture_grad(mixture, pts):
    """grad phi = sum_k -2 a_k b_k exp(-b_k |x - c_k|^2) (x - c_k)."""
    out = np.zeros_like(pts)
    for a, b, d, e in _mixture_terms(mixture, pts):
        out += (-2.0 * a * b * e)[:, None] * d
    return out


def separable_values(shapes, combine, pts):
    """prod_i g_i(x_i) or sum_i g_i(x_i) at the rows of ``pts``."""
    vals = [g(pts[:, i]) for i, g in enumerate(shapes)]
    return np.prod(vals, axis=0) if combine == "product" else np.sum(vals, axis=0)


def separable_grad(shapes, combine, pts):
    out = np.empty_like(pts)
    if combine == "sum":
        for i, g in enumerate(shapes):
            out[:, i] = g.deriv(pts[:, i])
        return out
    vals = [g(pts[:, i]) for i, g in enumerate(shapes)]
    for i, g in enumerate(shapes):
        out[:, i] = g.deriv(pts[:, i]) * np.prod(vals[:i] + vals[i + 1:], axis=0)
    return out


def pointwise(phi):
    """``phi`` as a :class:`Pointwise` member with values and gradients at
    points and no kernel: a polar member, a mixture or a separable member
    through the functions above, any other member through its own
    methods."""
    if phi.polar is not None:
        ev = lambda p: polar_values(phi.polar, p)
        gr = lambda p: polar_grad(phi.polar, p)
    elif phi.mixture is not None:
        ev = lambda p: mixture_values(phi.mixture, p)
        gr = lambda p: mixture_grad(phi.mixture, p)
    elif isinstance(phi, SeparableMember):
        ev = lambda p: separable_values(phi.shapes, phi.combine, p)
        gr = lambda p: separable_grad(phi.shapes, phi.combine, p)
    else:
        ev, gr = phi, phi.grad
    return Pointwise(phi.name, phi.n, ev, gr, support=phi.support, bounded=phi.bounded,
                     radial_breakpoints=phi.radial_breakpoints)


def sphere_walk(grid, phi, radius):
    """:func:`isofp.quadrature.sphere_dirichlet` of any member, walked over
    the grid's directions: |grad phi|^2 at radius * u from
    :func:`pointwise`, summed against the angular rule."""
    g = pointwise(phi).grad(radius * grid.unit)
    return float(grid.ang_weights @ np.einsum("ij,ij->i", g, g))


def linear_members(n):
    """The unbounded linear members x_1 and x_2 (x_1 alone for n = 1)."""
    return [_linear_member(f"linear_x{i + 1}", np.eye(n)[i]) for i in range(min(n, 2))]


def bilinear_member(n):
    """The unbounded product member x_1 x_2 on n >= 2 factors."""
    ident = Fn1D("id", lambda x: np.asarray(x, dtype=float),
                 lambda x: np.ones_like(np.asarray(x, dtype=float)))
    const = Fn1D("one", lambda x: np.ones_like(np.asarray(x, dtype=float)),
                 lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    return SeparableMember("bilinear_x1x2", [ident, ident] + [const] * (n - 2), "product")


def shell_blocks(grid):
    """Slices of whole radial shells with at most ``quadrature._BLOCK_NODES``
    nodes (at least one shell), the one that holds ``grid.anchor`` first."""
    J, A = len(grid.r_nodes), len(grid.ang_weights)
    step = max(1, quadrature._BLOCK_NODES // A)
    j_anchor = grid.anchor // A
    starts = sorted(range(0, J, step), key=lambda j0: not j0 <= j_anchor < j0 + step)
    return [slice(j0, min(j0 + step, J)) for j0 in starts]


def node_moments(grid, phi, radial_weights=(), split_weight=None, axis_weights=None):
    """:func:`isofp.quadrature.grid_moments` of any member with values and
    gradients at points, walked over the grid's nodes.

    The member is evaluated on the nodes of blocks of whole radial shells
    (:func:`shell_blocks`), as (radial, angular) arrays of its values and
    of each gradient component.  Each block is contracted with the radial
    and the angular weights; values are shifted by their value at
    ``grid.anchor``, whose block is taken first, and the block variances
    are merged by the pairwise update of Chan, Golub & LeVeque (1983), so a
    member constant on the nodes has variance exactly 0.
    """
    weights = np.reshape(radial_weights, (-1, len(grid.r_nodes)))
    A = len(grid.ang_weights)
    ang_w, ang_total = grid.ang_weights, float(grid.ang_weights.sum())
    # directions and tangents with the angular axis innermost
    unit_t = np.ascontiguousarray(grid.unit.T)
    tangents_t = np.ascontiguousarray(grid.tangents.transpose(0, 2, 1))
    c = None if axis_weights is None else np.reshape(axis_weights, (-1, 1, 1))
    ang_pair = np.stack([ang_w, grid.ang_halved], axis=1)
    dirichlet = np.zeros(len(weights))
    radial, angular = 0.0, np.zeros((len(grid.tangents), 2))
    shift = None
    w_sum = mean = m2 = 0.0
    for rows in shell_blocks(grid):
        x = (grid.r_nodes[rows, None, None] * grid.unit).reshape(-1, grid.n)
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
            angular += np.einsum("ibt,b->it", (d_theta * d_theta) @ ang_pair,
                                 p * grid.r_nodes[rows] ** 2)
    return quadrature._moments(m2, dirichlet, radial, angular, split_weight)


def walk_plain_members(monkeypatch):
    """Let the n-D checks take a member with neither ``polar`` nor
    ``mixture`` factors, which :func:`isofp.quadrature.grid_moments` and
    :func:`isofp.quadrature.sphere_dirichlet` refuse, through
    :func:`node_moments` and :func:`sphere_walk`."""
    from isofp import inequality

    def by_kernel(kernel, walk):
        def dispatch(grid, phi, *args, **kwargs):
            plain = phi.polar is None and phi.mixture is None
            return (walk if plain else kernel)(grid, phi, *args, **kwargs)
        return dispatch

    monkeypatch.setattr(inequality, "grid_moments",
                        by_kernel(quadrature.grid_moments, node_moments))
    monkeypatch.setattr(inequality, "sphere_dirichlet",
                        by_kernel(quadrature.sphere_dirichlet, sphere_walk))
