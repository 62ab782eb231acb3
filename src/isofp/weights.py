"""Construction of Poincare weights.

The central map sends an isotropic density to the diffusion coefficient of
the Fokker-Planck equation it solves,

    K(rho) = int_{rho^2}^{i_+^2} f(sqrt(y)) dy / (2 f(rho))
           = int_rho^{i_+} s f(s) ds / f(rho),

so that d/drho [K f] + rho f = 0.  The second form (y = s^2) is the
one-dimensional integral weight P of the profile x -> f(|x|) on
(-i_+, i_+) about its mean 0, and that is how K is computed.  On top of
that sit P(x) for an arbitrary 1-D density with finite mean, the
closed-form optimal weights of the P/Q' family for Cauchy-type and
Barenblatt densities, the angular weights of the hyperspherical product
decomposition, the composite weight W* = max(w, pi^2 rho^2 / 2), the
hybrid weight that switches to K outside a ball, and the critical radius
of the tail condition (n-1) K(r) / r^2 <= 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .densities import Density1D, density_label, radial_marginal, sin_power_density
from .quadrature import interval_rule

__all__ = [
    "WeightFunction",
    "WeightError",
    "weight_from_density",
    "p_weight_1d",
    "p_weight_function",
    "optimal_cauchy_weight",
    "optimal_barenblatt_weight",
    "gamma_radial_weight",
    "angular_weight",
    "angular_weight_function",
    "composite_Wstar",
    "hybrid_weight",
    "critical_tail_radius",
    "steady_state_residual",
    "bisect",
]


class WeightError(ValueError):
    pass


@dataclass(frozen=True)
class WeightFunction:
    """An evaluable weight rho -> w(rho) >= 0 and its kinks.

    ``breakpoints`` lists interior kinks (e.g. the crossover of a composite
    max, or the switching radius of the hybrid weight) so quadrature grids
    can split panels there.  Immutable; safe to share across workers.
    """

    fn: Callable
    breakpoints: tuple = ()

    def __call__(self, rho):
        return np.asarray(self.fn(np.asarray(rho, dtype=float)), dtype=float)


# ---------------------------------------------------------------------------
# Tail integrals on a fixed rule
# ---------------------------------------------------------------------------

# Gauss order of the panels, and the dyadic grading of each point's gap
# toward the point: the panel next to x spans 2^-10 of the gap to the next
# point, so an integrand that decays within a small part of that gap (a
# Gaussian tail seen from deep in the tail) is still resolved.  Points are
# taken in blocks of at most 64, which bounds the working memory whatever
# the number of points.
_CUMULATIVE_ORDER = 12
_GRADING = 0.5 ** np.arange(1, 11)
_BLOCK_POINTS = 64


def _tail_integrals(h, lo, hi, xs):
    """int_x^hi h for every x in [lo, hi); ``hi`` may be infinite."""
    pts, inverse = np.unique(xs, return_inverse=True)
    ends = np.append(pts[1:], hi)  # each point's gap runs to the next point
    if np.isinf(hi):  # grade in the mapped variable t = (r - lo) / (1 + r - lo)
        t = (pts - lo) / (1.0 + pts - lo)
        graded = t[:, None] + (np.append(t[1:], 1.0) - t)[:, None] * _GRADING
        graded = lo + graded / (1.0 - graded)
    else:
        graded = pts[:, None] + (ends - pts)[:, None] * _GRADING
    gaps = np.empty(len(pts))
    for i in range(0, len(pts), _BLOCK_POINTS):
        j = min(i + _BLOCK_POINTS, len(pts))
        start, stop = pts[i], ends[j - 1]
        edges = np.concatenate([pts[i + 1:j], graded[i:j].ravel()])
        nodes, wts = interval_rule(start, stop, order=_CUMULATIVE_ORDER, breakpoints=edges)
        panels = (wts * h(nodes)).reshape(-1, _CUMULATIVE_ORDER).sum(axis=1)
        # each point is a panel edge, so its gap starts at the first panel
        # whose first node lies right of it
        first = nodes[::_CUMULATIVE_ORDER]
        gaps[i:j] = np.add.reduceat(panels, np.searchsorted(first, pts[i:j]))
    # tails summed from the far end inward, smallest terms first
    return np.cumsum(gaps[::-1])[::-1][inverse]


# ---------------------------------------------------------------------------
# The density -> diffusion coefficient map
# ---------------------------------------------------------------------------


def weight_from_density(d, rho):
    """Diffusion coefficient of the density at radius rho, by quadrature.

    K is the integral weight :func:`p_weight_1d` about the drift centre: of
    the profile x -> f(|x|) on (-i_+, i_+) about 0 for an isotropic entry
    (P is a ratio, so the profile need not be normalised), and of the
    density itself about 1 for the half-line inverse Gamma.  One call
    covers the whole array.
    """
    r = np.asarray(rho, dtype=float)
    i_plus = d.support_radius
    outside = ~((r >= 0.0) & (r < i_plus))
    if np.any(outside):
        raise WeightError(f"rho = {r[outside].flat[0]} outside the open support "
                          f"[0, {i_plus})")
    if d.half_line:
        f = radial_marginal(d).as_density1d()
    else:
        f = Density1D(f"profile[{density_label(d)}]", (-i_plus, i_plus),
                      lambda x: d.eval(np.abs(x)), 0.0)
    return p_weight_1d(f, d.drift_mean, rho)


_RESIDUAL_STEP = 1e-3  # relative to max(|rho|, 1)


def residual_step(d, rho):
    """The difference step of :func:`steady_state_residual` at ``rho``:
    1e-3 max(|rho|, 1), shrunk by the support radius when that is below 1
    so that the stencil resolves a small support."""
    return _RESIDUAL_STEP * np.maximum(np.abs(rho), 1.0) * min(1.0, d.support_radius)


def steady_state_residual(d, K, rho_grid):
    """Residual of d/drho [K f] + (rho - m) f on interior grid points.

    The derivative is a fourth-order central difference with the step of
    :func:`residual_step`; m is the drift centre of the density (0 for
    isotropic entries, 1 for the inverse Gamma).  Returns the raw residual
    array; callers normalise by the scale of the drift term.
    """
    rho = np.asarray(rho_grid, dtype=float)
    h = residual_step(d, rho)
    i_plus = d.support_radius
    lo = 0.0 if not d.half_line else 1e-12
    if np.any(rho - 2 * h <= lo) or np.any(rho + 2 * h >= i_plus):
        raise ValueError("grid points must be interior with margin 2h")

    def kf(r):
        return K(r) * d.eval(r)

    deriv = (-kf(rho + 2 * h) + 8 * kf(rho + h) - 8 * kf(rho - h) + kf(rho - 2 * h)) / (12 * h)
    return deriv + (rho - d.drift_mean) * d.eval(rho)


# ---------------------------------------------------------------------------
# The 1-D integral weight P(x) for a density with finite mean
# ---------------------------------------------------------------------------


def p_weight_1d(f, m, x):
    """Piecewise integral weight of a 1-D density with mean m.

    P(x) = int_a^x (m - y) f(y) dy / f(x) for x <= m, and
    P(x) = int_x^b (y - m) f(y) dy / f(x) for x > m.  The branches agree at
    x = m because m is the mean (``m = None`` uses ``f.mean``).

    All x are tabulated at once.  On each side of m the points cut the side
    into gaps, each integrated by a composite Gauss rule (order 12, with the
    rational map t/(1-t) of :func:`~isofp.quadrature.interval_rule` at an
    infinite end) that is graded dyadically toward the point the gap starts
    from.  The gap sums of |m - y| f(y) are cumulated from the far end of
    each side toward m.  No branch straddles m, so no term cancels, and a
    point in a tail is integrated over the tail itself.
    """
    if m is None:
        m = _finite_mean(f)
    a, b = f.support
    xs = np.asarray(x, dtype=float)
    outside = ~((a < xs) & (xs < b))
    if np.any(outside):
        raise WeightError(f"x = {xs[outside].flat[0]} outside the open support ({a}, {b})")
    fx = np.asarray(f(xs), dtype=float)
    if np.any(fx <= 0.0):
        raise WeightError(f"density {f.name} vanishes at x = {xs[fx <= 0.0].flat[0]}")
    g = lambda y: np.abs(m - y) * f(y)
    pts = np.atleast_1d(xs)
    num = np.empty(pts.shape)
    left = pts <= m
    if np.any(left):
        num[left] = _tail_integrals(lambda u: g(-u), -m, -a, -pts[left])
    if not np.all(left):
        num[~left] = _tail_integrals(g, max(a, m), b, pts[~left])
    out = num.reshape(xs.shape) / fx
    return out if np.ndim(x) else float(out)


def _finite_mean(f):
    """The mean of f; P(x) is defined only for densities with a finite mean."""
    if not math.isfinite(f.mean):
        raise WeightError(f"P(x) needs a finite mean, and the mean of {f.name} "
                          f"is {f.mean}")
    return f.mean


def p_weight_function(f):
    """P(x) of the density wrapped as a WeightFunction (linear-drift family).

    P is built piecewise at the mean m, so m is its breakpoint."""
    m = _finite_mean(f)
    return WeightFunction(lambda x: p_weight_1d(f, m, x), breakpoints=(m,))


def optimal_cauchy_weight(beta, n):
    """Optimal family weight for the Cauchy-type density.

    w = (1+rho^2)/(beta - n/2)^2 when (n+1)/2 < beta < n/2 + 1, and
    w = (1+rho^2)/(2 beta - (n+1)) when beta >= n/2 + 1.  The coefficient is
    1/(2 h(alpha_max)) with h(alpha) = (2 alpha - 1)(beta* - alpha) and
    beta* = beta - (n-1)/2, maximised over (1/2, 1] at its closed-form
    stationary point.
    """
    if beta <= (n + 1) / 2.0:
        raise WeightError(f"requires beta > (n+1)/2 = {(n + 1) / 2.0}")
    beta_star = beta - (n - 1) / 2.0
    alpha_stat = beta_star / 2.0 + 0.25
    alpha_max = alpha_stat if alpha_stat <= 1.0 else 1.0
    h_max = (2.0 * alpha_max - 1.0) * (beta_star - alpha_max)
    coef = 1.0 / (2.0 * h_max)
    return WeightFunction(lambda r: coef * (1.0 + np.asarray(r, dtype=float) ** 2))


def optimal_barenblatt_weight(p, n, a):
    """Optimal family weight for the Barenblatt density:
    w = (p-1)/(2(n(p-1)+1)) (a^2 - rho^2).

    h(alpha) = (2 alpha - 1)(alpha + beta + n - 1) with beta = 1/(p-1) is
    increasing on (1/2, 1], so the supremum sits at alpha = 1 with
    denominator 2 h(1) = 2(n + beta).
    """
    if p <= 1.0 or a <= 0.0:
        raise WeightError("requires p > 1 and a > 0")
    beta = 1.0 / (p - 1.0)
    coef = 1.0 / (2.0 * (n + beta))  # equals (p-1)/(2(n(p-1)+1))
    return WeightFunction(lambda r: coef * (a ** 2 - np.asarray(r, dtype=float) ** 2))


def gamma_radial_weight(beta):
    """Weight w(rho) = rho / beta for the radial marginal of the
    exponential-type density exp(-beta rho), the Gamma(n, rate beta) law:
    its P weight (Stein kernel), sharp for phi = rho (Var = n / beta^2)."""
    return WeightFunction(lambda r: np.asarray(r, dtype=float) / beta)


# ---------------------------------------------------------------------------
# Angular weights
# ---------------------------------------------------------------------------


def angular_weight(i, n, theta):
    """One-dimensional weight of the i-th angular factor in dimension n.

    For i <= n-2 (polar): P_i(theta) from the integral formula applied to
    the density sin^i(theta) on (0, pi), mean pi/2.  For i = n-1
    (azimuthal): exactly pi theta - theta^2 / 2 on (0, 2 pi).
    """
    if not 1 <= i <= n - 1:
        raise WeightError(f"angular index {i} out of range 1..{n - 1}")
    th = np.asarray(theta, dtype=float)
    if i == n - 1:
        if np.any(th <= 0.0) or np.any(th >= 2.0 * math.pi):
            raise WeightError("azimuthal angle must lie in (0, 2 pi)")
        return math.pi * th - th ** 2 / 2.0
    if np.any(th <= 0.0) or np.any(th >= math.pi):
        raise WeightError("polar angle must lie in (0, pi)")
    f = sin_power_density(i)
    return p_weight_1d(f, math.pi / 2.0, theta)


def angular_weight_function(i, n):
    return WeightFunction(lambda th: angular_weight(i, n, th))


# ---------------------------------------------------------------------------
# Composite and hybrid weights
# ---------------------------------------------------------------------------


def bisect(holds, lo, hi):
    """Adjacent floats lo < hi with ``holds`` false at lo and true at hi, as
    it is assumed, untested, at the given ends.  Midpoints are tested until
    they round onto an endpoint.  Returns Python floats."""
    lo, hi = float(lo), float(hi)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


# points of the sign-change scans of _crossovers and critical_tail_radius,
# and of the tail grid on which critical_tail_radius verifies its R
_SCAN_POINTS, _TAIL_CHECK_POINTS = 4000, 2000


def _crossovers(f, g, lo, hi):
    """Radii where f - g changes sign (kinks of max(f, g)): for each sign
    change on the scan, the first float on the far side of it."""
    r = np.linspace(lo + 1e-9, hi - 1e-9, _SCAN_POINTS)
    diff = np.asarray(f(r)) - np.asarray(g(r))
    sign = np.sign(diff)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    return tuple(bisect(lambda x, s=sign[k + 1]: np.sign(float(f(x) - g(x))) == s,
                        r[k], r[k + 1])[1] for k in idx)


def composite_Wstar(d, w_radial):
    """Composite weight W*(rho) = max(w(rho), pi^2 rho^2 / 2)."""
    quad_part = lambda r: (math.pi ** 2 / 2.0) * np.asarray(r, dtype=float) ** 2
    hi = min(_numeric_support(d) * 0.95, 100.0) if not np.isfinite(d.support_radius) \
        else d.support_radius
    kinks = _crossovers(w_radial, quad_part, 0.0, hi)
    return WeightFunction(lambda r: np.maximum(w_radial(r), quad_part(r)), breakpoints=kinks)


def hybrid_weight(w_radial, K, R):
    """Weight of the hybrid inequality:
    max(w(rho), rho^2) for rho <= R and K(rho) for rho > R."""
    sq = lambda r: np.asarray(r, dtype=float) ** 2
    kinks = tuple(k for k in _crossovers(w_radial, sq, 0.0, R) if k < R) + (R,)

    def fn(r):
        r = np.asarray(r, dtype=float)
        inner = np.maximum(w_radial(r), sq(r))
        return np.where(r <= R, inner, K(r))

    return WeightFunction(fn, breakpoints=kinks)


# ---------------------------------------------------------------------------
# Critical radius of the tail condition (b1)
# ---------------------------------------------------------------------------


def _numeric_support(d):
    """Largest radius at which the density is numerically positive."""
    i_plus = d.support_radius
    if np.isfinite(i_plus):
        return i_plus
    lo, hi = 1.0, 2.0
    while float(d.eval(hi)) > 0.0 and hi < 1e8:
        lo, hi = hi, hi * 2.0
    if hi >= 1e8:
        return 1e8
    return bisect(lambda r: float(d.eval(r)) <= 0.0, lo, hi)[0]


def critical_tail_radius(d, K):
    """Smallest R >= 0 with (n-1) K(r) / r^2 <= 1/2 for all r in [R, i_+).

    Vacuous in dimension one (returns 0).  Assumes the ratio envelope is
    eventually decreasing (true for the catalog weights) and verifies the
    inequality on a dense tail grid instead of proving monotonicity; the
    grid is capped where the density stays numerically representable, so
    quadrature-backed weights remain evaluable.  Raises WeightError when
    the condition is never satisfiable, e.g. for Cauchy-type densities
    with beta <= n where the ratio limit exceeds 1/2.  R is the first
    float past the scan's last sign change at which the condition holds,
    with K taken at one point at a time.
    """
    n = d.n
    if n == 1:
        return 0.0
    i_plus = d.support_radius
    r_hi = min(_numeric_support(d) * 0.98, 1e6)
    if np.isfinite(i_plus):
        rs = np.linspace(i_plus * 1e-4, min(r_hi, i_plus * (1.0 - 1e-9)), _SCAN_POINTS)
    else:
        rs = np.geomspace(1e-4, r_hi, _SCAN_POINTS)
    vals = (n - 1) * K(rs) / rs ** 2 - 0.5
    if vals[-1] > 0.0:
        raise WeightError(
            "tail condition (n-1) K / r^2 <= 1/2 is never satisfied on the support"
        )
    pos = np.nonzero(vals > 0.0)[0]
    if len(pos) == 0:
        R = 0.0
    else:
        k = pos[-1]
        R = bisect(lambda r: (n - 1) * float(K(r)) / r ** 2 <= 0.5, rs[k], rs[k + 1])[1]
    tail = np.linspace(R, rs[-1], _TAIL_CHECK_POINTS) if R < rs[-1] else np.array([R])
    tail_vals = (n - 1) * K(tail) / np.maximum(tail, 1e-300) ** 2
    if np.any(tail_vals > 0.5 + 1e-12):
        raise WeightError("tail verification failed: ratio exceeds 1/2 beyond R")
    return float(R)
