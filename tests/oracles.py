"""Reference code the tests check the package against.

The P/Q' family of diffusion/drift pairs with its alpha-optimisation is the
numeric route to the optimal Cauchy-type and Barenblatt weights, whose
closed forms are ``isofp.weights.optimal_cauchy_weight`` and
``optimal_barenblatt_weight``.  The standard normal is the sharp 1-D
density of the Poincare checks.  The solver helpers read a
:class:`~isofp.fpsolver.Solver`'s discrete operator from outside: its
equilibrium state, its flux divergence and the second route to its entropy
dissipation.  The two-pass angular kernel of a Gaussian mixture is the one
:func:`isofp.quadrature._mixture_angular` must match bit for bit.

Tests import this module as ``from oracles import ...``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from isofp.densities import Density1D
from isofp.fpsolver import FPState, SolverError
from isofp import quadrature
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
