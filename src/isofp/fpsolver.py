"""Radial Fokker-Planck solver with no-flux boundaries and decay tracking.

The scheme is finite-volume in the quotient variable F = f / f_eq: the
face flux is K f_eq dF/drho times the area factor, so the discretised
equilibrium is an exact steady state and total mass telescopes exactly.
Implicit Euler steps solve a symmetric positive-definite tridiagonal
M-matrix system, factored once per time step size, whose inverse is a
stochastic matrix in the equilibrium-weighted metric; the convex
functionals (chi-square, relative entropy, squared Hellinger) therefore
decrease monotonically step by step, mirroring the continuum dissipation
identity d Theta / dt = -I_Theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .weights import bisect, residual_step, steady_state_residual

__all__ = [
    "RadialGrid",
    "FPState",
    "DecayTrace",
    "Solver",
    "SolverError",
    "TruncationError",
    "make_radial_grid",
    "build_solver",
    "check_march",
    "check_perturbation",
    "fit_decay_rate",
    "verify_hellinger_decay",
    "perturbed_initial_state",
    "PERTURBATIONS",
]


class SolverError(RuntimeError):
    pass


class TruncationError(SolverError):
    """The equilibrium tail is too heavy to truncate the domain."""


_MASS_DRIFT_TOL = 1e-10  # relative; steps conserve mass to roundoff
# relative steady-state residual above which a weight is inconsistent with
# the density
_STEADY_TOL = 1e-5


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RadialGrid:
    """Finite-volume cells 0 = r_0 < ... < r_M = r_max.

    ``cell_volumes`` integrates the density's volume element
    ``geometry_factor`` rho^(n-1) over each cell: sigma_n (r_{i+1}^n -
    r_i^n) / n in R^n, the plain width for the 1-D half-line entry, whose
    factor is 1.  ``centers``, ``widths`` and ``cell_volumes`` are computed
    once, on first use, and are read-only."""

    n: int
    edges: np.ndarray
    geometry_factor: float

    @cached_property
    def centers(self):
        return _read_only(0.5 * (self.edges[:-1] + self.edges[1:]))

    @cached_property
    def widths(self):
        return _read_only(np.diff(self.edges))

    @cached_property
    def cell_volumes(self):
        return _read_only(self.geometry_factor * np.diff(self.edges ** self.n) / self.n)


# _NEWTON_PROBES exceeds the 29 doublings from 2 to _R_CAP (the last doubling
# of 1 below 1e9), so the bracket is closed before the probe cap.
_R_CAP, _NEWTON_PROBES, _CLOSE_ULPS = 2.0 ** 29, 32, 4


def _truncation_radius(d, tail_mass=1e-12):
    """Radius beyond which the equilibrium mass is below ``tail_mass``.

    The radius is the least float r >= 1 whose adaptive tail
    int_r^inf f dV is at most ``tail_mass``: 1.0 if its tail holds, else
    the ``hi`` of the adjacent floats lo < hi that :func:`weights.bisect`
    closes on.  Newton's method on log tail(r) = log tail_mass, with
    d tail / dr = -f dV/dr, finds it inside a bracket lo < r <= hi of
    that predicate (safeguarded Newton, Press et al., *Numerical Recipes*,
    3rd ed., section 9.4): while no probe holds, each probe is at least
    2 lo; after one holds, a step that leaves the bracket bisects it; a
    step of at most _CLOSE_ULPS ulps is followed by a probe _CLOSE_ULPS
    ulps past the root, so the bracket closes on adjacent floats.  After
    _NEWTON_PROBES tails the bracket goes to :func:`weights.bisect`.  So
    wherever the tail decreases in r, the radius is the float bisection
    from 1.0 finds.  Raises TruncationError if the tail at _R_CAP exceeds
    ``tail_mass`` or a tail integral fails or is negative."""
    from .quadrature import QuadratureError, integrate_interval

    if np.isfinite(d.support_radius):
        return d.support_radius

    def mass_density(r):
        # f(r) times the volume element at one radius; every r > R >= 1 lies
        # inside the unbounded support, so the profile is taken unmasked; in
        # log space from rho^(n-1) = e^400 on, where it may overflow (n >= 37)
        # or the profile underflow against it (below, the product is < 1e-130)
        if (d.n - 1) * math.log(r) >= 400.0:
            return math.exp(math.log(d.geometry_factor) + math.log(d.norm_const)
                            + (d.n - 1) * math.log(r) + d._log_profile(r))
        x = np.array([r])
        return float((d.radial_weight(x) * (d.norm_const * d._profile(x)))[0])

    def tail(R):
        try:
            val, _ = integrate_interval(mass_density, R)
        except QuadratureError as exc:
            raise TruncationError("could not truncate the domain: tail too heavy") from exc
        if val < 0.0:  # of a positive integrand
            raise TruncationError("could not truncate the domain: tail too heavy")
        return val

    r, T = 2.0, tail(2.0)
    if T <= tail_mass:
        if tail(1.0) <= tail_mass:
            return 1.0
        lo, hi = 1.0, r
    else:
        lo, hi = r, math.inf
    for _ in range(_NEWTON_PROBES - 1):
        if math.nextafter(lo, hi) == hi:
            return hi
        rho = mass_density(r)
        x = r + math.log(T / tail_mass) * T / rho if T > 0.0 and rho > 0.0 else math.nan
        if abs(x - r) <= _CLOSE_ULPS * math.ulp(r):
            # past the root, on the side of it that r is not
            close = _CLOSE_ULPS * math.ulp(x)
            x = x - close if T <= tail_mass else x + close
        if hi == math.inf:
            x = min(x if x > 2.0 * lo else 2.0 * lo, _R_CAP)  # also for a nan
        elif not lo < x < hi:
            x = 0.5 * (lo + hi)
        r, T = x, tail(x)
        if T <= tail_mass:
            hi = r
        elif r == _R_CAP:
            raise TruncationError("could not truncate the domain: tail too heavy")
        else:
            lo = r
    return bisect(lambda s: tail(s) <= tail_mass, lo, hi)[1]


def _lower_positive_radius(d):
    """Smallest radius at which the density is comfortably representable."""
    x = 1.0
    while float(d.eval(x / 2.0)) > 1e-250 and x > 1e-12:
        x /= 2.0
    return x


def make_radial_grid(d, cells, tail_mass=1e-12):
    """Grid for a density: uniform, except sinh-graded toward the origin
    for heavy-tailed half-line domains where the truncation radius is much
    larger than the core scale.  The grading strength is solved so the
    first cell centre stays where the density is numerically positive."""
    r_max = _truncation_radius(d, tail_mass)
    grading = 0.0
    target = _lower_positive_radius(d) if d.half_line else None
    if target is not None and r_max > 100.0 * target:

        def first_center(g):
            return r_max * math.sinh(g * 0.5 / cells) / math.sinh(g)

        grading = bisect(lambda g: first_center(g) <= target, 1e-6, 30.0)[0]
    u = np.linspace(0.0, 1.0, cells + 1)
    if grading > 1e-5:
        edges = r_max * np.sinh(grading * u) / math.sinh(grading)
    else:
        edges = r_max * u
    return RadialGrid(n=d.n, edges=_read_only(edges), geometry_factor=d.geometry_factor)


# ---------------------------------------------------------------------------
# States and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FPState:
    """Cell-averaged density at time t with its (conserved) mass."""

    grid: RadialGrid
    values: np.ndarray
    t: float

    @property
    def mass(self):
        return float(np.dot(self.values, self.grid.cell_volumes))


@dataclass
class DecayTrace:
    """Sampled functionals along an evolution."""

    times: np.ndarray
    theta_chi2: np.ndarray
    theta_entropy: np.ndarray
    hellinger2: np.ndarray
    dissipation_chi2: np.ndarray
    dissipation_entropy: np.ndarray
    mass: np.ndarray
    l1_dist: np.ndarray
    fitted_rate: Optional[float] = None

    def __len__(self):
        return len(self.times)


def _entropy_bregman(r):
    """r log r - r + 1 evaluated without cancellation near r = 1."""
    d = r - 1.0
    small = np.abs(d) < 1e-4
    safe = np.where(small, 2.0, np.maximum(r, 1e-300))
    series = d * d * (0.5 - d / 6.0 + d * d / 12.0)
    return np.where(small, series, safe * np.log(safe) - d)


_THETA_FUNCS = {
    "chi2": lambda r: (r - 1.0) ** 2,
    # r log r, split into the positive Bregman part plus the linear part
    # (r - 1) whose weighted sum is the conserved mass difference
    "entropy": lambda r: _entropy_bregman(r) + (r - 1.0),
    "hellinger2": lambda r: (np.sqrt(r) - 1.0) ** 2,
}


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


class Solver:
    """Finite-volume operator for one density and diffusion weight.

    Construction checks that the weight is consistent with the density: the
    steady-state residual must stay below ``_STEADY_TOL`` relative."""

    def __init__(self, density, K, grid):
        self.density = density
        self.K = K
        self.grid = grid
        centers = grid.centers
        faces = grid.edges[1:-1]
        K_faces = np.asarray(K(faces), dtype=float)
        if np.any(K_faces <= 0.0):
            bad = faces[np.nonzero(K_faces <= 0.0)[0][0]]
            raise SolverError(f"K is nonpositive at interior face r = {bad:.6g}")
        self.f_eq = np.asarray(density.eval(centers), dtype=float)
        if np.any(self.f_eq <= 0.0):
            raise SolverError("equilibrium density vanishes on a grid cell; "
                              "shrink the domain or refine the truncation")
        f_eq_faces = np.asarray(density.eval(faces), dtype=float)
        dc = np.diff(centers)
        # face conductances: area * K * f_eq / distance between centers, the
        # area being the density's volume element at the face
        self.face_coeff = density.radial_weight(faces) * K_faces * f_eq_faces / dc
        self.D = grid.cell_volumes * self.f_eq  # equilibrium-weighted cell masses
        self._factored = None  # (dt, d, e) of the last implicit step size
        rho_probe = centers[(centers > 2e-3 * centers[-1])
                            & (centers < 0.995 * centers[-1])][::7]
        if density.half_line:
            rho_probe = rho_probe[rho_probe > 1e-2]
        # keep the probes whose residual stencil, 2h each side, fits inside
        # the support
        reach = 2.0 * residual_step(density, rho_probe)
        inside = (rho_probe > reach) & (rho_probe + reach < density.support_radius)
        if not inside.any():
            raise SolverError("no steady-state probe lies 2h inside the support")
        rho_probe = rho_probe[inside]
        res = steady_state_residual(density, K, rho_probe)
        scale = np.max(np.abs((rho_probe - density.drift_mean)
                              * density.eval(rho_probe)))
        if np.max(np.abs(res)) > _STEADY_TOL * max(scale, 1e-300):
            raise SolverError(
                "weight is inconsistent with the density: steady-state "
                f"residual {np.max(np.abs(res)) / scale:.2e} exceeds {_STEADY_TOL:.0e}")

    # -- factor of (D - dt A) F = D F_old --------------------------------

    def _factor(self, dt):
        """L D L^T factor of the symmetric positive-definite tridiagonal
        D - dt A, computed the first time a step size is seen and kept
        until another one is."""
        if self._factored is None or self._factored[0] != dt:
            c = self.face_coeff
            diag = self.D.copy()
            diag[:-1] += dt * c
            diag[1:] += dt * c
            d, e, info = dpttrf(diag, -dt * c)
            if info != 0:
                raise SolverError(f"implicit system is not positive definite (info {info})")
            self._factored = (dt, d, e)
        return self._factored[1:]

    def quotient(self, state):
        return state.values / self.f_eq

    def step(self, state, dt):
        """One implicit Euler step, for any dt > 0.  Mass is conserved to
        roundoff; values below -1e-14 raise, tinier negatives are clamped
        mass-preservingly."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        d, e = self._factor(dt)
        F_new, info = dpttrs(d, e, self.D * self.quotient(state))
        if info != 0:
            raise SolverError(f"implicit solve failed (info {info})")
        values = F_new * self.f_eq
        neg = values.min()
        if neg < 0.0:
            if neg < -1e-14 * max(1.0, values.max()):
                raise SolverError(f"negative density {neg:.3e} produced by a step")
            clipped = np.clip(values, 0.0, None)
            total = np.dot(clipped, self.grid.cell_volumes)
            if total > 0.0:
                clipped *= np.dot(values, self.grid.cell_volumes) / total
            values = clipped
        return FPState(self.grid, values, state.t + dt)

    # -- functionals ---------------------------------------------------------

    def theta(self, state, kind):
        """Theta(F) = sum f_eq phi(F) dV for the convex phi of ``kind``:
        chi2 ((F - 1)^2), entropy (F log F) or hellinger2 ((sqrt F - 1)^2)."""
        F = self.quotient(state)
        if kind == "entropy" and np.any(F <= 0.0):
            raise SolverError("entropy functional requires F > 0 on the grid")
        return float(np.dot(self.D, _THETA_FUNCS[kind](F)))

    def dissipation(self, state, kind):
        """Discrete I_Theta = sum over faces of c (dF)^2 phi''(F_face) for
        the chi2 or the entropy functional of ``kind``.

        For the entropy the face value of F is the squared mean of the
        square roots, which makes the 1/F form agree exactly with the
        4 |d sqrt(F)|^2 form (the discrete mirror of the algebraic
        identity between the two).
        """
        F = self.quotient(state)
        dF = np.diff(F)
        if kind == "chi2":
            return 2.0 * float(np.dot(self.face_coeff, dF ** 2))
        if kind == "entropy":
            if np.any(F <= 0.0):
                raise SolverError("entropy dissipation requires F > 0")
            F_face = (0.5 * (np.sqrt(F[1:]) + np.sqrt(F[:-1]))) ** 2
            return float(np.dot(self.face_coeff, dF ** 2 / F_face))
        raise ValueError(f"unknown functional kind {kind!r}")

    def l1_distance(self, state):
        return float(np.dot(np.abs(state.values - self.f_eq),
                            self.grid.cell_volumes))

    # -- evolution -----------------------------------------------------------

    def evolve(self, state, t_final, dt, sample_every=None):
        """March to t_final by implicit steps, sampling the decay functionals.

        Raises if the relative mass drift ever exceeds ``_MASS_DRIFT_TOL``,
        and before the first step unless :func:`check_march` accepts
        ``t_final`` and ``dt``.  Returns a DecayTrace with the chi-square
        rate fitted on the standard window.
        """
        check_march(t_final, dt)
        sample_every = sample_every or max(dt, t_final / 400.0)
        n_steps = int(round(t_final / dt))
        stride = max(1, int(round(sample_every / dt)))
        mass0 = state.mass

        rows = []  # one {DecayTrace field: value} per sample

        def record(s):
            rows.append(dict(
                times=s.t, theta_chi2=self.theta(s, "chi2"),
                theta_entropy=self.theta(s, "entropy"),
                hellinger2=self.theta(s, "hellinger2"),
                dissipation_chi2=self.dissipation(s, "chi2"),
                dissipation_entropy=self.dissipation(s, "entropy"),
                mass=s.mass, l1_dist=self.l1_distance(s)))

        record(state)
        for k in range(1, n_steps + 1):
            state = self.step(state, dt)
            if abs(state.mass - mass0) > _MASS_DRIFT_TOL * abs(mass0):
                raise SolverError(
                    f"mass drift {abs(state.mass - mass0) / abs(mass0):.3e} "
                    f"exceeds {_MASS_DRIFT_TOL:.0e} at t = {state.t:.4g}")
            if k % stride == 0 or k == n_steps:
                record(state)

        trace = DecayTrace(**{k: np.array([row[k] for row in rows]) for k in rows[0]})
        try:
            trace.fitted_rate = fit_decay_rate(trace.times, trace.theta_chi2)
        except ValueError:
            trace.fitted_rate = None
        return trace


def check_march(t_final, dt):
    """Raise ValueError unless dt is finite and positive and t_final is
    finite and nonnegative."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")


def build_solver(d, K, cells=400, tail_mass=1e-12):
    """Finite-volume solver for the density with diffusion weight K.

    The weight must be consistent with the density (see :class:`Solver`);
    boundary fluxes vanish at both ends, so any multiple of the equilibrium
    is an exact fixed point.
    """
    return Solver(d, K, make_radial_grid(d, cells, tail_mass=tail_mass))


# ---------------------------------------------------------------------------
# Rate fitting and theorem surrogates
# ---------------------------------------------------------------------------


_FIT_WINDOW = (1e-8, 1e-1)


def fit_decay_rate(times, thetas):
    """Least-squares decay rate of log theta over the window where
    theta/theta_0 lies in [1e-8, 1e-1] (skips the transient and the
    floating-point floor)."""
    times = np.asarray(times, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    theta0 = thetas[0]
    if theta0 <= 0.0:
        raise ValueError("initial functional is zero; nothing to fit")
    rel = thetas / theta0
    mask = (rel >= _FIT_WINDOW[0]) & (rel <= _FIT_WINDOW[1]) & (thetas > 0.0)
    if mask.sum() < 5:
        raise ValueError("fewer than 5 samples in the fitting window")
    slope = np.polyfit(times[mask], np.log(thetas[mask]), 1)[0]
    return -float(slope)


# relative slack of the cumulative Hellinger bound, and the fewest samples
# a conclusive Hellinger report needs
_HELLINGER_SLACK, _HELLINGER_MIN_SAMPLES = 0.05, 20


def verify_hellinger_decay(trace, c_const):
    """Surrogate checks for the almost-1/sqrt(t) Hellinger decay.

    Reports monotonicity of d_H^2, the decreasing tail of t * d_H^2 on the
    final third, the cumulative bound int d_H^2 ds <= (c/2) H(f_0 | f_eq)
    within a relative slack of 0.05, and the per-sample L1 bound
    ||f - f_eq||_1 <= 2 d_H.  Traces of fewer than 20 samples are
    inconclusive.
    """
    out = {"status": "ok"}
    if len(trace) < _HELLINGER_MIN_SAMPLES:
        return {"status": "inconclusive",
                "reason": f"trace has {len(trace)} < {_HELLINGER_MIN_SAMPLES} samples"}
    h2 = trace.hellinger2
    t = trace.times
    out["monotone"] = bool(np.all(np.diff(h2) <= 1e-9))
    tail_start = 2 * len(t) // 3
    th2 = t * h2
    out["t_h2_tail_decreasing"] = bool(
        np.all(np.diff(th2[tail_start:]) <= 1e-12 + 1e-9 * th2[tail_start]))
    cumulative = float(np.trapezoid(h2, t))
    bound = 0.5 * c_const * trace.theta_entropy[0] * (1.0 + _HELLINGER_SLACK)
    out["cumulative_integral"] = cumulative
    out["cumulative_bound"] = bound
    out["cumulative_ok"] = bool(cumulative <= bound)
    d_h = np.sqrt(np.maximum(h2, 0.0))
    out["l1_vs_hellinger_ok"] = bool(np.all(trace.l1_dist <= 2.0 * d_h + 1e-12))
    out["passed"] = bool(out["monotone"] and out["t_h2_tail_decreasing"]
                         and out["cumulative_ok"] and out["l1_vs_hellinger_ok"])
    return out


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------


def _pert_cosine(r, r_max):
    return np.cos(2.0 * math.pi * r / r_max)


def _pert_tanh(r, r_max):
    return np.tanh(2.0 * (r - 0.35 * r_max))


def _pert_shell(r, r_max):
    return np.exp(-((r - 0.3 * r_max) / (0.15 * r_max)) ** 2)


def _pert_ramp(r, r_max):
    # bounded smooth ramp, loosely the lowest odd mode
    return r / (0.3 * r_max + r) - 0.5


PERTURBATIONS = {
    "cosine": _pert_cosine,
    "tanh": _pert_tanh,
    "shell": _pert_shell,
    "ramp": _pert_ramp,
}


def check_perturbation(name, eps):
    """Raise ValueError unless ``name`` is one of :data:`PERTURBATIONS` and
    eps lies in (0, 0.2]."""
    if name not in PERTURBATIONS:
        raise ValueError(f"solver.perturbation: unknown perturbation {name!r}; "
                         f"allowed: {', '.join(sorted(PERTURBATIONS))}")
    if not 0.0 < eps <= 0.2:
        raise ValueError("eps must lie in (0, 0.2] to respect the bounded-quotient hypothesis")


def perturbed_initial_state(solver, name="cosine", eps=0.1):
    """f_0 = f_eq (1 + eps g) with bounded g, discretely mass neutral.

    g is normalised to sup |g| = 1 after removing its equilibrium-weighted
    mean, so F_0 stays within [1 - eps, 1 + eps] and every theorem
    hypothesis (bounded quotient, finite chi-square and entropy) holds.
    """
    check_perturbation(name, eps)
    grid = solver.grid
    g = np.asarray(PERTURBATIONS[name](grid.centers, grid.edges[-1]), dtype=float)
    if np.max(np.abs(g)) > 0:
        g = g / np.max(np.abs(g))
    w = solver.D
    g = g - np.dot(w, g) / w.sum()
    sup = np.max(np.abs(g))
    if sup > 0:
        g = g / sup
    values = solver.f_eq * (1.0 + eps * g)
    return FPState(grid, values, 0.0)
