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

from .weights import steady_state_residual

__all__ = [
    "RadialGrid",
    "FPState",
    "DecayTrace",
    "Solver",
    "SolverError",
    "make_radial_grid",
    "build_solver",
    "functional_theta",
    "fit_decay_rate",
    "verify_hellinger_decay",
    "perturbed_initial_state",
    "PERTURBATIONS",
]


class SolverError(RuntimeError):
    pass


_MASS_DRIFT_TOL = 1e-10  # relative; steps conserve mass to roundoff


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RadialGrid:
    """Finite-volume cells 0 = r_0 < ... < r_M = r_max.

    ``cell_volumes`` integrates the geometric factor over each cell
    (sigma_n (r_{i+1}^n - r_i^n) / n in radial geometry, the plain width
    for the 1-D half-line entry).  ``centers``, ``widths`` and
    ``cell_volumes`` are computed once, on first use, and are read-only."""

    n: int
    edges: np.ndarray
    geometry: str  # "radial" | "line"

    @cached_property
    def centers(self):
        return _read_only(0.5 * (self.edges[:-1] + self.edges[1:]))

    @cached_property
    def widths(self):
        return _read_only(np.diff(self.edges))

    @property
    def cells(self):
        return len(self.edges) - 1

    @cached_property
    def cell_volumes(self):
        if self.geometry == "line":
            return self.widths
        from .densities import surface_measure
        sn = surface_measure(self.n)
        return _read_only(sn * np.diff(self.edges ** self.n) / self.n)

    def face_areas(self):
        """Geometric area factor at interior faces r_1 .. r_{M-1}."""
        faces = self.edges[1:-1]
        if self.geometry == "line":
            return np.ones_like(faces)
        from .densities import surface_measure
        return surface_measure(self.n) * faces ** (self.n - 1)


def _truncation_radius(d, tail_mass=1e-12):
    """Radius beyond which the equilibrium mass is below ``tail_mass``."""
    from .quadrature import integrate_interval

    if np.isfinite(d.support_radius):
        return d.support_radius

    def tail(R):
        val, _ = integrate_interval(lambda r: d.radial_weight(r) * d.eval(r),
                                    R, math.inf)
        return val

    lo, hi = 1.0, 2.0
    while tail(hi) > tail_mass:
        lo, hi = hi, 2.0 * hi
        if hi > 1e9:
            raise SolverError("could not truncate the domain: tail too heavy")
    # bisect until lo and hi are adjacent floats; further midpoints round
    # onto an endpoint whose side is already known
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if tail(mid) > tail_mass:
            lo = mid
        else:
            hi = mid
    # the one endpoint never tested is the starting lo = 1.0
    if lo == 1.0 and tail(lo) <= tail_mass:
        return lo
    return hi


def _lower_positive_radius(d):
    """Smallest radius at which the density is comfortably representable."""
    x = 1.0
    while float(d.eval(x / 2.0)) > 1e-250 and x > 1e-12:
        x /= 2.0
    return x


def make_radial_grid(d, cells, r_max=None, tail_mass=1e-12, grading=None):
    """Grid for a density: uniform by default, sinh-graded toward the origin
    for heavy-tailed half-line domains where the truncation radius is much
    larger than the core scale.  The grading strength is solved so the
    first cell centre stays where the density is numerically positive."""
    if r_max is None:
        r_max = _truncation_radius(d, tail_mass)
    target = _lower_positive_radius(d) if grading is None and d.half_line else None
    if target is not None and r_max > 100.0 * target:

        def first_center(g):
            return r_max * math.sinh(g * 0.5 / cells) / math.sinh(g)

        lo, hi = 1e-6, 30.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if first_center(mid) > target:
                lo = mid
            else:
                hi = mid
        grading = lo
    grading = grading or 0.0
    u = np.linspace(0.0, 1.0, cells + 1)
    if grading > 1e-5:
        edges = r_max * np.sinh(grading * u) / math.sinh(grading)
    else:
        edges = r_max * u
    geometry = "line" if d.half_line else "radial"
    return RadialGrid(n=d.n, edges=_read_only(edges), geometry=geometry)


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
    "chi2": (lambda r: (r - 1.0) ** 2, lambda r: 2.0 * np.ones_like(r)),
    # r log r, split into the positive Bregman part plus the linear part
    # (r - 1) whose weighted sum is the conserved mass difference
    "entropy": (lambda r: _entropy_bregman(r) + (r - 1.0), lambda r: 1.0 / r),
    "hellinger2": (lambda r: (np.sqrt(r) - 1.0) ** 2,
                   lambda r: 0.5 * r ** (-1.5)),
}


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


class Solver:
    """Finite-volume operator for one density and diffusion weight."""

    def __init__(self, density, K, grid, check_steady=True, steady_tol=1e-5):
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
        # face conductances: area * K * f_eq / distance between centers
        self.face_coeff = grid.face_areas() * K_faces * f_eq_faces / dc
        self.face_coeff = np.maximum(self.face_coeff, 0.0)
        self.D = grid.cell_volumes * self.f_eq  # equilibrium-weighted cell masses
        self._factored = None  # (dt, d, e) of the last implicit step size
        if check_steady:
            rho_probe = centers[(centers > 2e-3 * centers[-1])
                                & (centers < 0.995 * centers[-1])][::7]
            if density.half_line:
                rho_probe = rho_probe[rho_probe > 1e-2]
            res = steady_state_residual(density, K, rho_probe)
            scale = np.max(np.abs((rho_probe - density.drift_mean)
                                  * density.eval(rho_probe)))
            if np.max(np.abs(res)) > steady_tol * max(scale, 1e-300):
                raise SolverError(
                    "weight is inconsistent with the density: steady-state "
                    f"residual {np.max(np.abs(res)) / scale:.2e} exceeds {steady_tol:.0e}")

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

    def steady_state(self):
        """The discretised equilibrium as an FPState (mass = discrete mass)."""
        return FPState(self.grid, self.f_eq.copy(), 0.0)

    def quotient(self, state):
        return state.values / self.f_eq

    def apply_flux_divergence(self, F):
        """d(mass_i)/dt for each cell given quotient values F."""
        flux = self.face_coeff * np.diff(F)  # interior faces; boundary flux = 0
        out = np.zeros_like(F)
        out[:-1] += flux
        out[1:] -= flux
        return out

    def step(self, state, dt, method="implicit"):
        """One time step; implicit Euler (any dt) or explicit Euler under a
        CFL restriction.  Mass is conserved to roundoff; values below
        -1e-14 raise, tinier negatives are clamped mass-preservingly."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        F = self.quotient(state)
        if method == "implicit":
            d, e = self._factor(dt)
            F_new, info = dpttrs(d, e, self.D * F)
            if info != 0:
                raise SolverError(f"implicit solve failed (info {info})")
        elif method == "explicit":
            rate = np.zeros_like(F)
            rate[:-1] += self.face_coeff
            rate[1:] += self.face_coeff
            dt_max = np.min(self.D / np.maximum(rate, 1e-300))
            if dt > dt_max:
                raise SolverError(f"explicit step violates the CFL bound {dt_max:.3e}")
            F_new = F + dt * self.apply_flux_divergence(F) / self.D
        else:
            raise ValueError(f"unknown method {method!r}")
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
        """Theta(F) = sum f_eq phi(F) dV for a convex phi (or a callable)."""
        F = self.quotient(state)
        if callable(kind):
            phi = kind
        else:
            phi = _THETA_FUNCS[kind][0]
        if not callable(kind) and kind == "entropy" and np.any(F <= 0.0):
            raise SolverError("entropy functional requires F > 0 on the grid")
        return float(np.dot(self.D, phi(F)))

    def dissipation(self, state, kind):
        """Discrete I_Theta = sum over faces of c (dF)^2 phi''(F_face).

        For the entropy the face value of F is the squared mean of the
        square roots, which makes the 1/F form agree exactly with the
        4 |d sqrt(F)|^2 form (the discrete mirror of the algebraic
        identity between the two).
        """
        F = self.quotient(state)
        dF = np.diff(F)
        if callable(kind):
            F_face = 0.5 * (F[1:] + F[:-1])
            return float(np.dot(self.face_coeff, dF ** 2 * kind(F_face)))
        if kind == "chi2":
            return 2.0 * float(np.dot(self.face_coeff, dF ** 2))
        if kind == "entropy":
            if np.any(F <= 0.0):
                raise SolverError("entropy dissipation requires F > 0")
            F_face = (0.5 * (np.sqrt(F[1:]) + np.sqrt(F[:-1]))) ** 2
            return float(np.dot(self.face_coeff, dF ** 2 / F_face))
        if kind == "hellinger2":
            if np.any(F <= 0.0):
                raise SolverError("hellinger dissipation requires F > 0")
            ds = np.diff(np.sqrt(F))
            return 2.0 * float(np.dot(self.face_coeff, ds ** 2))
        raise ValueError(f"unknown functional kind {kind!r}")

    def dissipation_entropy_sqrt_form(self, state):
        """Entropy dissipation via 4 sum c (d sqrt(F))^2 (the second route)."""
        F = self.quotient(state)
        if np.any(F <= 0.0):
            raise SolverError("entropy dissipation requires F > 0")
        ds = np.diff(np.sqrt(F))
        return 4.0 * float(np.dot(self.face_coeff, ds ** 2))

    def l1_distance(self, state):
        return float(np.dot(np.abs(state.values - self.f_eq),
                            self.grid.cell_volumes))

    # -- evolution -----------------------------------------------------------

    def evolve(self, state, t_final, dt, sample_every=None):
        """March to t_final by implicit steps, sampling the decay functionals.

        Raises if the relative mass drift ever exceeds ``_MASS_DRIFT_TOL``.
        Returns a DecayTrace with the chi-square rate fitted on the
        standard window.
        """
        sample_every = sample_every or max(dt, t_final / 400.0)
        n_steps = int(round(t_final / dt))
        stride = max(1, int(round(sample_every / dt)))
        mass0 = state.mass

        samples = {k: [] for k in ("t", "chi2", "ent", "hell", "d_chi2",
                                   "d_ent", "mass", "l1")}

        def record(s):
            samples["t"].append(s.t)
            samples["chi2"].append(self.theta(s, "chi2"))
            samples["ent"].append(self.theta(s, "entropy"))
            samples["hell"].append(self.theta(s, "hellinger2"))
            samples["d_chi2"].append(self.dissipation(s, "chi2"))
            samples["d_ent"].append(self.dissipation(s, "entropy"))
            samples["mass"].append(s.mass)
            samples["l1"].append(self.l1_distance(s))

        record(state)
        for k in range(1, n_steps + 1):
            state = self.step(state, dt)
            if abs(state.mass - mass0) > _MASS_DRIFT_TOL * abs(mass0):
                raise SolverError(
                    f"mass drift {abs(state.mass - mass0) / abs(mass0):.3e} "
                    f"exceeds {_MASS_DRIFT_TOL:.0e} at t = {state.t:.4g}")
            if k % stride == 0 or k == n_steps:
                record(state)

        trace = DecayTrace(
            times=np.array(samples["t"]),
            theta_chi2=np.array(samples["chi2"]),
            theta_entropy=np.array(samples["ent"]),
            hellinger2=np.array(samples["hell"]),
            dissipation_chi2=np.array(samples["d_chi2"]),
            dissipation_entropy=np.array(samples["d_ent"]),
            mass=np.array(samples["mass"]),
            l1_dist=np.array(samples["l1"]),
        )
        try:
            trace.fitted_rate = fit_decay_rate(trace.times, trace.theta_chi2)
        except ValueError:
            trace.fitted_rate = None
        return trace


def build_solver(d, K, cells=400, r_max=None, tail_mass=1e-12, grid=None,
                 check_steady=True):
    """Finite-volume solver for the density with diffusion weight K.

    The weight must be consistent with the density (the steady-state
    residual check runs unless disabled); boundary fluxes vanish at both
    ends, so any multiple of the equilibrium is an exact fixed point.
    """
    grid = grid or make_radial_grid(d, cells, r_max=r_max, tail_mass=tail_mass)
    return Solver(d, K, grid, check_steady=check_steady)


# ---------------------------------------------------------------------------
# Module-level functionals (equilibrium passed explicitly)
# ---------------------------------------------------------------------------


def _eq_cells(state, eq):
    f_eq = np.asarray(eq.eval(state.grid.centers), dtype=float)
    if np.any(f_eq <= 0.0):
        raise SolverError("equilibrium vanishes on a grid cell")
    return f_eq


def functional_theta(state, eq, kind):
    """Theta functional of a state against an equilibrium density.

    ``kind`` is chi2 ((F-1)^2), entropy (F log F), hellinger2
    ((sqrt F - 1)^2) or a custom convex callable phi(F); convexity of a
    custom phi is the caller's responsibility."""
    f_eq = _eq_cells(state, eq)
    F = state.values / f_eq
    if callable(kind):
        phi = kind
    else:
        if kind not in _THETA_FUNCS:
            raise ValueError(f"unknown functional kind {kind!r}")
        if kind == "entropy" and np.any(F <= 0.0):
            raise SolverError("entropy functional requires F > 0 on the grid")
        phi = _THETA_FUNCS[kind][0]
    vols = state.grid.cell_volumes
    return float(np.dot(vols * f_eq, phi(F)))


# ---------------------------------------------------------------------------
# Rate fitting and theorem surrogates
# ---------------------------------------------------------------------------


def fit_decay_rate(times, thetas, window=(1e-8, 1e-1)):
    """Least-squares decay rate of log theta over the window where
    theta/theta_0 lies in [window[0], window[1]] (skips the transient and
    the floating-point floor)."""
    times = np.asarray(times, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    theta0 = thetas[0]
    if theta0 <= 0.0:
        raise ValueError("initial functional is zero; nothing to fit")
    rel = thetas / theta0
    mask = (rel >= window[0]) & (rel <= window[1]) & (thetas > 0.0)
    if mask.sum() < 5:
        raise ValueError("fewer than 5 samples in the fitting window")
    slope = np.polyfit(times[mask], np.log(thetas[mask]), 1)[0]
    return -float(slope)


def verify_hellinger_decay(trace, c_const, slack=0.05, min_samples=20):
    """Surrogate checks for the almost-1/sqrt(t) Hellinger decay.

    Reports monotonicity of d_H^2, the decreasing tail of t * d_H^2 on the
    final third, the cumulative bound int d_H^2 ds <= (c/2) H(f_0 | f_eq)
    within the given slack, and the per-sample L1 bound
    ||f - f_eq||_1 <= 2 d_H.  Traces shorter than ``min_samples`` are
    inconclusive.
    """
    out = {"status": "ok"}
    if len(trace) < min_samples:
        return {"status": "inconclusive",
                "reason": f"trace has {len(trace)} < {min_samples} samples"}
    h2 = trace.hellinger2
    t = trace.times
    out["monotone"] = bool(np.all(np.diff(h2) <= 1e-9))
    tail_start = 2 * len(t) // 3
    th2 = t * h2
    out["t_h2_tail_decreasing"] = bool(
        np.all(np.diff(th2[tail_start:]) <= 1e-12 + 1e-9 * th2[tail_start]))
    cumulative = float(np.trapezoid(h2, t))
    bound = 0.5 * c_const * trace.theta_entropy[0] * (1.0 + slack)
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


def perturbed_initial_state(solver, name="cosine", eps=0.1):
    """f_0 = f_eq (1 + eps g) with bounded g, discretely mass neutral.

    g is normalised to sup |g| = 1 after removing its equilibrium-weighted
    mean, so F_0 stays within [1 - eps, 1 + eps] and every theorem
    hypothesis (bounded quotient, finite chi-square and entropy) holds.
    """
    if not 0.0 < eps <= 0.2:
        raise ValueError("eps must lie in (0, 0.2] to respect the bounded-quotient hypothesis")
    grid = solver.grid
    fn = PERTURBATIONS[name] if isinstance(name, str) else name
    g = np.asarray(fn(grid.centers, grid.edges[-1]), dtype=float)
    if np.max(np.abs(g)) > 0:
        g = g / np.max(np.abs(g))
    w = solver.D
    g = g - np.dot(w, g) / w.sum()
    sup = np.max(np.abs(g))
    if sup > 0:
        g = g / sup
    values = solver.f_eq * (1.0 + eps * g)
    return FPState(grid, values, 0.0)
