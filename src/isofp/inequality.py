"""Verification of the weighted Poincare-type inequalities.

Each checker evaluates variance against a weighted Dirichlet form for
every corpus member and emits a structured report.  The theorems are
proved, so a failing report indicates an implementation bug; the pass
tolerance (default 1e-6 on the ratio) absorbs stacked quadrature error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .densities import make_density
from .quadrature import (
    ANGULAR_AZIMUTHAL_BOUND,
    ANGULAR_POLAR_BOUND,
    build_grid,
    grid_moments,
    interval_rule,
    shifted_variance,
    sphere_dirichlet,
)
from .weights import hybrid_weight, composite_Wstar

__all__ = [
    "InequalityReport",
    "check_poincare_1d",
    "check_product",
    "check_isotropic_Wstar",
    "check_refined_outside_ball",
    "check_hybrid",
    "check_gaussian_anisotropic",
    "covariance_eigenvalues",
    "summarize_reports",
]

DEFAULT_RATIO_TOL = 1e-6


@dataclass
class InequalityReport:
    """Outcome of one (theorem, density, test function) check.

    ``ratio`` is lhs/rhs, 0 when both sides vanish and inf when only the
    right-hand side does.  ``passed`` means ratio <= 1 + tol; rejected or
    inconclusive members carry ``passed = False`` with a status reason and
    are reported separately from genuine failures.
    """

    theorem: str
    witness: str
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    tol: float
    status: str = "ok"  # ok | inconclusive | rejected
    details: dict = field(default_factory=dict)

    def to_dict(self):
        # the fields as they are: the JSON writer copies nested containers
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _ratio(lhs, rhs):
    if rhs <= 0.0:
        return 0.0 if lhs <= 0.0 else math.inf
    return lhs / rhs


def _make_report(theorem, witness, lhs, rhs, tol, **details):
    lhs = max(float(lhs), 0.0)
    rhs = float(rhs)
    ratio = _ratio(lhs, rhs)
    return InequalityReport(
        theorem=theorem, witness=witness, lhs=lhs, rhs=rhs, ratio=ratio,
        passed=bool(ratio <= 1.0 + tol), tol=tol, details=details,
    )


def _rejected_report(theorem, witness, tol, reason):
    """A member outside the theorem's hypotheses: no sides, no ratio, not passed."""
    return InequalityReport(theorem, witness, math.nan, math.nan, math.nan, False, tol,
                            status="rejected", details={"reason": reason})


def _sorted(reports):
    return sorted(reports, key=lambda r: r.witness)


def summarize_reports(reports):
    """Aggregate counts used by the CLI and the acceptance suite."""
    out = {"total": len(reports), "passed": 0, "failed": 0,
           "inconclusive": 0, "rejected": 0, "max_ratio": 0.0}
    for r in reports:
        if r.status == "inconclusive":
            out["inconclusive"] += 1
        elif r.status == "rejected":
            out["rejected"] += 1
        elif r.passed:
            out["passed"] += 1
            out["max_ratio"] = max(out["max_ratio"], r.ratio)
        else:
            out["failed"] += 1
            out["max_ratio"] = max(out["max_ratio"], r.ratio)
    return out


# ---------------------------------------------------------------------------
# One-dimensional and product checks: moments on 1-D factor rules
# ---------------------------------------------------------------------------

# Gauss order of the factor rules' panels
_FACTOR_ORDER = 12


def check_poincare_1d(f, w, corpus, tol=DEFAULT_RATIO_TOL):
    """Var[phi(X)] <= E[w(X) phi'(X)^2] for X with 1-D density f.

    The one-factor case of :func:`check_product`: each member is a single
    shape, so both sides are its variance and E[w phi'^2] on one fixed
    rule, split at the knots of f, w and every member, and w is evaluated
    once per corpus.  The details carry the density's name beside those
    of :func:`_factor_reports`.
    """
    members = [(phi.name, (phi,), "product") for phi in corpus]
    return _factor_reports("poincare_1d", [f], [w], members, tol, density=f.name)


def check_product(densities, weights, corpus, tol=DEFAULT_RATIO_TOL):
    """Tensorized inequality for a product of 1-D densities:
    Var[phi] <= sum_i E[w_i(x_i) (d phi / d x_i)^2].

    Every member must be a :class:`~isofp.corpus.SeparableMember`, a
    product prod_i g_i(x_i) or a sum sum_i g_i(x_i); any other member is
    rejected with a ``ValueError``.  Both sides then reduce exactly to 1-D
    moments on the factor rules (see :func:`_combine`).  The details carry
    the factor densities' names beside those of :func:`_factor_reports`.
    """
    n = len(densities)
    if n != len(weights):
        raise ValueError("need one weight per factor density")
    corpus = list(corpus)
    for phi in corpus:
        if len(getattr(phi, "shapes", ())) != n:
            raise ValueError(f"member {phi.name!r} has no {n} factor shapes; "
                             "the product check needs separable members")
    members = [(phi.name, phi.shapes, phi.combine) for phi in corpus]
    return _factor_reports("product", densities, weights, members, tol,
                           factors=[f.name for f in densities])


def _factor_reports(theorem, densities, weights, members, tol, **details):
    """Reports for members (name, shapes, combine) of the product of the
    1-D ``densities``, one shape per factor.

    Each factor has a base and a halved rule (:func:`_factor_rules`), and
    each shape takes its four moments on both (:func:`_shape_moments`).
    The report gives the base rules' values; its details carry E[phi],
    the ``per_axis`` terms of the right-hand side, the ``nodes`` of each
    factor's base rule, their ``order`` and ``err_estimate``, the change
    of the ratio when every panel of every factor is halved.  A member
    whose ``err_estimate`` exceeds ``tol`` is inconclusive, never failed.
    """
    rules = [_factor_rules(f, w, set().union(*(shapes[i].breakpoints
                                               for _, shapes, _ in members)))
             for i, (f, w) in enumerate(zip(densities, weights))]
    nodes = [len(base[0]) for base, _ in rules]
    reports = []
    for name, shapes, combine in members:
        (mean, lhs, per_axis), (_, lhs_h, per_axis_h) = (
            _combine(combine, [_shape_moments(g, r[k]) for g, r in zip(shapes, rules)])
            for k in (0, 1))
        rep = _make_report(theorem, name, lhs, sum(per_axis), tol, **details, mean=mean,
                           per_axis=per_axis, nodes=nodes, order=_FACTOR_ORDER)
        refined = _ratio(max(lhs_h, 0.0), sum(per_axis_h))
        err = 0.0 if refined == rep.ratio else abs(refined - rep.ratio)
        rep.details["err_estimate"] = err
        if not err <= tol:
            rep.status, rep.passed = "inconclusive", False
        reports.append(rep)
    return _sorted(reports)


def _factor_rules(f, w, knots):
    """The base and the halved rule of one 1-D factor, each as (nodes,
    probability weights, anchor, values of w).

    Composite Gauss rules of order 12 graded over 14 levels (7 on a finite
    interval) split at the breakpoints of w and at ``knots``; the
    halved rule cuts every panel in two (see
    :func:`~isofp.quadrature.interval_rule`).  Nodes where f underflows
    carry no mass and are dropped, so w is only needed (and may only be
    defined) where f is positive; it is evaluated once, on the nodes of both
    rules, so a tabulated weight such as P(x) costs one call per factor.
    The anchor is the node of largest weight.
    """
    a, b = f.support
    bp = tuple(set(w.breakpoints) | set(knots))
    levels = 7 if np.isfinite(a) and np.isfinite(b) else 14
    rules = []
    for halved in (False, True):
        rule = functools.partial(interval_rule, order=_FACTOR_ORDER, levels=levels,
                                 halved=halved)
        if np.isinf(a) and np.isinf(b):
            x1, w1 = rule(0.0, math.inf, breakpoints=[p for p in bp if p > 0])
            x2, w2 = rule(0.0, math.inf, breakpoints=[-p for p in bp if p < 0])
            nodes, wts = np.concatenate([x1, -x2]), np.concatenate([w1, w2])
        else:
            nodes, wts = rule(a, b, breakpoints=bp)
        dens = np.asarray(f(nodes), dtype=float)
        pw = wts * dens
        keep = dens > 0.0
        rules.append((nodes[keep], pw[keep] / pw.sum()))
    w_vals = np.asarray(w(np.concatenate([x for x, _ in rules])), dtype=float)
    w_vals = np.split(w_vals, [len(rules[0][0])])
    return [(x, pw, int(np.argmax(pw)), wv) for (x, pw), wv in zip(rules, w_vals)]


def _shape_moments(g, rule):
    """(E[g], E[g^2], Var[g], E[w g'^2]) of one shape on one factor rule.

    The values are shifted by their value at the rule's anchor before they
    are centred (see :func:`~isofp.quadrature.shifted_variance`), so a
    constant shape has its value as mean and variance exactly 0, and
    E[g^2] = Var[g] + E[g]^2 is a sum of nonnegative terms.
    """
    nodes, pw, anchor, w_vals = rule
    vals = g(nodes)
    shift = float(vals[anchor])
    mean = float(np.dot(pw, vals - shift)) + shift
    var = shifted_variance(pw, vals, anchor)
    return mean, var + mean * mean, var, float(np.dot(pw, w_vals * g.deriv(nodes) ** 2))


def _combine(combine, moments):
    """(E[phi], Var[phi], per-axis Dirichlet terms) of phi = sum_i g_i or
    prod_i g_i over independent factors, from each shape's (m_i, S_i, V_i,
    D_i) = (E[g_i], E[g_i^2], Var[g_i], E[w_i g_i'^2]):

    - a sum has Var = sum_i V_i and axis terms D_i;
    - a product has axis terms D_i prod_{j != i} S_j and the telescoped
      Var = sum_k V_k prod_{j < k} m_j^2 prod_{j > k} S_j.

    Every term is nonnegative, so nothing cancels, and a constant member
    gets variance exactly 0.
    """
    m, S, V, D = zip(*moments)
    if combine == "sum":
        return sum(m), sum(V), list(D)
    var = sum(V[k] * math.prod(mj * mj for mj in m[:k]) * math.prod(S[k + 1:])
              for k in range(len(m)))
    return math.prod(m), var, [D[i] * math.prod(S[:i] + S[i + 1:]) for i in range(len(m))]


# ---------------------------------------------------------------------------
# Isotropic n-dimensional checks
# ---------------------------------------------------------------------------


def check_isotropic_Wstar(d, corpus, w_radial, tol=DEFAULT_RATIO_TOL):
    """Var[phi] <= E[W*(|X|) |grad phi|^2] with W* = max(w, pi^2 rho^2 / 2).

    The report also carries the sharper radial/angular split of the
    product decomposition, and which of the two terms dominates.  The
    angular part is the one number of the report that depends on the
    angular rule; ``angular_err`` is its difference from the same sum on
    the azimuth halved (``grid.ang_halved``), which estimates that error.
    """
    wstar = composite_Wstar(d, w_radial)
    grid = build_grid(d, corpus, extra_breakpoints=wstar.breakpoints)
    w_nodes, w_rad_nodes = grid.radial_values(wstar), grid.radial_values(w_radial)
    bounds = [ANGULAR_POLAR_BOUND] * (d.n - 2) + [ANGULAR_AZIMUTHAL_BOUND] * (d.n > 1)
    reports = []
    for phi in corpus:
        m = grid_moments(grid, phi, [w_nodes], split_weight=w_rad_nodes)
        angular_part = float(np.dot(bounds, m.angular))
        angular_err = abs(angular_part - float(np.dot(bounds, m.angular_halved)))
        rep = _make_report("isotropic_Wstar", phi.name, m.variance, m.dirichlet[0], tol,
                           radial_part=m.radial, angular_part=angular_part,
                           angular_err=angular_err,
                           dominant="radial" if m.radial >= angular_part else "angular")
        reports.append(rep)
    return _sorted(reports)


def check_refined_outside_ball(d, K, R, corpus, tol=DEFAULT_RATIO_TOL):
    """Var[phi] <= 2 E[K(|X|) |grad phi|^2] for phi supported outside B_R.

    Members that do not vanish (with gradient) on the closed ball are
    rejected with a diagnostic; this guards the hypothesis of the theorem
    instead of silently passing.
    """
    if d.n < 2:
        raise ValueError("the refined check needs n >= 2 (condition vacuous in 1-D)")
    reports = []
    admissible = []
    probe_dirs = np.eye(d.n)
    radii = np.linspace(0.05 * R, R, 8)
    probe = np.concatenate([r * probe_dirs for r in radii])
    for phi in corpus:
        ok = (isinstance(phi.support, tuple)
              and phi.support[0] == "outside_ball" and phi.support[1] >= R - 1e-12)
        if ok:
            v = np.max(np.abs(phi(probe)))
            gmax = np.max(np.abs(phi.grad(probe)))
            ok = v <= 1e-13 and gmax <= 1e-13
        if not ok:
            reports.append(_rejected_report(
                "refined_outside_ball", phi.name, tol,
                f"support not confined outside the ball of radius {R}"))
        else:
            admissible.append(phi)
    grid = build_grid(d, admissible, extra_breakpoints=(R, *K.breakpoints))
    K_nodes = grid.radial_values(K)
    for phi in admissible:
        m = grid_moments(grid, phi, [K_nodes])
        reports.append(_make_report("refined_outside_ball", phi.name, m.variance,
                                    2.0 * m.dirichlet[0], tol, R=R))
    return _sorted(reports)


def check_hybrid(d, w_radial, K, R, corpus, C_mult=4.0, tol=DEFAULT_RATIO_TOL):
    """Hybrid bound: Var[phi] <= C (volume term + c(R) surface term).

    The weight is max(w, rho^2) inside B_R and K outside; the surface term
    integrates |grad phi|^2 f(R) over the sphere |x| = R.  The theorem
    leaves C and c(R) as unpinned positive constants, so besides the
    pass/fail at the configured C_mult each report records the smallest
    multiplier that would make the member pass (the empirical constant);
    c(R) is R^3 / (R^n f(R)) from the proof.  Unbounded members
    are rejected per the smoothness hypothesis.
    """
    if d.n < 2:
        raise ValueError("the hybrid check needs n >= 2")
    W = hybrid_weight(w_radial, K, R)
    f_R = float(d.eval(R))
    c_R = R ** 3 / (R ** d.n * f_R) if f_R > 0 else 0.0
    reports = []
    admissible = []
    for phi in corpus:
        if not phi.bounded:
            reports.append(_rejected_report("hybrid", phi.name, tol,
                                            "member violates the boundedness hypothesis"))
        else:
            admissible.append(phi)
    grid = build_grid(d, admissible, extra_breakpoints=W.breakpoints)
    W_nodes = grid.radial_values(W)
    for phi in admissible:
        m = grid_moments(grid, phi, [W_nodes])
        lhs, volume = m.variance, m.dirichlet[0]
        surface = f_R * R ** (d.n - 1) * sphere_dirichlet(grid, phi, R)
        base = volume + c_R * surface
        rhs = C_mult * base
        empirical = lhs / base if base > 0 else (0.0 if lhs <= 0 else math.inf)
        rep = _make_report("hybrid", phi.name, lhs, rhs, tol,
                           volume_term=volume, surface_term=surface,
                           c_R=c_R, C_mult=C_mult, empirical_constant=empirical,
                           constants_note="C and c(R) are not pinned by the theory; "
                                          "empirical constant reported")
        reports.append(rep)
    return _sorted(reports)


def covariance_eigenvalues(V):
    """The eigenvalues of the covariance matrix V in ascending order; raises
    ValueError unless V is a finite, square, symmetric, positive definite
    matrix."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError("V must be a square matrix")
    if not np.all(np.isfinite(V)):
        raise ValueError("V must be finite")
    if not np.allclose(V, V.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(V).max())):
        raise ValueError("V must be symmetric")
    lam = np.linalg.eigvalsh(V)
    if np.any(lam <= 0.0):
        raise ValueError("V must be positive definite")
    return lam


def check_gaussian_anisotropic(V, corpus, tol=DEFAULT_RATIO_TOL):
    """Var[phi] <= (max eigenvalue of V) E[|grad phi|^2] under the Gaussian
    N(u, V), for members given in whitened coordinates.

    With V = Q D Q^T (``eigh`` order) and H = Q sqrt(D), X = u + H Y for a
    standard normal Y.  Each member is psi(y), the test function phi(x) =
    psi(H^{-1} (x - u)) read in y (see
    :func:`~isofp.corpus.corpus_anisotropic`).  Since grad_x phi =
    H^{-T} grad psi and H^{-1} H^{-T} = D^{-1}, both sides are moments of
    psi on the standard-normal grid: Var[phi] = Var[psi(Y)] and
    lambda_max E[|grad_x phi|^2] = E[sum_i c_i (d psi / d y_i)^2] with c_i =
    lambda_max / lambda_i.  The mean u drops out of both.
    """
    lam = covariance_eigenvalues(V)
    lam_max = float(lam.max())
    grid = build_grid(make_density("gaussian", {"sigma": 1.0}, len(lam)), corpus)
    ones = np.ones_like(grid.r_nodes)
    reports = []
    for phi in corpus:
        m = grid_moments(grid, phi, [ones], axis_weights=lam_max / lam)
        reports.append(_make_report("gaussian_anisotropic", phi.name, m.variance,
                                    m.dirichlet[0], tol, lambda_max=lam_max))
    return _sorted(reports)
