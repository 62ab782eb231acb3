"""Fixed interval rules, hyperspherical tensor quadrature and the adaptive
truncation tail.

Every weight and inequality check integrates with fixed composite
Gauss-Legendre rules: interval rules, and tensor grids in hyperspherical
coordinates kept as radial and angular factors (the periodic azimuth takes
the trapezoid rule instead).  The variance and weighted Dirichlet forms
of a member on such a grid come from one of two kernels, and no member is
evaluated node by node.  The polar kernel reorders the tensor sums of a
polar member s(rho) a(u) into one radial and one angular pass.  The
mixture kernel is exact in angle: a Gaussian mixture's variance,
Dirichlet forms, radial part and sphere integrals are sums over term pairs
on the radial nodes of modified Bessel functions (the von Mises-Fisher
normaliser and its first two moments), and only the angular parts of its
gradient, which are not rotation invariant, take a pass over the angular
rule.
Adaptive Gauss-Kronrod quadrature takes one shape here:
``integrate_interval`` of a tail (lo, inf), mapped onto (0, 1) by the
rational substitution r = lo + t/(1-t), for the truncation radius of the
Fokker-Planck domain.  It runs a pure-Python port of QUADPACK's ``dqagse``
that returns scipy's value, error estimate and flag bit for bit, so no
process imports ``scipy.integrate``.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache, reduce
from operator import add, mul
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
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


# QUADPACK's tolerances and subdivision budget for the truncation tail, and
# what each of its flags (ier = 1 to 5) means
_REL_TOL, _ABS_TOL, _MAX_SUBDIVISIONS = 1e-10, 1e-13, 200
_QAGSE_FLAGS = (None, "the subdivision limit is reached", "roundoff error is detected",
                "the integrand is bad at some point", "the extrapolation does not converge",
                "the integral is probably divergent")


def integrate_interval(g, lo):
    """Integrate ``g`` over the tail (lo, inf), lo finite.

    The tail is mapped to (0, 1) with r = lo + t/(1-t) before the adaptive
    subdivision runs; QUADPACK's nodes are interior, so the mapped end t =
    1 is never evaluated.  Returns ``(value, err_estimate)`` and raises
    :class:`QuadratureError` (with the best estimate attached) when
    QUADPACK flags a problem and the error estimate misses the tolerances;
    QUADPACK flags roundoff conservatively, so a flag alone is accepted.
    """
    if not math.isfinite(lo):
        raise ValueError(f"integrate_interval takes a tail (lo, inf), not ({lo}, inf)")

    def gt(t):
        # r = lo + t/(1-t), dr = dt/(1-t)^2
        u = 1.0 - t
        return float(g(lo + t / u) / (u * u))

    value, err, _, ier = _qagse(gt, 0.0, 1.0, _ABS_TOL, _REL_TOL, _MAX_SUBDIVISIONS)
    if ier and err > max(_REL_TOL * abs(value), _ABS_TOL):
        raise QuadratureError(
            f"adaptive integration on ({lo}, inf) did not converge: {_QAGSE_FLAGS[ier]}",
            value=value,
            err_estimate=err,
        )
    return value, err


# QUADPACK's dqagse (Piessens et al., *QUADPACK*, Springer 1983) in Python
# floats, in its operation order, so that it returns the value, error
# estimate, subinterval count and flag of scipy's ``quad`` bit for bit.
# Lists are indexed from 1 as in QUADPACK; slot 0 is unused.
_EPMACH, _UFLOW, _OFLOW = sys.float_info.epsilon, sys.float_info.min, sys.float_info.max
# the 21-point Kronrod abscissae, whose odd (0-based) entries are the Gauss
# nodes, Kronrod weights and 10-point Gauss weights: QUADPACK's 33-digit
# values rounded to double
_XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
        0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
        0.2943928627014602, 0.14887433898163122)
_WGK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
        0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
        0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(centr)
    resg, resk = 0.0, _WGK[10] * fc
    resabs = abs(resk)
    fv = [None] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes first
        absc = hlgth * _XGK[j]
        fval1, fval2 = f(centr - absc), f(centr + absc)
        fv[j] = fval1, fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv[j][0] - reskh) + abs(fv[j][1] - reskh))
    dhlgth = abs(hlgth)
    result, resabs, resasc = resk * hlgth, resabs * dhlgth, resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep ``iord`` descending in ``elist`` after a bisection;
    returns the next (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        while nrmax > 1 and not errmax <= elist[iord[nrmax - 1]]:
            iord[nrmax] = iord[nrmax - 1]
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin, jbnd = elist[last], jupbn - 1
        i = nrmax + 1
        while i <= jbnd and not errmax >= elist[iord[i]]:
            iord[i - 1] = iord[i]
            i += 1
        if i > jbnd:
            iord[jbnd], iord[jupbn] = maxerr, last
        else:
            iord[i - 1], k = maxerr, jbnd
            while k >= i and not errmin < elist[iord[k]]:
                iord[k + 1] = iord[k]
                k -= 1
            iord[k + 1] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: the epsilon algorithm on epstab[1..n]; returns (n, result,
    abserr, nres), updating ``epstab`` and ``res3la`` in place."""
    nres += 1
    abserr, result = _OFLOW, epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2], epstab[n] = epstab[n], _OFLOW
    num, newelm, k1 = n, (n - 1) // 2, n
    for i in range(1, newelm + 1):
        res = e2 = epstab[k1 + 2]
        e0, e1 = epstab[k1 - 2], epstab[k1 - 1]
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2, tol2 = abs(delta2), max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3, tol3 = abs(delta3), max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):  # e0, e1 and e2 agree: converged
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3, epstab[k1] = epstab[k1], e1
        delta1 = e1 - e3
        err1, tol1 = abs(delta1), max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not abs(ss * e1) > 1e-4:  # irregular table
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr, result = error, res
    if n == 50:
        n = 49
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        epstab[1:n + 1] = epstab[num - n + 1:num + 1]
    if nres < 4:
        res3la[nres], abserr = result, _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1:] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qagse(f, a, b, epsabs, epsrel, limit):
    """dqagse for epsabs > 0: (result, abserr, last, ier), ier as scipy's
    ``quad`` reports it (0 for success)."""
    alist, blist = [a] * (limit + 1), [b] * (limit + 1)
    rlist, elist, iord = [0.0] * (limit + 1), [0.0] * (limit + 1), [0] * (limit + 1)
    rlist2, res3la = [0.0] * 53, [0.0] * 4
    ier = ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last, rlist[1], elist[1], iord[1] = 1, result, abserr, 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, last, ier
    rlist2[1], errmax, maxerr, area, errsum, abserr = result, abserr, 1, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin, iroff1, iroff2, iroff3 = 1, 0, 2, 0, 0, 0, 0
    extrap = noext = False
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1, b2 = alist[maxerr], blist[maxerr]
        a2 = b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12, erro12 = area1 + area2, error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr], rlist[last] = area1, area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd or ier != 0:
            break
        if last == 2:
            small, erlarg, ertest, rlist2[2] = abs(b - a) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the next interval to bisect is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap, nrmax = True, 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the larger
            # ones first, while any is left
            large = False
            for _ in range(nrmax, (limit + 3 - last if last > 2 + limit // 2 else last) + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                large = abs(blist[maxerr] - alist[maxerr]) > small
                if large:
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr, nrmax, extrap = iord[1], 1, False
        errmax, small, erlarg = elist[maxerr], small * 0.5, errsum
    # every exit but the first of the loop has the extrapolated result,
    # unless the sum of the subintervals is better
    summed = errsum <= errbnd or abserr == _OFLOW
    if not summed:
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            else:
                summed = abserr > errsum
                if not summed and area == 0.0:
                    return result, abserr, last, ier - 1 if ier > 2 else ier
        if not summed and not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            # test on divergence
            if (area == 0.0 or 0.01 > result / area or result / area > 100.0
                    or errsum > abs(area)):
                ier = 6
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return result, abserr, last, ier - 1 if ier > 2 else ier


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


@lru_cache(maxsize=None)
def _leggauss(order):
    """Gauss-Legendre nodes and weights on (-1, 1), computed once per
    order and read-only."""
    rule = leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


def _gauss_on_panels(edges, order):
    xg, wg = _leggauss(order)
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


class TestFunction:
    """Smooth scalar function with gradient access and support metadata.

    ``eval_fn`` maps an (m, n) array of points to (m,) values and
    ``grad_fn`` to (m, n) gradients.  ``support`` is ``"full"`` or
    ``("outside_ball", R)``.  ``polar`` and ``mixture`` are None here;
    :class:`~isofp.corpus.PolarMember` sets ``polar`` to (s, terms) and
    :class:`~isofp.corpus.GaussianMixture` sets ``mixture`` to (amps,
    centres, widths), the factors :func:`grid_moments` takes moments of.
    A member built with no ``eval_fn`` and ``grad_fn`` (a mixture, or a
    :class:`~isofp.corpus.SeparableMember`, whose check takes 1-D moments
    of its shapes) has no values at points: calling it raises
    ``TypeError``.

    Nothing is checked on construction: the test suite compares every
    corpus member's derivatives with finite differences, and
    :func:`~isofp.inequality.check_refined_outside_ball` rejects a member
    that does not vanish where its support flag says it does.
    """

    __test__ = False  # not a pytest collection target
    polar = None
    mixture = None

    def __init__(self, name, n, eval_fn=None, grad_fn=None, support="full", bounded=True,
                 radial_breakpoints=()):
        self.name = name
        self.n = int(n)
        self._eval = eval_fn
        self._grad = grad_fn
        self.support = support
        self.bounded = bool(bounded)
        self.radial_breakpoints = tuple(sorted(radial_breakpoints))

    def _at(self, fn, points):
        if fn is None:
            raise TypeError(f"member {self.name!r} has no values at points")
        return np.asarray(fn(np.atleast_2d(np.asarray(points, dtype=float))))

    def __call__(self, points):
        return self._at(self._eval, points)

    def grad(self, points):
        return self._at(self._grad, points)


# ---------------------------------------------------------------------------
# Hyperspherical grids
# ---------------------------------------------------------------------------


# The grid's rules: radial Gauss order and dyadic levels, points per angle
# (even, so that the azimuth's even nodes form a rule of their own).
_RADIAL_ORDER, _RADIAL_LEVELS, _ANGULAR_ORDER = 12, 22, 24


class HypersphericalGrid:
    """Tensor quadrature grid (rho, theta_1..theta_{n-1}) for one density,
    kept as its radial and angular factors.

    The radial rule carries the rho^(n-1) Jacobian and the density and is
    divided by ``mass``, so ``r_weights[j] * ang_weights[a]`` is the
    probability weight of the node ``r_nodes[j] * unit[a]``.  Each polar
    angle theta_j in (0, pi) carries sin^(n-1-j) and takes Gauss-Legendre,
    and the periodic azimuthal angle takes the midpoint trapezoid rule on
    (0, 2pi) (see :func:`_angular_rule`); ``ang_weights`` is their product
    rule on the unit sphere and ``tangents[i - 1]`` holds d u / d theta_i
    at its nodes.  ``ang_halved`` keeps the weights of the azimuth's even
    nodes, doubled, and zeroes the others: the trapezoid rule of half the
    points, whose difference from ``ang_weights`` on an angular sum
    estimates that sum's azimuthal error.  For n = 1 the sphere is the two
    directions +-1, each of angular weight 1 in both, so odd test
    functions integrate correctly.  No array with one row per node is
    stored, and no check reads one: ``points`` builds the node list on
    access, radial index major, so rows j*A .. (j+1)*A - 1 lie at radius
    ``r_nodes[j]``.

    Integrating the constant 1 against the density gives ``mass``, which
    must be 1 within 1e-7, or the grid raises ``ValueError``.  The
    normalised weights sum to one only up to roundoff, so
    :func:`grid_moments` shifts each variance it takes at ``anchor``, the
    node of largest probability weight (or at its shell or direction),
    before centring: a constant then has variance exactly 0 (see
    :func:`shifted_variance`).
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
        # the azimuth's index runs innermost, so even indices are its even nodes
        self.ang_halved = self.ang_weights * (
            np.tile([2.0, 0.0], len(self.ang_weights) // 2) if n > 1 else 1.0)
        r_mass = r_rule * self.r_nodes ** (n - 1) * density.eval(self.r_nodes)
        self.mass = float(r_mass.sum() * self.ang_weights.sum())
        if abs(self.mass - 1.0) > 1e-7:
            raise ValueError(f"the density integrates to {self.mass!r} on the grid, "
                             "not to 1 within 1e-7")
        self.r_weights = r_mass / self.mass
        self.anchor = (int(np.argmax(self.r_weights)) * len(self.ang_weights)
                       + int(np.argmax(self.ang_weights)))

    @property
    def points(self):
        """Every node, radial index major, built on each access."""
        return (self.r_nodes[:, None, None] * self.unit).reshape(-1, self.n)

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
    Jacobians, and tangents d u / d theta_i stacked as (n - 1, A, n).

    Each polar angle takes ``order``-point Gauss-Legendre on (0, pi).  The
    azimuth is periodic, so it takes the trapezoid rule phi_k = (k + 1/2)
    2pi / ``order`` with weights 2pi / ``order``, which converges
    geometrically for smooth integrands (Trefethen & Weideman, SIAM Review
    56, 2014); its midpoints keep every node off sin phi = 0, where the
    azimuthal tangent divides by sin phi.  The azimuth's index runs
    innermost, so A = ``order``^(n - 1).
    """
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.ones(2), np.zeros((0, 2, 1))
    xg, wg = _leggauss(order)
    axes, weights = [], []
    for j in range(1, n - 1):  # polar angles, Jacobian sin^(n-1-j)
        t = (xg + 1.0) * 0.5 * math.pi
        axes.append(t)
        weights.append(wg * 0.5 * math.pi * np.sin(t) ** (n - 1 - j))
    step = 2.0 * math.pi / order
    axes.append((np.arange(order) + 0.5) * step)  # azimuthal angle on (0, 2pi)
    weights.append(np.full(order, step))
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


class GridMoments(NamedTuple):
    """Moments of one member on a grid; see :func:`grid_moments`."""

    variance: float
    dirichlet: tuple  # E[w_k(rho) |grad phi|^2], one per radial weight
    radial: float  # E[w(rho) (d phi / d rho)^2] for the split weight w
    angular: tuple  # E[(d phi / d theta_i)^2] for i = 1 .. n-1
    angular_halved: tuple  # the same on the halved azimuth (``ang_halved``)


def grid_moments(grid, phi, radial_weights=(), split_weight=None, axis_weights=None):
    """Variance and weighted Dirichlet forms of the member ``phi`` on ``grid``.

    Weights are given by their values on ``grid.r_nodes`` (see
    :meth:`HypersphericalGrid.radial_values`).  Each of ``radial_weights``
    gives one E[w_k(rho) |grad phi|_c^2], |v|_c^2 = sum_i c_i v_i^2 for the
    ``axis_weights`` c (default all ones).  With a ``split_weight`` w the
    result also carries the radial part E[w(rho) (d phi / d rho)^2] and the
    angular parts E[(d phi / d theta_i)^2] in hyperspherical coordinates,
    and those parts again with ``grid.ang_halved`` for ``grid.ang_weights``
    (the azimuth halved, which needs no new member values); without one
    they are nan, () and ().

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

    Any other member raises ``TypeError``.
    """
    weights = np.reshape(radial_weights, (-1, len(grid.r_nodes)))
    if phi.polar is not None:
        return _polar_moments(grid, phi.polar, weights, split_weight, axis_weights)
    if phi.mixture is not None:
        return _mixture_moments(grid, phi.mixture, weights, split_weight, axis_weights)
    raise TypeError(f"member {phi.name!r} has neither polar nor mixture factors; "
                    "grid_moments has no kernel for it")


def _moments(variance, dirichlet, radial, angular, split_weight):
    """The :class:`GridMoments` of the kernels' sums; ``angular`` holds
    the angular parts on ``ang_weights`` and on ``ang_halved`` as its two
    columns."""
    if split_weight is None:
        return GridMoments(variance, tuple(float(v) for v in dirichlet), math.nan, (), ())
    return GridMoments(variance, tuple(float(v) for v in dirichlet), float(radial),
                       *(tuple(float(v) for v in col) for col in np.reshape(angular, (-1, 2)).T))


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
    radial = angular = None
    if split_weight is not None:
        radial = float((p * split_weight) @ (ds * ds)) * a2
        d_theta = np.einsum("an,ian->ia", grad_a, grid.tangents)
        ang_pair = np.stack([ang_w, grid.ang_halved], axis=1)
        angular = float(p @ (s * s)) * ((d_theta * d_theta) @ ang_pair)
    return _moments(variance, weights @ (p * g2), radial, angular, split_weight)


# Exponents below this underflow exp to 0 (or to its smallest subnormal).
_EXP_FLOOR = -745.0
# Sphere averages take their power series, in this many terms, up to
# _SERIES_Z, and exp(-z) I_nu(z) above it: from :func:`_ive_half` for odd
# n, where nu is half an odd integer, and from scipy's ``ive`` for even n.
_SERIES_Z, _SERIES_TERMS = 1.0, 12


def ive(nu, z):  # scipy's exp(-z) I_nu(z), imported on first use: only even n calls it
    from scipy.special import ive
    return ive(nu, z)


@lru_cache(maxsize=None)
def _series_coefs(n, m, first):
    return tuple(math.gamma(0.5 * n) / (math.factorial(i) * math.gamma(0.5 * n + m + i))
                 for i in range(first, _SERIES_TERMS))


def _sphere_series(n, m, z, first=0):
    """Gamma(n/2) sum_(i >= first) (z^2/4)^i / (i! Gamma(n/2 + m + i)) for
    z <= _SERIES_Z: the power series of Gamma(n/2) (z/2)^(1-n/2-m)
    I_(n/2-1+m)(z) without its first ``first`` terms."""
    coefs = _series_coefs(n, m, first)
    q = 0.25 * z * z
    acc = np.full_like(z, coefs[-1])
    for coef in reversed(coefs[:-1]):
        acc *= q
        acc += coef
    return acc * q ** first


def _ive_half(nu, z):
    """exp(-z) I_nu(z) for nu in -1/2, 1/2, 3/2, ... and z > 0.

    These are elementary (DLMF 10.49): exp(-z) I_(-1/2)(z) and exp(-z)
    I_(1/2)(z) are sqrt(2 / (pi z)) (1 +- exp(-2z)) / 2, and the recurrence
    I_(v+1)(z) = I_(v-1)(z) - (2v / z) I_v(z) (DLMF 10.29.1) climbs from
    there.  It cancels most near z = 1, by about 1e-14 relative at nu =
    5/2, so it serves only z > _SERIES_Z.
    """
    t = np.expm1(-2.0 * z)
    scale = np.sqrt(0.5 / (math.pi * z))
    lo, hi = scale * (2.0 + t), -scale * t
    v = 0.5
    while v < nu:
        lo, hi = hi, lo - (2.0 * v / z) * hi
        v += 1.0
    return lo if nu < 0 else hi


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
    scaled = _ive_half(nu, zb) if n % 2 else ive(nu, zb)
    out[big] = np.exp(expo[big]) * math.gamma(0.5 * n) * (0.5 * zb) ** -nu * scaled
    return out


def _mixture_moments(grid, mixture, weights, split_weight, axis_weights):
    """:func:`grid_moments` of a Gaussian mixture from its shell averages
    (:func:`_mixture_shells`); ``weights`` holds the radial weights as
    rows."""
    P = grid.r_weights * float(grid.ang_weights.sum())  # radial probability weights
    mean, within, grad2, d_rho = _mixture_shells(grid.n, mixture, grid.r_nodes, axis_weights)
    variance = float(P @ within) + shifted_variance(P, mean, grid.anchor // len(grid.ang_weights))
    radial = angular = None
    if split_weight is not None:
        radial, angular = (P * split_weight) @ d_rho, _mixture_angular(grid, mixture)
    return _moments(variance, weights @ (P * grad2), radial, angular, split_weight)


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


# The mixture angular kernel takes blocks of whole radial shells with at most
# this many nodes (at least one shell), which bounds its working memory.
_BLOCK_NODES = 1 << 16


def _mixture_angular(grid, mixture):
    """E[(d phi / d theta_i)^2], i = 1 .. n-1, of a Gaussian mixture on the
    angular rule, as (n - 1, 2) with the sums on ``grid.ang_weights`` and
    on ``grid.ang_halved`` as columns.

    Since u . d u / d theta_i = 0, d phi / d theta_i = 2 rho sum_k a_k b_k
    e_k (c_k . d u / d theta_i), so a block of shells needs only the term
    exponentials e_k and n - 1 contractions over the terms.  Shells where
    every term underflows are skipped, and every block reuses one exponent
    and one output buffer.  A block's exponents 2 b rho (c . u) - b (rho^2
    + |c|^2) are one batched product of [2 b rho, -b (rho^2 + |c|^2)] with
    [c . u; 1], rounded as the product and the difference are one by one.
    """
    amps, centres, widths = mixture
    r, ang_w = grid.r_nodes, grid.ang_weights
    c_sq = np.einsum("kn,kn->k", centres, centres)
    # the largest exponent of each term on a shell is -b (rho - |c|)^2
    top = np.max(-widths[:, None] * (r - np.sqrt(c_sq)[:, None]) ** 2, axis=0)
    rows = np.flatnonzero((top >= _EXP_FLOOR) & (grid.r_weights > 0.0))
    c_u = centres @ grid.unit.T
    cu_one = np.stack([c_u, np.ones_like(c_u)], axis=1)
    coef = np.einsum("k,kn,ian->ika", 2.0 * amps * widths, centres, grid.tangents)
    ang_pair = np.stack([ang_w, grid.ang_halved], axis=1)
    step = max(1, _BLOCK_NODES // len(ang_w))
    e = np.empty((len(amps), min(step, len(rows)), len(ang_w)))
    lhs = np.empty(e.shape[:2] + (2,))
    d = np.empty(e.shape[1:])
    angular = np.zeros((len(coef), 2))
    for start in range(0, len(rows), step):
        idx = rows[start:start + step]
        rho = r[idx]
        e_b, d_b, lhs_b = e[:, :len(idx)], d[:len(idx)], lhs[:, :len(idx)]
        np.multiply.outer(2.0 * widths, rho, out=lhs_b[..., 0])
        np.negative(widths[:, None] * (rho * rho + c_sq[:, None]), out=lhs_b[..., 1])
        np.matmul(lhs_b, cu_one, out=e_b)
        np.exp(e_b, out=e_b)
        for i, coef_i in enumerate(coef):
            np.einsum("ka,kja->ja", coef_i, e_b, out=d_b)
            np.multiply(d_b, d_b, out=d_b)
            angular[i] += (grid.r_weights[idx] * rho * rho) @ (d_b @ ang_pair)
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
