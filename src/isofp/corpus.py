"""Corpora of smooth test functions for the inequality checks.

The default family mixes polynomials times radial Gaussian factors,
low-order angular harmonics entering through Cartesian monomials,
piecewise-quintic C^2 compact bumps, saturating radial profiles and
seeded random smooth mixtures.  Every member carries an analytic
gradient, boundedness and support metadata, and the radii of its C^2
knots so quadrature panels can split there.  Each builder returns a
plain list of members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import TestFunction, _sphere_polynomial

__all__ = [
    "Fn1D",
    "GaussianMixture",
    "PolarMember",
    "SeparableMember",
    "corpus_1d",
    "corpus_nd",
    "corpus_outside_ball",
    "corpus_product",
    "quintic_step",
    "quintic_step_deriv",
]

# seeded random members per corpus, and the number of radii in the lattice
# the knots of the outside-ball corpus are drawn from
_RANDOM_MEMBERS = 14
_LATTICE_SIZE = 16


# ---------------------------------------------------------------------------
# C^2 quintic smoothstep
# ---------------------------------------------------------------------------


def quintic_step(t):
    """C^2 smoothstep: 0 for t <= 0, 6t^5 - 15t^4 + 10t^3 on (0,1), 1 for t >= 1."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))


def quintic_step_deriv(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    tc = np.where(inside, t, 0.5)
    return np.where(inside, 30.0 * tc ** 2 * (tc - 1.0) ** 2, 0.0)


def _bump(rho, r0, r1, w_up, w_down):
    """Plateau bump: rises on (r0-w_up, r0), is 1 on [r0, r1], falls on (r1, r1+w_down)."""
    rho = np.asarray(rho, dtype=float)
    up = quintic_step((rho - (r0 - w_up)) / w_up) if w_up > 0 else np.ones_like(rho)
    down = 1.0 - quintic_step((rho - r1) / w_down)
    return up * down


def _bump_deriv(rho, r0, r1, w_up, w_down):
    rho = np.asarray(rho, dtype=float)
    if w_up > 0:
        up = quintic_step((rho - (r0 - w_up)) / w_up)
        dup = quintic_step_deriv((rho - (r0 - w_up)) / w_up) / w_up
    else:
        up, dup = np.ones_like(rho), np.zeros_like(rho)
    down = 1.0 - quintic_step((rho - r1) / w_down)
    ddown = -quintic_step_deriv((rho - r1) / w_down) / w_down
    return dup * down + up * ddown


# ---------------------------------------------------------------------------
# One-dimensional members
# ---------------------------------------------------------------------------


@dataclass
class Fn1D:
    """Scalar test function on an interval, with analytic derivative."""

    name: str
    f: Callable
    df: Callable
    breakpoints: tuple = ()

    def __call__(self, x):
        return np.asarray(self.f(np.asarray(x, dtype=float)))

    def deriv(self, x):
        return np.asarray(self.df(np.asarray(x, dtype=float)))


def corpus_1d(support, seed=0, include_linear=False):
    """Test functions adapted to a 1-D support (a, b); ends may be infinite.

    Bounded smooth members by default; ``include_linear`` adds the identity
    (the sharp Gaussian witness), which is unbounded but has finite
    variance against light-tailed densities.
    """
    a, b = support
    rng = np.random.default_rng(seed)
    members = []

    if np.isinf(a) and np.isinf(b):
        centers, width = [0.0, 0.7, -1.1], 1.0
    elif np.isinf(b):
        centers, width = [a + 0.6, a + 1.4, a + 2.5], 0.8
    else:
        span = b - a
        centers, width = [a + 0.3 * span, a + 0.5 * span, a + 0.7 * span], 0.22 * span

    # polynomials of degree <= 3 against Gaussian bumps
    for d in range(4):
        for c0 in centers:
            cc = 1.0 / (2.0 * width ** 2)
            members.append(Fn1D(
                f"poly{d}_gauss@{c0:.3g}",
                lambda x, d=d, c0=c0, cc=cc: (x - c0) ** d * np.exp(-cc * (x - c0) ** 2),
                lambda x, d=d, c0=c0, cc=cc: ((d * (x - c0) ** (d - 1) if d else 0.0)
                                              - 2.0 * cc * (x - c0) ** (d + 1))
                * np.exp(-cc * (x - c0) ** 2),
            ))

    # saturating profiles
    def _sech2(t):
        e = np.exp(-2.0 * np.abs(t))
        return 4.0 * e / (1.0 + e) ** 2

    for c0 in centers:
        members.append(Fn1D(
            f"tanh@{c0:.3g}",
            lambda x, c0=c0, w=width: np.tanh((x - c0) / w),
            lambda x, c0=c0, w=width: _sech2((x - c0) / w) / w,
        ))

    # oscillatory-damped members
    for k in (1.0, 2.0, 3.0):
        c0 = centers[0]
        members.append(Fn1D(
            f"cos{k:g}_damped",
            lambda x, k=k, c0=c0, w=width: np.cos(k * (x - c0) / w) * np.exp(-((x - c0) / (2 * w)) ** 2),
            lambda x, k=k, c0=c0, w=width: (-(k / w) * np.sin(k * (x - c0) / w)
                                            - (x - c0) / (2 * w ** 2) * np.cos(k * (x - c0) / w))
            * np.exp(-((x - c0) / (2 * w)) ** 2),
        ))

    # C^2 quintic bumps
    for c0 in centers:
        for rel in (0.5, 1.0, 1.6):
            w = width * rel
            r0, r1 = c0 - 0.3 * w, c0 + 0.3 * w
            members.append(Fn1D(
                f"bump@{c0:.3g}x{rel:g}",
                lambda x, r0=r0, r1=r1, w=w: _bump(x, r0, r1, w, w),
                lambda x, r0=r0, r1=r1, w=w: _bump_deriv(x, r0, r1, w, w),
                breakpoints=(r0 - w, r0, r1, r1 + w),
            ))

    # seeded random smooth mixtures
    for j in range(_RANDOM_MEMBERS):
        na = 3
        amps = rng.uniform(-1.0, 1.0, na)
        cs = rng.uniform(min(centers) - width, max(centers) + width, na)
        bs = rng.uniform(0.4, 1.6, na) / width ** 2

        def f(x, amps=amps, cs=cs, bs=bs):
            x = np.asarray(x, dtype=float)[..., None]
            return np.sum(amps * np.exp(-bs * (x - cs) ** 2), axis=-1)

        def df(x, amps=amps, cs=cs, bs=bs):
            x = np.asarray(x, dtype=float)[..., None]
            return np.sum(-2.0 * amps * bs * (x - cs) * np.exp(-bs * (x - cs) ** 2), axis=-1)

        members.append(Fn1D(f"random{j}", f, df))

    if include_linear:
        members.append(Fn1D("linear", lambda x: np.asarray(x, dtype=float),
                            lambda x: np.ones_like(np.asarray(x, dtype=float))))
    return members


# ---------------------------------------------------------------------------
# n-dimensional members
# ---------------------------------------------------------------------------


class PolarMember(TestFunction):
    """phi(x) = s(rho) a(u) with rho = |x| and u = x / |x|: a radial profile
    ``s`` (an :class:`Fn1D`, whose breakpoints are the member's radial
    knots) times a polynomial a(u) = sum_t c_t u^e_t of the direction, given
    as ``terms``, pairs (c_t, e_t) of a coefficient and n exponents >= 0.

    Values and gradients come from (s, terms) alone: phi = s(rho) a(u) and
    grad phi = s'(rho) a(u) u + (s(rho) / rho) grad_S a, where grad_S is
    the surface gradient on the unit sphere.  Where a is not constant the
    profile must vanish at the origin (s = O(rho)); at x = 0 the direction
    reads 0 and s / rho its limit s'(0), so grad phi(0) is s'(0) b for a
    linear a(u) = b . u and 0 for every other member.

    ``polar = (s, terms)`` lets :func:`~isofp.quadrature.grid_moments`
    reduce the member to moments of s on the radial rule and of a on the
    angular rule, without evaluating it on the grid.
    """

    def __init__(self, name, n, s, terms, support="full", bounded=True):
        terms = tuple((float(c), tuple(int(e) for e in exps)) for c, exps in terms)
        if not terms or any(len(e) != int(n) or min(e) < 0 for _, e in terms):
            raise ValueError(f"{name!r}: polar exponents {[e for _, e in terms]} are "
                             f"not {n} nonnegative integers")
        self.polar = (s, terms)
        self._radial = terms == ((1.0, (0,) * int(n)),)  # a = 1
        super().__init__(name, n, self._eval_points, self._grad_points,
                         support=support, bounded=bounded,
                         radial_breakpoints=s.breakpoints)

    @staticmethod
    def _radius(pts):
        """|x|, and |x| with 0 read as 1 for dividing by."""
        rho = np.sqrt(np.einsum("ij,ij->i", pts, pts))
        return rho, np.where(rho == 0.0, 1.0, rho)

    def _eval_points(self, pts):
        s, terms = self.polar
        rho, safe = self._radius(pts)
        return s(rho) * _sphere_polynomial(pts / safe[:, None], terms)[0]

    def _grad_points(self, pts):
        s, terms = self.polar
        rho, safe = self._radius(pts)
        ds = s.deriv(rho)
        if self._radial:  # a = 1 and grad_S a = 0
            return (ds / safe)[:, None] * pts
        u = pts / safe[:, None]
        a, grad = _sphere_polynomial(u, terms)
        grad *= np.where(rho == 0.0, ds, s(rho) / safe)[:, None]
        u *= (ds * a)[:, None]
        return np.add(grad, u, out=grad)


def _radial_u_member(name, n, sigma, dsigma):
    """Member phi(x) = sigma(|x|^2); gradient 2 sigma'(|x|^2) x is smooth."""
    profile = Fn1D(name, lambda r: sigma(r * r), lambda r: 2.0 * r * dsigma(r * r))
    return PolarMember(name, n, profile, [(1.0, (0,) * n)])


def _radial_rho_member(name, n, s, ds, breakpoints=(), support="full"):
    """Member phi(x) = s(|x|) for profiles with s'(0) = 0 (or support away from 0)."""
    return PolarMember(name, n, Fn1D(name, s, ds, breakpoints=breakpoints),
                       [(1.0, (0,) * n)], support=support)


def _mono_gauss_member(name, n, exps, c):
    """Member prod_j x_j^{e_j} * exp(-c |x|^2), in polar form
    rho^k exp(-c rho^2) u^e with k = sum_j e_j."""
    k = sum(exps)
    profile = Fn1D(name, lambda r: r ** k * np.exp(-c * r * r),
                   lambda r: ((k * r ** (k - 1) if k else 0.0) - 2.0 * c * r ** (k + 1))
                   * np.exp(-c * r * r))
    return PolarMember(name, n, profile, [(1.0, exps)])


def _unit_term(n, axis, coef=1.0):
    """The angular term coef * u_axis."""
    return coef, tuple(int(j == axis) for j in range(n))


def _bump_direction_member(name, n, r0, r1, w, axis=0, support="full"):
    """bump(|x|) * x_axis / |x|; the bump support stays away from the origin."""
    profile = Fn1D(name, lambda r: _bump(r, r0, r1, w, w),
                   lambda r: _bump_deriv(r, r0, r1, w, w),
                   breakpoints=(r0 - w, r0, r1, r1 + w))
    return PolarMember(name, n, profile, [_unit_term(n, axis)], support=support)


class GaussianMixture(TestFunction):
    """phi(x) = sum_k a_k exp(-b_k |x - c_k|^2) for amplitudes ``amps``,
    centres ``centres`` (one row of n coordinates per term) and rates
    ``widths`` b_k > 0; grad phi = sum_k -2 a_k b_k exp(-b_k |x - c_k|^2) (x - c_k).

    ``mixture = (amps, centres, widths)`` lets
    :func:`~isofp.quadrature.grid_moments` build the member shell by shell
    from the grid's radii and directions, and
    :func:`~isofp.quadrature.sphere_dirichlet` from a radius; the member
    has no values at points.
    """

    def __init__(self, name, n, amps, centres, widths):
        amps = np.asarray(amps, dtype=float)
        centres = np.asarray(centres, dtype=float).reshape(len(amps), int(n))
        self.mixture = (amps, centres, np.asarray(widths, dtype=float))
        super().__init__(name, n)


def _random_mixture_member(name, n, rng, box):
    """Three Gaussian terms with centres drawn in [-box, box]^n."""
    amps = rng.uniform(-1.0, 1.0, 3)
    cs = rng.uniform(-box, box, (3, n))
    bs = rng.uniform(0.3, 1.2, 3)
    return GaussianMixture(name, n, amps, cs, bs)


def _linear_member(name, b):
    """The unbounded linear form b . x = |x| (b . u), without its zero terms."""
    n = len(b)
    rho = Fn1D("rho", lambda r: r, np.ones_like)
    terms = [_unit_term(n, j, c) for j, c in enumerate(b) if c != 0.0]
    return PolarMember(name, n, rho, terms, bounded=False)


def corpus_nd(n, seed=0, scale=1.0):
    """Default corpus on R^n: >= 40 bounded smooth members spanning radial,
    angular and mixed derivative behaviour, plus seeded random mixtures.

    ``scale`` stretches all length scales (use ~half the support radius for
    compactly supported densities)."""
    rng = np.random.default_rng(seed)
    s2 = scale ** 2
    members = []

    # radial profiles in u = |x|^2
    u_shapes = [
        ("exp_u", lambda u: np.exp(-u / s2), lambda u: -np.exp(-u / s2) / s2),
        ("exp_u_wide", lambda u: np.exp(-u / (4 * s2)), lambda u: -np.exp(-u / (4 * s2)) / (4 * s2)),
        ("u_exp_u", lambda u: u / s2 * np.exp(-u / s2),
         lambda u: (1.0 - u / s2) * np.exp(-u / s2) / s2),
        ("u_exp_u_wide", lambda u: u / s2 * np.exp(-u / (2 * s2)),
         lambda u: (1.0 / s2 - u / (2 * s2 ** 2)) * np.exp(-u / (2 * s2))),
        ("rational", lambda u: u / (s2 + u), lambda u: s2 / (s2 + u) ** 2),
        ("tanh_u", lambda u: np.tanh(u / s2 - 1.0),
         lambda u: 4.0 * np.exp(-2.0 * np.abs(u / s2 - 1.0))
         / (s2 * (1.0 + np.exp(-2.0 * np.abs(u / s2 - 1.0))) ** 2)),
        ("inv_u", lambda u: 1.0 / (1.0 + u / s2), lambda u: -1.0 / (s2 * (1.0 + u / s2) ** 2)),
        ("atan_u", lambda u: np.arctan(u / s2), lambda u: 1.0 / (s2 * (1.0 + (u / s2) ** 2))),
        ("cos_u_damped", lambda u: np.cos(u / s2) * np.exp(-u / (2 * s2)),
         lambda u: (-np.sin(u / s2) / s2 - np.cos(u / s2) / (2 * s2)) * np.exp(-u / (2 * s2))),
        ("gauss_shell", lambda u: np.exp(-((u - s2) / s2) ** 2),
         lambda u: -2.0 * (u - s2) / s2 ** 2 * np.exp(-((u - s2) / s2) ** 2)),
    ]
    for nm, s, ds in u_shapes:
        members.append(_radial_u_member(nm, n, s, ds))

    # odd radial power (C^2 at the origin)
    members.append(_radial_rho_member(
        "rho3_gauss", n,
        lambda r: (r / scale) ** 3 * np.exp(-(r / scale) ** 2),
        lambda r: (3.0 * r ** 2 / scale ** 3 - 2.0 * r ** 4 / scale ** 5) * np.exp(-(r / scale) ** 2),
    ))

    # plateau bump containing the origin and interior bumps
    bump_specs = [(0.0, 0.6 * scale, 0.5 * scale), (0.0, 1.2 * scale, 0.8 * scale),
                  (0.8 * scale, 1.2 * scale, 0.4 * scale),
                  (0.5 * scale, 0.8 * scale, 0.3 * scale),
                  (1.2 * scale, 1.5 * scale, 0.5 * scale),
                  (0.3 * scale, 0.5 * scale, 0.2 * scale),
                  (1.5 * scale, 2.0 * scale, 0.6 * scale)]
    for r0, r1, w in bump_specs:
        w_up = 0.0 if r0 == 0.0 else min(w, 0.9 * r0)
        bp = ((r1, r1 + w) if r0 == 0.0 else (r0 - w_up, r0, r1, r1 + w))
        members.append(_radial_rho_member(
            f"bump[{r0:g},{r1:g}]w{w:g}", n,
            lambda r, r0=r0, r1=r1, w=w, wu=w_up: _bump(r, r0, r1, wu, w),
            lambda r, r0=r0, r1=r1, w=w, wu=w_up: _bump_deriv(r, r0, r1, wu, w),
            breakpoints=bp,
        ))

    # monomials times Gaussian: degree <= 3, three damping scales
    mono_list = [(1, 0, 0), (2, 0, 0), (3, 0, 0)]
    if n >= 2:
        mono_list += [(1, 1, 0), (2, 1, 0), (0, 1, 0), (0, 2, 0)]
    if n >= 3:
        mono_list += [(1, 1, 1), (0, 0, 1), (1, 0, 1)]
    for exps in mono_list:
        for c in (1.0 / s2, 0.5 / s2, 0.25 / s2):
            nm = "x" + "".join(str(e) for e in exps) + f"_c{c * s2:g}"
            padded = list(exps)[:n] + [0] * max(0, n - len(exps))
            members.append(_mono_gauss_member(nm, n, padded, c))

    if n >= 2:
        members.append(_bump_direction_member("bump_dir1", n, 0.8 * scale, 1.3 * scale, 0.4 * scale, axis=0))
        members.append(_bump_direction_member("bump_dir2", n, 0.6 * scale, 1.0 * scale, 0.3 * scale, axis=1))

    for j in range(_RANDOM_MEMBERS):
        members.append(_random_mixture_member(f"random{j}", n, rng, 1.5 * scale))
    return members


def corpus_outside_ball(n, R, r_max=None, seed=0):
    """Corpus of members vanishing (with their gradients) on |x| <= R.

    Bumps are placed in (R, R + span); ``r_max`` caps the span for densities
    supported in a finite ball (pass the support radius a for Barenblatt),
    otherwise span defaults to max(2, R).  All bump knots are drawn from a
    shared radius lattice so the breakpoint union over the whole corpus
    stays small and tensor grids remain affordable.
    """
    rng = np.random.default_rng(seed)
    span = (r_max - R) if r_max is not None and np.isfinite(r_max) else max(2.0, R)
    lattice = R + span * np.linspace(0.02, 0.94, _LATTICE_SIZE)
    members = []

    def bump_from_indices(idx4):
        i0, i1, i2, i3 = idx4
        lo, r0, r1, hi = lattice[i0], lattice[i1], lattice[i2], lattice[i3]
        wu, wd = r0 - lo, hi - r1
        return r0, r1, wu, wd

    specs = []
    for i0 in range(_LATTICE_SIZE - 3):
        specs.append((i0, i0 + 1, i0 + 2, i0 + 3))
    for i0 in range(0, _LATTICE_SIZE - 6, 3):
        specs.append((i0, i0 + 2, i0 + 4, i0 + 6))
    for i0 in range(0, _LATTICE_SIZE - 8, 4):
        specs.append((i0, i0 + 1, i0 + 7, i0 + 8))

    for idx, idx4 in enumerate(specs):
        r0, r1, wu, wd = bump_from_indices(idx4)
        members.append(_radial_rho_member(
            f"tail_bump{idx}", n,
            lambda r, r0=r0, r1=r1, wu=wu, wd=wd: _bump(r, r0, r1, wu, wd),
            lambda r, r0=r0, r1=r1, wu=wu, wd=wd: _bump_deriv(r, r0, r1, wu, wd),
            breakpoints=(r0 - wu, r0, r1, r1 + wd),
            support=("outside_ball", R),
        ))
        if n >= 2 and idx % 2 == 0:
            members.append(_bump_direction_member(f"tail_dir{idx}", n, r0, r1, min(wu, wd),
                                                  support=("outside_ball", R)))

    # random radial mixtures of lattice bumps
    for j in range(_RANDOM_MEMBERS):
        ncomp = 3
        amps = rng.uniform(-1.0, 1.0, ncomp)
        comp = []
        bps = set()
        for _ in range(ncomp):
            idx4 = np.sort(rng.choice(_LATTICE_SIZE, size=4, replace=False))
            r0, r1, wu, wd = bump_from_indices(idx4)
            comp.append((r0, r1, wu, wd))
            bps |= {r0 - wu, r0, r1, r1 + wd}

        def s(r, amps=amps, comp=comp):
            return sum(a * _bump(r, r0, r1, wu, wd)
                       for a, (r0, r1, wu, wd) in zip(amps, comp))

        def ds(r, amps=amps, comp=comp):
            return sum(a * _bump_deriv(r, r0, r1, wu, wd)
                       for a, (r0, r1, wu, wd) in zip(amps, comp))

        members.append(_radial_rho_member(
            f"tail_random{j}", n, s, ds, breakpoints=tuple(sorted(bps)),
            support=("outside_ball", R),
        ))
    return members


# ---------------------------------------------------------------------------
# Corpus for the anisotropic Gaussian check
# ---------------------------------------------------------------------------


def corpus_anisotropic(V, seed=0):
    """Corpus for the anisotropic Gaussian inequality under N(u, V), in
    whitened coordinates y = H^{-1} (x - u) with H = Q sqrt(D) from
    V = Q D Q^T (see :func:`~isofp.inequality.check_gaussian_anisotropic`).

    The smooth members are the members of :func:`corpus_nd`, read
    in y, so their radial structure lives in the whitened radius and they
    keep their shell kernels on the standard-normal grid; their names carry
    ``@whitened``.  The sharp witnesses are linear forms a . x along the
    first two coordinate axes and the top and bottom eigenvectors of V; up
    to the constant a . u they are the polar members b . y = |y| (b . u).
    """
    V = np.asarray(V, dtype=float)
    n = V.shape[0]
    lam, Q = np.linalg.eigh(V)
    H = Q * np.sqrt(lam)
    members = corpus_nd(n, seed=seed)
    for m in members:
        m.name += "@whitened"
    forms = {f"linear_x{i + 1}": np.eye(n)[i] for i in range(min(n, 2))}
    forms.update(linear_top_eigvec=Q[:, -1], linear_bottom_eigvec=Q[:, 0])
    members += [_linear_member(name, H.T @ a) for name, a in forms.items()]
    return members


# ---------------------------------------------------------------------------
# Members on product boxes
# ---------------------------------------------------------------------------


class SeparableMember(TestFunction):
    """phi(x) = prod_i g_i(x_i) (``combine="product"``) or sum_i g_i(x_i)
    (``combine="sum"``) from per-coordinate Fn1D shapes.

    The shapes and the way they combine are kept, so the product check
    reduces every moment to 1-D moments on the factor rules; the member
    has no values at points.
    """

    def __init__(self, name, shapes, combine):
        if combine not in ("product", "sum"):
            raise ValueError(f"combine must be 'product' or 'sum', not {combine!r}")
        self.shapes = tuple(shapes)
        self.combine = combine
        super().__init__(name, len(self.shapes))


def corpus_product(supports, seed=0):
    """Corpus on a product box prod_i (a_i, b_i); >= 40 bounded members.

    Members are :class:`SeparableMember` products and sums of seeded draws
    from the 1-D shapes adapted to each factor; each shape carries its own
    C^2 knots, where the factor rules of the product check split.  Shapes
    with knots are drawn only along the first axis, which keeps the other
    factor rules free of extra panels.
    """
    n = len(supports)
    rng = np.random.default_rng(seed)
    per_coord = [corpus_1d(s, seed=seed + 17 * i) for i, s in enumerate(supports)]
    smooth_coord = [[g for g in shapes if not g.breakpoints] for shapes in per_coord]
    const = Fn1D("one", lambda x: np.ones_like(np.asarray(x, dtype=float)),
                 lambda x: np.zeros_like(np.asarray(x, dtype=float)))

    def draw(i):
        pool = per_coord[i] if i == 0 else smooth_coord[i]
        return pool[rng.integers(0, len(pool))]

    members = []
    # single-coordinate members (tensorization witnesses)
    for i in range(n):
        for g in per_coord[i][:4]:
            shapes = [const] * n
            shapes[i] = g
            members.append(SeparableMember(f"only_x{i + 1}:{g.name}", shapes, "product"))
    # genuine products
    for k in range(26):
        shapes = [draw(i) for i in range(n)]
        members.append(SeparableMember(f"prod{k}:" + "*".join(s.name for s in shapes),
                                       shapes, "product"))
    # additive members
    for k in range(8):
        shapes = [draw(i) for i in range(n)]
        members.append(SeparableMember(f"sum{k}", shapes, "sum"))
    return members
