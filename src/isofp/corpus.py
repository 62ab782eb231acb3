"""Corpora of smooth test functions for the inequality checks.

The default family mixes polynomials times radial Gaussian factors,
low-order angular harmonics entering through Cartesian monomials,
piecewise-quintic C^2 compact bumps, saturating radial profiles and
seeded random smooth mixtures.  Every member carries an analytic
gradient, boundedness and support metadata, and the radii of its C^2
knots so quadrature panels can split there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import TestFunction

__all__ = [
    "Fn1D",
    "SeparableMember",
    "TestCorpus",
    "corpus_1d",
    "corpus_nd",
    "corpus_outside_ball",
    "corpus_product",
    "quintic_step",
    "quintic_step_deriv",
]


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
    bounded: bool = True
    breakpoints: tuple = ()
    tags: tuple = ()

    def __call__(self, x):
        return np.asarray(self.f(np.asarray(x, dtype=float)))

    def deriv(self, x):
        return np.asarray(self.df(np.asarray(x, dtype=float)))


def _fn(name, f, df, **kw):
    return Fn1D(name, f, df, **kw)


def corpus_1d(support, seed=0, include_linear=False, size_random=14):
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
            members.append(_fn(
                f"poly{d}_gauss@{c0:.3g}",
                lambda x, d=d, c0=c0, cc=cc: (x - c0) ** d * np.exp(-cc * (x - c0) ** 2),
                lambda x, d=d, c0=c0, cc=cc: ((d * (x - c0) ** (d - 1) if d else 0.0)
                                              - 2.0 * cc * (x - c0) ** (d + 1))
                * np.exp(-cc * (x - c0) ** 2),
                tags=("poly_gauss",),
            ))

    # saturating profiles
    def _sech2(t):
        e = np.exp(-2.0 * np.abs(t))
        return 4.0 * e / (1.0 + e) ** 2

    for c0 in centers:
        members.append(_fn(
            f"tanh@{c0:.3g}",
            lambda x, c0=c0, w=width: np.tanh((x - c0) / w),
            lambda x, c0=c0, w=width: _sech2((x - c0) / w) / w,
            tags=("saturating",),
        ))

    # oscillatory-damped members
    for k in (1.0, 2.0, 3.0):
        c0 = centers[0]
        members.append(_fn(
            f"cos{k:g}_damped",
            lambda x, k=k, c0=c0, w=width: np.cos(k * (x - c0) / w) * np.exp(-((x - c0) / (2 * w)) ** 2),
            lambda x, k=k, c0=c0, w=width: (-(k / w) * np.sin(k * (x - c0) / w)
                                            - (x - c0) / (2 * w ** 2) * np.cos(k * (x - c0) / w))
            * np.exp(-((x - c0) / (2 * w)) ** 2),
            tags=("oscillatory",),
        ))

    # C^2 quintic bumps
    for c0 in centers:
        for rel in (0.5, 1.0, 1.6):
            w = width * rel
            r0, r1 = c0 - 0.3 * w, c0 + 0.3 * w
            members.append(_fn(
                f"bump@{c0:.3g}x{rel:g}",
                lambda x, r0=r0, r1=r1, w=w: _bump(x, r0, r1, w, w),
                lambda x, r0=r0, r1=r1, w=w: _bump_deriv(x, r0, r1, w, w),
                breakpoints=(r0 - w, r0, r1, r1 + w),
                tags=("bump",),
            ))

    # seeded random smooth mixtures
    for j in range(size_random):
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

        members.append(_fn(f"random{j}", f, df, tags=("random",)))

    if include_linear:
        members.append(_fn("linear", lambda x: np.asarray(x, dtype=float),
                           lambda x: np.ones_like(np.asarray(x, dtype=float)),
                           bounded=False, tags=("linear",)))
    return members


# ---------------------------------------------------------------------------
# n-dimensional members
# ---------------------------------------------------------------------------


@dataclass
class TestCorpus:
    """A named collection of test functions with the seed that produced it."""

    members: list
    seed: int
    label: str = "default"

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def _radial_u_member(name, n, sigma, dsigma, bounded=True, tags=()):
    """Member phi(x) = sigma(|x|^2); gradient 2 sigma'(|x|^2) x is smooth."""
    profile = Fn1D(name, lambda r: sigma(r * r), lambda r: 2.0 * r * dsigma(r * r))

    def ev(pts):
        u = np.einsum("ij,ij->i", pts, pts)
        return sigma(u)

    def gr(pts):
        u = np.einsum("ij,ij->i", pts, pts)
        return 2.0 * dsigma(u)[:, None] * pts

    return TestFunction(name, n, ev, gr, bounded=bounded, tags=("radial",) + tags,
                        polar=(profile, (0,) * n))


def _radial_rho_member(name, n, s, ds, breakpoints=(), support="full", tags=()):
    """Member phi(x) = s(|x|) for profiles with s'(0) = 0 (or support away from 0)."""

    def ev(pts):
        return s(np.linalg.norm(pts, axis=1))

    def gr(pts):
        rho = np.linalg.norm(pts, axis=1)
        safe = np.where(rho == 0.0, 1.0, rho)
        return (ds(rho) / safe)[:, None] * pts

    return TestFunction(name, n, ev, gr, support=support,
                        radial_breakpoints=breakpoints, tags=("radial",) + tags,
                        polar=(Fn1D(name, s, ds, breakpoints=breakpoints), (0,) * n))


def _mono_gauss_member(name, n, exps, c):
    """Member prod_j x_j^{e_j} * exp(-c |x|^2) with analytic gradient; in
    polar form rho^k exp(-c rho^2) u^e with k = sum_j e_j."""
    exps = tuple(int(e) for e in exps)
    k = sum(exps)
    profile = Fn1D(name, lambda r: r ** k * np.exp(-c * r * r),
                   lambda r: ((k * r ** (k - 1) if k else 0.0) - 2.0 * c * r ** (k + 1))
                   * np.exp(-c * r * r))

    def _cols(pts):
        return [pts[:, j] ** e if e else None for j, e in enumerate(exps)]

    def _mono(cols, m):
        out = np.ones(m)
        for col in cols:
            if col is not None:
                out = out * col
        return out

    def ev(pts):
        u = np.einsum("ij,ij->i", pts, pts)
        return _mono(_cols(pts), len(pts)) * np.exp(-c * u)

    def gr(pts):
        m = len(pts)
        u = np.einsum("ij,ij->i", pts, pts)
        damp = np.exp(-c * u)
        cols = _cols(pts)
        k = len(exps)
        prefix = [np.ones(m)]
        for col in cols:
            prefix.append(prefix[-1] * col if col is not None else prefix[-1])
        suffix = [np.ones(m)] * (k + 1)
        for j in range(k - 1, -1, -1):
            suffix[j] = suffix[j + 1] * cols[j] if cols[j] is not None else suffix[j + 1]
        mono = prefix[-1]
        out = np.empty_like(pts)
        for j, e in enumerate(exps):
            if e == 0:
                dmono = 0.0
            else:
                dmono = e * pts[:, j] ** (e - 1) * prefix[j] * suffix[j + 1]
            out[:, j] = (dmono - 2.0 * c * pts[:, j] * mono) * damp
        return out

    tags = ("angular",) if k > 0 else ("radial",)
    return TestFunction(name, n, ev, gr, tags=tags + ("poly_gauss",),
                        polar=(profile, exps))


def _unit_exponents(n, axis):
    """Exponents of the monomial u_axis."""
    return tuple(int(j == axis) for j in range(n))


def _bump_direction_member(name, n, r0, r1, w, axis=0):
    """bump(|x|) * x_axis / |x|; the bump support stays away from the origin."""

    def ev(pts):
        rho = np.linalg.norm(pts, axis=1)
        safe = np.where(rho == 0.0, 1.0, rho)
        return _bump(rho, r0, r1, w, w) * pts[:, axis] / safe

    def gr(pts):
        rho = np.linalg.norm(pts, axis=1)
        safe = np.where(rho == 0.0, 1.0, rho)
        b = _bump(rho, r0, r1, w, w)
        db = _bump_deriv(rho, r0, r1, w, w)
        cosd = pts[:, axis] / safe
        out = (db * cosd / safe)[:, None] * pts
        out[:, axis] += b / safe
        out -= (b * cosd / safe ** 2)[:, None] * pts
        return out

    knots = (r0 - w, r0, r1, r1 + w)
    profile = Fn1D(name, lambda r: _bump(r, r0, r1, w, w),
                   lambda r: _bump_deriv(r, r0, r1, w, w), breakpoints=knots)
    return TestFunction(name, n, ev, gr, radial_breakpoints=knots,
                        tags=("mixed", "bump"), polar=(profile, _unit_exponents(n, axis)))


def _random_mixture_member(name, n, rng, terms=3, box=1.5):
    amps = rng.uniform(-1.0, 1.0, terms)
    cs = rng.uniform(-box, box, (terms, n))
    bs = rng.uniform(0.3, 1.2, terms)

    def ev(pts):
        out = np.zeros(len(pts))
        for a, c0, b0 in zip(amps, cs, bs):
            d = pts - c0[None, :]
            out += a * np.exp(-b0 * np.einsum("ij,ij->i", d, d))
        return out

    def gr(pts):
        out = np.zeros_like(pts)
        for a, c0, b0 in zip(amps, cs, bs):
            d = pts - c0[None, :]
            out += (-2.0 * a * b0 * np.exp(-b0 * np.einsum("ij,ij->i", d, d)))[:, None] * d
        return out

    return TestFunction(name, n, ev, gr, tags=("mixed", "random"))


def _linear_member(n, axis=0):
    def ev(pts):
        return pts[:, axis].copy()

    def gr(pts):
        out = np.zeros_like(pts)
        out[:, axis] = 1.0
        return out

    rho = Fn1D("rho", lambda r: r, np.ones_like, bounded=False)
    return TestFunction(f"linear_x{axis + 1}", n, ev, gr, bounded=False,
                        tags=("linear",), polar=(rho, _unit_exponents(n, axis)))


def corpus_nd(n, seed=0, include_linear=False, scale=1.0, size_random=14,
              label="default"):
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
            breakpoints=bp, tags=("bump",),
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

    for j in range(size_random):
        members.append(_random_mixture_member(f"random{j}", n, rng, box=1.5 * scale))

    if include_linear:
        members.append(_linear_member(n, axis=0))
        if n >= 2:
            members.append(_linear_member(n, axis=1))

    return TestCorpus(members, seed, label=label)


def corpus_outside_ball(n, R, r_max=None, seed=0, count_random=14,
                        lattice_size=16, label="outside_ball"):
    """Corpus of members vanishing (with their gradients) on |x| <= R.

    Bumps are placed in (R, R + span); ``r_max`` caps the span for densities
    supported in a finite ball (pass the support radius a for Barenblatt),
    otherwise span defaults to max(2, R).  All bump knots are drawn from a
    shared radius lattice so the breakpoint union over the whole corpus
    stays small and tensor grids remain affordable.
    """
    rng = np.random.default_rng(seed)
    span = (r_max - R) if r_max is not None and np.isfinite(r_max) else max(2.0, R)
    lattice = R + span * np.linspace(0.02, 0.94, lattice_size)
    members = []

    def bump_from_indices(idx4):
        i0, i1, i2, i3 = idx4
        lo, r0, r1, hi = lattice[i0], lattice[i1], lattice[i2], lattice[i3]
        wu, wd = r0 - lo, hi - r1
        return r0, r1, wu, wd

    specs = []
    for i0 in range(lattice_size - 3):
        specs.append((i0, i0 + 1, i0 + 2, i0 + 3))
    for i0 in range(0, lattice_size - 6, 3):
        specs.append((i0, i0 + 2, i0 + 4, i0 + 6))
    for i0 in range(0, lattice_size - 8, 4):
        specs.append((i0, i0 + 1, i0 + 7, i0 + 8))

    for idx, idx4 in enumerate(specs):
        r0, r1, wu, wd = bump_from_indices(idx4)
        members.append(_radial_rho_member(
            f"tail_bump{idx}", n,
            lambda r, r0=r0, r1=r1, wu=wu, wd=wd: _bump(r, r0, r1, wu, wd),
            lambda r, r0=r0, r1=r1, wu=wu, wd=wd: _bump_deriv(r, r0, r1, wu, wd),
            breakpoints=(r0 - wu, r0, r1, r1 + wd),
            support=("outside_ball", R), tags=("bump", "tail"),
        ))
        if n >= 2 and idx % 2 == 0:
            m = _bump_direction_member(f"tail_dir{idx}", n, r0, r1, min(wu, wd))
            m.support = ("outside_ball", R)
            members.append(m)

    # random radial mixtures of lattice bumps
    for j in range(count_random):
        ncomp = 3
        amps = rng.uniform(-1.0, 1.0, ncomp)
        comp = []
        bps = set()
        for _ in range(ncomp):
            idx4 = np.sort(rng.choice(lattice_size, size=4, replace=False))
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
            support=("outside_ball", R), tags=("random", "tail"),
        ))
    return TestCorpus(members, seed, label=label)


# ---------------------------------------------------------------------------
# Corpus for the anisotropic Gaussian check
# ---------------------------------------------------------------------------


def _composed_member(m, G, u):
    """m composed with the whitening map y = G (x - u); gradient G^T grad."""

    def ev(pts):
        return m((np.asarray(pts, dtype=float) - u[None, :]) @ G.T)

    def gr(pts):
        y = (np.asarray(pts, dtype=float) - u[None, :]) @ G.T
        return m.grad(y) @ G

    out = TestFunction(m.name + "@whitened", m.n, ev, gr, bounded=m.bounded,
                       radial_breakpoints=m.radial_breakpoints,
                       tags=m.tags + ("whitened",), self_test=False)
    return out


def _linear_form_member(name, a, bounded=False):
    a = np.asarray(a, dtype=float)

    def ev(pts):
        return pts @ a

    def gr(pts):
        return np.broadcast_to(a, pts.shape).copy()

    return TestFunction(name, len(a), ev, gr, bounded=bounded, tags=("linear",))


def corpus_anisotropic(V, u=None, seed=0, include_linear=True, label="anisotropic"):
    """Corpus for the anisotropic Gaussian inequality.

    Smooth members are the default corpus composed with the whitening map,
    so their radial structure lives in the whitened radius and stays
    aligned with the quadrature grid; linear forms along the coordinate
    axes and the covariance eigenvectors supply the sharp witnesses.
    """
    V = np.asarray(V, dtype=float)
    n = V.shape[0]
    u = np.zeros(n) if u is None else np.asarray(u, dtype=float)
    lam, Q = np.linalg.eigh(V)
    H = Q @ np.diag(np.sqrt(lam))
    G = np.linalg.inv(H)
    base = corpus_nd(n, seed=seed)
    members = [_composed_member(m, G, u) for m in base if m.bounded]
    if include_linear:
        for axis in range(min(n, 2)):
            e = np.zeros(n)
            e[axis] = 1.0
            members.append(_linear_form_member(f"linear_x{axis + 1}", e))
        members.append(_linear_form_member("linear_top_eigvec", Q[:, -1]))
        members.append(_linear_form_member("linear_bottom_eigvec", Q[:, 0]))
    return TestCorpus(members, seed, label=label)


# ---------------------------------------------------------------------------
# Members on product boxes
# ---------------------------------------------------------------------------


class SeparableMember(TestFunction):
    """phi(x) = prod_i g_i(x_i) (``combine="product"``) or sum_i g_i(x_i)
    (``combine="sum"``) from per-coordinate Fn1D shapes.

    The shapes and the way they combine are kept, so the product check
    reduces every moment to 1-D moments on the factor rules.
    """

    def __init__(self, name, shapes, combine, bounded=True, tags=()):
        if combine not in ("product", "sum"):
            raise ValueError(f"combine must be 'product' or 'sum', not {combine!r}")
        self.shapes = tuple(shapes)
        self.combine = combine
        super().__init__(name, len(self.shapes), self._eval_points,
                         self._grad_points, bounded=bounded, tags=tags)

    def _eval_points(self, pts):
        vals = [g(pts[:, i]) for i, g in enumerate(self.shapes)]
        return np.prod(vals, axis=0) if self.combine == "product" else np.sum(vals, axis=0)

    def _grad_points(self, pts):
        out = np.empty_like(pts)
        if self.combine == "sum":
            for i, g in enumerate(self.shapes):
                out[:, i] = g.deriv(pts[:, i])
            return out
        vals = [g(pts[:, i]) for i, g in enumerate(self.shapes)]
        for i, g in enumerate(self.shapes):
            out[:, i] = g.deriv(pts[:, i]) * np.prod(vals[:i] + vals[i + 1:], axis=0)
        return out


def corpus_product(supports, seed=0, include_bilinear=False, bump_axes=(0,),
                   label="product"):
    """Corpus on a product box prod_i (a_i, b_i); >= 40 members.

    Members are :class:`SeparableMember` products and sums of seeded draws
    from the 1-D shapes adapted to each factor; each shape carries its own
    C^2 knots, where the factor rules of the product check split.  Shapes
    with knots are drawn only along ``bump_axes``, which keeps the other
    factor rules free of extra panels.  ``include_bilinear`` adds the
    unbounded x_1 x_2 witness for light-tailed factors.
    """
    n = len(supports)
    rng = np.random.default_rng(seed)
    per_coord = [corpus_1d(s, seed=seed + 17 * i, include_linear=False)
                 for i, s in enumerate(supports)]
    smooth_coord = [[g for g in shapes if not g.breakpoints] for shapes in per_coord]
    const = Fn1D("one", lambda x: np.ones_like(np.asarray(x, dtype=float)),
                 lambda x: np.zeros_like(np.asarray(x, dtype=float)))

    def draw(i):
        pool = per_coord[i] if i in bump_axes else smooth_coord[i]
        return pool[rng.integers(0, len(pool))]

    members = []
    # single-coordinate members (tensorization witnesses)
    for i in range(n):
        for g in per_coord[i][:4]:
            shapes = [const] * n
            shapes[i] = g
            members.append(SeparableMember(f"only_x{i + 1}:{g.name}", shapes,
                                           "product", tags=("single",)))
    # genuine products
    for k in range(26):
        shapes = [draw(i) for i in range(n)]
        members.append(SeparableMember(f"prod{k}:" + "*".join(s.name for s in shapes),
                                       shapes, "product", tags=("product",)))
    # additive members
    for k in range(8):
        shapes = [draw(i) for i in range(n)]
        members.append(SeparableMember(f"sum{k}", shapes, "sum", tags=("additive",)))
    if include_bilinear and n >= 2:
        ident = Fn1D("id", lambda x: np.asarray(x, dtype=float),
                     lambda x: np.ones_like(np.asarray(x, dtype=float)), bounded=False)
        shapes = [ident, ident] + [const] * (n - 2)
        members.append(SeparableMember("bilinear_x1x2", shapes, "product",
                                       bounded=False, tags=("bilinear",)))
    return TestCorpus(members, seed, label=label)
