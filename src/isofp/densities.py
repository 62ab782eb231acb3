"""Catalog of isotropic probability densities and their radial marginals.

Each entry is a radial profile f(rho) on R^n together with its
normalisation constant, the mean of its radial marginal, its support radius
and the drift centre of the Fokker-Planck equation it solves.  Every
constant is a closed form in Gamma functions; no integral is evaluated
here.  The one-dimensional wealth equilibrium (inverse Gamma on the half
line) is carried as a 1-D catalog entry with unit geometry factor and
drift centred at its mean 1.

log Gamma is :func:`gammaln`, a port of Cephes ``lgam`` (S. L. Moshier, *Methods and Programs
for Mathematical Functions*, 1989): the float ``scipy.special.gammaln`` gives, without scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

__all__ = [
    "IsotropicDensity",
    "RadialMarginal",
    "Density1D",
    "KINDS",
    "make_density",
    "radial_marginal",
    "closed_form_weight",
    "surface_measure",
    "parse_density_spec",
    "density_label",
    "uniform_angle_density",
    "sin_power_density",
    "full_line_density",
]

# each kind and the parameters it takes, every one of them required
_PARAMS = {"gaussian": ("sigma",), "cauchy_type": ("beta",), "exponential_type": ("beta",),
           "barenblatt": ("a", "p"), "inverse_gamma_1d": ("mu",)}
KINDS = tuple(_PARAMS)


def surface_measure(n):
    """Surface measure of the unit sphere in R^n, 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# Cephes lgam's Stirling series in 1/x^2 (x >= 13), and x B(x) / C(x) for log Gamma(2 + x)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)


def gammaln(x):
    """log Gamma(x) for a float x > 0 (past 1e8 Cephes skips a term under half an ulp)."""
    if x >= 13.0:
        if x > 2.556348e305:
            return math.inf
        q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178  # log sqrt(2 pi)
        p = 1.0 / (x * x)
        if x >= 1000.0:
            return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                        + 0.0833333333333333333333) / x
        return q + reduce(lambda acc, c: acc * p + c, _LGAM_A) / x
    # shift x into [2, 3) by the recurrence Gamma(x + 1) = x Gamma(x)
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    x += p - 2.0
    num, den = (reduce(lambda acc, c: acc * x + c, k) for k in (_LGAM_B, _LGAM_C))
    return math.log(z) + x * num / den


def _gamma_ratio(x, y):
    """Gamma(x) / Gamma(y) for x, y > 0."""
    return math.exp(gammaln(x) - gammaln(y))


@dataclass(frozen=True)
class IsotropicDensity:
    """Isotropic probability density f(|x|) on R^n (or 1-D on the half line).

    ``norm_const`` multiplies the raw radial profile so the total mass is
    one.  ``support_radius`` is the radius i+ of the (possibly infinite)
    supporting ball.  Immutable and hashable; safe to share across workers.
    """

    kind: str
    n: int
    params: tuple  # sorted (name, value) pairs
    support_radius: float
    norm_const: float

    def param(self, name):
        for key, val in self.params:
            if key == name:
                return val
        raise KeyError(name)

    @property
    def half_line(self):
        """True for the 1-D wealth equilibrium living on (0, infinity)."""
        return self.kind == "inverse_gamma_1d"

    @property
    def drift_mean(self):
        """Centre m of the linear drift (x - m) in the Fokker-Planck form."""
        return 1.0 if self.half_line else 0.0

    @cached_property
    def geometry_factor(self):
        """Area factor multiplying rho^(n-1) in the radial volume element."""
        return 1.0 if self.half_line else surface_measure(self.n)

    @cached_property
    def radial_mean(self):
        """E|X|, the mean of the radial marginal, in closed form; ``math.inf``
        for a Cauchy-type density with beta <= (n+1)/2, where it diverges."""
        n, kind, p = self.n, self.kind, dict(self.params)
        half = _gamma_ratio((n + 1) / 2.0, n / 2.0)  # E|Z| / sqrt(2), Z ~ N(0, I_n)
        if kind == "gaussian":
            return math.sqrt(2.0 * p["sigma"]) * half
        if kind == "cauchy_type":
            beta = p["beta"]
            return (half * _gamma_ratio(beta - (n + 1) / 2.0, beta - n / 2.0)
                    if beta > (n + 1) / 2.0 else math.inf)
        if kind == "exponential_type":
            return n / p["beta"]
        if kind == "barenblatt":
            q = 1.0 / (p["p"] - 1.0)
            return p["a"] * half * _gamma_ratio(q + 1.0 + n / 2.0, q + 1.0 + (n + 1) / 2.0)
        return 1.0

    def _profile(self, rho):
        """Unnormalised radial profile at points inside the support (rho > 0
        for the half-line entry)."""
        rho = np.asarray(rho, dtype=float)
        kind = self.kind
        if kind in ("gaussian", "exponential_type"):
            return np.exp(self._log_profile(rho))
        if kind == "cauchy_type":
            return (1.0 + rho ** 2) ** (-self.param("beta"))
        if kind == "barenblatt":
            a = self.param("a")
            expo = 1.0 / (self.param("p") - 1.0)
            base = np.clip(a ** 2 - rho ** 2, 0.0, None)
            return base ** expo
        if kind == "inverse_gamma_1d":
            mu = self.param("mu")
            # exp(-mu/rho) is 0 below mu/746: clamp there, or 0 * inf is nan
            rho = np.maximum(rho, mu / 746.0)
            return np.exp(-mu / rho) * rho ** (-(2.0 + mu))
        raise ValueError(f"unknown kind {kind!r}")

    def _log_profile(self, rho):
        """log of :meth:`_profile` for the kinds of unbounded support in R^n."""
        if self.kind == "gaussian":
            return -(rho * rho) / (2.0 * self.param("sigma"))
        if self.kind == "cauchy_type":
            return -self.param("beta") * np.log1p(rho * rho)
        return -self.param("beta") * rho

    def eval(self, rho):
        """f(rho) including the normalisation; 0 outside the support."""
        rho = np.asarray(rho, dtype=float)
        inside = (rho >= 0.0) & (rho <= self.support_radius)
        if self.half_line:
            inside &= rho > 0.0
        vals = np.zeros(rho.shape)
        vals[inside] = self._profile(rho[inside])
        return self.norm_const * vals

    __call__ = eval

    def radial_weight(self, rho):
        """Weight geometry_factor rho^(n-1) of the radial volume element:
        sigma_n rho^(n-1), or 1 for the 1-D half-line entry."""
        return self.geometry_factor * np.asarray(rho, dtype=float) ** (self.n - 1)


def density_label(d):
    parts = ",".join(f"{k}={v:g}" for k, v in d.params)
    return f"{d.kind}({parts},n={d.n})"


def _validate(kind, params, n):
    if kind not in KINDS:
        raise ValueError(f"unknown density kind {kind!r}; expected one of {KINDS}")
    if n < 1 or int(n) != n:
        raise ValueError(f"dimension must be a positive integer, got {n}")
    p = dict(params)
    unknown = sorted(set(p) - set(_PARAMS[kind]))
    if unknown:
        raise ValueError(f"{kind} takes no parameter {', '.join(map(repr, unknown))}; "
                         f"its parameters are {', '.join(_PARAMS[kind])}")
    for key, val in p.items():
        if not math.isfinite(float(val)):
            raise ValueError(f"{kind} requires finite parameters, not {key} = {val}")
    if kind == "gaussian":
        if p.get("sigma", 0.0) <= 0.0:
            raise ValueError("gaussian requires sigma > 0")
    elif kind == "cauchy_type":
        beta = p.get("beta", 0.0)
        if beta <= n / 2.0:
            raise ValueError(f"cauchy_type requires beta > n/2 = {n / 2.0} for integrability")
    elif kind == "exponential_type":
        if p.get("beta", 0.0) <= 0.0:
            raise ValueError("exponential_type requires beta > 0")
    elif kind == "barenblatt":
        if p.get("a", 0.0) <= 0.0:
            raise ValueError("barenblatt requires a > 0")
        if p.get("p", 0.0) <= 1.0:
            raise ValueError("barenblatt requires p > 1")
    elif kind == "inverse_gamma_1d":
        if p.get("mu", 0.0) <= 0.0:
            raise ValueError("inverse_gamma_1d requires mu > 0")
        if n != 1:
            raise ValueError("inverse_gamma_1d is a one-dimensional entry")


def make_density(kind, params, n):
    """Build a catalog density with its closed-form normalisation constant."""
    _validate(kind, params, n)
    params = tuple(sorted((str(k), float(v)) for k, v in dict(params).items()))
    p = dict(params)
    support = math.inf
    if kind == "gaussian":
        norm = (2.0 * math.pi * p["sigma"]) ** (-n / 2.0)
    elif kind == "cauchy_type":
        beta = p["beta"]
        norm = _gamma_ratio(beta, beta - n / 2.0) / math.pi ** (n / 2.0)
    elif kind == "exponential_type":
        norm = p["beta"] ** n * math.gamma(n / 2.0) / (2.0 * math.pi ** (n / 2.0) * math.gamma(n))
    elif kind == "barenblatt":
        a, q = p["a"], 1.0 / (p["p"] - 1.0)
        support = a
        norm = (_gamma_ratio(q + 1.0 + n / 2.0, q + 1.0)
                / (math.pi ** (n / 2.0) * a ** (n + 2.0 * q)))
    else:
        mu = p["mu"]
        norm = math.exp((1.0 + mu) * math.log(mu) - gammaln(1.0 + mu))
    return IsotropicDensity(kind, int(n), params, support, norm)


# ---------------------------------------------------------------------------
# One-dimensional densities (radial marginals, angular factors, ...)
# ---------------------------------------------------------------------------


class Density1D:
    """A one-dimensional probability density on an interval (a, b) with its
    mean, which is ``math.inf`` when the first moment diverges.  These are
    the inputs of the one-dimensional Poincare checks and of the integral
    weight formula P(x).
    """

    def __init__(self, name, support, pdf, mean):
        self.name = name
        self.support = (float(support[0]), float(support[1]))
        self.pdf = pdf
        self.mean = mean

    def __call__(self, x):
        return np.asarray(self.pdf(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class RadialMarginal:
    """Law of |X|: f(rho) = sigma_n rho^(n-1) f_inf(rho)."""

    base: IsotropicDensity

    def eval(self, rho):
        return self.base.radial_weight(rho) * self.base.eval(rho)

    __call__ = eval

    def as_density1d(self):
        lo = 1e-300 if self.base.half_line else 0.0
        return Density1D(
            f"radial[{density_label(self.base)}]",
            (lo, self.base.support_radius),
            self.eval,
            self.base.radial_mean,
        )


def radial_marginal(d):
    """Radial marginal of an isotropic density (the density itself for the
    1-D half-line entry, whose geometry factor is 1)."""
    return RadialMarginal(d)


# -- common 1-D densities ----------------------------------------------------


def uniform_angle_density():
    """Uniform azimuthal density 1/(2 pi) on (0, 2 pi)."""
    c = 1.0 / (2.0 * math.pi)
    return Density1D("uniform_angle", (0.0, 2.0 * math.pi),
                     lambda t: np.full_like(np.asarray(t, dtype=float), c),
                     mean=math.pi)


def sin_power_density(i):
    """Polar angle density sin^i(theta) / int_0^pi sin^i on (0, pi)."""
    norm = math.sqrt(math.pi) * _gamma_ratio((i + 1) / 2.0, i / 2.0 + 1.0)
    return Density1D(f"sin^{i}", (0.0, math.pi),
                     lambda t: np.sin(np.asarray(t, dtype=float)) ** i / norm,
                     mean=math.pi / 2.0)


def full_line_density(d):
    """A 1-D isotropic catalog density viewed as a density on the real line."""
    if d.n != 1 or d.half_line:
        raise ValueError("full_line_density requires an isotropic entry with n = 1")
    a = d.support_radius
    return Density1D(f"line[{density_label(d)}]", (-a, a),
                     lambda x: d.eval(np.abs(np.asarray(x, dtype=float))), mean=0.0)


# ---------------------------------------------------------------------------
# Closed-form diffusion weights (where the integral formula collapses)
# ---------------------------------------------------------------------------


def closed_form_weight(d):
    """Closed form of the diffusion weight K for catalog entries.

    gaussian: K = sigma.  cauchy_type: K = (1+rho^2) / (2(beta-1)), for
    beta > 1 only: at beta <= 1 (possible for n = 1) the first moment
    diverges, K is negative or infinite, and this raises ``WeightError``.
    exponential_type: K = (1 + beta rho) / beta^2.
    barenblatt: K = (p-1)/(2p) (a^2 - rho^2).
    inverse_gamma_1d: K = x^2 / mu, its 1-D integral weight P about the
    mean 1.
    """
    from .weights import WeightError, WeightFunction  # local import avoids a module cycle

    kind = d.kind
    if kind == "gaussian":
        sigma = d.param("sigma")
        fn = lambda r: np.full_like(np.asarray(r, dtype=float), sigma)
    elif kind == "cauchy_type":
        beta = d.param("beta")
        if beta <= 1.0:
            raise WeightError(f"the closed-form K of cauchy_type requires beta > 1, "
                              f"not beta = {beta:g}: the first moment diverges")
        fn = lambda r: (1.0 + np.asarray(r, dtype=float) ** 2) / (2.0 * (beta - 1.0))
    elif kind == "exponential_type":
        beta = d.param("beta")
        fn = lambda r: (1.0 + beta * np.asarray(r, dtype=float)) / beta ** 2
    elif kind == "barenblatt":
        a, p = d.param("a"), d.param("p")
        coef = (p - 1.0) / (2.0 * p)
        fn = lambda r: coef * (a ** 2 - np.asarray(r, dtype=float) ** 2)
    else:
        mu = d.param("mu")
        fn = lambda x: np.asarray(x, dtype=float) ** 2 / mu
    return WeightFunction(fn)


# ---------------------------------------------------------------------------
# CLI-facing spec strings: kind:param=value,...
# ---------------------------------------------------------------------------

_KIND_ALIASES = {
    "gaussian": "gaussian",
    "cauchy": "cauchy_type",
    "cauchy_type": "cauchy_type",
    "exponential": "exponential_type",
    "exponential_type": "exponential_type",
    "barenblatt": "barenblatt",
    "inverse_gamma": "inverse_gamma_1d",
    "inverse_gamma_1d": "inverse_gamma_1d",
}


def parse_density_spec(spec):
    """Parse ``kind:param=value,...`` into a density, e.g. ``cauchy:beta=3,n=2``."""
    kind_part, _, param_part = spec.partition(":")
    kind = _KIND_ALIASES.get(kind_part.strip().lower())
    if kind is None:
        raise ValueError(f"unknown density kind in spec {spec!r}")
    params = {}
    n = 1
    if param_part:
        for item in param_part.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"malformed parameter {item!r} in spec {spec!r}")
            key = key.strip().lower()
            if key == "n":
                n = int(val)
            else:
                params[key] = float(val)
    return make_density(kind, params, n)
