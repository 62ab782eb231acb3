"""Catalog of isotropic probability densities and their radial marginals.

Each entry is a radial profile f(rho) on R^n together with its
normalisation constant, support radius and the drift centre of the
Fokker-Planck equation it solves.  The one-dimensional wealth equilibrium
(inverse Gamma on the half line) is carried as a 1-D catalog entry with
unit geometry factor and drift centred at its mean 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .quadrature import Integrator, QuadratureError, integrate_interval

__all__ = [
    "IsotropicDensity",
    "RadialMarginal",
    "Density1D",
    "KINDS",
    "make_density",
    "radial_marginal",
    "closed_form_weight",
    "surface_measure",
    "density_mass",
    "parse_density_spec",
    "density_label",
    "std_normal_1d",
    "uniform_angle_density",
    "sin_power_density",
    "full_line_density",
]

KINDS = ("gaussian", "cauchy_type", "exponential_type", "barenblatt", "inverse_gamma_1d")

_NORM_INTEGRATOR = Integrator(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=400)


def surface_measure(n):
    """Surface measure of the unit sphere in R^n, 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


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

    def _profile(self, rho):
        """Unnormalised radial profile at points inside the support (rho > 0
        for the half-line entry)."""
        rho = np.asarray(rho, dtype=float)
        kind = self.kind
        if kind == "gaussian":
            return np.exp(-(rho ** 2) / (2.0 * self.param("sigma")))
        if kind == "cauchy_type":
            return (1.0 + rho ** 2) ** (-self.param("beta"))
        if kind == "exponential_type":
            return np.exp(-self.param("beta") * rho)
        if kind == "barenblatt":
            a = self.param("a")
            expo = 1.0 / (self.param("p") - 1.0)
            base = np.clip(a ** 2 - rho ** 2, 0.0, None)
            return base ** expo
        if kind == "inverse_gamma_1d":
            mu = self.param("mu")
            return np.exp(-mu / rho) * rho ** (-(2.0 + mu))
        raise ValueError(f"unknown kind {kind!r}")

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
        """Weight of the radial volume element: sigma_n rho^(n-1), or 1 in 1-D
        half-line geometry."""
        rho = np.asarray(rho, dtype=float)
        if self.half_line:
            return np.ones_like(rho)
        return self.geometry_factor * rho ** (self.n - 1)

    def label(self):
        return density_label(self)


def density_label(d):
    parts = ",".join(f"{k}={v:g}" for k, v in d.params)
    return f"{d.kind}({parts},n={d.n})"


def _validate(kind, params, n):
    if kind not in KINDS:
        raise ValueError(f"unknown density kind {kind!r}; expected one of {KINDS}")
    if n < 1 or int(n) != n:
        raise ValueError(f"dimension must be a positive integer, got {n}")
    p = dict(params)
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
    """Build a catalog density with its normalisation constant.

    Gaussian, exponential and inverse Gamma constants are the standard
    closed forms; the Cauchy-type and Barenblatt constants are computed by
    adaptive quadrature so the total mass is one.
    """
    _validate(kind, params, n)
    params = tuple(sorted((str(k), float(v)) for k, v in dict(params).items()))
    p = dict(params)
    if kind == "gaussian":
        support = math.inf
        norm = (2.0 * math.pi * p["sigma"]) ** (-n / 2.0)
    elif kind == "exponential_type":
        support = math.inf
        beta = p["beta"]
        norm = beta ** n * math.gamma(n / 2.0) / (2.0 * math.pi ** (n / 2.0) * math.gamma(n))
    elif kind == "inverse_gamma_1d":
        support = math.inf
        mu = p["mu"]
        norm = math.exp((1.0 + mu) * math.log(mu) - gammaln(1.0 + mu))
    else:
        support = p["a"] if kind == "barenblatt" else math.inf
        probe = IsotropicDensity(kind, int(n), params, support, 1.0)
        raw_mass, _ = integrate_interval(
            lambda r: probe.radial_weight(r) * probe._profile(r),
            0.0, support, integrator=_NORM_INTEGRATOR,
        )
        norm = 1.0 / raw_mass
    return IsotropicDensity(kind, int(n), params, support, norm)


def density_mass(d, integrator=None):
    """Total mass of the density over its support (should be 1)."""
    val, _ = integrate_interval(
        lambda r: d.radial_weight(r) * d.eval(r), 0.0, d.support_radius,
        integrator=integrator or _NORM_INTEGRATOR,
    )
    return val


# ---------------------------------------------------------------------------
# One-dimensional densities (radial marginals, angular factors, ...)
# ---------------------------------------------------------------------------


class Density1D:
    """A one-dimensional probability density on an interval (a, b).

    The mean is computed by quadrature on first use.  A divergent first
    moment is remembered too: every later access re-raises the same
    :class:`QuadratureError` without integrating again.  These are the
    inputs of the one-dimensional Poincare checks and of the integral
    weight formula P(x).
    """

    def __init__(self, name, support, pdf, mean=None, breakpoints=()):
        self.name = name
        self.support = (float(support[0]), float(support[1]))
        self.pdf = pdf
        self._mean = mean
        self.breakpoints = tuple(breakpoints)

    def __call__(self, x):
        return np.asarray(self.pdf(np.asarray(x, dtype=float)))

    @property
    def mean(self):
        if self._mean is None:
            a, b = self.support
            try:
                self._mean, _ = integrate_interval(
                    lambda x: x * float(self.pdf(x)), a, b,
                    integrator=_NORM_INTEGRATOR, breakpoints=self.breakpoints)
            except QuadratureError as exc:  # the first moment diverges
                self._mean = exc
        if isinstance(self._mean, QuadratureError):
            raise self._mean
        return self._mean

    def mass(self, integrator=None):
        a, b = self.support
        val, _ = integrate_interval(lambda x: float(self.pdf(x)), a, b,
                                    integrator=integrator or _NORM_INTEGRATOR,
                                    breakpoints=self.breakpoints)
        return val

    def __repr__(self):
        return f"Density1D({self.name!r}, support={self.support})"


@dataclass(frozen=True)
class RadialMarginal:
    """Law of |X|: f(rho) = sigma_n rho^(n-1) f_inf(rho)."""

    base: IsotropicDensity
    sigma_n: float

    def eval(self, rho):
        return self.base.radial_weight(rho) * self.base.eval(rho)

    __call__ = eval

    def as_density1d(self):
        lo = 1e-300 if self.base.half_line else 0.0
        return Density1D(
            f"radial[{self.base.label()}]",
            (lo, self.base.support_radius),
            self.eval,
        )


def radial_marginal(d):
    """Radial marginal of an isotropic density (the density itself for the
    1-D half-line entry, whose geometry factor is 1)."""
    return RadialMarginal(d, d.geometry_factor)


# -- common 1-D densities ----------------------------------------------------


def std_normal_1d():
    c = 1.0 / math.sqrt(2.0 * math.pi)
    return Density1D("std_normal", (-math.inf, math.inf),
                     lambda x: c * np.exp(-np.asarray(x) ** 2 / 2.0), mean=0.0)


def uniform_angle_density():
    """Uniform azimuthal density 1/(2 pi) on (0, 2 pi)."""
    c = 1.0 / (2.0 * math.pi)
    return Density1D("uniform_angle", (0.0, 2.0 * math.pi),
                     lambda t: np.full_like(np.asarray(t, dtype=float), c),
                     mean=math.pi)


def sin_power_density(i):
    """Polar angle density sin^i(theta) / int_0^pi sin^i on (0, pi)."""
    norm, _ = integrate_interval(lambda t: math.sin(t) ** i, 0.0, math.pi)
    return Density1D(f"sin^{i}", (0.0, math.pi),
                     lambda t: np.sin(np.asarray(t, dtype=float)) ** i / norm,
                     mean=math.pi / 2.0)


def full_line_density(d):
    """A 1-D isotropic catalog density viewed as a density on the real line."""
    if d.n != 1 or d.half_line:
        raise ValueError("full_line_density requires an isotropic entry with n = 1")
    a = d.support_radius
    return Density1D(f"line[{d.label()}]", (-a, a),
                     lambda x: d.eval(np.abs(np.asarray(x, dtype=float))), mean=0.0)


# ---------------------------------------------------------------------------
# Closed-form diffusion weights (where the integral formula collapses)
# ---------------------------------------------------------------------------


def closed_form_weight(d):
    """Closed form of the diffusion weight K for catalog entries.

    gaussian: K = sigma.  cauchy_type: K = (1+rho^2) / (2(beta-1)).
    exponential_type: K = (1 + beta rho) / beta^2.
    barenblatt: K = (p-1)/(2p) (a^2 - rho^2).
    Returns None for the inverse Gamma entry (handled by the 1-D integral
    weight P, which gives x^2/mu).
    """
    from .weights import WeightFunction  # local import avoids a module cycle

    kind = d.kind
    if kind == "gaussian":
        sigma = d.param("sigma")
        fn = lambda r: np.full_like(np.asarray(r, dtype=float), sigma)
    elif kind == "cauchy_type":
        beta = d.param("beta")
        fn = lambda r: (1.0 + np.asarray(r, dtype=float) ** 2) / (2.0 * (beta - 1.0))
    elif kind == "exponential_type":
        beta = d.param("beta")
        fn = lambda r: (1.0 + beta * np.asarray(r, dtype=float)) / beta ** 2
    elif kind == "barenblatt":
        a, p = d.param("a"), d.param("p")
        coef = (p - 1.0) / (2.0 * p)
        fn = lambda r: coef * (a ** 2 - np.asarray(r, dtype=float) ** 2)
    else:
        return None
    return WeightFunction(fn, provenance="closed_form", domain=(0.0, d.support_radius))


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
