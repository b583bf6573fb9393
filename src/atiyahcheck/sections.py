"""Quasi-periodic path sections over the group, their time calculus and quadrature.

A section assigns to (g, t) an algebra vector xi(g, t) together with a
g-dependent constant v(g) such that xi(g, t+1) = Ad_g xi(g, t) + v(g).
Profiles are stored as closures on the fundamental interval [0, 1] and
extended to all real t by iterating the seam rule; grids only enter at
quadrature time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeGrid",
    "BumpFunction",
    "AlgebroidSection",
    "gauge_steps",
    "InterpolatedFamily",
    "extend",
    "extend_deriv",
    "template_section",
    "loop_section",
    "constant_profile_section",
    "time_derivative",
    "integrate_01",
    "random_section",
    "random_loop_section",
    "twisted_loop_section",
    "random_twisted_loop",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes on [0, 1]; the node count must be odd for Simpson weights."""

    n_points: int = 201
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n_points
        if n < 3 or n % 2 == 0:
            raise ValueError("composite Simpson needs an odd number of nodes >= 3")
        h = 1.0 / (n - 1)
        w = np.ones(n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        object.__setattr__(self, "nodes", np.linspace(0.0, 1.0, n))
        object.__setattr__(self, "weights", w * (h / 3.0))


def integrate_01(f, grid):
    """Composite Simpson integral of a scalar- or vector-valued f over [0, 1]."""
    vals = [np.asarray(f(t), dtype=float) for t in grid.nodes]
    acc = sum(w * v for w, v in zip(grid.weights, vals))
    if np.ndim(acc) == 0:
        return float(acc)
    return acc


def _smoothstep(u):
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / (1.0 - u))
    return a / (a + b)


def _smoothstep_deriv(u):
    if u <= 0.0 or u >= 1.0:
        return 0.0
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / (1.0 - u))
    da = a / u**2
    db = -b / (1.0 - u) ** 2
    return (da * (a + b) - a * (da + db)) / (a + b) ** 2


class BumpFunction:
    """Smooth interpolant with f = 0 on [0, flat], f = 1 on [1-flat, 1].

    The exp(-1/u) smoothstep is composed with an affine clamp so the flat
    ends hold exactly (not just to all orders), which keeps seam residuals
    at machine precision.
    """

    def __init__(self, flat_width=0.1):
        if not 0.0 <= flat_width < 0.5:
            raise ValueError("flat_width must lie in [0, 0.5)")
        self.flat_width = flat_width
        self._scale = 1.0 - 2.0 * flat_width

    def __call__(self, t):
        return _smoothstep((t - self.flat_width) / self._scale)

    def deriv(self, t):
        return _smoothstep_deriv((t - self.flat_width) / self._scale) / self._scale


class AlgebroidSection:
    """A quasi-periodic section: profile on [0, 1], anchor data v, optional d/dt.

    profile(g, t) -> coefficients, defined for t in [0, 1];
    v(g) -> coefficients;
    dprofile(g, t) -> coefficients, optional analytic time derivative.
    smooth_flag marks profiles constant in t near t = 0 and t = 1.
    """

    def __init__(self, algebra, profile, v, dprofile=None, smooth_flag=False, name=""):
        self.algebra = algebra
        self.profile = profile
        self.v = v
        self.dprofile = dprofile
        self.smooth_flag = smooth_flag
        self.name = name

    def is_loop(self, g, tol=1e-10):
        """True when the anchor datum vanishes at g (an L-section there)."""
        return float(np.linalg.norm(self.v(g))) <= tol

    def compatibility_residual(self, g):
        """Seam defect |profile(g,1) - Ad_g profile(g,0) - v(g)|."""
        alg = self.algebra
        gap = self.profile(g, 1.0) - alg.Ad(g, self.profile(g, 0.0)) - self.v(g)
        return float(np.linalg.norm(gap))

    def require_compatible(self, g, tol=1e-8):
        """Raise on a malformed section (seam violated beyond tolerance)."""
        res = self.compatibility_residual(g)
        if res > tol:
            raise ValueError(f"section violates the seam at this point: {res:g}")
        return res


def gauge_steps(algebra, n, x, k, c=None):
    """x after n steps of the affine gauge action x -> Ad_k x + c.

    For n < 0 the -n steps are of the inverse action x -> Ad_{k^{-1}}(x - c);
    c = None is the linear action Ad_k.  Sections, their time derivatives
    and every t-family extend past [0, 1] by this one rule.
    """
    if n >= 0:
        for _ in range(n):
            x = algebra.Ad(k, x) if c is None else algebra.Ad(k, x) + c
        return x
    kinv = algebra.inv(k)
    for _ in range(-n):
        x = algebra.Ad(kinv, x if c is None else x - c)
    return x


class InterpolatedFamily:
    """A t-family f_t(g, arg) with f_{t+1} = Ad_k f_t + c, from its value at t = 0.

    A subclass provides `algebra`, `bump`, `base(g, arg)` = f_0 and
    `step(g, arg)` = (k, c), the gauge step (c = None when it is linear).
    At integers f_n = gauge_steps(n, f_0); in between
    f_t = f_n + b(t - n)(f_{n+1} - f_n) with the bump b, so the seam rule
    holds by construction for every real t.
    """

    def _ends(self, t, g, arg):
        n = math.floor(t)
        k, c = self.step(g, arg)
        # count from f_0 to the end nearer 0, then take one more step
        if n >= 0:
            lo = gauge_steps(self.algebra, n, self.base(g, arg), k, c)
            return t - n, lo, gauge_steps(self.algebra, 1, lo, k, c)
        hi = gauge_steps(self.algebra, n + 1, self.base(g, arg), k, c)
        return t - n, gauge_steps(self.algebra, -1, hi, k, c), hi

    def value(self, t, g, arg):
        s, lo, hi = self._ends(t, g, arg)
        return lo + self.bump(s) * (hi - lo)

    def tderiv(self, t, g, arg):
        s, lo, hi = self._ends(t, g, arg)
        return self.bump.deriv(s) * (hi - lo)


def extend(section, g, t):
    """Value of the section at arbitrary real t via the seam rule.

    For t = n + s with s in [0, 1): n gauge steps x -> Ad_g x + v of xi(s).
    """
    n = math.floor(t)
    val = section.profile(g, t - n)
    if n == 0:
        return val
    return gauge_steps(section.algebra, n, val, g, section.v(g))


def extend_deriv(section, g, t, h_t=1e-5):
    """Time derivative at arbitrary real t; Ad_g^n of the base derivative."""
    n = math.floor(t)
    d = time_derivative(section, g, t - n, h_t=h_t, _base_only=True)
    return gauge_steps(section.algebra, n, d, g)


def time_derivative(section, g, t, h_t=1e-5, _base_only=False):
    """d xi / dt, analytic when the section carries a derivative evaluator.

    The fallback central difference uses extend() for stencil points, so it
    is valid across the seam; t outside [0, 1] routes through extend_deriv.
    """
    if not _base_only and not (0.0 <= t <= 1.0):
        return extend_deriv(section, g, t, h_t=h_t)
    if section.dprofile is not None:
        return section.dprofile(g, t)

    def value(tt):
        return extend(section, g, tt)

    return (value(t + h_t) - value(t - h_t)) / (2.0 * h_t)


def template_section(algebra, a, v, bump, name=""):
    """Section with profile a(g) + f(t) (Ad_g a(g) + v(g) - a(g)).

    The seam condition holds exactly by construction and the analytic time
    derivative is f'(t) times the seam coefficient.
    """

    def seam_coeff(g):
        ag = a(g)
        return algebra.Ad(g, ag) + v(g) - ag

    def profile(g, t):
        return a(g) + bump(t) * seam_coeff(g)

    def dprofile(g, t):
        return bump.deriv(t) * seam_coeff(g)

    return AlgebroidSection(algebra, profile, v, dprofile=dprofile,
                            smooth_flag=True, name=name)


def constant_profile_section(algebra, value, name=""):
    """Section with profile identically `value`; the seam forces v = value - Ad_g value."""
    value = np.asarray(value, dtype=float)

    def profile(g, t):
        return value.copy()

    def dprofile(g, t):
        return np.zeros_like(value)

    def v(g):
        return value - algebra.Ad(g, value)

    return AlgebroidSection(algebra, profile, v, dprofile=dprofile,
                            smooth_flag=True, name=name)


def loop_section(algebra, path, dpath=None, name=""):
    """An L-section from a time profile constant in g (valid where Ad_g-periodic).

    Intended for loops based at points where the profile satisfies
    path(1) = Ad_g path(0); at the group unit any 1-periodic path qualifies.
    """

    def v(g):
        return np.zeros(algebra.dim)

    def profile(g, t):
        return path(t)

    dprof = None
    if dpath is not None:
        def dprof(g, t):
            return dpath(t)

    return AlgebroidSection(algebra, profile, v, dprofile=dprof, name=name)


def random_section(algebra, rng, bump=None, scale=0.8, name="random"):
    """Seeded random template section with genuinely g-dependent data.

    a(g) and v(g) are each a fixed random vector plus a random multiple of
    Ad_g applied to another fixed random vector, so group-derivative terms
    in brackets are exercised.
    """
    if bump is None:
        bump = BumpFunction()
    a0 = algebra.random_vector(rng, scale)
    da = algebra.random_vector(rng, scale)
    ca = rng.uniform(-1.0, 1.0)
    v0 = algebra.random_vector(rng, scale)
    dv = algebra.random_vector(rng, scale)
    cv = rng.uniform(-1.0, 1.0)

    def a(g):
        return a0 + ca * algebra.Ad(g, da)

    def v(g):
        return v0 + cv * algebra.Ad(g, dv)

    return template_section(algebra, a, v, bump, name=name)


def twisted_loop_section(algebra, path, dpath, bump=None, name="twisted-loop"):
    """A genuine L-section over the log-chart: profile Ad_{exp(f(t) log g)} path(t).

    path must be 1-periodic; the seam xi(g, t+1) = Ad_g xi(g, t) then holds
    for every g in the domain of the group log, so the section may be
    differentiated in g.
    """
    if bump is None:
        bump = BumpFunction()

    def gamma(g, t):
        return algebra.exp(bump(t) * algebra.log(g))

    def profile(g, t):
        c = gamma(g, t)
        return algebra.from_matrix(c @ algebra.to_matrix(path(t)) @ algebra.inv(c))

    def dprofile(g, t):
        c = gamma(g, t)
        cinv = algebra.inv(c)
        ad = algebra.from_matrix(c @ algebra.to_matrix(path(t)) @ cinv)
        dad = algebra.from_matrix(c @ algebra.to_matrix(dpath(t)) @ cinv)
        # exp(u L) moves along its own direction: gamma' gamma^{-1} = f'(t) log g
        return dad + bump.deriv(t) * algebra.bracket(algebra.log(g), ad)

    def v(g):
        return np.zeros(algebra.dim)

    return AlgebroidSection(algebra, profile, v, dprofile=dprofile, name=name)


def random_twisted_loop(algebra, rng, n_modes=2, scale=0.8, bump=None, name="twisted-loop"):
    """Seeded twisted loop built from a random Fourier path."""
    base = random_loop_section(algebra, rng, n_modes=n_modes, scale=scale)
    path = lambda t: base.profile(np.eye(algebra.matrix_size), t)
    dpath = lambda t: base.dprofile(np.eye(algebra.matrix_size), t)
    return twisted_loop_section(algebra, path, dpath, bump=bump, name=name)


def random_loop_section(algebra, rng, n_modes=2, scale=0.8, name="loop"):
    """Random Fourier loop (an L-section at the group unit)."""
    coeffs = []
    for k in range(1, n_modes + 1):
        coeffs.append((k, algebra.random_vector(rng, scale / k),
                       algebra.random_vector(rng, scale / k)))
    const = algebra.random_vector(rng, scale)

    def path(t):
        out = const.copy()
        for k, ck, sk in coeffs:
            out = out + math.cos(2 * math.pi * k * t) * ck \
                      + math.sin(2 * math.pi * k * t) * sk
        return out

    def dpath(t):
        out = np.zeros(algebra.dim)
        for k, ck, sk in coeffs:
            w = 2 * math.pi * k
            out = out - w * math.sin(w * t) * ck + w * math.cos(w * t) * sk
        return out

    return loop_section(algebra, path, dpath, name=name)
