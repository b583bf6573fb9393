"""Quasi-periodic path sections over a base, their time calculus and quadrature.

A section of the pull-back algebroid Phi^!A along a map Phi: M -> G assigns
to (m, t) an algebra vector xi(m, t) together with a tangent field X on M,
whose push v(m) = theta^R(d Phi X(m)) closes the seam
xi(m, t+1) = Ad_{Phi(m)} xi(m, t) + v(m).  A base provides point (Phi),
point_axes, push_tangent (d Phi in theta^R), generator_field (the action
generator x_M) and its geometry: stencil(m, u, h), its four Richardson
points in stencil_steps order, and frame_bracket(u, w), the bracket of its
constant frames.  Its stencil_derivative combines the values at the
stencil with liealg's one Richardson combination, at the base's own step
fd_step: the group's (make_group's, which --fd-step sets), which a slot
reads from its group, or the conjugacy class's fixed sphere step.
algebroid.field_bracket brackets its tangent fields.  The group is the
base of its own sections with Phi the identity, so there X = v; qham's
conjugacy class and fusion's slots of G x G are the other bases.

Point axes lead and time axes follow.  Profiles, their derivatives and the
t-families take a float or a 1-D array t and return np.shape(t) + (dim,)
after the point axes of m; over the group m may be a stack of points of
shape point_axes + (n, n), and xfield and v return point_axes + (dim,)
(over a slot, point_axes + (2, dim)).  Every member is computed exactly as
it would be alone, so a bracket evaluates each inner section once on its
whole Richardson stencil and the result is bit-identical to point-by-point
evaluation.  Every section constructor here keeps that contract; sections
over the conjugacy class take one point at a time (see liealg).  extend and
time_derivative take a stack of points too; a pair integral is one call
per section on the grid nodes and one TimeGrid.integrate over the last
(time) axis of their pairing, so it gives one value per point;
integrate_01 stays for scalar callables, one call per node.

Every quasi-periodic object is built from one smooth cutoff, the module's
`bump` b, flat on [0, FLAT_WIDTH] and [1 - FLAT_WIDTH, 1]: templates,
twisted loops and the t-families f_t = f_n + b(t - n)(f_{n+1} - f_n).

A liealg.PointMemo keeps the point data that sections and t-families
recompute most: a random section's anchor datum v(g) and its template data
(a(g), seam coefficient), a t-family's pair of ends f_n, f_{n+1} at
(n, g, arg), the bump's value and derivative at t (one memo pair for the
process), and a twisted loop's conjugator (c, c^{-1}), c = exp(b(t) log g),
at (g, t).  Every result is bit-identical to the unmemoised computation.
extend makes one profile call per array of times, whatever integers the
times cross.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .liealg import PointMemo, _frozen_copy

__all__ = [
    "TimeGrid",
    "BumpFunction",
    "bump",
    "AlgebroidSection",
    "at_times",
    "constant_field",
    "gauge_steps",
    "InterpolatedFamily",
    "piecewise",
    "scaled",
    "extend",
    "template_section",
    "loop_section",
    "constant_profile_section",
    "time_derivative",
    "integrate_01",
    "random_section",
    "random_loop_section",
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

    def integrate(self, values):
        """Simpson integral of node values on the last axis, summed in node order.

        Times are the last axis of a scalar in time, as `pairing` leaves
        them (point axes + np.shape(t)), so each leading index is integrated
        exactly as it would be alone.
        """
        terms = self.weights * np.asarray(values, dtype=float)
        acc = np.add.accumulate(terms, axis=-1)[..., -1]
        return float(acc) if acc.ndim == 0 else acc


def integrate_01(f, grid):
    """Simpson integral over [0, 1] of a scalar- or vector-valued f of one float t."""
    values = np.array([f(t) for t in grid.nodes], dtype=float)
    return grid.integrate(np.moveaxis(values, 0, -1))


def scaled(f, x):
    """f(t) x for f of shape np.shape(t) and x of shape (dim,), np.shape(t) + (dim,)
    or any shape that broadcasts against np.shape(t) + (1,)."""
    return np.asarray(f)[..., None] * x


def at_times(x, t):
    """x of shape point axes + (dim,) with np.ndim(t) time axes inserted before
    its last axis, so that it broadcasts against values at the times t."""
    return np.expand_dims(x, tuple(range(-1 - np.ndim(t), -1)))


def constant_field(algebra, value):
    """The function of group points equal to value at each of them, with
    their point axes: a constant tangent field or a zero anchor datum."""
    value = _frozen_copy(value)
    return lambda g: _over_points(algebra, g, value)


def _over_points(algebra, g, value):
    lead = algebra.point_axes(g)
    return np.broadcast_to(value, lead + np.shape(value)) if lead else value


def piecewise(t, piece, evaluate):
    """evaluate(k, tk) on each set of times tk sharing the integer k = piece(tk).

    A float t gives evaluate(int(piece(t)), t); an array gives the pieces'
    values, shape point axes + np.shape(t) + (dim,), in the order of t.
    """
    if np.ndim(t) == 0:
        return evaluate(int(piece(t)), t)
    t = np.asarray(t, dtype=float)
    keys = piece(t)
    ks = sorted(set(keys.tolist()))
    if len(ks) == 1:
        return evaluate(int(ks[0]), t)
    vals = np.concatenate([evaluate(int(k), t[keys == k]) for k in ks], axis=-2)
    return vals[..., np.argsort(np.argsort(keys, kind="stable")), :]


FLAT_WIDTH = 0.1
_RAMP_SCALE = 1.0 - 2.0 * FLAT_WIDTH


class BumpFunction:
    """Smooth interpolant with b = 0 on [0, FLAT_WIDTH], b = 1 on [1 - FLAT_WIDTH, 1].

    The exp(-1/u) smoothstep is composed with an affine clamp so the flat
    ends hold exactly (not just to all orders), which keeps seam residuals
    at machine precision.  exp is evaluated only strictly inside (0, 1).
    The construction has one bump, the module's `bump`, so its value and
    derivative are memoised per t once for the whole process.
    """

    def __init__(self):
        self._values = PointMemo(self._value)
        self._derivs = PointMemo(self._deriv)

    def _ramp(self, t):
        """Clamped time u, its mask 0 < u < 1, and u, exp(-1/u), exp(-1/(1-u))
        taken on the mask, with u = 1/2 off it."""
        u = (np.asarray(t, dtype=float) - FLAT_WIDTH) / _RAMP_SCALE
        inside = (u > 0.0) & (u < 1.0)
        ui = np.where(inside, u, 0.5)
        return u, inside, ui, np.exp(-1.0 / ui), np.exp(-1.0 / (1.0 - ui))

    def __call__(self, t):
        """b(t), memoised per t; an array value is read-only."""
        return self._values(t)

    def deriv(self, t):
        """b'(t), memoised per t; an array value is read-only."""
        return self._derivs(t)

    def _value(self, t):
        u, inside, _, a, b = self._ramp(t)
        return np.where(inside, a / (a + b), np.where(u >= 1.0, 1.0, 0.0))[()]

    def _deriv(self, t):
        _, inside, ui, a, b = self._ramp(t)
        da = a / ui**2
        db = -b / (1.0 - ui) ** 2
        slope = (da * (a + b) - a * (da + db)) / (a + b) ** 2 / _RAMP_SCALE
        return np.where(inside, slope, 0.0)[()]


bump = BumpFunction()


class AlgebroidSection:
    """A quasi-periodic section over a base: profile on [0, 1], tangent field, d/dt.

    profile(m, t) -> coefficients of shape np.shape(t) + (dim,), t in [0, 1],
    after the point axes of m;
    xfield(m) -> tangent of the base at m (on the group: the anchor datum);
    dprofile(m, t) -> the same shape, optional analytic time derivative;
    base defaults to the group of the algebra itself.
    """

    def __init__(self, algebra, profile, xfield, dprofile=None, name="", base=None):
        self.algebra = algebra
        self.base = algebra if base is None else base
        self.profile = profile
        self.xfield = xfield
        self.dprofile = dprofile
        self.name = name

    def v(self, m):
        """Anchor datum v(m) = theta^R(d Phi X(m)), the constant of the seam."""
        return self.base.push_tangent(m, self.xfield(m))

    def compatibility_residual(self, m):
        """Seam defect |profile(m,1) - Ad_{Phi(m)} profile(m,0) - v(m)|."""
        alg = self.algebra
        gap = (self.profile(m, 1.0) - alg.Ad(self.base.point(m), self.profile(m, 0.0))
               - self.v(m))
        return float(np.linalg.norm(gap))


def gauge_steps(algebra, n, x, k, c=None):
    """x after n steps of the affine gauge action x -> Ad_k x + c.

    For n < 0 the -n steps are of the inverse action x -> Ad_{k^{-1}}(x - c);
    c = None is the linear action Ad_k.  x may carry leading time axes.
    Sections, their time derivatives and every t-family extend past [0, 1]
    by this one rule.
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

    A subclass calls __init__ with its algebra and provides
    `base(g, arg)` = f_0 and `step(g, arg)` = (k, c), the gauge step
    (c = None when it is linear).  At integers f_n = gauge_steps(n, f_0); in
    between f_t = f_n + b(t - n)(f_{n+1} - f_n) with the bump b, so the seam
    rule holds by construction for every real t.  Times sharing floor(t)
    share one pair of ends, memoised per (n, g, arg) for value and tderiv.
    """

    def __init__(self, algebra):
        self.algebra = algebra
        self._ends = PointMemo(self._gauge_ends)

    def _gauge_ends(self, n, g, arg):
        k, c = self.step(g, arg)
        # count from f_0 to the end nearer 0, then take one more step
        if n >= 0:
            lo = gauge_steps(self.algebra, n, self.base(g, arg), k, c)
            return lo, gauge_steps(self.algebra, 1, lo, k, c)
        hi = gauge_steps(self.algebra, n + 1, self.base(g, arg), k, c)
        return gauge_steps(self.algebra, -1, hi, k, c), hi

    def value(self, t, g, arg):
        def piece(n, tn):
            lo, hi = self._ends(n, g, arg)
            return at_times(lo, tn) + scaled(bump(tn - n), at_times(hi - lo, tn))
        return piecewise(t, np.floor, piece)

    def tderiv(self, t, g, arg):
        def piece(n, tn):
            lo, hi = self._ends(n, g, arg)
            return scaled(bump.deriv(tn - n), at_times(hi - lo, tn))
        return piecewise(t, np.floor, piece)


def _point_over_times(section, m, t):
    """Phi(m) with np.ndim(t) time axes inserted before its matrix axes when m
    carries point axes, so that it broadcasts against values at the times t."""
    k = section.base.point(m)
    if np.ndim(k) == 2:
        return k
    return np.expand_dims(k, tuple(range(-2 - np.ndim(t), -2)))


def extend(section, m, t):
    """Value of the section at m and arbitrary real t via the seam rule.

    For t = n + s with s in [0, 1): n gauge steps x -> Ad_{Phi(m)} x + v(m)
    of xi(m, s).  An array of times takes one profile call for all its s,
    then the steps once for the times sharing each nonzero n, with Phi(m)
    and v(m) broadcast over the time axis when m carries point axes.
    """
    def steps(n, val, tn):
        if n == 0:
            return val
        return gauge_steps(section.algebra, n, val, _point_over_times(section, m, tn),
                           at_times(section.v(m), tn))

    if np.ndim(t) == 0:
        n = int(np.floor(t))
        return steps(n, section.profile(m, t - n), t)
    t = np.asarray(t, dtype=float)
    ns = np.floor(t)
    out = np.array(section.profile(m, t - ns))
    for n in set(ns.tolist()) - {0.0}:
        rows = ns == n
        out[..., rows, :] = steps(int(n), out[..., rows, :], t[rows])
    return out


T_STEP = 1e-5   # time_derivative's central-difference step, for sections without dprofile


def time_derivative(section, m, t):
    """d xi / dt at real t: Ad_{Phi(m)}^n of the derivative at t - n, n = floor(t)
    (n = 0 at t = 1).  On [0, 1] that is the analytic dprofile when the section
    has one, else the central difference of extend() at the fixed step T_STEP,
    which is valid across the seam.  m may carry point axes, as in extend.
    """
    def piece(n, tn):
        s = tn - n
        if section.dprofile is not None:
            d = section.dprofile(m, s)
        else:
            d = (extend(section, m, s + T_STEP) - extend(section, m, s - T_STEP)) / (2.0 * T_STEP)
        if n == 0:
            return d
        return gauge_steps(section.algebra, n, d, _point_over_times(section, m, tn))
    return piecewise(t, lambda tt: np.floor(tt) - (tt == 1.0), piece)


def template_section(algebra, a, xfield, name="", base=None):
    """Section with profile a(m) + f(t) (Ad_{Phi(m)} a(m) + v(m) - a(m)).

    v(m) is the push of the tangent field xfield (on the group, xfield is v).
    The seam condition holds exactly by construction and the analytic time
    derivative is f'(t) times the seam coefficient.
    """
    base = algebra if base is None else base
    return _template(algebra, _seam_data(algebra, a, xfield, base), xfield, name, base)


def _seam_data(algebra, a, xfield, base):
    """m -> (a(m), Ad_{Phi(m)} a(m) + v(m) - a(m)), the point data of a template."""
    def data(m):
        am = a(m)
        return am, algebra.Ad(base.point(m), am) + base.push_tangent(m, xfield(m)) - am
    return data


def _template(algebra, data, xfield, name, base):
    """The template section of the point data data(m) = (a(m), seam coefficient)."""
    def profile(m, t):
        am, coeff = data(m)
        return at_times(am, t) + scaled(bump(t), at_times(coeff, t))

    def dprofile(m, t):
        return scaled(bump.deriv(t), at_times(data(m)[1], t))

    return AlgebroidSection(algebra, profile, xfield, dprofile=dprofile,
                            name=name, base=base)


def constant_profile_section(algebra, value, name="", base=None):
    """Section with profile identically `value`; the seam forces the tangent
    field to be the generator of -value, so v = value - Ad_{Phi(m)} value."""
    base = algebra if base is None else base
    value = np.asarray(value, dtype=float)
    minus = -value

    def profile(m, t):
        return np.zeros(base.point_axes(m) + np.shape(t) + value.shape) + value

    def dprofile(m, t):
        return np.zeros(base.point_axes(m) + np.shape(t) + value.shape)

    def xfield(m):
        return base.generator_field(minus, m)

    return AlgebroidSection(algebra, profile, xfield, dprofile=dprofile,
                            name=name, base=base)


def loop_section(algebra, path, dpath=None, name=""):
    """An L-section from a time profile constant in g (valid where Ad_g-periodic).

    Intended for loops based at points where the profile satisfies
    path(1) = Ad_g path(0); at the group unit any 1-periodic path qualifies.
    path and dpath follow the profile's array-time contract; over point axes
    the profile repeats path(t).
    """

    def profile(g, t):
        return _over_points(algebra, g, path(t))

    dprof = None
    if dpath is not None:
        def dprof(g, t):
            return _over_points(algebra, g, dpath(t))

    return AlgebroidSection(algebra, profile, constant_field(algebra, np.zeros(algebra.dim)),
                            dprofile=dprof, name=name)


def random_section(algebra, rng, scale=0.8, name="random"):
    """Seeded random template section with genuinely g-dependent data.

    a(g) and v(g) are each a fixed random vector plus a random multiple of
    Ad_g applied to another fixed random vector, so group-derivative terms
    in brackets are exercised.  v(g) and the template data
    (a(g), seam coefficient) are memoised per group point.
    """
    a0 = algebra.random_vector(rng, scale)
    da = algebra.random_vector(rng, scale)
    ca = rng.uniform(-1.0, 1.0)
    v0 = algebra.random_vector(rng, scale)
    dv = algebra.random_vector(rng, scale)
    cv = rng.uniform(-1.0, 1.0)

    def a(g):
        return a0 + ca * algebra.Ad(g, da)

    v = PointMemo(lambda g: v0 + cv * algebra.Ad(g, dv))
    data = PointMemo(_seam_data(algebra, a, v, algebra))
    return _template(algebra, data, v, name, algebra)


def twisted_loop_section(algebra, path, dpath, name="twisted-loop"):
    """A genuine L-section over the log-chart: profile Ad_{exp(f(t) log g)} path(t).

    path must be 1-periodic; the seam xi(g, t+1) = Ad_g xi(g, t) then holds
    for every g in the domain of the group log, so the section may be
    differentiated in g.  The exponentials of all points and times form one
    batch, and the conjugator and its inverse are memoised per (g, t) for
    profile and dprofile alike.
    """
    @PointMemo
    def conjugator(g, t):
        c = algebra.exp(scaled(bump(t), at_times(algebra.log(g), t)))
        return c, np.linalg.inv(c)

    def conjugate(g, t, paths):
        c, cinv = conjugator(g, t)
        return [algebra.from_matrix(c @ algebra.to_matrix(x) @ cinv) for x in paths]

    def profile(g, t):
        return conjugate(g, t, [path(t)])[0]

    def dprofile(g, t):
        ad, dad = conjugate(g, t, [path(t), dpath(t)])
        # exp(u L) moves along its own direction: gamma' gamma^{-1} = f'(t) log g
        return dad + scaled(bump.deriv(t), algebra.bracket(at_times(algebra.log(g), t), ad))

    return AlgebroidSection(algebra, profile, constant_field(algebra, np.zeros(algebra.dim)),
                            dprofile=dprofile, name=name)


def random_twisted_loop(algebra, rng, scale=0.8, name="twisted-loop"):
    """Seeded twisted loop built from a random Fourier path."""
    base = random_loop_section(algebra, rng, scale=scale)
    path = lambda t: base.profile(np.eye(algebra.matrix_size), t)
    dpath = lambda t: base.dprofile(np.eye(algebra.matrix_size), t)
    return twisted_loop_section(algebra, path, dpath, name=name)


def random_loop_section(algebra, rng, scale=0.8, name="loop"):
    """Random Fourier loop of modes 1 and 2 (an L-section at the group unit)."""
    coeffs = []
    for k in (1, 2):
        coeffs.append((k, algebra.random_vector(rng, scale / k),
                       algebra.random_vector(rng, scale / k)))
    const = algebra.random_vector(rng, scale)

    def path(t):
        out = const
        for k, ck, sk in coeffs:
            out = out + scaled(np.cos(2 * math.pi * k * t), ck) \
                      + scaled(np.sin(2 * math.pi * k * t), sk)
        return out

    def dpath(t):
        out = np.zeros(algebra.dim)
        for k, ck, sk in coeffs:
            w = 2 * math.pi * k
            out = out - scaled(w * np.sin(w * t), ck) + scaled(w * np.cos(w * t), sk)
        return out

    return loop_section(algebra, path, dpath, name=name)
