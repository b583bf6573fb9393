"""The transitive Lie algebroid over the group: bracket, generators, connections.

The bracket of sections and the bracket of tangent fields are written once
for any base (the group, a conjugacy class, a slot of G x G), from the
base's stencil_derivative and frame_bracket, so their derivatives take the
base's step fd_step; everything else here lives on the group.

Conventions: the tangent bundle of G is right-trivialized, X <-> v with
theta^R(X) = v.  Constant-v frames are then right-invariant vector fields
and satisfy theta^R([X, Y]) = -[v, w] for constant v, w; the curvature's
d alpha_t is forms.de_rham_differential, which carries that correction.
"""

from __future__ import annotations

import numpy as np

from .sections import (AlgebroidSection, InterpolatedFamily, constant_field,
                       constant_profile_section, extend, time_derivative)

__all__ = [
    "field_bracket",
    "bracket",
    "generator",
    "ConnectionFamily",
    "build_alpha",
    "invariant_alpha0",
    "connection_apply",
    "curvature",
    "generator_vertical_part",
    "KappaFamily",
]


def field_bracket(base, xf, yf, m):
    """[X, Y] of tangent fields on a base: frame_bracket(x, y) + D_X y - D_Y x.

    x, y are the fields' values at m and each D is one `stencil_derivative`
    of the base, so a field must return the point axes of its argument
    first (constant_field does).
    """
    x, y = xf(m), yf(m)
    out = base.frame_bracket(x, y)
    out = out + base.stencil_derivative(yf, m, x)
    return out - base.stencil_derivative(xf, m, y)


def bracket(xi, zeta):
    """Algebroid bracket [xi, zeta] = -[xi, zeta]_g + X zeta - Y xi over a base.

    X, Y are the tangent fields of xi, zeta on their common base; the
    derivative terms are the base's Richardson central differences and the
    tangent field of the result is `field_bracket` of X and Y.  The result
    carries a composed analytic time derivative when both inputs do.

    Each derivative term is one `stencil_derivative` call, which over the
    group or a slot of G x G evaluates the inner section once on its whole
    stencil; the result takes point axes in turn, so the stencils of a
    nested bracket run as stacks too.
    """
    alg, base = xi.algebra, xi.base

    def profile(m, t):
        x, y = xi.xfield(m), zeta.xfield(m)
        term = -alg.bracket(xi.profile(m, t), zeta.profile(m, t))
        term = term + base.stencil_derivative(lambda mm: zeta.profile(mm, t), m, x)
        term = term - base.stencil_derivative(lambda mm: xi.profile(mm, t), m, y)
        return term

    def xfield(m):
        return field_bracket(base, xi.xfield, zeta.xfield, m)

    dprofile = None
    if xi.dprofile is not None and zeta.dprofile is not None:
        def dprofile(m, t):
            x, y = xi.xfield(m), zeta.xfield(m)
            term = -alg.bracket(xi.dprofile(m, t), zeta.profile(m, t))
            term = term - alg.bracket(xi.profile(m, t), zeta.dprofile(m, t))
            term = term + base.stencil_derivative(lambda mm: zeta.dprofile(mm, t), m, x)
            term = term - base.stencil_derivative(lambda mm: xi.dprofile(mm, t), m, y)
            return term

    name = f"[{xi.name},{zeta.name}]" if xi.name or zeta.name else ""
    return AlgebroidSection(alg, profile, xfield, dprofile=dprofile, name=name, base=base)


def generator(algebra, x, base=None):
    """Action generator section over a base: constant profile -x, field x_M
    (on the group, anchor Ad_g x - x)."""
    return constant_profile_section(algebra, -np.asarray(x, dtype=float),
                                    name="generator", base=base)


class ConnectionFamily(InterpolatedFamily):
    """A t-family of g-valued 1-forms alpha_t with alpha_{t+1} = g . alpha_t.

    alpha_t(g, v) interpolates alpha_n = g^n . alpha_0 through the bump, where
    g . a = Ad_g a - theta^R is the gauge action: the step (k, c) = (g, -v).
    """

    def __init__(self, algebra, alpha0, invariant=False):
        super().__init__(algebra)
        self.alpha0 = alpha0
        self.invariant = invariant

    def base(self, g, v):
        return self.alpha0(g, v)

    def step(self, g, v):
        return g, -np.asarray(v, dtype=float)

    def gauge_residual(self, t, g, v):
        """|alpha_{t+1} - Ad_g alpha_t + v| at the sample."""
        lhs = self.value(t + 1.0, g, v)
        rhs = self.algebra.Ad(g, self.value(t, g, v)) - np.asarray(v, dtype=float)
        return float(np.linalg.norm(lhs - rhs))

    def equivariance_residual(self, t, g, v, k):
        """|alpha_t(Ad_k g)(Ad_k v) - Ad_k alpha_t(g)(v)| for invariant families."""
        alg = self.algebra
        gk = k @ g @ alg.inv(k)
        lhs = self.value(t, gk, alg.Ad(k, v))
        rhs = alg.Ad(k, self.value(t, g, v))
        return float(np.linalg.norm(lhs - rhs))


def build_alpha(algebra, alpha0=None, invariant=None):
    """ConnectionFamily from a base 1-form (default alpha_0 = 0, invariant)."""
    if invariant is None:
        invariant = alpha0 is None
    if alpha0 is None:
        def alpha0(g, v):
            return np.zeros(algebra.dim)
    return ConnectionFamily(algebra, alpha0, invariant=invariant)


def invariant_alpha0(algebra, coeffs):
    """Invariant base form a v + b Ad_g v + c Ad_{g^{-1}} v from three scalars."""
    a, b, c = coeffs

    def alpha0(g, v):
        v = np.asarray(v, dtype=float)
        out = a * v
        if b:
            out = out + b * algebra.Ad(g, v)
        if c:
            out = out + c * algebra.Ad(algebra.inv(g), v)
        return out

    return alpha0


def connection_apply(alpha, xi):
    """theta^alpha(xi) = xi + alpha_t(a(xi)): the vertical (L-) part of xi."""
    alg = alpha.algebra

    def profile(g, t):
        return xi.profile(g, t) + alpha.value(t, g, xi.v(g))

    dprofile = None
    if xi.dprofile is not None:
        def dprofile(g, t):
            return xi.dprofile(g, t) + alpha.tderiv(t, g, xi.v(g))

    return AlgebroidSection(alg, profile, constant_field(alg, np.zeros(alg.dim)),
                            dprofile=dprofile, name=f"theta({xi.name})")


def curvature(alpha, g, t, v, w):
    """F^{alpha_t}(X, Y) = d alpha_t(X, Y) + [alpha_t(X), alpha_t(Y)], with
    d alpha_t the de Rham differential in constant right-trivialized frames."""
    from .forms import AlgebroidForm, de_rham_differential
    alg = alpha.algebra
    alpha_t = AlgebroidForm(alg, 1, lambda gg, u: alpha.value(t, gg, u))
    d = de_rham_differential(alpha_t)(g, v, w)
    return d + alg.bracket(alpha.value(t, g, v), alpha.value(t, g, w))


def generator_vertical_part(alpha, x, g, t):
    """Vertical part of the action generator: -x + alpha_t(g, Ad_g x - x).

    Requires an invariant family; the result is an L-section value at (g, t).
    """
    if not alpha.invariant:
        raise ValueError("generator decomposition needs an invariant connection")
    alg = alpha.algebra
    x = np.asarray(x, dtype=float)
    return -x + alpha.value(t, g, alg.Ad(g, x) - x)


class KappaFamily:
    """The tautological family kappa_t(xi) = -xi(g, t), algebroid valued.

    Its gauge is the identity map g -> g: kappa_{t+1} = Ad_g kappa_t - a* theta^R
    is the seam rule of the sections.  tderiv is time_derivative: a section's
    analytic dprofile, else the central difference at sections.T_STEP.
    """

    def __init__(self, algebra):
        self.algebra = algebra

    @staticmethod
    def phi(g):
        return g

    def value(self, t, g, xi):
        return -extend(xi, g, t)

    def tderiv(self, t, g, xi):
        return -time_derivative(xi, g, t)

    def at(self, t):
        """kappa_t as a g-valued algebroid 1-form."""
        from .forms import AlgebroidForm
        return AlgebroidForm(self.algebra, 1, lambda g, xi: self.value(t, g, xi), name="kappa_t")
