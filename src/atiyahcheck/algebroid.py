"""The transitive Lie algebroid over the group: anchor, bracket, connections.

Conventions: the tangent bundle of G is right-trivialized, X <-> v with
theta^R(X) = v.  Constant-v frames are then right-invariant vector fields
and satisfy theta^R([X, Y]) = -[v, w] for constant v, w; Cartan formulas
below carry that frame-bracket correction explicitly.
"""

from __future__ import annotations

import numpy as np

from .sections import AlgebroidSection, InterpolatedFamily, extend, time_derivative

__all__ = [
    "anchor",
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


def anchor(section, g):
    """Anchor value in right trivialization: just the datum v(g)."""
    return section.v(g)


def bracket(xi, zeta, h=1e-4):
    """Algebroid bracket [xi, zeta] = -[xi, zeta]_g + X zeta - Y xi.

    X, Y are the right-trivialized fields of the anchors v_xi, v_zeta; the
    derivative terms are Richardson central differences in the group
    argument.  The result carries a composed analytic time derivative when
    both inputs do.
    """
    alg = xi.algebra

    def profile(g, t):
        vx = xi.v(g)
        vz = zeta.v(g)
        term = -alg.bracket(xi.profile(g, t), zeta.profile(g, t))
        term = term + alg.directional(lambda gg: zeta.profile(gg, t), g, vx, h=h)
        term = term - alg.directional(lambda gg: xi.profile(gg, t), g, vz, h=h)
        return term

    def v(g):
        vx = xi.v(g)
        vz = zeta.v(g)
        out = -alg.bracket(vx, vz)
        out = out + alg.directional(zeta.v, g, vx, h=h)
        out = out - alg.directional(xi.v, g, vz, h=h)
        return out

    dprofile = None
    if xi.dprofile is not None and zeta.dprofile is not None:
        def dprofile(g, t):
            vx = xi.v(g)
            vz = zeta.v(g)
            term = -alg.bracket(xi.dprofile(g, t), zeta.profile(g, t))
            term = term - alg.bracket(xi.profile(g, t), zeta.dprofile(g, t))
            term = term + alg.directional(lambda gg: zeta.dprofile(gg, t), g, vx, h=h)
            term = term - alg.directional(lambda gg: xi.dprofile(gg, t), g, vz, h=h)
            return term

    name = f"[{xi.name},{zeta.name}]" if xi.name or zeta.name else ""
    return AlgebroidSection(alg, profile, v, dprofile=dprofile, name=name)


def generator(algebra, x):
    """Action generator section: constant profile -x, anchor Ad_g x - x."""
    from .sections import constant_profile_section
    sec = constant_profile_section(algebra, -np.asarray(x, dtype=float),
                                   name="generator")
    return sec


class ConnectionFamily(InterpolatedFamily):
    """A t-family of g-valued 1-forms alpha_t with alpha_{t+1} = g . alpha_t.

    alpha_t(g, v) interpolates alpha_n = g^n . alpha_0 through the bump, where
    g . a = Ad_g a - theta^R is the gauge action: the step (k, c) = (g, -v).
    """

    def __init__(self, algebra, alpha0, bump, invariant=False):
        self.algebra = algebra
        self.alpha0 = alpha0
        self.bump = bump
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


def build_alpha(algebra, alpha0=None, bump=None, invariant=None):
    """ConnectionFamily from a base 1-form (default alpha_0 = 0, invariant)."""
    from .sections import BumpFunction
    if bump is None:
        bump = BumpFunction()
    if alpha0 is None:
        def alpha0(g, v):
            return np.zeros(algebra.dim)
        if invariant is None:
            invariant = True
    if invariant is None:
        invariant = False
    return ConnectionFamily(algebra, alpha0, bump, invariant=invariant)


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

    def v(g):
        return np.zeros(alg.dim)

    dprofile = None
    if xi.dprofile is not None:
        def dprofile(g, t):
            return xi.dprofile(g, t) + alpha.tderiv(t, g, xi.v(g))

    return AlgebroidSection(alg, profile, v, dprofile=dprofile,
                            name=f"theta({xi.name})")


def curvature(alpha, g, t, v, w, h=1e-4):
    """F^{alpha_t}(X, Y) = d alpha_t(X, Y) + [alpha_t(X), alpha_t(Y)].

    d alpha_t in constant right-trivialized frames:
    D_v alpha_t(., w) - D_w alpha_t(., v) - alpha_t(g, -[v, w]).
    """
    alg = alpha.algebra
    d = alg.directional(lambda gg: alpha.value(t, gg, w), g, v, h=h)
    d = d - alg.directional(lambda gg: alpha.value(t, gg, v), g, w, h=h)
    d = d - alpha.value(t, g, -alg.bracket(v, w))
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
    is the seam rule of the sections.  tderiv differentiates in t with the
    family's own step h_t.
    """

    def __init__(self, algebra, h_t=1e-5):
        self.algebra = algebra
        self.h_t = h_t

    @staticmethod
    def phi(g):
        return g

    def value(self, t, g, xi):
        return -extend(xi, g, t)

    def tderiv(self, t, g, xi):
        return -time_derivative(xi, g, t, h_t=self.h_t)

    def at(self, t):
        """kappa_t as a g-valued algebroid 1-form."""
        from .forms import AlgebroidForm
        return AlgebroidForm(self.algebra, 1, lambda g, xi: self.value(t, g, xi),
                             scalar=False, name=f"kappa_{t:g}")
