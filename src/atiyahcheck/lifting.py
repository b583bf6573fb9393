"""Central extension of the loop bundle and the lifting machinery.

The invariant form B on g defines the centrally-extended bundle with
fibers L_g + R, bracket ( -[xi1, xi2], int xi1' . xi2 ) and splitting
j(xi) = (xi, 0) whose cocycle is sigma(xi1, xi2) = -int xi1' . xi2.
From a connection family alpha_t this module builds the 2-form varpi,
the obstruction 3-form, the lifted bracket on (L + R) + TG and the
residuals the identities demand.

Scalars and de Rham forms over the group take leading point axes, as the
sections do: at a stack of group points, shape point_axes + (n, n), a
scalar field (`central_cocycle`, `canonical_two_form`, `dtheta_j`, the
scalar of an ExtendedLSection and of every bracket built here) returns one
value per point, each computed exactly as it would be alone.  A pair
integral pairs the two sections' grid values, which leaves the times on
the last axis, and TimeGrid.integrate sums that axis.  So each drift
(`nabla_hat`, `eta_perturbed`, `equivariant_generator_residual`) is one
`LieAlgebra.stencil_derivative` call on the whole (4, *point axes)
stencil, and nested lifted brackets evaluate their inner grid integrals
once per stencil, not once per stencil point.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .algebroid import (bracket, connection_apply, curvature, field_bracket,
                        generator_vertical_part)
from .forms import AlgebroidForm
from .sections import (AlgebroidSection, InterpolatedFamily, _over_points, constant_field,
                       constant_profile_section, extend, time_derivative)

__all__ = [
    "central_cocycle",
    "ExtendedLSection",
    "bracket_lhat",
    "nabla_hat",
    "dtheta_j",
    "dtheta_j_definitional",
    "canonical_two_form",
    "varpi_form",
    "brylinski_two_form",
    "q_alpha",
    "q_alpha_closed_form",
    "eta_from_data",
    "lifted_bracket",
    "lifted_jacobiator_scalar",
    "equivariant_generator_residual",
    "HorizontalFamily",
    "gamma_change",
    "eta_perturbed",
]


def _pair_dot(alg, grid, f1, f2):
    """int_0^1 B(f1(t), f2(t)) dt by Simpson, from f1 and f2 on the grid nodes
    (times on the second-to-last axis); one value per point."""
    return grid.integrate(alg.pairing(f1, f2))


def _dot_deriv(alg, grid, xi, zeta, m):
    """int_0^1 B(xi', zeta) dt at m: one evaluation of each section on the grid."""
    ts = grid.nodes
    return _pair_dot(alg, grid, time_derivative(xi, m, ts), extend(zeta, m, ts))


def central_cocycle(xi1, xi2, g, grid):
    """sigma(xi1, xi2) = -int_0^1 B(xi1', xi2) dt for L-sections at g."""
    return -_dot_deriv(xi1.algebra, grid, xi1, xi2, g)


class ExtendedLSection:
    """A section of the extended bundle: L-section body plus a scalar field.

    The scalar takes the point axes of its argument, as the body does: at a
    stack of points it returns one value per point.  A constant scalar is a
    float at one point and a read-only array filled with it over point axes.
    """

    def __init__(self, body, scalar):
        self.body = body
        if not callable(scalar):
            scalar = partial(_over_points, body.algebra, value=float(scalar))
        self.scalar = scalar

    @classmethod
    def split(cls, body):
        """j(xi) = (xi, 0)."""
        return cls(body, 0.0)


def bracket_lhat(a, b, grid):
    """Extended bracket: body -[xi1, xi2] pointwise, scalar int xi1' . xi2."""
    body = bracket(a.body, b.body)

    def scalar(g):
        return -central_cocycle(a.body, b.body, g, grid)

    return ExtendedLSection(body, scalar)


def nabla_hat(xi, b, grid):
    """Lifted representation: ( [xi, body], a(xi) scalar + int xi' . body ).

    The drift a(xi) scalar is one stencil_derivative call: b's scalar is
    evaluated once, on the whole Richardson stencil of the point or stack.
    """
    alg = xi.algebra
    body = bracket(xi.body if isinstance(xi, ExtendedLSection) else xi, b.body)
    base = xi.body if isinstance(xi, ExtendedLSection) else xi

    def scalar(g):
        drift = alg.stencil_derivative(b.scalar, g, base.v(g))
        return drift + _dot_deriv(alg, grid, base, b.body, g)

    return ExtendedLSection(body, scalar)


# ---------------------------------------------------------------------------
# the splitting derivative and the 2-form
# ---------------------------------------------------------------------------

def dtheta_j(alpha, g, v, zeta, grid):
    """< d^theta j, zeta > on the tangent with theta^R = v: -int alpha_t' (v) . zeta."""
    ts = grid.nodes
    return -_pair_dot(alpha.algebra, grid, alpha.tderiv(ts, g, v), extend(zeta, g, ts))


def dtheta_j_definitional(alpha, xi, zeta, g, grid):
    """The defining route < d j, zeta >(xi) + sigma(theta(xi), zeta).

    < d j, zeta >(xi) = int xi' . zeta; theta(xi) is the vertical part of xi.
    """
    lead = _dot_deriv(alpha.algebra, grid, xi, zeta, g)
    vert = connection_apply(alpha, xi)
    return lead + central_cocycle(vert, zeta, g, grid)


def canonical_two_form(xi, zeta, m, grid):
    """varpi(xi, zeta) = int xi' . zeta - (1/2) v_xi . v_zeta - Ad_g xi(0) . v_zeta.

    Sections over a base Phi: M -> G give the pull-back Phi^! varpi at m,
    with g = Phi(m).
    """
    alg = xi.algebra
    lead = _dot_deriv(alg, grid, xi, zeta, m)
    vx, vz = xi.v(m), zeta.v(m)
    lead -= 0.5 * alg.pairing(vx, vz)
    lead -= alg.pairing(alg.Ad(xi.base.point(m), xi.profile(m, 0.0)), vz)
    return lead


def varpi_form(algebra, grid):
    """The canonical 2-form packaged as an algebroid form."""

    def evaluator(g, xi, zeta):
        return canonical_two_form(xi, zeta, g, grid)

    return AlgebroidForm(algebra, 2, evaluator, name="varpi")


def brylinski_two_form(alpha, xi, zeta, g, grid):
    """varpi^alpha by the splitting route: <d j, theta> + (1/2) sigma(theta, theta)."""
    alg = alpha.algebra
    tx = connection_apply(alpha, xi)
    tz = connection_apply(alpha, zeta)
    lead = _dot_deriv(alg, grid, xi, tz, g)
    lead -= _dot_deriv(alg, grid, zeta, tx, g)
    lead += 0.5 * (central_cocycle(tx, tz, g, grid) - central_cocycle(tz, tx, g, grid))
    return lead


def q_alpha(alpha, g, v, w, grid):
    """Q^alpha(X, Y) by quadrature: (1/2) theta^L . alpha_0 + (1/2) int alpha . alpha'."""
    alg = alpha.algebra
    lv = alg.maurer_cartan(g, v, "left")
    lw = alg.maurer_cartan(g, w, "left")
    out = 0.5 * (alg.pairing(lv, alpha.value(0.0, g, w))
                 - alg.pairing(lw, alpha.value(0.0, g, v)))
    ts = grid.nodes
    out += 0.5 * grid.integrate(
        alg.pairing(alpha.value(ts, g, v), alpha.tderiv(ts, g, w))
        - alg.pairing(alpha.value(ts, g, w), alpha.tderiv(ts, g, v)))
    return out


def q_alpha_closed_form(alpha, g, v, w):
    """Closed form for interpolated families:

    Q^alpha = ((theta^L + theta^R)/2) . alpha_0 + (1/2) alpha_0 . Ad_g alpha_0.
    """
    alg = alpha.algebra
    av, aw = alpha.value(0.0, g, v), alpha.value(0.0, g, w)
    mv = 0.5 * (alg.maurer_cartan(g, v, "left") + v)
    mw = 0.5 * (alg.maurer_cartan(g, w, "left") + w)
    out = alg.pairing(mv, aw) - alg.pairing(mw, av)
    out += 0.5 * (alg.pairing(av, alg.Ad(g, aw)) - alg.pairing(aw, alg.Ad(g, av)))
    return out


def eta_from_data(alpha, grid):
    """The obstruction 3-form from connection data: a* eta = -<d^theta j, F^theta>.

    On constant frames this is the shuffle-paired quadrature
    eta(v1, v2, v3) = sum over cyclic slots of +- int alpha'(v_i) . F(v_j, v_k).
    """
    alg = alpha.algebra
    ts = grid.nodes

    def evaluator(g, v1, v2, v3):
        vs = (v1, v2, v3)
        total = 0.0
        for i, sign in ((0, 1.0), (1, -1.0), (2, 1.0)):
            j, k = [m for m in range(3) if m != i]
            total += sign * _pair_dot(alg, grid, alpha.tderiv(ts, g, vs[i]),
                                      curvature(alpha, g, ts, vs[j], vs[k]))
        return total

    return AlgebroidForm(alg, 3, evaluator, name="eta(data)")


# ---------------------------------------------------------------------------
# the lifted algebroid
# ---------------------------------------------------------------------------

class LiftedSection:
    """Section of the lifted algebroid: extended vertical part plus tangent field."""

    def __init__(self, hat, tangent):
        self.hat = hat
        self.tangent = tangent  # g -> right-trivialized tangent coefficients


def horizontal_lift(alpha, w_field):
    """Hor(X) as a lifted section: vertical part zero, tangent field W.

    In the theta-decomposition the full A-profile of the lift is
    -alpha_t(W); that profile is vertical-free, so the hat slot is zero.
    """
    alg = alpha.algebra
    zero = constant_profile_section(alg, np.zeros(alg.dim), name="0")
    return LiftedSection(ExtendedLSection(zero, 0.0), w_field)


def _hor_section(alpha, w_field):
    alg = alpha.algebra

    def profile(g, t):
        return -alpha.value(t, g, w_field(g))

    def dprofile(g, t):
        return -alpha.tderiv(t, g, w_field(g))

    return AlgebroidSection(alg, profile, lambda g: w_field(g),
                            dprofile=dprofile, name="Hor")


def _curvature_section(alpha, w1, w2):
    alg = alpha.algebra

    def profile(g, t):
        return curvature(alpha, g, t, w1(g), w2(g))

    return AlgebroidSection(alg, profile, constant_field(alg, np.zeros(alg.dim)), name="F")


def lifted_bracket(omega, alpha, s1, s2, grid):
    """Bracket on (L + R) + TG defined by the connection and a 2-form omega.

    Horizontal-horizontal parts follow
    [Hor(X), Hor(Y)] = Hor([X, Y]) + j(F(X, Y)) - omega(X, Y);
    mixed parts use the lifted representation, vertical parts the extended
    bracket.  omega is a de Rham 2-form on G; the scalar evaluates it on the
    point or stack it is given, so omega must take point axes.
    """
    alg = alpha.algebra
    w1, w2 = s1.tangent, s2.tangent

    def wbr(g):
        return field_bracket(alg, w1, w2, g)

    hor1 = _hor_section(alpha, w1)
    hor2 = _hor_section(alpha, w2)

    curv = _curvature_section(alpha, w1, w2)
    nb1 = nabla_hat(hor1, s2.hat, grid)
    nb2 = nabla_hat(hor2, s1.hat, grid)
    vert = bracket_lhat(s1.hat, s2.hat, grid)

    def body_profile(g, t):
        return (curv.profile(g, t) + nb1.body.profile(g, t) - nb2.body.profile(g, t)
                + vert.body.profile(g, t))

    body = AlgebroidSection(alg, body_profile, constant_field(alg, np.zeros(alg.dim)),
                            name="lifted-bracket-body")

    def scalar(g):
        return nb1.scalar(g) - nb2.scalar(g) + vert.scalar(g) - omega(g, w1(g), w2(g))

    return LiftedSection(ExtendedLSection(body, scalar), wbr)


def lifted_jacobiator_scalar(omega, alpha, fields, g, grid):
    """Scalar part of the cyclic double bracket of three horizontal lifts."""
    h1, h2, h3 = [horizontal_lift(alpha, w) for w in fields]
    total = 0.0
    for a, b, c in ((h1, h2, h3), (h2, h3, h1), (h3, h1, h2)):
        inner = lifted_bracket(omega, alpha, a, b, grid)
        outer = lifted_bracket(omega, alpha, inner, c, grid)
        total += outer.hat.scalar(g)
    return total


def equivariant_generator_residual(omega, phi_map, alpha, x, v, g, grid):
    """Residual of the generator condition

        omega(x_N, X) + d Phi(x)(X) = < d^theta j (X), Psi(x) >

    at the sample (g, X) with theta^R(X) = v; phi_map(x) is a scalar
    function on G, omega a de Rham 2-form.
    """
    alg = alpha.algebra
    xg = alg.Ad(g, x) - x
    lhs = omega(g, xg, v) + alg.stencil_derivative(phi_map(x), g, v)
    ts = grid.nodes
    rhs = -_pair_dot(alg, grid, alpha.tderiv(ts, g, v),
                     generator_vertical_part(alpha, x, g, ts))
    return abs(float(lhs) - float(rhs))


# ---------------------------------------------------------------------------
# change of splitting and connection
# ---------------------------------------------------------------------------

class HorizontalFamily(InterpolatedFamily):
    """A horizontal L-valued 1-form as a t-family: lambda_{t+1} = Ad_g lambda_t.

    Interpolated from a base value exactly like the connection families, but
    with the homogeneous gauge action (a difference of two connections).
    """

    def __init__(self, algebra, lam0):
        super().__init__(algebra)
        self.lam0 = lam0

    def base(self, g, v):
        return self.lam0(g, v)

    def step(self, g, v):
        return g, None

    def section(self, w_field, name="lambda(X)"):
        """lambda(X) as an L-section for a constant-frame tangent field."""
        alg = self.algebra

        def profile(g, t):
            return self.value(t, g, w_field(g))

        def dprofile(g, t):
            return self.tderiv(t, g, w_field(g))

        return AlgebroidSection(alg, profile, constant_field(alg, np.zeros(alg.dim)),
                                dprofile=dprofile, name=name)


class PerturbedFamily:
    """alpha + lambda, again gauge-periodic; quacks like a ConnectionFamily."""

    def __init__(self, alpha, lam):
        self.algebra = alpha.algebra
        self.alpha = alpha
        self.lam = lam
        self.invariant = False

    def value(self, t, g, v):
        return self.alpha.value(t, g, v) + self.lam.value(t, g, v)

    def tderiv(self, t, g, v):
        return self.alpha.tderiv(t, g, v) + self.lam.tderiv(t, g, v)


def _beta_functional(algebra, kernel, grid):
    """beta in Gamma(L*): zeta -> int B(kernel_t, zeta_t) dt."""
    ts = grid.nodes

    def apply(zeta, g):
        return _pair_dot(algebra, grid, extend(kernel, g, ts), extend(zeta, g, ts))

    return apply


def gamma_change(alpha, lam, beta_kernel, grid):
    """The 2-form gamma with eta' - eta = d gamma for j' = j + beta, theta' = theta + lambda:

    a* gamma = <d^theta j, lambda> + (1/2) sigma(lambda, lambda)
             - <beta, F^theta + d^theta lambda> + (1/2) beta([lambda, lambda]).
    """
    alg = alpha.algebra
    beta = _beta_functional(alg, beta_kernel, grid)

    zero = constant_field(alg, np.zeros(alg.dim))

    def evaluator(g, v, w):
        fv, fw = constant_field(alg, v), constant_field(alg, w)
        lam_v = lam.section(fv)
        lam_w = lam.section(fw)
        out = dtheta_j(alpha, g, v, lam_w, grid) - dtheta_j(alpha, g, w, lam_v, grid)
        out += 0.5 * (central_cocycle(lam_v, lam_w, g, grid)
                      - central_cocycle(lam_w, lam_v, g, grid))
        # F + d^theta lambda, evaluated on the constant frames (v, w)
        fsec = _curvature_section(alpha, fv, fw)
        hv = _hor_section(alpha, fv)
        hw = _hor_section(alpha, fw)
        dtl1 = bracket(hv, lam_w)
        dtl2 = bracket(hw, lam_v)
        lam_br = lam.section(constant_field(alg, -alg.bracket(v, w)))

        def dtheta_lam(gg, t):
            return (dtl1.profile(gg, t) - dtl2.profile(gg, t)
                    - lam_br.profile(gg, t))

        total_arg = AlgebroidSection(
            alg, lambda gg, t: fsec.profile(gg, t) + dtheta_lam(gg, t), zero)
        out -= beta(total_arg, g)
        pointwise = AlgebroidSection(
            alg,
            lambda gg, t: -alg.bracket(lam_v.profile(gg, t), lam_w.profile(gg, t)), zero)
        out += beta(pointwise, g)
        return out

    return AlgebroidForm(alg, 2, evaluator, name="gamma")


def eta_perturbed(alpha, lam, beta_kernel, grid):
    """eta' for the perturbed data: a* eta' = -<d^{theta'} j', F^{theta'}>."""
    alg = alpha.algebra
    prime = PerturbedFamily(alpha, lam)
    beta = _beta_functional(alg, beta_kernel, grid)
    ts = grid.nodes

    def pair_one(g, v, fsec):
        """< d^{theta'} j', F >(X) for the L-section fsec."""
        lead = -_pair_dot(alg, grid, prime.tderiv(ts, g, v), fsec.profile(g, ts))
        # < d^{theta'} beta, F >(X) = D_v beta(F) - beta([Hor' X, F])
        horp = _hor_section(prime, constant_field(alg, v))
        drift = alg.stencil_derivative(lambda gg: beta(fsec, gg), g, v)
        br = bracket(horp, fsec)
        return lead + drift - beta(br, g)

    def evaluator(g, v1, v2, v3):
        vs = (v1, v2, v3)
        total = 0.0
        for i, sign in ((0, 1.0), (1, -1.0), (2, 1.0)):
            j, k = [m for m in range(3) if m != i]
            fsec = _curvature_section(prime, constant_field(alg, vs[j]),
                                      constant_field(alg, vs[k]))
            total -= sign * pair_one(g, vs[i], fsec)
        return total

    return AlgebroidForm(alg, 3, evaluator, name="eta'")
