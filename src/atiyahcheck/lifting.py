"""Central extension of the loop bundle and the lifting machinery.

The invariant form B on g defines the centrally-extended bundle with
fibers L_g + R, bracket ( -[xi1, xi2], int xi1' . xi2 ) and splitting
j(xi) = (xi, 0) whose cocycle is sigma(xi1, xi2) = -int xi1' . xi2.
From a connection family alpha_t this module builds the 2-form varpi,
the obstruction 3-form, the lifted bracket on (L + R) + TG and the
residuals the identities demand.
"""

from __future__ import annotations

import numpy as np

from .algebroid import bracket, connection_apply, curvature, generator_vertical_part
from .forms import AlgebroidForm, DeRhamForm
from .sections import (AlgebroidSection, InterpolatedFamily, extend, integrate_01,
                       time_derivative)

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
    "LiftedSection",
    "horizontal_lift",
    "lifted_bracket",
    "lifted_jacobiator_scalar",
    "equivariant_generator_residual",
    "HorizontalFamily",
    "PerturbedFamily",
    "gamma_change",
    "eta_perturbed",
]


def _pair_dot(alg, grid, g, f1, f2):
    """int_0^1 B(f1(t), f2(t)) dt by Simpson on the configured grid."""
    return integrate_01(lambda t: alg.pairing(f1(t), f2(t)), grid)


def central_cocycle(xi1, xi2, g, grid, h_t=1e-5):
    """sigma(xi1, xi2) = -int_0^1 B(xi1', xi2) dt for L-sections at g."""
    alg = xi1.algebra
    return -_pair_dot(alg, grid, g,
                      lambda t: time_derivative(xi1, g, t, h_t=h_t),
                      lambda t: extend(xi2, g, t))


class ExtendedLSection:
    """A section of the extended bundle: L-section body plus a scalar field."""

    def __init__(self, body, scalar):
        self.body = body
        self.scalar = scalar if callable(scalar) else (lambda g, s=float(scalar): s)

    @classmethod
    def split(cls, body):
        """j(xi) = (xi, 0)."""
        return cls(body, 0.0)


def bracket_lhat(a, b, grid, h_t=1e-5):
    """Extended bracket: body -[xi1, xi2] pointwise, scalar int xi1' . xi2."""
    body = bracket(a.body, b.body)

    def scalar(g):
        return -central_cocycle(a.body, b.body, g, grid, h_t=h_t)

    return ExtendedLSection(body, scalar)


def nabla_hat(xi, b, grid, h=1e-4, h_t=1e-5):
    """Lifted representation: ( [xi, body], a(xi) scalar + int xi' . body )."""
    alg = xi.algebra
    body = bracket(xi.body if isinstance(xi, ExtendedLSection) else xi, b.body, h=h)
    base = xi.body if isinstance(xi, ExtendedLSection) else xi

    def scalar(g):
        drift = alg.directional(lambda gg: np.array(b.scalar(gg)), g, base.v(g), h=h)
        flux = _pair_dot(alg, grid, g,
                         lambda t: time_derivative(base, g, t, h_t=h_t),
                         lambda t: extend(b.body, g, t))
        return float(drift) + flux

    return ExtendedLSection(body, scalar)


# ---------------------------------------------------------------------------
# the splitting derivative and the 2-form
# ---------------------------------------------------------------------------

def dtheta_j(alpha, g, v, zeta, grid):
    """< d^theta j, zeta > on the tangent with theta^R = v: -int alpha_t' (v) . zeta."""
    alg = alpha.algebra
    return -_pair_dot(alg, grid, g,
                      lambda t: alpha.tderiv(t, g, v),
                      lambda t: extend(zeta, g, t))


def dtheta_j_definitional(alpha, xi, zeta, g, grid, h_t=1e-5):
    """The defining route < d j, zeta >(xi) + sigma(theta(xi), zeta).

    < d j, zeta >(xi) = int xi' . zeta; theta(xi) is the vertical part of xi.
    """
    alg = alpha.algebra
    lead = _pair_dot(alg, grid, g,
                     lambda t: time_derivative(xi, g, t, h_t=h_t),
                     lambda t: extend(zeta, g, t))
    vert = connection_apply(alpha, xi)
    return lead + central_cocycle(vert, zeta, g, grid, h_t=h_t)


def canonical_two_form(xi, zeta, g, grid, h_t=1e-5):
    """varpi(xi, zeta) = int xi' . zeta - (1/2) v_xi . v_zeta - Ad_g xi(0) . v_zeta."""
    alg = xi.algebra
    lead = _pair_dot(alg, grid, g,
                     lambda t: time_derivative(xi, g, t, h_t=h_t),
                     lambda t: extend(zeta, g, t))
    vx, vz = xi.v(g), zeta.v(g)
    lead -= 0.5 * alg.pairing(vx, vz)
    lead -= alg.pairing(alg.Ad(g, xi.profile(g, 0.0)), vz)
    return lead


def varpi_form(algebra, grid, h_t=1e-5):
    """The canonical 2-form packaged as an algebroid form."""

    def evaluator(g, xi, zeta):
        return canonical_two_form(xi, zeta, g, grid, h_t=h_t)

    return AlgebroidForm(algebra, 2, evaluator, name="varpi")


def brylinski_two_form(alpha, xi, zeta, g, grid, h_t=1e-5):
    """varpi^alpha by the splitting route: <d j, theta> + (1/2) sigma(theta, theta)."""
    alg = alpha.algebra
    tx = connection_apply(alpha, xi)
    tz = connection_apply(alpha, zeta)
    lead = _pair_dot(alg, grid, g,
                     lambda t: time_derivative(xi, g, t, h_t=h_t),
                     lambda t: extend(tz, g, t))
    lead -= _pair_dot(alg, grid, g,
                      lambda t: time_derivative(zeta, g, t, h_t=h_t),
                      lambda t: extend(tx, g, t))
    lead += 0.5 * (central_cocycle(tx, tz, g, grid, h_t=h_t)
                   - central_cocycle(tz, tx, g, grid, h_t=h_t))
    return lead


def q_alpha(alpha, g, v, w, grid):
    """Q^alpha(X, Y) by quadrature: (1/2) theta^L . alpha_0 + (1/2) int alpha . alpha'."""
    alg = alpha.algebra
    lv = alg.maurer_cartan(g, v, "left")
    lw = alg.maurer_cartan(g, w, "left")
    out = 0.5 * (alg.pairing(lv, alpha.value(0.0, g, w))
                 - alg.pairing(lw, alpha.value(0.0, g, v)))
    out += 0.5 * integrate_01(
        lambda t: alg.pairing(alpha.value(t, g, v), alpha.tderiv(t, g, w))
        - alg.pairing(alpha.value(t, g, w), alpha.tderiv(t, g, v)), grid)
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


def eta_from_data(alpha, grid, h=1e-4):
    """The obstruction 3-form from connection data: a* eta = -<d^theta j, F^theta>.

    On constant frames this is the shuffle-paired quadrature
    eta(v1, v2, v3) = sum over cyclic slots of +- int alpha'(v_i) . F(v_j, v_k).
    """
    alg = alpha.algebra

    def evaluator(g, v1, v2, v3):
        vs = (v1, v2, v3)
        total = 0.0
        for i, sign in ((0, 1.0), (1, -1.0), (2, 1.0)):
            j, k = [m for m in range(3) if m != i]
            fjk = lambda t: curvature(alpha, g, t, vs[j], vs[k], h=h)
            total += sign * integrate_01(
                lambda t: alg.pairing(alpha.tderiv(t, g, vs[i]), fjk(t)), grid)
        return total

    return DeRhamForm(alg, 3, evaluator, name="eta(data)")


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
    zero = AlgebroidSection(alg,
                            lambda g, t: np.zeros(alg.dim),
                            lambda g: np.zeros(alg.dim),
                            dprofile=lambda g, t: np.zeros(alg.dim),
                            name="0")
    return LiftedSection(ExtendedLSection(zero, 0.0), w_field)


def _hor_section(alpha, w_field):
    alg = alpha.algebra

    def profile(g, t):
        return -alpha.value(t, g, w_field(g))

    def dprofile(g, t):
        return -alpha.tderiv(t, g, w_field(g))

    return AlgebroidSection(alg, profile, lambda g: w_field(g),
                            dprofile=dprofile, name="Hor")


def _curvature_section(alpha, w1, w2, h=1e-4):
    alg = alpha.algebra

    def profile(g, t):
        return curvature(alpha, g, t, w1(g), w2(g), h=h)

    def v(g):
        return np.zeros(alg.dim)

    return AlgebroidSection(alg, profile, v, name="F")


def lifted_bracket(omega, alpha, s1, s2, grid, h=1e-4, h_t=1e-5):
    """Bracket on (L + R) + TG defined by the connection and a 2-form omega.

    Horizontal-horizontal parts follow
    [Hor(X), Hor(Y)] = Hor([X, Y]) + j(F(X, Y)) - omega(X, Y);
    mixed parts use the lifted representation, vertical parts the extended
    bracket.  omega is a de Rham 2-form on G (omega = None means 0).
    """
    alg = alpha.algebra
    w1, w2 = s1.tangent, s2.tangent

    def wbr(g):
        out = -alg.bracket(w1(g), w2(g))
        out = out + alg.directional(w2, g, w1(g), h=h)
        out = out - alg.directional(w1, g, w2(g), h=h)
        return out

    hor1 = _hor_section(alpha, w1)
    hor2 = _hor_section(alpha, w2)

    curv = _curvature_section(alpha, w1, w2, h=h)
    nb1 = nabla_hat(hor1, s2.hat, grid, h=h, h_t=h_t)
    nb2 = nabla_hat(hor2, s1.hat, grid, h=h, h_t=h_t)
    vert = bracket_lhat(s1.hat, s2.hat, grid, h_t=h_t)

    def body_profile(g, t):
        out = curv.profile(g, t)
        out = out + nb1.body.profile(g, t) - nb2.body.profile(g, t)
        out = out + vert.body.profile(g, t)
        return out

    def body_v(g):
        return np.zeros(alg.dim)

    body = AlgebroidSection(alg, body_profile, body_v, name="lifted-bracket-body")

    def scalar(g):
        out = nb1.scalar(g) - nb2.scalar(g) + vert.scalar(g)
        if omega is not None:
            out = out - omega(g, w1(g), w2(g))
        return out

    return LiftedSection(ExtendedLSection(body, scalar), wbr)


def lifted_jacobiator_scalar(omega, alpha, fields, g, grid, h=1e-4, h_t=1e-5):
    """Scalar part of the cyclic double bracket of three horizontal lifts."""
    h1, h2, h3 = [horizontal_lift(alpha, w) for w in fields]
    total = 0.0
    for a, b, c in ((h1, h2, h3), (h2, h3, h1), (h3, h1, h2)):
        inner = lifted_bracket(omega, alpha, a, b, grid, h=h, h_t=h_t)
        outer = lifted_bracket(omega, alpha, inner, c, grid, h=h, h_t=h_t)
        total += outer.hat.scalar(g)
    return total


def equivariant_generator_residual(omega, phi_map, alpha, x, v, g, grid, h=1e-4):
    """Residual of the generator condition

        omega(x_N, X) + d Phi(x)(X) = < d^theta j (X), Psi(x) >

    at the sample (g, X) with theta^R(X) = v; phi_map(x) is a scalar
    function on G (None means 0), omega a de Rham 2-form (None means 0).
    """
    alg = alpha.algebra
    xg = alg.Ad(g, x) - x
    lhs = 0.0
    if omega is not None:
        lhs += omega(g, xg, v)
    if phi_map is not None:
        func = phi_map(x)
        lhs += alg.directional(lambda gg: np.array(func(gg)), g, v, h=h)
    rhs = -integrate_01(
        lambda t: alg.pairing(alpha.tderiv(t, g, v),
                              generator_vertical_part(alpha, x, g, t)), grid)
    return abs(float(lhs) - float(rhs))


# ---------------------------------------------------------------------------
# change of splitting and connection
# ---------------------------------------------------------------------------

class HorizontalFamily(InterpolatedFamily):
    """A horizontal L-valued 1-form as a t-family: lambda_{t+1} = Ad_g lambda_t.

    Interpolated from a base value exactly like the connection families, but
    with the homogeneous gauge action (a difference of two connections).
    """

    def __init__(self, algebra, lam0, bump):
        self.algebra = algebra
        self.lam0 = lam0
        self.bump = bump

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

        return AlgebroidSection(alg, profile, lambda g: np.zeros(alg.dim),
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


def _beta_functional(algebra, kernel, grid, h_t=1e-5):
    """beta in Gamma(L*): zeta -> int B(kernel_t, zeta_t) dt."""

    def apply(zeta, g):
        return integrate_01(
            lambda t: algebra.pairing(extend(kernel, g, t), extend(zeta, g, t)), grid)

    return apply


def gamma_change(alpha, lam, beta_kernel, grid, h=1e-4, h_t=1e-5):
    """The 2-form gamma with eta' - eta = d gamma for j' = j + beta, theta' = theta + lambda:

    a* gamma = <d^theta j, lambda> + (1/2) sigma(lambda, lambda)
             - <beta, F^theta + d^theta lambda> + (1/2) beta([lambda, lambda]).
    """
    alg = alpha.algebra
    beta = _beta_functional(alg, beta_kernel, grid, h_t=h_t)

    def evaluator(g, v, w):
        lam_v = lam.section(lambda gg: v)
        lam_w = lam.section(lambda gg: w)
        out = dtheta_j(alpha, g, v, lam_w, grid) - dtheta_j(alpha, g, w, lam_v, grid)
        out += 0.5 * (central_cocycle(lam_v, lam_w, g, grid, h_t=h_t)
                      - central_cocycle(lam_w, lam_v, g, grid, h_t=h_t))
        # F + d^theta lambda, evaluated on the constant frames (v, w)
        fsec = _curvature_section(alpha, lambda gg: v, lambda gg: w, h=h)
        hv = _hor_section(alpha, lambda gg: v)
        hw = _hor_section(alpha, lambda gg: w)
        dtl1 = bracket(hv, lam_w, h=h)
        dtl2 = bracket(hw, lam_v, h=h)
        lam_br = lam.section(lambda gg: -alg.bracket(v, w))

        def dtheta_lam(gg, t):
            return (dtl1.profile(gg, t) - dtl2.profile(gg, t)
                    - lam_br.profile(gg, t))

        total_arg = AlgebroidSection(
            alg, lambda gg, t: fsec.profile(gg, t) + dtheta_lam(gg, t),
            lambda gg: np.zeros(alg.dim))
        out -= beta(total_arg, g)
        pointwise = AlgebroidSection(
            alg,
            lambda gg, t: -alg.bracket(lam_v.profile(gg, t), lam_w.profile(gg, t)),
            lambda gg: np.zeros(alg.dim))
        out += beta(pointwise, g)
        return out

    return DeRhamForm(alg, 2, evaluator, name="gamma")


def eta_perturbed(alpha, lam, beta_kernel, grid, h=1e-4, h_t=1e-5):
    """eta' for the perturbed data: a* eta' = -<d^{theta'} j', F^{theta'}>."""
    alg = alpha.algebra
    prime = PerturbedFamily(alpha, lam)
    beta = _beta_functional(alg, beta_kernel, grid, h_t=h_t)

    def pair_one(g, v, fsec):
        """< d^{theta'} j', F >(X) for the L-section fsec."""
        lead = -integrate_01(
            lambda t: alg.pairing(prime.tderiv(t, g, v), fsec.profile(g, t)), grid)
        # < d^{theta'} beta, F >(X) = D_v beta(F) - beta([Hor' X, F])
        horp = _hor_section(prime, lambda gg: v)
        drift = alg.directional(lambda gg: np.array(beta(fsec, gg)), g, v, h=h)
        br = bracket(horp, fsec, h=h)
        return lead + float(drift) - beta(br, g)

    def evaluator(g, v1, v2, v3):
        vs = (v1, v2, v3)
        total = 0.0
        for i, sign in ((0, 1.0), (1, -1.0), (2, 1.0)):
            j, k = [m for m in range(3) if m != i]
            fsec = _curvature_section(prime, lambda gg: vs[j], lambda gg: vs[k], h=h)
            total -= sign * pair_one(g, vs[i], fsec)
        return total

    return DeRhamForm(alg, 3, evaluator, name="eta'")
