"""Concatenation of sections, the composable-pair algebroid, and Courant data.

Pairs live over the product group with points m = (g2, g1) and the
composite g2 g1 (concatenation runs right to left).  Each slot of G x G is
a base of sections (Phi = pr_2 or pr_1, see sections.AlgebroidSection),
and a pair is a tuple (xi2, xi1) of sections over the two slots that share
one tangent field, the two rows (v2, v1) on G x G, shape point axes +
(2, dim).  So the template, seam, bracket and varpi of a pair are the
group's own, run once per slot.  A slot's geometry is the pair of group
stencils (`Slot.stencil`) and the group's frame bracket row by row, and
its derivative is the group's stencil_derivative on both stencils at
once, so forms.de_rham_differential over a slot is the de Rham
differential of G x G that mult_eta_residual takes of lambda.  The
fusion defect is lambda = (1/2) pr1* theta^L . pr2* theta^R with pr1 the
(g2)-slot, a convention pinned by the closed-form generator identity.
"""

from __future__ import annotations

import numpy as np

from .forms import AlgebroidForm, de_rham_differential
from .sections import AlgebroidSection, piecewise, template_section
from . import algebroid as albr
from .liealg import LieAlgebra
from .lifting import canonical_two_form

__all__ = [
    "Slot",
    "slots",
    "composable_residual",
    "generator_pair",
    "pair_from_template",
    "pair_bracket",
    "concat",
    "fusion_lambda",
    "fusion_residual",
    "mult_eta_residual",
    "CourantElement",
    "courant_bracket",
    "courant_pairing",
    "reduced_bracket_residual",
]


class Slot:
    """One factor of G x G as a base: Phi(g2, g1) = g2 (index 0) or g1 (index 1).

    A point is a pair (g2, g1) of group points with the same point axes; a
    tangent holds the rows (w2, w1) of right-trivialized coefficients on
    axis -2.  Derivatives take the group's step and stencil_derivative body.
    """

    stencil_derivative = LieAlgebra.stencil_derivative
    fd_step = property(lambda self: self.algebra.fd_step)

    def __init__(self, algebra, index):
        self.algebra = algebra
        self.index = index

    def point(self, m):
        return m[self.index]

    def push_tangent(self, m, u):
        return u[..., self.index, :]

    def point_axes(self, m):
        return np.shape(m[0])[:-2]

    def stencil(self, m, u, h):
        """The Richardson stencil of m = (g2, g1) along u = (w2, w1): the pair of
        group stencils (exp(s w2) g2, exp(s w1) g1), s in stencil_steps(h)."""
        alg = self.algebra
        return alg.stencil(m[0], u[..., 0, :], h), alg.stencil(m[1], u[..., 1, :], h)

    def frame_bracket(self, u, w):
        """The group's frame bracket row by row: (-[u2, w2], -[u1, w1])."""
        return -self.algebra.bracket(u, w)

    def generator_field(self, x, m):
        """Diagonal conjugation: (Ad_{g2} x - x, Ad_{g1} x - x)."""
        return self.algebra.generator_field(x, np.stack(m, axis=-3))


def slots(algebra):
    """The (g2)- and (g1)-slot bases of G x G."""
    return Slot(algebra, 0), Slot(algebra, 1)


def composable_residual(pair, g2, g1):
    """|xi1(1) - xi2(0)|: the slot-1 path ends where the slot-2 path starts."""
    xi2, xi1 = pair
    m = (g2, g1)
    return float(np.linalg.norm(xi1.profile(m, 1.0) - xi2.profile(m, 0.0)))


def generator_pair(algebra, x):
    """The action generator of x over both slots: constant -x, field x_{G x G}."""
    return tuple(albr.generator(algebra, x, base=s) for s in slots(algebra))


def pair_from_template(algebra, rng, scale=0.7):
    """A seeded composable pair: slot-1 template plus a slot-2 template whose
    base value is the slot-1 boundary, so the seam holds identically."""
    a0 = algebra.random_vector(rng, scale)
    da = algebra.random_vector(rng, scale)
    ca = rng.uniform(-1, 1)
    v10 = algebra.random_vector(rng, scale)
    dv1 = algebra.random_vector(rng, scale)
    c1 = rng.uniform(-1, 1)
    v20 = algebra.random_vector(rng, scale)
    dv2 = algebra.random_vector(rng, scale)
    c2 = rng.uniform(-1, 1)
    slot2, slot1 = slots(algebra)

    def a1(m):
        return a0 + ca * algebra.Ad(m[1], da)

    def v1(m):
        return v10 + c1 * algebra.Ad(m[1], dv1)

    def xfield(m):
        return np.stack([v20 + c2 * algebra.Ad(m[0], dv2), v1(m)], axis=-2)

    def boundary(m):
        return algebra.Ad(m[1], a1(m)) + v1(m)

    return (template_section(algebra, boundary, xfield, base=slot2),
            template_section(algebra, a1, xfield, base=slot1))


def pair_bracket(p, q):
    """Componentwise algebroid bracket over the product group."""
    return tuple(albr.bracket(a, b) for a, b in zip(p, q))


def concat(pair, g2, g1):
    """The concatenated section over g2 g1, frozen at the sampled slot points.

    Values on [0, 1] run the slot-1 path at doubled speed, then the slot-2
    path; the anchor datum is Ad_{g2} v1 + v2.  The result is seam-exact at
    the product point (and is used there pointwise).
    """
    xi2, xi1 = pair
    alg = xi2.algebra
    m = (g2, g1)
    vcat = alg.Ad(g2, xi1.v(m)) + xi2.v(m)

    def half(t):
        return t > 0.5

    def profile(g, t):
        return piecewise(t, half, lambda second, s:
                         (xi2 if second else xi1).profile(m, 2.0 * s - second))

    def dprofile(g, t):
        return piecewise(t, half, lambda second, s:
                         2.0 * (xi2 if second else xi1).dprofile(m, 2.0 * s - second))

    return AlgebroidSection(alg, profile, lambda g: vcat, dprofile=dprofile, name="concat")


def fusion_lambda(algebra, g2, g1, vx2, vx1, vy2, vy1):
    """lambda((X2,X1),(Y2,Y1)) = (1/2)[B(theta^L(X2), Y1) - B(theta^L(Y2), X1)]."""
    tl = lambda v: algebra.Ad(algebra.inv(g2), v)
    return 0.5 * (algebra.pairing(tl(vx2), vy1) - algebra.pairing(tl(vy2), vx1))


def fusion_residual(pair_xi, pair_zeta, g2, g1, grid):
    """|varpi(concat xi, concat zeta) - varpi(xi2, zeta2) - varpi(xi1, zeta1) + lambda|."""
    (xi2, xi1), (ze2, ze1) = pair_xi, pair_zeta
    alg = xi2.algebra
    m = (g2, g1)
    whole = canonical_two_form(concat(pair_xi, g2, g1), concat(pair_zeta, g2, g1),
                               g2 @ g1, grid)
    part2 = canonical_two_form(xi2, ze2, m, grid)
    part1 = canonical_two_form(xi1, ze1, m, grid)
    lam = fusion_lambda(alg, g2, g1, xi2.v(m), xi1.v(m), ze2.v(m), ze1.v(m))
    return abs(whole - part2 - part1 + lam)


def mult_eta_residual(algebra, eta, g2, g1, triples):
    """Residual of mult* eta = pr1* eta + pr2* eta - d lambda on tangent triples.

    triples is a list of three (v2, v1) pairs of right-trivialized tangent
    coefficients on the product group.
    """
    gm = g2 @ g1

    def push(v2, v1):
        # theta^R of the multiplication pushforward
        return v2 + algebra.Ad(g2, v1)

    lhs = eta(gm, *[push(v2, v1) for v2, v1 in triples])
    rhs = eta(g2, *[v2 for v2, _ in triples]) + eta(g1, *[v1 for _, v1 in triples])

    # de Rham d of lambda over the product group, in the constant frames (v2, v1)
    lam = AlgebroidForm(algebra, 2, lambda pt, a, b: fusion_lambda(
        algebra, *pt, a[..., 0, :], a[..., 1, :], b[..., 0, :], b[..., 1, :]))
    dlam = de_rham_differential(lam, base=Slot(algebra, 0))
    return abs(lhs - rhs + dlam((g2, g1), *[np.array(pair) for pair in triples]))


# ---------------------------------------------------------------------------
# Courant structure on A + A*
# ---------------------------------------------------------------------------

class CourantElement:
    """A section together with a 1-form (an element of A + A*)."""

    def __init__(self, section, coform):
        self.section = section
        self.coform = coform


def courant_bracket(a, b):
    """Standard Courant bracket ((v1,a1),(v2,a2)) -> ([v1,v2], L_{v1}a2 - i_{v2} d a1)."""
    from .forms import contract, exterior_derivative, lie_derivative
    sec = albr.bracket(a.section, b.section)
    lterm = lie_derivative(b.coform, a.section)
    iterm = contract(exterior_derivative(a.coform), b.section)

    def coform_eval(g, chi):
        return lterm(g, chi) - iterm(g, chi)

    return CourantElement(sec, AlgebroidForm(a.section.algebra, 1, coform_eval))


def courant_pairing(a, b, g):
    """<(v1,a1),(v2,a2)> = a1(v2) + a2(v1)."""
    return a.coform(g, b.section) + b.coform(g, a.section)


def reduced_bracket_residual(varpi, eta, v1, v2, alpha1, alpha2, chi, g):
    """Residual of the eta-twisted reduction identity, tested on chi:

    [[f(v1)+a1, f(v2)+a2]]-coform = i_{[v1,v2]} varpi + i_{v2} i_{v1} a* eta
                                    + (L_{v1} a2 - i_{v2} d a1).
    """
    from .forms import contract, exterior_derivative, lie_derivative
    alg = v1.algebra
    f1 = CourantElement(v1, _plus(contract(varpi, v1), alpha1))
    f2 = CourantElement(v2, _plus(contract(varpi, v2), alpha2))
    got = courant_bracket(f1, f2).coform(g, chi)

    br = albr.bracket(v1, v2)
    want = varpi(g, br, chi)
    want += eta(g, v1.v(g), v2.v(g), chi.v(g))
    want += lie_derivative(alpha2, v1)(g, chi)
    want -= contract(exterior_derivative(alpha1), v2)(g, chi)
    return abs(got - want)


def _plus(f1, f2):
    return AlgebroidForm(f1.algebra, f1.degree,
                         lambda g, *ss: f1(g, *ss) + f2(g, *ss))
