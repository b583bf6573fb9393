"""Concatenation of sections, the composable-pair algebroid, and Courant data.

Pairs live over the product group with points written (g2, g1) and the
composite g2 g1 (concatenation runs right to left).  Pair sections may
depend on both slots; their bracket differentiates along both factors.
The fusion defect is lambda = (1/2) pr1* theta^L . pr2* theta^R with pr1
the (g2)-slot, a convention pinned by the closed-form generator identity.
"""

from __future__ import annotations

import numpy as np

from .forms import AlgebroidForm
from .sections import AlgebroidSection, BumpFunction, integrate_01
from . import algebroid as albr
from .liealg import richardson
from .lifting import canonical_two_form

__all__ = [
    "PairSection",
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


class PairSection:
    """A section of the product algebroid: components over the two slots.

    profile2/profile1 and v2/v1 are functions of both group points; the
    seam condition for composability is profile1(g2, g1, 1) =
    profile2(g2, g1, 0).
    """

    def __init__(self, algebra, profile2, v2, profile1, v1,
                 dprofile2=None, dprofile1=None, name=""):
        self.algebra = algebra
        self.profile2 = profile2
        self.v2 = v2
        self.profile1 = profile1
        self.v1 = v1
        self.dprofile2 = dprofile2
        self.dprofile1 = dprofile1
        self.name = name

    def seam_residual(self, g2, g1):
        alg = self.algebra
        gap = self.profile1(g2, g1, 1.0) - self.profile2(g2, g1, 0.0)
        return float(np.linalg.norm(gap))

    def component(self, slot, g2, g1):
        """Freeze one slot pair into an ordinary section of A at its point."""
        alg = self.algebra
        if slot == 1:
            prof = lambda g, t: self.profile1(g2, g, t)
            vv = lambda g: self.v1(g2, g)
            dprof = None if self.dprofile1 is None else (
                lambda g, t: self.dprofile1(g2, g, t))
        else:
            prof = lambda g, t: self.profile2(g, g1, t)
            vv = lambda g: self.v2(g, g1)
            dprof = None if self.dprofile2 is None else (
                lambda g, t: self.dprofile2(g, g1, t))
        return AlgebroidSection(alg, prof, vv, dprofile=dprof)


def pair_from_template(algebra, rng, bump=None, scale=0.7):
    """A seeded composable pair: slot-1 template plus a slot-2 template whose
    base value is the slot-1 boundary, so the seam holds identically."""
    if bump is None:
        bump = BumpFunction()
    a0 = algebra.random_vector(rng, scale)
    da = algebra.random_vector(rng, scale)
    ca = rng.uniform(-1, 1)
    v10 = algebra.random_vector(rng, scale)
    dv1 = algebra.random_vector(rng, scale)
    c1 = rng.uniform(-1, 1)
    v20 = algebra.random_vector(rng, scale)
    dv2 = algebra.random_vector(rng, scale)
    c2 = rng.uniform(-1, 1)

    def a1(g1):
        return a0 + ca * algebra.Ad(g1, da)

    def v1(g2, g1):
        return v10 + c1 * algebra.Ad(g1, dv1)

    def boundary(g2, g1):
        return algebra.Ad(g1, a1(g1)) + v1(g2, g1)

    def v2(g2, g1):
        return v20 + c2 * algebra.Ad(g2, dv2)

    def profile1(g2, g1, t):
        base = a1(g1)
        coef = algebra.Ad(g1, base) + v1(g2, g1) - base
        return base + bump(t) * coef

    def dprofile1(g2, g1, t):
        base = a1(g1)
        coef = algebra.Ad(g1, base) + v1(g2, g1) - base
        return bump.deriv(t) * coef

    def profile2(g2, g1, t):
        base = boundary(g2, g1)
        coef = algebra.Ad(g2, base) + v2(g2, g1) - base
        return base + bump(t) * coef

    def dprofile2(g2, g1, t):
        base = boundary(g2, g1)
        coef = algebra.Ad(g2, base) + v2(g2, g1) - base
        return bump.deriv(t) * coef

    return PairSection(algebra, profile2, v2, profile1, v1,
                       dprofile2=dprofile2, dprofile1=dprofile1)


def _directional_pair(algebra, func, g2, g1, w2, w1, h=1e-4):
    """Richardson derivative along the product-group direction (w2, w1)."""
    e2 = algebra.step_exponentials(algebra.to_matrix(w2), h)
    e1 = algebra.step_exponentials(algebra.to_matrix(w1), h)
    steps = dict(zip((h, -h, 2.0 * h, -2.0 * h), zip(e2, e1)))
    return richardson(lambda s: func(steps[s][0] @ g2, steps[s][1] @ g1), h)


def pair_bracket(p, q, h=1e-4):
    """Componentwise algebroid bracket over the product group."""
    alg = p.algebra

    def make_component(profile_p, profile_q, anchor_p, anchor_q):
        def profile(g2, g1, t):
            out = -alg.bracket(profile_p(g2, g1, t), profile_q(g2, g1, t))
            out = out + _directional_pair(alg, lambda a, b: profile_q(a, b, t),
                                          g2, g1, p.v2(g2, g1), p.v1(g2, g1), h=h)
            out = out - _directional_pair(alg, lambda a, b: profile_p(a, b, t),
                                          g2, g1, q.v2(g2, g1), q.v1(g2, g1), h=h)
            return out

        def v(g2, g1):
            out = -alg.bracket(anchor_p(g2, g1), anchor_q(g2, g1))
            out = out + _directional_pair(alg, anchor_q, g2, g1,
                                          p.v2(g2, g1), p.v1(g2, g1), h=h)
            out = out - _directional_pair(alg, anchor_p, g2, g1,
                                          q.v2(g2, g1), q.v1(g2, g1), h=h)
            return out

        return profile, v

    prof2, v2 = make_component(p.profile2, q.profile2, p.v2, q.v2)
    prof1, v1 = make_component(p.profile1, q.profile1, p.v1, q.v1)
    return PairSection(alg, prof2, v2, prof1, v1)


def concat(pair, g2, g1):
    """The concatenated section over g2 g1, frozen at the sampled slot points.

    Values on [0, 1] run the slot-1 path at doubled speed, then the slot-2
    path; the anchor datum is Ad_{g2} v1 + v2.  The result is seam-exact at
    the product point (and is used there pointwise).
    """
    alg = pair.algebra
    vcat = alg.Ad(g2, pair.v1(g2, g1)) + pair.v2(g2, g1)

    def base(t, deriv=False):
        if t <= 0.5:
            if deriv:
                return 2.0 * pair.dprofile1(g2, g1, 2.0 * t)
            return pair.profile1(g2, g1, 2.0 * t)
        if deriv:
            return 2.0 * pair.dprofile2(g2, g1, 2.0 * t - 1.0)
        return pair.profile2(g2, g1, 2.0 * t - 1.0)

    def profile(g, t):
        return base(t)

    def dprofile(g, t):
        return base(t, deriv=True)

    return AlgebroidSection(alg, profile, lambda g: vcat,
                            dprofile=dprofile, smooth_flag=True, name="concat")


def fusion_lambda(algebra, g2, g1, vx2, vx1, vy2, vy1):
    """lambda((X2,X1),(Y2,Y1)) = (1/2)[B(theta^L(X2), Y1) - B(theta^L(Y2), X1)]."""
    tl = lambda v: algebra.Ad(algebra.inv(g2), v)
    return 0.5 * (algebra.pairing(tl(vx2), vy1) - algebra.pairing(tl(vy2), vx1))


def fusion_residual(pair_xi, pair_zeta, g2, g1, grid):
    """|varpi(concat xi, concat zeta) - varpi(xi2, zeta2) - varpi(xi1, zeta1) + lambda|."""
    alg = pair_xi.algebra
    gm = g2 @ g1
    cat_xi = concat(pair_xi, g2, g1)
    cat_ze = concat(pair_zeta, g2, g1)
    whole = canonical_two_form(cat_xi, cat_ze, gm, grid)
    part2 = canonical_two_form(pair_xi.component(2, g2, g1),
                               pair_zeta.component(2, g2, g1), g2, grid)
    part1 = canonical_two_form(pair_xi.component(1, g2, g1),
                               pair_zeta.component(1, g2, g1), g1, grid)
    lam = fusion_lambda(alg, g2, g1,
                        pair_xi.v2(g2, g1), pair_xi.v1(g2, g1),
                        pair_zeta.v2(g2, g1), pair_zeta.v1(g2, g1))
    return abs(whole - part2 - part1 + lam)


def mult_eta_residual(algebra, eta, g2, g1, triples, h=1e-4):
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

    def lam_eval(a2, a1, b2, b1, p2, p1):
        tl = algebra.Ad(algebra.inv(p2), a2)
        sl = algebra.Ad(algebra.inv(p2), b2)
        return 0.5 * (algebra.pairing(tl, b1) - algebra.pairing(sl, a1))

    # de Rham d of lambda over the product group, constant frames
    def dlam(p2, p1):
        total = 0.0
        for i in range(3):
            rest = [triples[m] for m in range(3) if m != i]
            w2, w1 = triples[i]
            dval = _directional_pair(
                algebra,
                lambda a, b: np.array(lam_eval(rest[0][0], rest[0][1],
                                               rest[1][0], rest[1][1], a, b)),
                p2, p1, w2, w1, h=h)
            total += ((-1) ** i) * float(dval)
        for i in range(3):
            for j in range(i + 1, 3):
                f2 = -algebra.bracket(triples[i][0], triples[j][0])
                f1 = -algebra.bracket(triples[i][1], triples[j][1])
                (k,) = [m for m in range(3) if m != i and m != j]
                total += ((-1) ** (i + j)) * lam_eval(
                    f2, f1, triples[k][0], triples[k][1], p2, p1)
        return total

    return abs(lhs - rhs + dlam(g2, g1))


# ---------------------------------------------------------------------------
# Courant structure on A + A*
# ---------------------------------------------------------------------------

class CourantElement:
    """A section together with a 1-form (an element of A + A*)."""

    def __init__(self, section, coform):
        self.section = section
        self.coform = coform


def courant_bracket(a, b, h=1e-4):
    """Standard Courant bracket ((v1,a1),(v2,a2)) -> ([v1,v2], L_{v1}a2 - i_{v2} d a1)."""
    from .forms import contract, exterior_derivative, lie_derivative
    sec = albr.bracket(a.section, b.section, h=h)
    lterm = lie_derivative(b.coform, a.section, h=h)
    iterm = contract(exterior_derivative(a.coform, h=h), b.section)

    def coform_eval(g, chi):
        return lterm(g, chi) - iterm(g, chi)

    return CourantElement(sec, AlgebroidForm(a.section.algebra, 1, coform_eval))


def courant_pairing(a, b, g):
    """<(v1,a1),(v2,a2)> = a1(v2) + a2(v1)."""
    return a.coform(g, b.section) + b.coform(g, a.section)


def reduced_bracket_residual(varpi, eta, v1, v2, alpha1, alpha2, chi, g, h=1e-4):
    """Residual of the eta-twisted reduction identity, tested on chi:

    [[f(v1)+a1, f(v2)+a2]]-coform = i_{[v1,v2]} varpi + i_{v2} i_{v1} a* eta
                                    + (L_{v1} a2 - i_{v2} d a1).
    """
    from .forms import contract, exterior_derivative, lie_derivative
    alg = v1.algebra
    f1 = CourantElement(v1, _plus(contract(varpi, v1), alpha1))
    f2 = CourantElement(v2, _plus(contract(varpi, v2), alpha2))
    got = courant_bracket(f1, f2, h=h).coform(g, chi)

    br = albr.bracket(v1, v2, h=h)
    want = varpi(g, br, chi)
    want += eta(g, v1.v(g), v2.v(g), chi.v(g))
    want += lie_derivative(alpha2, v1, h=h)(g, chi)
    want -= contract(exterior_derivative(alpha1, h=h), v2)(g, chi)
    return abs(got - want)


def _plus(f1, f2):
    return AlgebroidForm(f1.algebra, f1.degree,
                         lambda g, *ss: f1(g, *ss) + f2(g, *ss))
