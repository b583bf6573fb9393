"""Exterior calculus on forms over a base of sections.

A k-form is an evaluator on a base point m and k arguments, scalar- or
g-valued with the trivial coefficient action.  The arguments are sections
(algebroid forms, over the group, a conjugacy class or a slot of G x G),
tangents in a base's constant frames (de Rham forms; on G,
right-trivialized coefficients) or any other tangents a caller supplies.
The Koszul/Cartan differential is written once, in `koszul`; the caller
supplies the derivative along an argument and the bracket of two
arguments.  On sections that is the base's own
derivative along the tangent field and the algebroid bracket
(`exterior_derivative`); in a base's constant frames it is the base's
`stencil_derivative` and `frame_bracket` (`de_rham_differential`: over
the group theta^R([X, Y]) = -[v, w], over a slot of G x G the same row by
row, as fusion.mult_eta_residual uses it).  Either way each derivative
takes its base's step fd_step (see sections); no differential takes one.

A form on G or on a slot of G x G, de Rham or algebroid, takes leading
point axes on its point (and on any tangent that carries them) and
returns one value per point, each as it would be computed alone, so each
derivative term of its differential is one call of the form on the whole
Richardson stencil: the base's `stencil_derivative`, in
`de_rham_differential` and, along the argument sections, in
`exterior_derivative`.  A form that drops its point axes makes that call
raise ValueError.  The Bott integrals map themselves over the point axes
(`bott._upsilon_core`); the conjugacy class is the one base evaluated
point by point (see liealg).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import algebroid as albr

__all__ = [
    "AlgebroidForm",
    "contract",
    "koszul",
    "along_sections",
    "exterior_derivative",
    "lie_derivative",
    "de_rham_differential",
    "pullback_anchor",
    "cartan_three_form",
    "equivariant_cartan",
]


class AlgebroidForm:
    """Degree-k multilinear alternating evaluator on k arguments at a base point.

    A form whose value at one point is 0-d returns it as a float; a
    g-valued form returns its array.  Over the group the
    evaluator must take leading point axes on its point and arguments and
    return them first, one value per point; a form that drops them makes
    `exterior_derivative` (through `stencil_derivative`) raise ValueError.
    """

    def __init__(self, algebra, degree, evaluator, name=""):
        self.algebra = algebra
        self.degree = degree
        self._eval = evaluator
        self.name = name

    def __call__(self, m, *args):
        if len(args) != self.degree:
            raise ValueError(f"form of degree {self.degree} got {len(args)} arguments")
        val = np.asarray(self._eval(m, *args), dtype=float)
        return float(val) if val.ndim == 0 else val


def contract(form, section):
    """First-slot insertion; degree drops by one."""
    if form.degree < 1:
        raise ValueError("cannot contract a 0-form")

    def evaluator(g, *rest):
        return form(g, section, *rest)

    return AlgebroidForm(form.algebra, form.degree - 1, evaluator,
                         name=f"i_{section.name}({form.name})")


def koszul(form, derivative, bracket):
    """The Koszul differential of a k-form:

    d w(a_0..a_k) = sum_i (-1)^i D_{a_i} w(.. a_i omitted ..)
                  + sum_{i<j} (-1)^{i+j} w(bracket(a_i, a_j), .. both omitted ..),

    where derivative(f, m, a) is D_a f at m for a function f of base points.
    """
    k = form.degree

    def evaluator(m, *args):
        total = 0.0
        for i in range(k + 1):
            rest = args[:i] + args[i + 1:]
            dval = derivative(lambda mm: form(mm, *rest), m, args[i])
            total = total + ((-1) ** i) * dval
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                rest = tuple(a for n, a in enumerate(args) if n != i and n != j)
                total = total + ((-1) ** (i + j)) * form(m, bracket(args[i], args[j]), *rest)
        return total

    return AlgebroidForm(form.algebra, k + 1, evaluator, name=f"d({form.name})")


def along_sections(f, m, section):
    """D_xi f at m: the base's `stencil_derivative` of f along the section's
    tangent field (on the group, its anchor)."""
    return section.base.stencil_derivative(f, m, section.xfield(m))


def exterior_derivative(form):
    """The algebroid differential of a form on sections over any one base; the
    derivatives and the brackets both take the base's step."""
    return koszul(form, along_sections, albr.bracket)


def lie_derivative(form, section):
    """L_xi = i_xi d + d i_xi (Cartan's identity)."""
    term1 = contract(exterior_derivative(form), section)
    if form.degree >= 1:
        term2 = exterior_derivative(contract(form, section))

        def evaluator(g, *secs):
            return term1(g, *secs) + term2(g, *secs)
    else:
        def evaluator(g, *secs):
            return term1(g, *secs)

    return AlgebroidForm(form.algebra, form.degree, evaluator,
                         name=f"L_{section.name}({form.name})")


def de_rham_differential(omega, base=None):
    """The de Rham differential of a form on a base (default the group) in its
    constant frames, whose bracket is the base's frame_bracket (over the
    group theta^R([X, Y]) = -[v, w]).

    Each derivative term is one `stencil_derivative` call of the base.  Over
    the group or a slot that calls omega once, on the whole stencil, so
    omega must take leading point axes and return them first; the
    differential then takes point axes in turn, bit-identical to
    differentiating omega point by point.
    """
    base = omega.algebra if base is None else base
    return koszul(omega, base.stencil_derivative, base.frame_bracket)


def pullback_anchor(omega):
    """a*: evaluate a de Rham form of degree >= 1 at Phi(m) on the anchor data
    of the argument sections, which share the base of Phi."""
    alg = omega.algebra

    def evaluator(m, *secs):
        return omega(secs[0].base.point(m), *[s.v(m) for s in secs])

    return AlgebroidForm(alg, omega.degree, evaluator, name=f"a*({omega.name})")


def cartan_three_form(algebra):
    """eta = (1/12) theta^L . [theta^L, theta^L], by full antisymmetrization.

    eta(v1, v2, v3) = (1/12) sum over permutations of sign * B(u_p1, [u_p2, u_p3])
    with u_i = Ad_{g^{-1}} v_i.  The point and the tangents may carry the
    same leading batch axes, or a tangent none (the same vector at every
    point); every member is computed as it would be alone.
    """
    perms = list(itertools.permutations(range(3)))
    signs = [_perm_sign(perm) for perm in perms]
    first, second, third = np.array(perms).T

    def evaluator(g, v1, v2, v3):
        lead = algebra.point_axes(g)
        us = algebra.Ad(algebra.inv(g), np.stack(
            [np.broadcast_to(v, lead + (algebra.dim,)) for v in (v1, v2, v3)]))
        terms = algebra.pairing(us[first], algebra.bracket(us[second], us[third]))
        total = 0.0
        for sign, term in zip(signs, terms):
            total += sign * term
        return total / 12.0

    return AlgebroidForm(algebra, 3, evaluator, name="eta")


def equivariant_cartan(algebra, x):
    """eta_G(x) = eta - (1/2)(theta^L + theta^R) . x as graded de Rham parts."""
    x = np.asarray(x, dtype=float)

    def deg1(g, v):
        ginv = algebra.inv(g)
        return -0.5 * algebra.pairing(algebra.Ad(ginv, v) + v, x)

    return {
        3: cartan_three_form(algebra),
        1: AlgebroidForm(algebra, 1, deg1, name="eta_G deg-1"),
    }


def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign
