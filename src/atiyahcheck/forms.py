"""Exterior calculus on algebroid forms and on de Rham forms over the group.

Algebroid k-forms are evaluators on k sections at a group point (scalar- or
g-valued with the trivial coefficient action).  The differential is the
Koszul formula; de Rham forms on G live in right-trivialized constant
frames and use the same Cartan formula with the frame-bracket correction
theta^R([X, Y]) = -[v, w].
"""

from __future__ import annotations

import itertools

import numpy as np

from . import algebroid as albr
from .liealg import LieAlgebra

__all__ = [
    "AlgebroidForm",
    "contract",
    "exterior_derivative",
    "lie_derivative",
    "equivariant_differential",
    "DeRhamForm",
    "de_rham_differential",
    "pullback_anchor",
    "cartan_three_form",
    "equivariant_cartan",
]


class AlgebroidForm:
    """Degree-k multilinear alternating evaluator on sections at a group point."""

    def __init__(self, algebra, degree, evaluator, scalar=True, name=""):
        self.algebra = algebra
        self.degree = degree
        self._eval = evaluator
        self.scalar = scalar
        self.name = name

    def __call__(self, g, *sections):
        if len(sections) != self.degree:
            raise ValueError(f"form of degree {self.degree} got {len(sections)} sections")
        val = self._eval(g, *sections)
        return float(val) if self.scalar else np.asarray(val, dtype=float)

    def zero_like(self):
        return 0.0 if self.scalar else np.zeros(self.algebra.dim)


def contract(form, section):
    """First-slot insertion; degree drops by one."""
    if form.degree < 1:
        raise ValueError("cannot contract a 0-form")

    def evaluator(g, *rest):
        return form(g, section, *rest)

    return AlgebroidForm(form.algebra, form.degree - 1, evaluator,
                         scalar=form.scalar, name=f"i_{section.name}({form.name})")


def exterior_derivative(form, h=1e-4, bracket_h=1e-4):
    """Koszul differential:

    d phi(xi_0..xi_k) = sum_i (-1)^i D_{a(xi_i)} phi(.. xi_i omitted ..)
                      + sum_{i<j} (-1)^{i+j} phi([xi_i, xi_j], .. both omitted ..).
    """
    alg = form.algebra
    k = form.degree

    def evaluator(g, *secs):
        total = form.zero_like()
        for i in range(k + 1):
            rest = secs[:i] + secs[i + 1:]
            direction = secs[i].v(g)
            dval = alg.directional(lambda gg: form(gg, *rest), g, direction, h=h)
            total = total + ((-1) ** i) * dval
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                br = albr.bracket(secs[i], secs[j], h=bracket_h)
                rest = tuple(s for m, s in enumerate(secs) if m != i and m != j)
                total = total + ((-1) ** (i + j)) * form(g, br, *rest)
        return total

    return AlgebroidForm(alg, k + 1, evaluator, scalar=form.scalar,
                         name=f"d({form.name})")


def lie_derivative(form, section, h=1e-4):
    """L_xi = i_xi d + d i_xi (Cartan's identity)."""
    term1 = contract(exterior_derivative(form, h=h), section)
    if form.degree >= 1:
        term2 = exterior_derivative(contract(form, section), h=h)

        def evaluator(g, *secs):
            return term1(g, *secs) + term2(g, *secs)
    else:
        def evaluator(g, *secs):
            return term1(g, *secs)

    return AlgebroidForm(form.algebra, form.degree, evaluator,
                         scalar=form.scalar, name=f"L_{section.name}({form.name})")


def equivariant_differential(form, x, h=1e-4):
    """d_G at a fixed algebra element: (d phi - i_{x_A} phi) as graded parts.

    Returns a dict mapping degree -> AlgebroidForm: degree k+1 carries d phi
    and degree k-1 carries minus the contraction with the action generator.
    """
    alg = form.algebra
    parts = {form.degree + 1: exterior_derivative(form, h=h)}
    if form.degree >= 1:
        xa = albr.generator(alg, x)
        minus = contract(form, xa)

        def evaluator(g, *secs):
            return -minus(g, *secs)

        parts[form.degree - 1] = AlgebroidForm(
            alg, form.degree - 1, evaluator, scalar=form.scalar,
            name=f"-i_xA({form.name})")
    return parts


# ---------------------------------------------------------------------------
# de Rham forms on the group in right-trivialized frames
# ---------------------------------------------------------------------------

class DeRhamForm:
    """A k-form on G evaluated on right-trivialized tangent coefficients."""

    def __init__(self, algebra, degree, evaluator, scalar=True, name=""):
        self.algebra = algebra
        self.degree = degree
        self._eval = evaluator
        self.scalar = scalar
        self.name = name

    def __call__(self, g, *vs):
        if len(vs) != self.degree:
            raise ValueError(f"form of degree {self.degree} got {len(vs)} vectors")
        val = self._eval(g, *vs)
        return float(val) if self.scalar else np.asarray(val, dtype=float)


def de_rham_differential(omega, h=1e-4):
    """Cartan formula for constant right-trivialized frames.

    d w(v_0..v_k) = sum_i (-1)^i D_{v_i} w(.. v_i ..)
                  + sum_{i<j} (-1)^{i+j} w(-[v_i, v_j], ..).
    """
    alg = omega.algebra
    k = omega.degree

    def evaluator(g, *vs):
        total = 0.0 if omega.scalar else np.zeros(alg.dim)
        for i in range(k + 1):
            rest = vs[:i] + vs[i + 1:]
            dval = alg.directional(lambda gg: omega(gg, *rest), g, vs[i], h=h)
            total = total + ((-1) ** i) * dval
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                frame = -alg.bracket(vs[i], vs[j])
                rest = tuple(v for m, v in enumerate(vs) if m != i and m != j)
                total = total + ((-1) ** (i + j)) * omega(g, frame, *rest)
        return total

    return DeRhamForm(alg, k + 1, evaluator, scalar=omega.scalar,
                      name=f"d({omega.name})")


def pullback_anchor(omega):
    """a*: evaluate a de Rham form on the anchors of the argument sections."""
    alg = omega.algebra

    def evaluator(g, *secs):
        return omega(g, *[s.v(g) for s in secs])

    return AlgebroidForm(alg, omega.degree, evaluator, scalar=omega.scalar,
                         name=f"a*({omega.name})")


def cartan_three_form(algebra):
    """eta = (1/12) theta^L . [theta^L, theta^L], by full antisymmetrization.

    eta(v1, v2, v3) = (1/12) sum over permutations of sign * B(u_p1, [u_p2, u_p3])
    with u_i = Ad_{g^{-1}} v_i.
    """

    def evaluator(g, v1, v2, v3):
        ginv = algebra.inv(g)
        us = [algebra.Ad(ginv, v) for v in (v1, v2, v3)]
        total = 0.0
        for perm in itertools.permutations(range(3)):
            sign = _perm_sign(perm)
            total += sign * algebra.pairing(us[perm[0]],
                                            algebra.bracket(us[perm[1]], us[perm[2]]))
        return total / 12.0

    return DeRhamForm(algebra, 3, evaluator, name="eta")


def equivariant_cartan(algebra, x):
    """eta_G(x) = eta - (1/2)(theta^L + theta^R) . x as graded de Rham parts."""
    x = np.asarray(x, dtype=float)

    def deg1(g, v):
        ginv = algebra.inv(g)
        return -0.5 * algebra.pairing(algebra.Ad(ginv, v) + v, x)

    return {
        3: cartan_three_form(algebra),
        1: DeRhamForm(algebra, 1, deg1, name="eta_G deg-1"),
    }


def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign
