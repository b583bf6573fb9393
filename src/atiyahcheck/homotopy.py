"""Radial homotopy primitives for closed forms, in exponential coordinates.

For a group with a global (or sampled-region) log, a de Rham k-form on G is
pulled back to the star-shaped chart x = log g and fed to the standard
radial homotopy operator

    (h mu)_x(u_1..u_{k-1}) = int_0^1 s^{k-1} mu_{s x}(x, u_1, .., u_{k-1}) ds,

which satisfies d(h mu) + h(d mu) = mu, so h mu is a primitive of closed mu.
The radial integral uses Gauss-Legendre nodes.
"""

from __future__ import annotations

import numpy as np

from .bott import _gl01
from .forms import DeRhamForm

__all__ = ["chart_pullback", "radial_primitive", "poincare_primitive"]


class ChartForm:
    """A k-form on the chart domain in g (coefficients), plain numpy evaluator."""

    def __init__(self, algebra, degree, evaluator):
        self.algebra = algebra
        self.degree = degree
        self._eval = evaluator

    def __call__(self, x, *us):
        return float(self._eval(x, *us))


def _push(alg, x, u, h):
    """theta^R(d exp_x(u)): a Richardson central difference of the curve
    s -> exp(x + s u) exp(x)^{-1}."""
    def at(s):
        return alg.exp(x + s * u)
    ginv = alg.inv(at(0.0))
    d1 = (at(h) - at(-h)) @ ginv / (2.0 * h)
    d2 = (at(2 * h) - at(-2 * h)) @ ginv / (4.0 * h)
    return alg.from_matrix((4.0 * d1 - d2) / 3.0)


def chart_pullback(omega, h=1e-4):
    """Pull a right-trivialized de Rham form back through exp.

    Chart tangents u push forward to theta^R(d exp_x(u)).
    """
    alg = omega.algebra

    def evaluator(x, *us):
        g = alg.exp(x)
        return omega(g, *[_push(alg, x, u, h) for u in us])

    return ChartForm(alg, omega.degree, evaluator)


def radial_primitive(mu, n_radial=24):
    """The radial homotopy h mu of a chart form (a primitive when mu is closed)."""
    nodes, weights = _gl01(n_radial)
    k = mu.degree

    def evaluator(x, *us):
        x = np.asarray(x, dtype=float)
        total = 0.0
        for s, w in zip(nodes, weights):
            total += w * (s ** (k - 1)) * mu(s * x, x, *us)
        return total

    return ChartForm(mu.algebra, k - 1, evaluator)


def poincare_primitive(omega, sign=1.0, n_radial=24, h=1e-4):
    """A de Rham primitive of a closed form: d(result) = sign * omega.

    The result is evaluated back on the group: tangents are mapped to chart
    coordinates with the inverse exp differential (solved numerically from
    the forward pushforward on the chart basis).
    """
    alg = omega.algebra
    prim = radial_primitive(chart_pullback(omega, h=h), n_radial=n_radial)

    def pull_tangent_basis(x):
        # forward map of the chart basis, then invert to carry theta^R data back
        cols = [_push(alg, x, u, h) for u in np.eye(alg.dim)]
        return np.linalg.inv(np.array(cols).T)

    def evaluator(g, *vs):
        x = alg.log(g)
        back = pull_tangent_basis(x)
        us = [back @ v for v in vs]
        return sign * prim(x, *us)

    return DeRhamForm(alg, omega.degree - 1, evaluator,
                      name=f"primitive({omega.name})")
