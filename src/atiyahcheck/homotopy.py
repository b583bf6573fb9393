"""Radial homotopy primitives for closed forms, in exponential coordinates.

For a group with a global (or sampled-region) log, a de Rham k-form on G is
pulled back to the star-shaped chart x = log g and fed to the standard
radial homotopy operator

    (h mu)_x(u_1..u_{k-1}) = int_0^1 s^{k-1} mu_{s x}(x, u_1, .., u_{k-1}) ds,

which satisfies d(h mu) + h(d mu) = mu, so h mu is a primitive of closed mu.
The radial integral uses Gauss-Legendre nodes.

A chart tangent u at y pushes forward to theta^R(d exp_y(u)), a Richardson
stencil of exp(y + s u) exp(y)^{-1}.  One evaluation of a primitive
exponentiates the chart basis stencils at x in one batched expm, and every
radial node s x with the stencils of all its tangents in a second one; the
group points of the nodes are inverted in one batch too.  The form is then
evaluated once, on all radial nodes as one batch, and the radial sum taken
in node order.
"""

from __future__ import annotations

import numpy as np

from .bott import _gl01
from .forms import AlgebroidForm
from .liealg import stencil_steps

__all__ = ["poincare_primitive"]


def _chart_pushes(alg, ys, us, h):
    """exp(y) and theta^R(d exp_y(u)) for every chart point y (a row of ys)
    and every tangent u (a row of us), from one batched exponential.

    Returns the group points, shape (len(ys), n, n), and the pushed
    tangents, shape (len(ys), len(us), dim).
    """
    steps = np.array(stencil_steps(h))
    moved = ys[:, None, None, :] + steps[:, None] * us[:, None, :]
    points = np.concatenate([ys[:, None, :], moved.reshape(len(ys), -1, alg.dim)], axis=1)
    mats = alg.exp(points)
    gs = mats[:, 0]
    ginv = np.linalg.inv(gs)
    stencils = mats[:, 1:].reshape((len(ys), len(us), 4) + gs.shape[1:])
    return gs, alg.push_stencil(stencils, ginv[:, None], h)


def poincare_primitive(omega, sign=1.0, n_radial=24, h=1e-4):
    """A de Rham primitive of a closed form: d(result) = sign * omega.

    The result is evaluated back on the group: tangents are mapped to chart
    coordinates with the inverse exp differential (solved numerically from
    the forward pushforward on the chart basis).

    omega must take a leading batch axis on its point and its tangents: it is
    called once per evaluation, on the n_radial node points (n_radial, n, n)
    and the pushed tangents (n_radial, dim) each, and must return the
    n_radial values, each as it would be computed alone.
    """
    alg = omega.algebra
    k = omega.degree
    nodes, weights = _gl01(n_radial)
    chart_basis = np.eye(alg.dim)

    def evaluator(g, *vs):
        x = np.asarray(alg.log(g), dtype=float)
        # forward map of the chart basis, then invert to carry theta^R data back
        _, cols = _chart_pushes(alg, x[None], chart_basis, h)
        back = np.linalg.inv(cols[0].T)
        tangents = np.array([x] + [back @ v for v in vs])
        gs, pushed = _chart_pushes(alg, nodes[:, None] * x, tangents, h)
        values = omega(gs, *np.moveaxis(pushed, 1, 0))
        if np.shape(values) != nodes.shape:
            raise ValueError(f"{omega.name or 'omega'} gave shape {np.shape(values)} on "
                             f"{len(nodes)} radial nodes; it must take a leading batch axis")
        total = 0.0
        for s, w, value in zip(nodes, weights, values.tolist()):
            total += w * (s ** (k - 1)) * value
        return sign * total

    return AlgebroidForm(alg, k - 1, evaluator, name=f"primitive({omega.name})")
