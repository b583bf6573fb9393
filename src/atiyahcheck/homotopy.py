"""Radial homotopy primitives for closed forms, in exponential coordinates.

For a group with a global (or sampled-region) log, a de Rham k-form on G is
pulled back to the star-shaped chart x = log g and fed to the standard
radial homotopy operator

    (h mu)_x(u_1..u_{k-1}) = int_0^1 s^{k-1} mu_{s x}(x, u_1, .., u_{k-1}) ds,

which satisfies d(h mu) + h(d mu) = mu, so h mu is a primitive of closed mu.
The radial integral uses _N_RADIAL (24) Gauss-Legendre nodes.

A chart tangent u at y pushes forward to theta^R(d exp_y(u)), a Richardson
stencil of exp(y + s u) exp(y)^{-1} at the group's fd_step.  One
evaluation of a primitive exponentiates the chart basis stencils at x in
one batched expm, and every radial node s x with the stencils of all its
tangents in a second one; the group points of the nodes are inverted in
one batch too.  The form is then evaluated once, on all radial nodes as
one batch, and the radial sum taken in node order.  A primitive takes
leading point axes on its point and tangents: the points ride along as
further batch axes of both expm calls, every inversion and the one form
call, and the radial sum is taken per point, so each point's value is
bit-identical to evaluating it alone.
"""

from __future__ import annotations

import numpy as np

from .bott import _gl01
from .forms import AlgebroidForm
from .liealg import stencil_steps

__all__ = ["poincare_primitive"]

_N_RADIAL = 24   # Gauss-Legendre nodes of the radial integral


def _chart_pushes(alg, ys, us):
    """exp(y) and theta^R(d exp_y(u)) for chart points ys, shape lead + (dim,),
    and tangents us, shape broadcasting to lead + (K, dim), from one batched
    exponential.

    Returns the group points, shape lead + (n, n), and the pushed tangents,
    shape lead + (K, dim).
    """
    steps = np.array(stencil_steps(alg.fd_step))
    moved = ys[..., None, None, :] + steps[:, None] * us[..., :, None, :]
    lead = moved.shape[:-3]
    ys = np.broadcast_to(ys, lead + ys.shape[-1:])
    points = np.concatenate([ys[..., None, :], moved.reshape(lead + (-1, alg.dim))],
                            axis=-2)
    mats = alg.exp(points)
    gs = mats[..., 0, :, :]
    ginv = np.linalg.inv(gs)
    stencils = mats[..., 1:, :, :].reshape(lead + (us.shape[-2], 4) + gs.shape[-2:])
    return gs, alg.push_stencil(stencils, ginv[..., None, :, :], alg.fd_step)


def poincare_primitive(omega, sign=1.0):
    """A de Rham primitive of a closed form: d(result) = sign * omega.

    The result is evaluated back on the group: tangents are mapped to chart
    coordinates with the inverse exp differential (solved numerically from
    the forward pushforward on the chart basis).  It takes leading point
    axes on its point g (and on any tangent that carries them) and returns
    one value per point, so it is itself a de Rham form that
    `forms.de_rham_differential` and the lifted bracket can evaluate on a
    whole stencil.

    omega must take leading batch axes on its point and its tangents: it is
    called once per evaluation, on the node points, shape point axes +
    (_N_RADIAL, n, n), and the pushed tangents, point axes + (_N_RADIAL, dim)
    each, and must return the point axes + (_N_RADIAL,) values, each as it
    would be computed alone.
    """
    alg = omega.algebra
    k = omega.degree
    nodes, weights = _gl01(_N_RADIAL)
    chart_basis = np.eye(alg.dim)

    def evaluator(g, *vs):
        lead = alg.point_axes(g)
        x = np.asarray(alg.log(g), dtype=float)
        # forward map of the chart basis, then invert to carry theta^R data back
        _, cols = _chart_pushes(alg, x, chart_basis)
        back = np.linalg.inv(np.swapaxes(cols, -1, -2))
        tangents = np.stack([x] + [(back @ np.asarray(v)[..., None])[..., 0] for v in vs],
                            axis=-2)
        gs, pushed = _chart_pushes(alg, nodes[:, None] * x[..., None, :],
                                   tangents[..., None, :, :])
        values = omega(gs, *np.moveaxis(pushed, -2, 0))
        if np.shape(values) != lead + nodes.shape:
            raise ValueError(f"{omega.name or 'omega'} gave shape {np.shape(values)} on "
                             f"{len(nodes)} radial nodes; it must take a leading batch axis")
        total = 0.0
        for s, w, value in zip(nodes, weights, np.moveaxis(values, -1, 0)):
            total += w * (s ** (k - 1)) * value
        return sign * total

    return AlgebroidForm(alg, k - 1, evaluator, name=f"primitive({omega.name})")
