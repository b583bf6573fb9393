"""Matrix Lie group / Lie algebra core.

Everything downstream works over a finite-dimensional matrix Lie algebra g
given by a basis of n x n real matrices, structure constants c[i,j,k] with
[e_i, e_j] = sum_k c[i,j,k] e_k, and an Ad-invariant symmetric bilinear
form B (possibly degenerate).  Group elements are plain numpy matrices;
algebra elements are coefficient vectors in the chosen basis.

Complex groups (su(2)) are handled through a fixed real encoding
a + ib -> [[a, -b], [b, a]] so that all numerics stay real.

Group points may carry leading point axes (shape point_axes + (n, n)), and
so may the directions of a Richardson stencil.  A stencil over the group is
the stack exp(s V) g, s in stencil_steps(h), on a new axis 0, where h is
the group's `fd_step` (make_group's argument, FD_STEP by default, which
--fd-step sets; validate_fd_step holds it to FD_STEP_RANGE).
`stencil_derivative`, the one derivative over the group and over a slot of
G x G (fusion.Slot shares its body), calls its function once on the whole
stencil stack and combines the four values with `_derivative`, the one
Richardson combination of every base.  Sections, scalars and forms there
compute each member of a batch as it would be alone, so `directional`, one
call per stencil point, is the bit-identical per-point reference.  The
conjugacy class (qham) is the one base evaluated point by point: its chart,
push and generator solve take one sphere point at a time.  `per_point`
maps a function of one point over a stack (the group log; the Bott
integrals, see `bott._upsilon_core`).

A PointMemo keeps a function's values per argument, least recently used
first out past _MEMO_SIZE (256) entries, as read-only copies; a hit is
bit-identical to the unmemoised call.  Each LieAlgebra keeps two: `inv`
(the group inverse behind `Ad` and `Ad_operator`) and `step_exponentials`
(the exponentials of a stencil's steps).

A catalog group's factory declares what sets the group apart: its basis,
the form B, the membership residual, the log map and any invariant
polynomial beyond the quadratic one, which every LieAlgebra builds itself
(`polynomials`, by degree).  Whether the Cartan 3-form vanishes
identically (`eta_vanishes`) follows from c and B.  Nothing reads a
group's name to choose its mathematics.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

__all__ = [
    "LieAlgebra",
    "InvariantPolynomial",
    "expm",
    "richardson",
    "stencil_steps",
    "per_point",
    "make_group",
    "validate_fd_step",
    "GROUP_NAMES",
]

_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)

FD_STEP = 1e-4            # the Richardson step over the group unless make_group is given another
FD_STEP_RANGE = (2e-5, 3e-3)   # the steps at which every check passed at its default tolerance
_MEMO_SIZE = 256
_GROUP_TOLERANCE = 1e-9   # the largest membership residual of a sampled group point
_CHECK_SAMPLES = 4        # random arguments on which an InvariantPolynomial is spot-checked


def richardson(values, h):
    """(4 D_h - D_2h) / 3 from a function's values at stencil_steps(h),
    stacked on axis 0, where D_s = (f(s) - f(-s)) / 2s is the central
    difference of the step s."""
    f = np.asarray(values, dtype=float)
    return (4.0 * ((f[0] - f[1]) / (2.0 * h))
            - (f[2] - f[3]) / (2.0 * (2.0 * h))) / 3.0


def _derivative(values, h):
    """richardson of stacked stencil values; a float for a scalar function."""
    out = richardson(values, h)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite directional derivative")
    if out.ndim == 0:
        return float(out)
    return out


def stencil_steps(h):
    """The steps of a Richardson stencil, in the order its points are kept."""
    return (h, -h, 2.0 * h, -2.0 * h)


def per_point(fn, g):
    """fn at each point of a stack g (shape point_axes + (n, n)), one point at
    a time, with the values stacked back over the point axes."""
    g = np.asarray(g, dtype=float)
    values = np.array([fn(point) for point in g.reshape((-1,) + g.shape[-2:])])
    return values.reshape(g.shape[:-2] + values.shape[1:])


def _memo_key(arg):
    """An int, or an object that is not an array of numbers (a section), keys
    as itself; anything else by the shape and bytes of its float array."""
    if isinstance(arg, int):
        return arg
    arr = np.asarray(arg)
    if arr.dtype == object:
        return arg
    arr = np.asarray(arr, dtype=float)
    return arr.shape, arr.tobytes()


def _frozen_copy(value):
    if isinstance(value, tuple):
        return tuple(_frozen_copy(v) for v in value)
    if isinstance(value, np.generic):
        return value
    out = np.array(value, dtype=float)
    out.setflags(write=False)
    return out


class PointMemo:
    """fn memoised per point, least recently used first out past _MEMO_SIZE.

    The key holds each argument as _memo_key gives it (so 0.5 and [0.5]
    differ); a value (an array or a tuple of arrays) is kept as a read-only
    copy of what fn returned on the first miss, a numpy scalar as it is.
    """

    def __init__(self, fn):
        self.fn = fn
        self.entries = OrderedDict()

    def __call__(self, *args):
        key = tuple(_memo_key(a) for a in args)
        value = self.entries.get(key)
        if value is None:
            value = self.entries[key] = _frozen_copy(self.fn(*args))
            if len(self.entries) > _MEMO_SIZE:
                self.entries.popitem(last=False)
        else:
            self.entries.move_to_end(key)
        return value


def _squarings(norm):
    """Squarings that bring a 1-norm down to at most 0.5."""
    if norm > 0.5:
        return max(0, int(math.ceil(math.log2(norm / 0.5))))
    return 0


def _pade13(a):
    """The [13/13] Pade approximant of exp(a), over any leading batch axes."""
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    b = _PADE13
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    return np.linalg.solve(v - u, v + u)


def expm(a):
    """Matrix exponential by scaling-and-squaring with a [13/13] Pade approximant.

    Leading axes are a batch.  Each member is scaled by its own 1-norm and
    squared its own number of times, so it is computed exactly as it would
    be alone: expm(a)[i] equals expm(a[i]) bit for bit.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim > 2:
        return _expm_batch(a)
    squarings = _squarings(np.abs(a).sum(axis=-2).max())
    if squarings:
        a = a / (2.0 ** squarings)
    r = _pade13(a)
    for _ in range(squarings):
        r = r @ r
    return r


def _expm_batch(a):
    flat = a.reshape((-1,) + a.shape[-2:])
    norms = np.abs(flat).sum(axis=-2).max(axis=-1)
    squarings = np.array([_squarings(norm) for norm in norms.tolist()], dtype=int)
    r = _pade13(flat / (2.0 ** squarings)[:, None, None])
    for k in range(squarings.max(initial=0)):
        todo = np.flatnonzero(squarings > k)
        if len(todo) == len(r):
            r = r @ r
        else:
            sub = r[todo]
            r[todo] = sub @ sub
    return r.reshape(a.shape)


def validate_fd_step(fd_step):
    """Refuse, with ValueError, a Richardson step outside FD_STEP_RANGE or not
    finite: above the range Richardson truncation, below it round-off nears
    the tolerance ladder (and a step of 0 divides 0 by 0)."""
    low, high = FD_STEP_RANGE
    if not low <= fd_step <= high:
        raise ValueError(f"fd_step must lie in [{low:g}, {high:g}], not {fd_step!r}")


class LieAlgebra:
    """A matrix Lie algebra with basis, structure constants and bilinear form.

    Construction validates, to near machine precision:
      * antisymmetry and the Jacobi identity of the structure constants,
      * that the basis matrices realize the structure constants,
      * Ad-invariance of the bilinear form over all basis triples.
    """

    def __init__(self, name, basis, structure_constants, bilinear_form,
                 membership, log_map, fd_step=FD_STEP):
        validate_fd_step(fd_step)
        self.name = name
        self.fd_step = fd_step     # the step of every Richardson derivative over the group
        self.basis = np.asarray(basis, dtype=float)
        self.dim = self.basis.shape[0]
        self.matrix_size = self.basis.shape[1]
        self.c = np.asarray(structure_constants, dtype=float)
        self.B = np.asarray(bilinear_form, dtype=float)
        self._membership = membership
        self._log_map = log_map
        # g^{-1}, behind Ad, Ad_operator and the callers that invert points
        self.inv = PointMemo(lambda g: np.linalg.inv(g))
        # expm(s V) for s in stencil_steps(h), stacked on a new axis 0: one
        # expm per step over all leading axes of the direction matrices V
        self.step_exponentials = PointMemo(
            lambda vm, h: np.stack([expm(step * vm) for step in stencil_steps(h)]))

        flat = self.basis.reshape(self.dim, -1).T      # (n*n, dim)
        self._flat_basis = flat
        gram = flat.T @ flat
        if np.linalg.matrix_rank(gram) < self.dim:
            raise ValueError("basis matrices are not linearly independent")
        self._proj = np.linalg.solve(gram, flat.T)     # coefficients = proj @ vec(M)

        self.nondegenerate = abs(np.linalg.det(self.B)) > 1e-12
        self._validate()
        # B([e_i, e_j], e_k) = 0 exactly: the Cartan 3-form eta is identically 0
        self.eta_vanishes = not np.any(np.einsum("ijm,mk->ijk", self.c, self.B))
        # the invariant polynomials by degree: (1/2) B here, any other the factory's
        self.polynomials = {2: InvariantPolynomial(
            self, 2, lambda x, y: 0.5 * self.pairing(x, y), name="half-square")}

    # -- construction checks -------------------------------------------------

    def _validate(self):
        c, n = self.c, self.dim
        if np.max(np.abs(c + np.transpose(c, (1, 0, 2)))) > 1e-12:
            raise ValueError("structure constants are not antisymmetric")
        # Jacobi: sum_m c[i,j,m] c[m,k,l] + cyclic = 0
        jac = (np.einsum("ijm,mkl->ijkl", c, c)
               + np.einsum("jkm,mil->ijkl", c, c)
               + np.einsum("kim,mjl->ijkl", c, c))
        if np.max(np.abs(jac)) > 1e-12:
            raise ValueError("structure constants violate the Jacobi identity")
        for i in range(n):
            for j in range(n):
                comm = self.basis[i] @ self.basis[j] - self.basis[j] @ self.basis[i]
                rebuilt = np.einsum("k,kab->ab", c[i, j], self.basis)
                if np.max(np.abs(comm - rebuilt)) > 1e-10:
                    raise ValueError("basis matrices do not realize the structure constants")
        # invariance: B([e_i,e_j], e_k) + B(e_j, [e_i,e_k]) = 0
        inv = (np.einsum("ijm,mk->ijk", c, self.B)
               + np.einsum("ikm,jm->ijk", c, self.B))
        if np.max(np.abs(inv)) > 1e-12:
            raise ValueError("bilinear form is not Ad-invariant")

    # -- algebra arithmetic --------------------------------------------------

    def bracket(self, x, y):
        """[x, y] in basis coefficients, over any leading batch axes."""
        return np.einsum("ijk,...i,...j->...k", self.c, x, y)

    def pairing(self, x, y):
        """B(x, y): a float, or an array over the leading batch axes."""
        out = (np.asarray(x) @ self.B)[..., None, :] @ np.asarray(y)[..., :, None]
        out = out[..., 0, 0]
        return float(out) if out.ndim == 0 else out

    def ad_matrix(self, x):
        """Matrix of ad_x acting on coefficients: (ad x) y = [x, y]."""
        return np.einsum("i,ijk->kj", x, self.c)

    def to_matrix(self, x):
        return np.einsum("...i,iab->...ab", np.asarray(x, dtype=float), self.basis)

    def from_matrix(self, m):
        """Coefficients of the best basis fit to m (exact when m lies in the span)."""
        m = np.asarray(m, dtype=float)
        return (self._proj @ m.reshape(m.shape[:-2] + (-1, 1)))[..., 0]

    # -- group operations ----------------------------------------------------

    def exp(self, x):
        """Group element exp(x) for algebra coefficients x."""
        return expm(self.to_matrix(x))

    def identity(self):
        return np.eye(self.matrix_size)

    def push_stencil(self, points, ginv, h):
        """theta^R of the velocity at s = 0 of a curve through g = ginv^{-1},
        from its points at stencil_steps(h) on axis -3 of `points`.

        (4 d1 - d2) / 3 with d1 = (at(h) - at(-h)) ginv / 2h and
        d2 = (at(2h) - at(-2h)) ginv / 4h, over any leading batch axes.
        """
        d1 = (points[..., 0, :, :] - points[..., 1, :, :]) @ ginv / (2.0 * h)
        d2 = (points[..., 2, :, :] - points[..., 3, :, :]) @ ginv / (4.0 * h)
        return self.from_matrix((4.0 * d1 - d2) / 3.0)

    def Ad(self, g, x):
        """Ad_g x = g X g^{-1} in basis coefficients, over any batch axes of x."""
        m = g @ self.to_matrix(x) @ self.inv(g)
        return self.from_matrix(m)

    def Ad_operator(self, g):
        """The dim x dim matrix of Ad_g on coefficients."""
        ginv = self.inv(g)
        cols = [self._proj @ (g @ self.basis[i] @ ginv).ravel() for i in range(self.dim)]
        return np.array(cols).T

    def membership_residual(self, g):
        return self._membership(g)

    def log(self, g):
        """The inverse of exp by the group's log map, point by point over any
        leading point axes of g."""
        if np.ndim(g) > 2:
            return per_point(lambda point: self._log_map(self, point), g)
        return self._log_map(self, g)

    # -- calculus on the group -----------------------------------------------

    def stencil(self, g, v, h):
        """The Richardson stencil of g along v: exp(s v) g for s in
        stencil_steps(h), shape (4,) + point axes + (n, n).  v carries the
        point axes of g, or none (the same direction at every point)."""
        steps = self.step_exponentials(self.to_matrix(v), h)
        missing = np.ndim(g) - steps.ndim + 1
        if missing > 0:
            steps = steps.reshape(steps.shape[:1] + (1,) * missing + steps.shape[1:])
        return steps @ g

    def directional(self, func, g, v):
        """Derivative of func along the right-trivialized direction v at g.

        Richardson-extrapolated central difference (4 D_h - D_2h)/3 over the
        curve s -> exp(s v) g, at h = fd_step.  func is called once per
        stencil point, with the point axes of g, and may return scalars or
        arrays: the per-point reference of stencil_derivative.
        """
        h = self.fd_step
        return _derivative([func(point) for point in self.stencil(g, v, h)], h)

    def stencil_derivative(self, func, g, v):
        """The derivative `directional` computes, from one call of func on the
        whole stencil of the base (the group, or a slot of G x G).

        func must take the stencil's point axes, (4,) + point axes of g, and
        return them first, each member as it would be computed alone (every
        section over the group does, see sections), so the result is
        bit-identical to point-by-point evaluation.
        """
        h = self.fd_step
        points = self.stencil(g, v, h)
        lead = self.point_axes(points)
        values = np.asarray(func(points), dtype=float)
        if values.shape[:len(lead)] != lead:
            raise ValueError(f"a function of stencil points {lead} returned "
                             f"shape {values.shape}; it must keep the point axes first")
        return _derivative(values, h)

    # -- the group as a base of sections (Phi = identity) --------------------

    def point(self, g):
        return g

    def point_axes(self, g):
        """The leading point axes of a group point or stack of them."""
        return np.shape(g)[:-2]

    def push_tangent(self, g, u):
        return u

    def generator_field(self, x, g):
        """x_G(g) = Ad_g x - x: the generator of conjugation in theta^R."""
        return self.Ad(g, x) - x

    def frame_bracket(self, u, w):
        """theta^R([U, W]) = -[u, w] of the constant right-trivialized frames."""
        return -self.bracket(u, w)

    def maurer_cartan(self, g, v, side):
        """Value of the Maurer-Cartan form on the tangent vector with theta^R = v."""
        if side == "right":
            return np.asarray(v, dtype=float)
        if side == "left":
            return self.Ad(self.inv(g), v)
        raise ValueError("side must be 'left' or 'right'")

    # -- sampling -------------------------------------------------------------

    def random_vector(self, rng, scale=1.0):
        return scale * rng.standard_normal(self.dim)

    def random_group(self, rng, scale=0.7):
        g = self.exp(self.random_vector(rng, scale))
        res = self.membership_residual(g)
        if res > _GROUP_TOLERANCE:
            raise ValueError(f"sampled group point fails membership: {res:g}")
        return g


class InvariantPolynomial:
    """A fully symmetric multilinear form p(x_1, ..., x_m) invariant under Ad.

    The polarized evaluator takes m coefficient vectors, each with optional
    leading batch axes; p(x) means the diagonal value p(x, ..., x).  A call
    returns a float for single vectors and an array over the batch axes
    otherwise, as `pairing` does.  Invariance is spot-checked at construction.
    """

    def __init__(self, algebra, degree, evaluator, name="p"):
        self.algebra = algebra
        self.degree = degree
        self._eval = evaluator
        self.name = name
        rng = np.random.default_rng(20_240_117)
        for _ in range(_CHECK_SAMPLES):
            xs = [algebra.random_vector(rng) for _ in range(degree)]
            perm = rng.permutation(degree)
            a = self(*xs)
            b = self(*[xs[i] for i in perm])
            if abs(a - b) > 1e-10 * max(1.0, abs(a)):
                raise ValueError("polynomial evaluator is not symmetric")
            g = algebra.random_group(rng)
            c = self(*[algebra.Ad(g, x) for x in xs])
            if abs(a - c) > 1e-8 * max(1.0, abs(a)):
                raise ValueError("polynomial evaluator is not Ad-invariant")

    def __call__(self, *xs):
        if len(xs) != self.degree:
            raise ValueError(f"expected {self.degree} arguments, got {len(xs)}")
        out = np.asarray(self._eval(*xs))
        return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# group catalog
# ---------------------------------------------------------------------------

def _complex_encode(m):
    """2n x 2n real encoding of a complex n x n matrix."""
    a, b = m.real, m.imag
    top = np.hstack([a, -b])
    bot = np.hstack([b, a])
    return np.vstack([top, bot])


def _orthogonal_membership(g):
    return float(np.linalg.norm(g.T @ g - np.eye(g.shape[0])))


def _su2_membership(g):
    n = g.shape[0] // 2
    j = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    return _orthogonal_membership(g) + float(np.linalg.norm(g @ j - j @ g))


def _heis_membership(g):
    res = abs(g[1, 0]) + abs(g[2, 0]) + abs(g[2, 1])
    res += abs(g[0, 0] - 1) + abs(g[1, 1] - 1) + abs(g[2, 2] - 1)
    return float(res)


def _heis_log(alg, g):
    n = g - np.eye(3)
    return alg.from_matrix(n - 0.5 * (n @ n))


def _angle_log(alg, g, angle_of):
    """w t / |w| for the basis projection w of g and its rotation angle
    t = angle_of(|w|, tr g)."""
    w = alg.from_matrix(g)
    nw = np.linalg.norm(w)
    t = angle_of(nw, np.trace(g))
    if nw < 1e-12:
        return np.zeros(alg.dim)
    return w * (t / nw)


def _su2_log(alg, g):
    # g = cos(t/2) I + sum w_k e_k with |w| = 2 sin(t/2), and the trace of
    # the real encoding is 4 cos(t/2)
    return _angle_log(alg, g, lambda nw, tr: 2.0 * math.atan2(nw / 2.0, tr / 4.0))


def _so3_log(alg, g):
    # the skew part of g has coefficients sin(t) w / |w|, and tr g = 1 + 2 cos(t)
    return _angle_log(alg, g, lambda nw, tr: math.atan2(nw, (tr - 1.0) / 2.0))


def _torus_log(alg, g):
    a = math.atan2(g[1, 0], g[0, 0])
    b = math.atan2(g[3, 2], g[2, 2])
    return np.array([a, b])


def _standard_structure_constants(basis):
    basis = np.asarray(basis, dtype=float)
    dim = basis.shape[0]
    flat = basis.reshape(dim, -1).T
    proj = np.linalg.solve(flat.T @ flat, flat.T)
    c = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            c[i, j] = proj @ comm.ravel()
    return c


def _make_su2(fd_step):
    sigma = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    basis = np.array([_complex_encode(-0.5j * s) for s in sigma])
    c = _standard_structure_constants(basis)
    return LieAlgebra("su2", basis, c, np.eye(3),
                      membership=_su2_membership, log_map=_su2_log, fd_step=fd_step)


def _make_so3(fd_step):
    basis = np.zeros((3, 3, 3))
    eps = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
           (1, 0, 2): -1.0, (2, 1, 0): -1.0, (0, 2, 1): -1.0}
    for (i, j, k), s in eps.items():
        basis[i, j, k] = -s
    c = _standard_structure_constants(basis)
    return LieAlgebra("so3", basis, c, np.eye(3),
                      membership=_orthogonal_membership, log_map=_so3_log, fd_step=fd_step)


def _make_heisenberg3(fd_step):
    x = np.zeros((3, 3)); x[0, 1] = 1.0
    y = np.zeros((3, 3)); y[1, 2] = 1.0
    z = np.zeros((3, 3)); z[0, 2] = 1.0
    basis = np.array([x, y, z])
    c = _standard_structure_constants(basis)
    # Invariance forces the center into the radical of any invariant form;
    # pair the X,Y plane and leave Z isotropic (degenerate, flagged).
    b = np.diag([1.0, 1.0, 0.0])
    alg = LieAlgebra("heisenberg3", basis, c, b,
                     membership=_heis_membership, log_map=_heis_log, fd_step=fd_step)
    # Ad fixes the two non-central coefficients, so their products are invariant
    alg.polynomials[3] = InvariantPolynomial(
        alg, 3, lambda x, y, z: x[..., 0] * y[..., 0] * z[..., 0], name="x-coeff cubed")
    return alg


def _make_torus2(fd_step):
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    e1 = np.zeros((4, 4)); e1[:2, :2] = j
    e2 = np.zeros((4, 4)); e2[2:, 2:] = j
    basis = np.array([e1, e2])
    c = np.zeros((2, 2, 2))
    return LieAlgebra("torus2", basis, c, np.eye(2),
                      membership=_orthogonal_membership, log_map=_torus_log, fd_step=fd_step)


_FACTORIES = {
    "su2": _make_su2,
    "so3": _make_so3,
    "heisenberg3": _make_heisenberg3,
    "torus2": _make_torus2,
}

GROUP_NAMES = tuple(sorted(_FACTORIES))


def make_group(name, fd_step=FD_STEP):
    """Build a catalog group by name (su2, so3, heisenberg3 or torus2) whose
    Richardson derivatives take the step fd_step."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown group {name!r}; choose from {GROUP_NAMES}") from None
    return factory(fd_step)
