"""Matrix Lie group / Lie algebra core.

Everything downstream works over a finite-dimensional matrix Lie algebra g
given by a basis of n x n real matrices, structure constants c[i,j,k] with
[e_i, e_j] = sum_k c[i,j,k] e_k, and an Ad-invariant symmetric bilinear
form B (possibly degenerate).  Group elements are plain numpy matrices;
algebra elements are coefficient vectors in the chosen basis.

Complex groups (su(2)) are handled through a fixed real encoding
a + ib -> [[a, -b], [b, a]] so that all numerics stay real.

Each LieAlgebra keeps a small least-recently-used memo of at most
_MEMO_SIZE (256) entries, shared by two kinds of value:
  * the Richardson step exponentials expm(+-h V), expm(+-2h V) of
    `directional` (and of fusion's product-group stencil), keyed by the
    bytes of the direction matrix V and the step h;
  * the group inverse `inv(g)` behind `Ad`, `Ad_operator` and the callers
    that invert group elements, keyed by the bytes of g.
A hit returns the array computed on the first miss by the same function
(expm, np.linalg.inv) from the same operand, and callers combine it with
the same operations in the same order as before, so every result is
bit-identical to the unmemoised computation.  Memoised arrays are
read-only, so a caller cannot corrupt the memo by writing to one.
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
    "make_group",
    "GROUP_NAMES",
]

_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)

_MEMO_SIZE = 256


def richardson(at, h):
    """(4 D_h - D_2h) / 3, where D_s = (at(s) - at(-s)) / 2s is the central
    difference of the function at of the step s."""
    def central(s):
        return (np.asarray(at(s), dtype=float) - np.asarray(at(-s), dtype=float)) / (2.0 * s)

    return (4.0 * central(h) - central(2.0 * h)) / 3.0


def _frozen(a):
    a.setflags(write=False)
    return a


def expm(a):
    """Matrix exponential by scaling-and-squaring with a [13/13] Pade approximant."""
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, 1)
    squarings = 0
    if norm > 0.5:
        squarings = max(0, int(math.ceil(math.log2(norm / 0.5))))
        a = a / (2.0 ** squarings)
    n = a.shape[0]
    ident = np.eye(n)
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
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


class LieAlgebra:
    """A matrix Lie algebra with basis, structure constants and bilinear form.

    Construction validates, to near machine precision:
      * antisymmetry and the Jacobi identity of the structure constants,
      * that the basis matrices realize the structure constants,
      * Ad-invariance of the bilinear form over all basis triples.
    """

    def __init__(self, name, basis, structure_constants, bilinear_form,
                 membership=None, log_map=None, group_tolerance=1e-9):
        self.name = name
        self.basis = np.asarray(basis, dtype=float)
        self.dim = self.basis.shape[0]
        self.matrix_size = self.basis.shape[1]
        self.c = np.asarray(structure_constants, dtype=float)
        self.B = np.asarray(bilinear_form, dtype=float)
        self.group_tolerance = group_tolerance
        self._membership = membership
        self._log_map = log_map
        self._memo = OrderedDict()

        flat = self.basis.reshape(self.dim, -1).T      # (n*n, dim)
        self._flat_basis = flat
        gram = flat.T @ flat
        if np.linalg.matrix_rank(gram) < self.dim:
            raise ValueError("basis matrices are not linearly independent")
        self._proj = np.linalg.solve(gram, flat.T)     # coefficients = proj @ vec(M)

        self.nondegenerate = abs(np.linalg.det(self.B)) > 1e-12
        self._validate()

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
        """[x, y] in basis coefficients."""
        return np.einsum("ijk,i,j->k", self.c, x, y)

    def pairing(self, x, y):
        """B(x, y)."""
        return float(x @ self.B @ y)

    def ad_matrix(self, x):
        """Matrix of ad_x acting on coefficients: (ad x) y = [x, y]."""
        return np.einsum("i,ijk->kj", x, self.c)

    def to_matrix(self, x):
        return np.einsum("i,iab->ab", np.asarray(x, dtype=float), self.basis)

    def from_matrix(self, m):
        """Coefficients of the best basis fit to m (exact when m lies in the span)."""
        return self._proj @ np.asarray(m, dtype=float).ravel()

    # -- group operations ----------------------------------------------------

    def exp(self, x):
        """Group element exp(x) for algebra coefficients x."""
        return expm(self.to_matrix(x))

    def identity(self):
        return np.eye(self.matrix_size)

    def _remember(self, key, value):
        """Store a memo entry, dropping the least recently used past _MEMO_SIZE."""
        self._memo[key] = value
        if len(self._memo) > _MEMO_SIZE:
            self._memo.popitem(last=False)
        return value

    def inv(self, g):
        """g^{-1} as a read-only array, memoised by the bytes of g."""
        g = np.asarray(g, dtype=float)
        key = g.tobytes()
        ginv = self._memo.get(key)
        if ginv is None:
            return self._remember(key, _frozen(np.linalg.inv(g)))
        self._memo.move_to_end(key)
        return ginv

    def step_exponentials(self, vm, h):
        """(expm(h vm), expm(-h vm), expm(2h vm), expm(-2h vm)), read-only and
        memoised by the bytes of the direction matrix vm and the step h."""
        key = (vm.tobytes(), h)
        steps = self._memo.get(key)
        if steps is None:
            return self._remember(key, tuple(
                _frozen(expm(step * vm)) for step in (h, -h, 2.0 * h, -2.0 * h)))
        self._memo.move_to_end(key)
        return steps

    def Ad(self, g, x):
        """Ad_g x = g X g^{-1}, returned in basis coefficients."""
        m = g @ self.to_matrix(x) @ self.inv(g)
        return self.from_matrix(m)

    def Ad_operator(self, g):
        """The dim x dim matrix of Ad_g on coefficients."""
        ginv = self.inv(g)
        cols = [self._proj @ (g @ self.basis[i] @ ginv).ravel() for i in range(self.dim)]
        return np.array(cols).T

    def membership_residual(self, g):
        if self._membership is not None:
            return self._membership(g)
        return 0.0

    def log(self, g):
        """Inverse of exp where the catalog group provides one."""
        if self._log_map is None:
            raise NotImplementedError(f"no log map for group {self.name!r}")
        return self._log_map(self, g)

    # -- calculus on the group -----------------------------------------------

    def directional(self, func, g, v, h=1e-4):
        """Derivative of func along the right-trivialized direction v at g.

        Richardson-extrapolated central difference (4 D_h - D_2h)/3 over the
        curve s -> exp(s v) g; func may return scalars or arrays.
        """
        steps = dict(zip((h, -h, 2.0 * h, -2.0 * h),
                         self.step_exponentials(self.to_matrix(v), h)))
        out = richardson(lambda s: func(steps[s] @ g), h)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("non-finite directional derivative")
        if out.ndim == 0:
            return float(out)
        return out

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
        if res > self.group_tolerance:
            raise ValueError(f"sampled group point fails membership: {res:g}")
        return g


class InvariantPolynomial:
    """A fully symmetric multilinear form p(x_1, ..., x_m) invariant under Ad.

    The polarized evaluator takes m coefficient vectors; p(x) means the
    diagonal value p(x, ..., x).  Invariance is spot-checked at construction.
    """

    def __init__(self, algebra, degree, evaluator, name="p", check_samples=4):
        self.algebra = algebra
        self.degree = degree
        self._eval = evaluator
        self.name = name
        rng = np.random.default_rng(20_240_117)
        for _ in range(check_samples):
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
        return float(self._eval(*xs))


def quadratic_polynomial(algebra):
    """p(x) = (1/2) B(x, x), polarized to p(x, y) = (1/2) B(x, y)."""
    return InvariantPolynomial(
        algebra, 2, lambda x, y: 0.5 * algebra.pairing(x, y), name="half-square")


def cubic_polynomial(algebra):
    """An invariant cubic for the catalog group, or None when none exists.

    Compact simple algebras in the catalog have no odd-degree invariants.
    On the Heisenberg algebra the Ad action fixes the two non-central
    coefficients, so products of those coordinates are invariant.
    """
    if algebra.name == "heisenberg3":
        def p(x, y, z):
            return x[0] * y[0] * z[0]
        return InvariantPolynomial(algebra, 3, p, name="x-coeff cubed")
    return None


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


def _angle_log(alg, g):
    # For su2/so3: project onto the basis and rescale by angle/|w|.
    w = alg.from_matrix(g)
    nw = np.linalg.norm(w)
    if alg.name == "su2":
        # g = cos(t/2) I + sum w_k e_k with |w| = 2 sin(t/2); trace of the
        # real encoding is 4 cos(t/2).
        ct = np.trace(g) / 4.0
        st = nw / 2.0
    else:  # so3: skew part has coefficients sin(t) w_hat
        ct = (np.trace(g) - 1.0) / 2.0
        st = nw
    t = math.atan2(st, ct) if alg.name == "so3" else 2.0 * math.atan2(st, ct)
    if nw < 1e-12:
        return np.zeros(alg.dim)
    return w * (t / nw)


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


def _make_su2():
    sigma = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    basis = np.array([_complex_encode(-0.5j * s) for s in sigma])
    c = _standard_structure_constants(basis)
    return LieAlgebra("su2", basis, c, np.eye(3),
                      membership=_su2_membership, log_map=_angle_log)


def _make_so3():
    basis = np.zeros((3, 3, 3))
    eps = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
           (1, 0, 2): -1.0, (2, 1, 0): -1.0, (0, 2, 1): -1.0}
    for (i, j, k), s in eps.items():
        basis[i, j, k] = -s
    c = _standard_structure_constants(basis)
    return LieAlgebra("so3", basis, c, np.eye(3),
                      membership=_orthogonal_membership, log_map=_angle_log)


def _make_heisenberg3():
    x = np.zeros((3, 3)); x[0, 1] = 1.0
    y = np.zeros((3, 3)); y[1, 2] = 1.0
    z = np.zeros((3, 3)); z[0, 2] = 1.0
    basis = np.array([x, y, z])
    c = _standard_structure_constants(basis)
    # Invariance forces the center into the radical of any invariant form;
    # pair the X,Y plane and leave Z isotropic (degenerate, flagged).
    b = np.diag([1.0, 1.0, 0.0])
    return LieAlgebra("heisenberg3", basis, c, b,
                      membership=_heis_membership, log_map=_heis_log)


def _make_torus2():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    e1 = np.zeros((4, 4)); e1[:2, :2] = j
    e2 = np.zeros((4, 4)); e2[2:, 2:] = j
    basis = np.array([e1, e2])
    c = np.zeros((2, 2, 2))
    return LieAlgebra("torus2", basis, c, np.eye(2),
                      membership=_orthogonal_membership, log_map=_torus_log)


_FACTORIES = {
    "su2": _make_su2,
    "so3": _make_so3,
    "heisenberg3": _make_heisenberg3,
    "torus2": _make_torus2,
}

GROUP_NAMES = tuple(sorted(_FACTORIES))


def make_group(name):
    """Build a catalog group by name: su2, so3, heisenberg3 or torus2."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown group {name!r}; choose from {GROUP_NAMES}") from None
    return factory()
