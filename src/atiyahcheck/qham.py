"""Pull-back algebroids over a finite-dimensional base and the kernel theorem.

The concrete base is a conjugacy class of su2, parametrized by the unit
sphere: Phi(n) = exp(_ANGLE E(n)) with _ANGLE = pi/2.  The candidate
invariant 2-form on the class is

    omega(x_C, y_C) = (1/2) B(x, (Ad_{g^{-1}} - Ad_g) y),

the 2-form of a conjugacy class of Alekseev, Malkin and Meinrenken ("Lie
group valued moment maps", J. Diff. Geom. 48, 1998), at their sign
OMEGA_SIGN = +1; worst_moment_residual measures the moment condition (the
degree-1 part of d_G omega = -Phi* eta_G) at that sign.  The kernel
of a* omega + varpi_M is probed on a Fourier-truncated basis built in the
Ad_{Phi(m)}-eigenframe, so every loop mode satisfies its seam exactly.
Each truncation builds one Gram matrix, one eigendecomposition of the
basis metric and one SVD; gram_kernel reads the kernel dimension at every
relative singular threshold off those singular values.

The class is a base of sections in the sense of sections.AlgebroidSection:
its geometry is its sphere stencil (`stencil`) and the bracket 0 of the
constant fields of R^3 (`frame_bracket`), beside point, push_tangent and
generator_field.  So a section of the pull-back algebroid Phi^!A is an
AlgebroidSection with base=klass: sections.template_section and
algebroid.generator build them, algebroid.bracket brackets them and
algebroid.field_bracket their tangent fields, lifting.canonical_two_form
gives Phi^! varpi and project_based the base variant q_M of the based
projection.  Every derivative over the class takes its own fixed sphere
step, fd_step = _SPHERE_STEP (1e-3), and push_tangent the fixed step
_PUSH_STEP (1e-5); --fd-step sets neither, only the group's step.
"""

from __future__ import annotations

import math

import numpy as np

from .liealg import _derivative, stencil_steps
from .sections import AlgebroidSection, at_times

__all__ = [
    "ConjugacyClass",
    "TrivialClass",
    "ghjw_omega",
    "worst_moment_residual",
    "TruncatedBasis",
    "gram_matrix",
    "gram_kernel",
    "project_based",
    "project_based_residuals",
]


_SPHERE_STEP = 1e-3      # the sphere step of every derivative over the class,
_PUSH_STEP = 1e-5        # and of push_tangent's Richardson derivative
_ANGLE = math.pi / 2.0   # the class is that of exp(_ANGLE * E(n))
OMEGA_SIGN = 1.0         # the class 2-form of Alekseev-Malkin-Meinrenken (1998, section 3),
                         # omega(x_C, y_C) = (1/2)(B(Ad_g x, y) - B(Ad_g y, x)), whose moment
                         # condition (their section 2) is iota(x_M) omega =
                         # -(1/2) Phi*((theta^L + theta^R).x)
_MOMENT_DRAWS = 12       # the random (n, x, u) of worst_moment_residual
_DEPENDENCY_TOL = 1e-9   # gram_kernel drops metric eigenvalues below this share of the largest


def _norm(v):
    return v / np.linalg.norm(v)


class ConjugacyClass:
    """The class of exp(_ANGLE * E(n)) in a compact catalog group, n on S^2."""

    fd_step = _SPHERE_STEP

    def __init__(self, algebra):
        if algebra.dim != 3:
            raise ValueError("conjugacy-class base needs a 3-dimensional algebra")
        self.algebra = algebra

    def point(self, n):
        return self.algebra.exp(_ANGLE * np.asarray(n, dtype=float))

    def tangent_basis(self, n):
        n = np.asarray(n, dtype=float)
        seed = np.array([1.0, 0.0, 0.0])
        if abs(n @ seed) > 0.9:
            seed = np.array([0.0, 1.0, 0.0])
        t1 = _norm(np.cross(n, seed))
        t2 = np.cross(n, t1)
        return t1, t2

    def generator_field(self, x, n):
        """x_M(n), oriented so that d Phi(x_M) = Ad_g x - x in theta^R.

        With the generator convention a(x_A) = Ad_g x - x the induced sphere
        rotation runs opposite to ad_x, hence the minus sign.
        """
        return -(self.algebra.ad_matrix(x) @ np.asarray(n, dtype=float))

    def push_tangent(self, n, u):
        """theta^R of d Phi applied to the sphere tangent u (Richardson FD)."""
        g = self.point(_norm(n))
        at = np.array([self.point(p) for p in self.stencil(n, u, _PUSH_STEP)])
        return self.algebra.push_stencil(at, self.algebra.inv(g), _PUSH_STEP)

    def solve_generator(self, n, t):
        """Minimum-norm x with x_M(n) = t; for the cross-product action x = n x t."""
        return np.cross(n, t)

    def point_axes(self, n):
        return np.shape(n)[:-1]

    def stencil(self, n, u, h):
        """The Richardson stencil of n along u on the sphere: the points
        n + s u, s in stencil_steps(h), each normalised."""
        return [_norm(n + s * u) for s in stencil_steps(h)]

    def frame_bracket(self, u, w):
        """0: the constant fields of R^3 commute."""
        return 0.0

    def directional(self, func, n, u):
        """Richardson derivative of a function on the sphere along tangent u."""
        h = self.fd_step
        return _derivative([func(p) for p in self.stencil(n, u, h)], h)

    def stencil_derivative(self, func, n, u):
        """The same derivative: the class evaluates its stencil point by point."""
        return self.directional(func, n, u)

    def equivariance_residual(self, k, n):
        rot = self.algebra.Ad_operator(k)
        lhs = self.point(_norm(rot @ n))
        rhs = k @ self.point(n) @ self.algebra.inv(k)
        return float(np.linalg.norm(lhs - rhs))


class TrivialClass:
    """The sphere with the constant map to the identity (abelian degeneration)."""

    def __init__(self, algebra):
        self.algebra = algebra

    def point(self, n):
        return self.algebra.identity()

    tangent_basis = ConjugacyClass.tangent_basis

    def generator_field(self, x, n):
        return np.zeros(3)

    def push_tangent(self, n, u):
        return np.zeros(self.algebra.dim)


def ghjw_omega(klass):
    """The class 2-form: omega(t1, t2) at n solves x_i with (x_i)_M = t_i and
    pairs (OMEGA_SIGN/2) B(x1, (Ad_{g^{-1}} - Ad_g) x2)."""
    alg = klass.algebra

    def omega(n, t1, t2):
        g = klass.point(n)
        x1 = klass.solve_generator(n, t1)
        x2 = klass.solve_generator(n, t2)
        ginv = alg.inv(g)
        return 0.5 * OMEGA_SIGN * alg.pairing(x1, alg.Ad(ginv, x2) - alg.Ad(g, x2))

    return omega


def ghjw_moment_residual(klass, omega, n, x, u):
    """Degree-1 moment condition: omega(x_M, u) = -(1/2)(theta^L+theta^R)(dPhi u) . x."""
    alg = klass.algebra
    g = klass.point(n)
    w = klass.push_tangent(n, u)
    lhs = omega(n, klass.generator_field(x, n), u)
    rhs = -0.5 * alg.pairing(alg.Ad(alg.inv(g), w) + w, x)
    return abs(lhs - rhs)


def worst_moment_residual(klass, omega, rng):
    """The worst moment residual of omega over _MOMENT_DRAWS random class
    points n, algebra elements x and sphere tangents u, drawn from rng."""
    worst = 0.0
    for _ in range(_MOMENT_DRAWS):
        n = _norm(rng.standard_normal(3))
        x = klass.algebra.random_vector(rng)
        u = klass.tangent_basis(n)[0] + 0.3 * klass.tangent_basis(n)[1]
        worst = max(worst, ghjw_moment_residual(klass, omega, n, x, u))
    return worst


# ---------------------------------------------------------------------------
# the truncated Gram kernel
# ---------------------------------------------------------------------------

class TruncatedBasis:
    """Grid arrays for the probe basis at a base point: generators, tangents,
    and loop modes built in the Ad_{Phi(m)}-eigenframe (seam-exact per mode).

    g = Phi(n) and the pushed tangents theta^R(dPhi t) are computed once per
    basis.  Only generator and tangent rows move the base point; every other
    row has tangent 0, whose push is exactly 0, so it is not pushed.
    """

    def __init__(self, klass, n, n_max, grid):
        alg = klass.algebra
        self.klass = klass
        self.n = np.asarray(n, dtype=float)
        self.grid = grid
        ts = grid.nodes
        self.g = g = klass.point(n)
        dim = alg.dim
        still = np.zeros((len(ts), dim))

        labels = []
        tangents = []        # base tangents in R^3
        pushed = []          # theta^R(dPhi tangent) in g
        values = []          # (n_t, dim) arrays
        derivs = []

        def add(label, tangent, vals, ders, push=None):
            tangent = np.asarray(tangent, dtype=float)
            if push is None:
                push = klass.push_tangent(n, tangent) if tangent.any() else np.zeros(dim)
            labels.append(label)
            tangents.append(tangent)
            pushed.append(push)
            values.append(np.asarray(vals, dtype=float))
            derivs.append(np.asarray(ders, dtype=float))

        # generators (x_M, constant -e_i)
        for i in range(dim):
            x = np.zeros(dim); x[i] = 1.0
            add(f"gen{i}", klass.generator_field(x, n), np.tile(-x, (len(ts), 1)), still)

        # tangent directions, completed with the constant path solving the seam
        # (c - Ad_g c = v); on a conjugacy class these are exact generator
        # combinations, a rank deficiency the kernel routine quotients out
        rot = alg.Ad_operator(g)
        one_minus_ad = np.eye(dim) - rot
        for j, tv in enumerate(klass.tangent_basis(n)):
            v = klass.push_tangent(n, tv)
            c = np.linalg.lstsq(one_minus_ad, v, rcond=None)[0]
            add(f"tan{j}", tv, np.tile(c, (len(ts), 1)), still, push=v)

        # loop modes from the eigenframe of Ad_g on coefficients
        axis_modes, plane_modes = _eigenframe_modes(rot, n_max, ts)
        for name, vals, ders in axis_modes + plane_modes:
            add(name, np.zeros(3), vals, ders)

        self.labels = labels
        self.tangents = np.array(tangents)
        self.pushed = np.array(pushed)      # (K, dim)
        self.values = np.stack(values)      # (K, n_t, dim)
        self.derivs = np.stack(derivs)
        self.size = len(labels)

    def seam_residuals(self):
        alg = self.klass.algebra
        out = []
        for k in range(self.size):
            gap = self.values[k, -1] - alg.Ad(self.g, self.values[k, 0]) - self.pushed[k]
            out.append(float(np.linalg.norm(gap)))
        return np.array(out)


def _eigenframe_modes(rot, n_max, ts):
    """Real Fourier modes adapted to a rotation operator on coefficients, as
    (name, values, derivatives) with (len(ts), dim) arrays on the times ts."""
    w, vecs = np.linalg.eig(rot)
    axis = []
    plane = []
    done_pair = False
    for idx in range(len(w)):
        lam = w[idx]
        vec = vecs[:, idx]
        if abs(lam.imag) < 1e-12 and abs(lam.real - 1.0) < 1e-10:
            u = np.real(vec)
            u = u / np.linalg.norm(u)
            # k = 0 is omitted: constant loops already span the generator
            # elements together with their base tangents
            for k in range(1, n_max + 1):
                wk = 2 * math.pi * k
                cos, sin = np.cos(wk * ts)[:, None], np.sin(wk * ts)[:, None]
                axis.append((f"axis-cos{k}", cos * u, -wk * sin * u))
                axis.append((f"axis-sin{k}", sin * u, wk * cos * u))
        elif lam.imag > 1e-12 and not done_pair:
            done_pair = True
            phi = math.atan2(lam.imag, lam.real)
            # rot w = e^{i phi} w, so e^{i freq t} w needs freq = phi mod 2 pi
            wvec = vec / np.linalg.norm(vec)
            for k in range(-n_max, n_max + 1):
                freq = phi + 2 * math.pi * k
                # zeta(t) = Re/Im[e^{i freq t} wvec]; Ad_g zeta(t) = zeta(t+1)
                wave = np.exp(1j * freq * ts)[:, None]
                zeta = wave * wvec
                dzeta = 1j * freq * wave * wvec
                plane.append((f"plane-re{k}", np.real(zeta), np.real(dzeta)))
                plane.append((f"plane-im{k}", np.imag(zeta), np.imag(dzeta)))
    return axis, plane


def gram_matrix(basis, omega):
    """Antisymmetric Gram matrix of a* omega + varpi_M on the truncated basis.

    omega is summed only over pairs of rows that both move the base point:
    a row with tangent 0 solves to the generator 0, so its omega term is 0.
    """
    alg = basis.klass.algebra
    vs = basis.pushed
    b_mat = alg.B
    # int B(xi_a', xi_b) dt with Simpson weights
    lead = np.einsum("atd,de,bte,t->ab", basis.derivs, b_mat, basis.values,
                     basis.grid.weights)
    ad0 = np.array([alg.Ad(basis.g, basis.values[i, 0]) for i in range(basis.size)])
    s = lead - 0.5 * np.einsum("ad,de,be->ab", vs, b_mat, vs) \
        - np.einsum("ad,de,be->ab", ad0, b_mat, vs)
    if omega is not None:
        moving = np.flatnonzero(basis.tangents.any(axis=1))
        for i, a in enumerate(moving):
            for b in moving[i + 1:]:
                val = omega(basis.n, basis.tangents[a], basis.tangents[b])
                s[a, b] += val
                s[b, a] -= val
    return s


def basis_metric(basis):
    """Positive inner product on probe elements: tangent dot plus L2 path dot."""
    tan = basis.tangents @ basis.tangents.T
    loop = np.einsum("atd,btd,t->ab", basis.values, basis.values,
                     basis.grid.weights)
    return tan + loop


def gram_kernel(basis, omega, thresholds=(1e-8,)):
    """Kernel dimensions of the form on the span of the probe basis.

    The basis metric is diagonalized first and exact span dependencies are
    quotiented out (on a conjugacy class the tangent completions coincide
    with generator combinations); the form is then expressed in an
    orthonormal frame of the span and its SVD taken once.  Each relative
    singular threshold reads its nullity off the same singular values.
    Returns ([(dim, kernel vectors in basis coefficients) per threshold],
    Gram matrix, number of dropped dependencies).
    """
    if not basis.klass.algebra.nondegenerate:
        raise ValueError("kernel theorem needs a nondegenerate pairing")
    s = gram_matrix(basis, omega)
    m = basis_metric(basis)
    w, vecs = np.linalg.eigh(m)
    keep = w > _DEPENDENCY_TOL * w.max()
    frame = vecs[:, keep] / np.sqrt(w[keep])
    s_eff = frame.T @ s @ frame
    u, sig, vh = np.linalg.svd(s_eff)
    kernels = []
    for threshold in thresholds:
        null = vh[sig < threshold * sig[0]].conj().T
        kernels.append((null.shape[1], frame @ null))
    return kernels, s, int((~keep).sum())


# ---------------------------------------------------------------------------
# the based subalgebroid and its projection
# ---------------------------------------------------------------------------

def project_based(xi):
    """q(xi) = xi - xi(0): profile vanishes at t = 0, tangent field gains xi(0)_M.

    Over the group the anchor becomes v + (Ad_g x0 - x0); over the class the
    tangent field becomes X + (x0)_M, the base variant q_M.
    """
    base = xi.base

    def xfield(m):
        return xi.xfield(m) + base.generator_field(xi.profile(m, 0.0), m)

    def profile(m, t):
        return xi.profile(m, t) - at_times(xi.profile(m, 0.0), t)

    return AlgebroidSection(xi.algebra, profile, xfield, dprofile=xi.dprofile,
                            name=f"q({xi.name})", base=base)


def project_based_residuals(xi, g):
    """(value at t=0, anchor-shift defect) for the based projection."""
    alg = xi.algebra
    q = project_based(xi)
    at0 = float(np.linalg.norm(q.profile(g, 0.0)))
    x0 = xi.profile(g, 0.0)
    shift = q.v(g) - xi.v(g) - (alg.Ad(g, x0) - x0)
    return at0, float(np.linalg.norm(shift))
