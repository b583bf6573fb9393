"""Pull-back algebroids over a finite-dimensional base and the kernel theorem.

The concrete base is a conjugacy class of su2, parametrized by the unit
sphere: Phi(n) = exp(angle * E(n)).  The candidate invariant 2-form on the
class is

    omega(x_C, y_C) = (sign/2) B(x, (Ad_{g^{-1}} - Ad_g) y),

whose global sign is fixed by the moment condition (the degree-1 part of
d_G omega = -Phi* eta_G) before any kernel computation runs.  The kernel
of a* omega + varpi_M is probed on a Fourier-truncated basis built in the
Ad_{Phi(m)}-eigenframe, so every loop mode satisfies its seam exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .liealg import richardson
from .sections import AlgebroidSection, TimeGrid, integrate_01

__all__ = [
    "ConjugacyClass",
    "TrivialClass",
    "ghjw_omega",
    "GhjwSignError",
    "PullbackSection",
    "pullback_template",
    "pullback_bracket",
    "TruncatedBasis",
    "gram_matrix",
    "gram_kernel",
    "project_based",
    "project_based_residuals",
    "project_based_pullback",
]


class GhjwSignError(RuntimeError):
    """Neither sign of the candidate 2-form satisfies the moment condition."""


def _norm(v):
    return v / np.linalg.norm(v)


class ConjugacyClass:
    """The class of exp(angle * E(n)) in a compact catalog group, n on S^2."""

    def __init__(self, algebra, angle=math.pi / 2.0):
        if algebra.dim != 3:
            raise ValueError("conjugacy-class base needs a 3-dimensional algebra")
        self.algebra = algebra
        self.angle = angle

    def point(self, n):
        return self.algebra.exp(self.angle * np.asarray(n, dtype=float))

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

    def push_tangent(self, n, u, h=1e-5):
        """theta^R of d Phi applied to the sphere tangent u (Richardson FD)."""
        n = np.asarray(n, dtype=float)

        def at(s):
            return self.point(_norm(n + s * u))

        ginv = self.algebra.inv(at(0.0))
        d1 = (at(h) - at(-h)) @ ginv / (2 * h)
        d2 = (at(2 * h) - at(-2 * h)) @ ginv / (4 * h)
        return self.algebra.from_matrix((4.0 * d1 - d2) / 3.0)

    def solve_generator(self, n, t):
        """Minimum-norm x with x_M(n) = t; for the cross-product action x = n x t."""
        return np.cross(n, t)

    def directional(self, func, n, u, h=1e-3):
        """Richardson derivative of a function on the sphere along tangent u."""

        out = richardson(lambda s: func(_norm(n + s * u)), h)
        return float(out) if out.ndim == 0 else out

    def field_bracket(self, xf, yf, n, h=1e-3):
        """[X, Y] of tangent fields via the degree-0 homogeneous extension."""
        dxy = self.directional(lambda m: yf(m), n, xf(n), h=h)
        dyx = self.directional(lambda m: xf(m), n, yf(n), h=h)
        return dxy - dyx

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

    def push_tangent(self, n, u, h=1e-5):
        return np.zeros(self.algebra.dim)


def ghjw_omega(klass, sign):
    """The candidate 2-form with a chosen global sign.

    omega(t1, t2) at n: solve x_i with (x_i)_M = t_i and pair
    (sign/2) B(x1, (Ad_{g^{-1}} - Ad_g) x2).
    """
    alg = klass.algebra

    def omega(n, t1, t2):
        g = klass.point(n)
        x1 = klass.solve_generator(n, t1)
        x2 = klass.solve_generator(n, t2)
        ginv = alg.inv(g)
        return 0.5 * sign * alg.pairing(x1, alg.Ad(ginv, x2) - alg.Ad(g, x2))

    return omega


def ghjw_moment_residual(klass, omega, n, x, u):
    """Degree-1 moment condition: omega(x_M, u) = -(1/2)(theta^L+theta^R)(dPhi u) . x."""
    alg = klass.algebra
    g = klass.point(n)
    w = klass.push_tangent(n, u)
    lhs = omega(n, klass.generator_field(x, n), u)
    rhs = -0.5 * alg.pairing(alg.Ad(alg.inv(g), w) + w, x)
    return abs(lhs - rhs)


def calibrate_ghjw(klass, rng, samples=6, tol=1e-4):
    """Fix the global sign by the moment condition; abort if neither works."""
    best = {}
    for sign in (1.0, -1.0):
        omega = ghjw_omega(klass, sign)
        worst = 0.0
        for _ in range(samples):
            n = _norm(rng.standard_normal(3))
            x = klass.algebra.random_vector(rng)
            u = klass.tangent_basis(n)[0] + 0.3 * klass.tangent_basis(n)[1]
            worst = max(worst, ghjw_moment_residual(klass, omega, n, x, u))
        best[sign] = worst
    good = [s for s, r in best.items() if r < tol]
    if not good:
        raise GhjwSignError(f"moment condition fails for both signs: {best}")
    return good[0], best


# ---------------------------------------------------------------------------
# pull-back sections
# ---------------------------------------------------------------------------

class PullbackSection:
    """A pair (X, xi): tangent field on the base and a g-valued path profile.

    Seam: xi(m, t+1) = Ad_{Phi(m)} xi(m, t) + (Phi* theta^R)(X(m)).
    """

    def __init__(self, klass, xfield, profile, dprofile=None, name=""):
        self.klass = klass
        self.algebra = klass.algebra
        self.xfield = xfield
        self.profile = profile
        self.dprofile = dprofile
        self.name = name

    def v(self, n):
        return self.klass.push_tangent(n, self.xfield(n))

    def seam_residual(self, n):
        alg = self.algebra
        g = self.klass.point(n)
        gap = self.profile(n, 1.0) - alg.Ad(g, self.profile(n, 0.0)) - self.v(n)
        return float(np.linalg.norm(gap))


def pullback_template(klass, afunc, xfield, bump, name=""):
    """Template profile a(m) + f(t)(Ad_{Phi(m)} a(m) + v_X(m) - a(m))."""
    alg = klass.algebra

    def coeff(n):
        a = afunc(n)
        return alg.Ad(klass.point(n), a) + klass.push_tangent(n, xfield(n)) - a

    def profile(n, t):
        return afunc(n) + bump(t) * coeff(n)

    def dprofile(n, t):
        return bump.deriv(t) * coeff(n)

    return PullbackSection(klass, xfield, profile, dprofile, name=name)


def pullback_generator(klass, x):
    """Phi! of the action generator: (x_M, constant profile -x)."""
    alg = klass.algebra
    x = np.asarray(x, dtype=float)
    return PullbackSection(
        klass,
        lambda n: klass.generator_field(x, n),
        lambda n, t: -x,
        lambda n, t: np.zeros(alg.dim),
        name="generator")


def pullback_bracket(p, q, h=1e-3):
    """[(X, xi), (Y, zeta)] = ([X, Y], -[xi, zeta] + X zeta - Y xi)."""
    klass = p.klass
    alg = p.algebra

    def xfield(n):
        return klass.field_bracket(p.xfield, q.xfield, n, h=h)

    def profile(n, t):
        out = -alg.bracket(p.profile(n, t), q.profile(n, t))
        out = out + klass.directional(lambda m: q.profile(m, t), n, p.xfield(n), h=h)
        out = out - klass.directional(lambda m: p.profile(m, t), n, q.xfield(n), h=h)
        return out

    return PullbackSection(klass, xfield, profile, name=f"[{p.name},{q.name}]")


def varpi_pullback(klass, p, q, n, grid, h_t=1e-5):
    """Phi! varpi evaluated on two pull-back sections at the base point n."""
    alg = klass.algebra
    g = klass.point(n)

    def deriv(sec, t):
        if sec.dprofile is not None:
            return sec.dprofile(n, t)
        return (sec.profile(n, t + h_t) - sec.profile(n, t - h_t)) / (2 * h_t)

    lead = integrate_01(lambda t: alg.pairing(deriv(p, t), q.profile(n, t)), grid)
    vp, vq = p.v(n), q.v(n)
    lead -= 0.5 * alg.pairing(vp, vq)
    lead -= alg.pairing(alg.Ad(g, p.profile(n, 0.0)), vq)
    return lead


# ---------------------------------------------------------------------------
# the truncated Gram kernel
# ---------------------------------------------------------------------------

class TruncatedBasis:
    """Grid arrays for the probe basis at a base point: generators, tangents,
    and loop modes built in the Ad_{Phi(m)}-eigenframe (seam-exact per mode)."""

    def __init__(self, klass, n, n_max, grid, bump=None):
        alg = klass.algebra
        self.klass = klass
        self.n = np.asarray(n, dtype=float)
        self.grid = grid
        ts = grid.nodes
        g = klass.point(n)
        dim = alg.dim

        labels = []
        tangents = []        # base tangents in R^3
        values = []          # (n_t, dim) arrays
        derivs = []

        def add(label, tangent, vals, ders):
            labels.append(label)
            tangents.append(np.asarray(tangent, dtype=float))
            values.append(np.asarray(vals, dtype=float))
            derivs.append(np.asarray(ders, dtype=float))

        # generators (x_M, constant -e_i)
        for i in range(dim):
            x = np.zeros(dim); x[i] = 1.0
            const = np.tile(-x, (len(ts), 1))
            add(f"gen{i}", klass.generator_field(x, n), const, np.zeros_like(const))

        # tangent directions, completed with the constant path solving the seam
        # (c - Ad_g c = v); on a conjugacy class these are exact generator
        # combinations, a rank deficiency the kernel routine quotients out
        t1, t2 = klass.tangent_basis(n)
        one_minus_ad = np.eye(dim) - alg.Ad_operator(g)
        for j, tv in enumerate((t1, t2)):
            v = klass.push_tangent(n, tv)
            c = np.linalg.lstsq(one_minus_ad, v, rcond=None)[0]
            vals = np.tile(c, (len(ts), 1))
            add(f"tan{j}", tv, vals, np.zeros_like(vals))

        # loop modes from the eigenframe of Ad_g on coefficients
        rot = alg.Ad_operator(g)
        axis_modes, plane_modes = _eigenframe_modes(rot, n_max)
        for name, func, dfunc in axis_modes + plane_modes:
            vals = np.array([func(t) for t in ts])
            ders = np.array([dfunc(t) for t in ts])
            add(name, np.zeros(3), vals, ders)

        self.labels = labels
        self.tangents = np.array(tangents)
        self.values = np.stack(values)      # (K, n_t, dim)
        self.derivs = np.stack(derivs)
        self.size = len(labels)

    def seam_residuals(self):
        alg = self.klass.algebra
        g = self.klass.point(self.n)
        out = []
        for k in range(self.size):
            v = self.klass.push_tangent(self.n, self.tangents[k])
            gap = self.values[k, -1] - alg.Ad(g, self.values[k, 0]) - v
            out.append(float(np.linalg.norm(gap)))
        return np.array(out)


def _eigenframe_modes(rot, n_max):
    """Real Fourier modes adapted to a rotation operator on coefficients."""
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
                axis.append((f"axis-cos{k}",
                             lambda t, u=u, wk=wk: math.cos(wk * t) * u,
                             lambda t, u=u, wk=wk: -wk * math.sin(wk * t) * u))
                axis.append((f"axis-sin{k}",
                             lambda t, u=u, wk=wk: math.sin(wk * t) * u,
                             lambda t, u=u, wk=wk: wk * math.cos(wk * t) * u))
        elif lam.imag > 1e-12 and not done_pair:
            done_pair = True
            phi = math.atan2(lam.imag, lam.real)
            # rot w = e^{i phi} w, so e^{i freq t} w needs freq = phi mod 2 pi
            wvec = vec / np.linalg.norm(vec)
            for k in range(-n_max, n_max + 1):
                freq = phi + 2 * math.pi * k
                # zeta(t) = Re/Im[e^{i freq t} wvec]; Ad_g zeta(t) = zeta(t+1)
                plane.append((f"plane-re{k}",
                              lambda t, w0=wvec, f=freq: np.real(np.exp(1j * f * t) * w0),
                              lambda t, w0=wvec, f=freq: np.real(1j * f * np.exp(1j * f * t) * w0)))
                plane.append((f"plane-im{k}",
                              lambda t, w0=wvec, f=freq: np.imag(np.exp(1j * f * t) * w0),
                              lambda t, w0=wvec, f=freq: np.imag(1j * f * np.exp(1j * f * t) * w0)))
    return axis, plane


def gram_matrix(basis, omega):
    """Antisymmetric Gram matrix of a* omega + varpi_M on the truncated basis."""
    klass = basis.klass
    alg = klass.algebra
    n = basis.n
    g = klass.point(n)
    weights = basis.grid.weights
    k = basis.size

    vs = np.array([klass.push_tangent(n, basis.tangents[i]) for i in range(k)])
    b_mat = alg.B
    # int B(xi_a', xi_b) dt with Simpson weights
    lead = np.einsum("atd,de,bte,t->ab", basis.derivs, b_mat, basis.values, weights)
    ad0 = np.array([alg.Ad(g, basis.values[i, 0]) for i in range(k)])
    s = lead - 0.5 * np.einsum("ad,de,be->ab", vs, b_mat, vs) \
        - np.einsum("ad,de,be->ab", ad0, b_mat, vs)
    if omega is not None:
        for a in range(k):
            for b in range(a + 1, k):
                val = omega(n, basis.tangents[a], basis.tangents[b])
                s[a, b] += val
                s[b, a] -= val
    return s


def basis_metric(basis):
    """Positive inner product on probe elements: tangent dot plus L2 path dot."""
    tan = basis.tangents @ basis.tangents.T
    loop = np.einsum("atd,btd,t->ab", basis.values, basis.values,
                     basis.grid.weights)
    return tan + loop


def gram_kernel(basis, omega, threshold=1e-8, dependency_tol=1e-9):
    """Kernel dimension of the form on the span of the probe basis.

    The basis metric is diagonalized first and exact span dependencies are
    quotiented out (on a conjugacy class the tangent completions coincide
    with generator combinations); the form is then expressed in an
    orthonormal frame of the span and its SVD nullity read off at a
    relative singular threshold.  Returns (dim, kernel vectors in basis
    coefficients, Gram matrix, number of dropped dependencies).
    """
    if not basis.klass.algebra.nondegenerate:
        raise ValueError("kernel theorem needs a nondegenerate pairing")
    s = gram_matrix(basis, omega)
    m = basis_metric(basis)
    w, vecs = np.linalg.eigh(m)
    keep = w > dependency_tol * w.max()
    frame = vecs[:, keep] / np.sqrt(w[keep])
    s_eff = frame.T @ s @ frame
    u, sig, vh = np.linalg.svd(s_eff)
    cut = threshold * sig[0]
    null = vh[sig < cut].conj().T
    return null.shape[1], frame @ null, s, int((~keep).sum())


# ---------------------------------------------------------------------------
# the based subalgebroid and its projection
# ---------------------------------------------------------------------------

def project_based(xi):
    """q(xi) = xi - xi(0): profile vanishes at t = 0, anchor gains xi(0)_G."""
    alg = xi.algebra

    def profile(g, t):
        return xi.profile(g, t) - xi.profile(g, 0.0)

    def v(g):
        x0 = xi.profile(g, 0.0)
        return xi.v(g) + alg.Ad(g, x0) - x0

    dprofile = None
    if xi.dprofile is not None:
        def dprofile(g, t):
            return xi.dprofile(g, t)

    return AlgebroidSection(alg, profile, v, dprofile=dprofile, name=f"q({xi.name})")


def project_based_residuals(xi, g, samples=5):
    """(value at t=0, anchor-shift defect) for the based projection."""
    alg = xi.algebra
    q = project_based(xi)
    at0 = float(np.linalg.norm(q.profile(g, 0.0)))
    x0 = xi.profile(g, 0.0)
    shift = q.v(g) - xi.v(g) - (alg.Ad(g, x0) - x0)
    return at0, float(np.linalg.norm(shift))


def project_based_pullback(psec):
    """The base variant: q_M(X, xi) = (X + xi(0)_M, xi - xi(0))."""
    klass = psec.klass

    def xfield(n):
        return psec.xfield(n) + klass.generator_field(psec.profile(n, 0.0), n)

    def profile(n, t):
        return psec.profile(n, t) - psec.profile(n, 0.0)

    dprofile = None
    if psec.dprofile is not None:
        def dprofile(n, t):
            return psec.dprofile(n, t)

    return PullbackSection(klass, xfield, profile, dprofile,
                           name=f"q_M({psec.name})")
