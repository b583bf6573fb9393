"""Bott forms over simplices, Chern-Simons forms, and the Q functional.

All 1-forms here are g-valued algebroid forms (de Rham forms enter through
the anchor).  The simplex integrals follow

    Upsilon^p(beta_0..beta_k) = (-1)^[(k+1)/2] int_{Delta^k} p(F^beta),
    beta = beta_0 + sum_i s_i (beta_i - beta_0),

with the ds-components extracted combinatorially.  The quadrature is fixed:
the k-simplex (k <= 2) takes the tensorized 8-node Gauss-Legendre rule
SimplexRule(k), built once, and the rectangle integral I^p an
8 x 32 Gauss-Legendre grid in (s, t).  Each integral evaluates its
integrand once on all its nodes (blocks with node axes) and sums the node
values in the node-by-node order; it goes one point at a time only over
leading point axes.  The simplex and rectangle
integrals take the orientation of their displays, and every other sign
that relates two normalisations is a module constant with its source
(SIGNS); nothing here chooses a sign from data.  calibrate_conventions
evaluates, once, the identities that hold at these signs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import algebroid as albr
from .algebroid import KappaFamily, generator
from .forms import (AlgebroidForm, _perm_sign, along_sections, cartan_three_form,
                    exterior_derivative, koszul, pullback_anchor)
from .liealg import make_group, per_point
from .sections import (InterpolatedFamily, TimeGrid, gauge_steps, piecewise, random_section,
                       scaled)

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

@functools.cache
def _gl01(n):
    """The n-node Gauss-Legendre rule mapped to [0, 1], built once per n;
    the nodes and weights are read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class SimplexRule:
    """Tensorized 8-node Gauss-Legendre rules mapped onto the standard k-simplex."""

    dimension: int
    nodes: tuple = field(init=False, repr=False)
    weights: tuple = field(init=False, repr=False)

    def __post_init__(self):
        k, n = self.dimension, 8
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


@functools.cache
def _simplex_rule(k):
    """SimplexRule(k), built once, on first use: built at import, the rules
    raised the benchmark's peak RSS by 1-2.5 MB on every workload."""
    return SimplexRule(k)


# ---------------------------------------------------------------------------
# g-valued algebroid 1-forms
# ---------------------------------------------------------------------------

def oneform_zero(algebra):
    return AlgebroidForm(algebra, 1, lambda g, s: np.zeros(algebra.point_axes(g) + (algebra.dim,)),
                         name="0")


def oneform_theta_left(algebra):
    """a* theta^L: the left Maurer-Cartan form on the anchor."""
    return AlgebroidForm(algebra, 1, lambda g, s: algebra.Ad(algebra.inv(g), s.v(g)),
                         name="a*thetaL")


def _map_derivative(algebra, phi, g, v):
    """D_v Phi, one stencil call of phi (a map of stacks of points), and Phi(g)^{-1};
    a 4x4 map that drops its point axes passes the 4-point stencil, not this check."""
    d, value = algebra.stencil_derivative(phi, g, v), phi(g)
    if d.shape != np.shape(value):
        raise ValueError(f"a gauge map must keep the point axes: D_v Phi {d.shape}, "
                         f"Phi(g) {np.shape(value)}")
    return d, algebra.inv(value)


def map_theta_right(algebra, phi, g, v):
    """(Phi* theta^R)(X) = (D_v Phi) Phi^{-1} in coefficients."""
    d, inv = _map_derivative(algebra, phi, g, v)
    return algebra.from_matrix(d @ inv)


def map_theta_left(algebra, phi, g, v):
    """(Phi* theta^L)(X) = Phi^{-1} (D_v Phi) in coefficients."""
    d, inv = _map_derivative(algebra, phi, g, v)
    return algebra.from_matrix(inv @ d)


def gauge_transform(phi, beta):
    """Phi . beta = Ad_Phi(beta) - Phi* theta^R for a map Phi: G -> G."""
    alg = beta.algebra

    def value(g, sec):
        out = alg.Ad(phi(g), beta(g, sec))
        return out - map_theta_right(alg, phi, g, sec.v(g))

    return AlgebroidForm(alg, 1, value, name=f"Phi.{beta.name}")


class GaugePeriodicFamily(InterpolatedFamily):
    """A t-family of algebroid 1-forms with beta_{t+1} = Phi . beta_t.

    beta_t interpolates beta_n = Phi^n . beta_0 through the bump; the gauge
    step is (k, c) = (Phi(g), -Phi* theta^R(a(sec))).
    """

    def __init__(self, algebra, beta0, phi):
        super().__init__(algebra)
        self.beta0 = beta0
        self.phi = phi

    def base(self, g, sec):
        return self.beta0(g, sec)

    def step(self, g, sec):
        return self.phi(g), -map_theta_right(self.algebra, self.phi, g, sec.v(g))

    def at(self, t):
        return AlgebroidForm(self.algebra, 1, lambda g, sec: self.value(t, g, sec), name="beta_t")

    def gauge_residual(self, t, g, sec):
        lhs = self.value(t + 1.0, g, sec)
        gt = gauge_transform(self.phi, self.at(t))
        return float(np.linalg.norm(lhs - gt(g, sec)))


# ---------------------------------------------------------------------------
# the simplex integrand
# ---------------------------------------------------------------------------

class _PairData:
    """Cached per-(argument pair) data for F^{beta(s)} evaluation."""

    def __init__(self, algebra, betas, args, g, x=None):
        self.alg = algebra
        self.betas = betas
        self.args = args
        self.g = g
        self._values = {}       # (form index, arg index) -> vector
        self._dbeta = {}        # (form index, i, j) -> vector, i < j
        self._brackets = {}     # (i, j) -> bracket section
        self.x = x
        self._iota = {}

    def value(self, fi, ai):
        key = (fi, ai)
        if key not in self._values:
            self._values[key] = self.betas[fi](self.g, self.args[ai])
        return self._values[key]

    def _bracket_section(self, i, j):
        key = (i, j)
        if key not in self._brackets:
            self._brackets[key] = albr.bracket(self.args[i], self.args[j])
        return self._brackets[key]

    def dbeta(self, fi, i, j):
        """Koszul differential of beta_fi on the argument pair (i, j)."""
        if i > j:
            return -self.dbeta(fi, j, i)
        key = (fi, i, j)
        if key not in self._dbeta:
            # the cached bracket section keeps the t-family memos warm
            d = koszul(self.betas[fi], along_sections, lambda si, sj: self._bracket_section(i, j))
            self._dbeta[key] = d(self.g, self.args[i], self.args[j])
        return self._dbeta[key]

    def iota_x(self, fi):
        """Contraction of beta_fi with the action generator of x."""
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
    the blocks; 0-degree blocks consume no arguments.  A block may carry
    leading node axes (broadcast against the other blocks'), and the sum is
    then one value per node, each as it would be computed alone.
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


def _upsilon_core(p, betas, g, args, x):
    """The simplex integral with the display prefactor, on the rule of the
    (len(betas) - 1)-simplex: one wedge evaluation on all the rule's nodes,
    and one point at a time over any leading point axes of g.
    """
    if np.ndim(g) > 2:
        return per_point(lambda point: _upsilon_core(p, betas, point, args, x), g)
    alg = p.algebra
    m = p.degree
    k = len(betas) - 1
    rule = _simplex_rule(k)
    r = len(args)
    if (r - k) % 2 != 0:
        return 0.0
    n_f = (r - k) // 2
    n_z = m - k - n_f
    if n_f < 0 or n_z < 0:
        return 0.0
    if n_z > 0 and x is None:
        return 0.0

    data = _PairData(alg, betas, args, g, x=x)
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


def upsilon(p, betas, g, args):
    """Bott form Upsilon^p(beta_0..beta_k) evaluated on argument sections."""
    return _upsilon_core(p, betas, g, args, None)


def upsilon_equivariant(p, betas, x, g, args):
    """Equivariant Bott form at the algebra element x (graded by len(args))."""
    return _upsilon_core(p, betas, g, args, np.asarray(x, dtype=float))


def rectangle_integral(p, family, g, args, x=None):
    """I^p({beta_t}) = int over [0,1]^2 of p(F^{s beta_t} (+x)) in the (ds, dt) slot,
    on 8 Gauss-Legendre nodes in s and 32 in t.

    family must provide value(t, g, sec), tderiv(t, g, sec) and at(t), for
    arrays of times t.  The integrand is one wedge evaluation on all
    32 x 8 nodes; over leading point axes of g the integral is taken one
    point at a time.
    """
    if np.ndim(g) > 2:
        return per_point(lambda point: rectangle_integral(
            p, family, point, args, x=x), g)
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

    s_nodes, s_weights = _gl01(8)
    t_nodes, t_weights = _gl01(32)
    coeff = math.factorial(m) / (math.factorial(n_f) * math.factorial(n_z))
    reorder = -1.0                     # dt crosses the ds-slot 1-form

    # beta_t and its derivatives on all t nodes at once; row ti is t_nodes[ti],
    # and every block carries the node axes (t, s)
    data = _PairData(alg, [family.at(t_nodes)], args, g, x=x)
    dvals = [family.tderiv(t_nodes, g, a)[:, None, :] for a in args]
    s = s_nodes[None, :, None]
    s2 = (s_nodes * s_nodes)[None, :, None]

    def f_eval(pair):
        i, j = pair
        brk = alg.bracket(data.value(0, i), data.value(0, j))
        return s * data.dbeta(0, i, j)[:, None, :] + s2 * brk[:, None, :]

    blocks = [(1, lambda idx: data.value(0, idx[0])[:, None, :]),
              (1, lambda idx: s * dvals[idx[0]])]
    blocks += [(2, f_eval)] * n_f
    if n_z:
        zv = np.asarray(x, dtype=float) - s * data.iota_x(0)[:, None, :]
        blocks += [(0, lambda idx: zv)] * n_z
    # summed from 0.0, t outer and s inner, exactly as node by node
    total = 0.0
    for wt, row in zip(t_weights, _p_wedge(p, blocks, r).tolist()):
        for ws, value in zip(s_weights, row):
            total += wt * ws * value
    return reorder * coeff * total


# ---------------------------------------------------------------------------
# signs of the construction
# ---------------------------------------------------------------------------

# J(beta_0..beta_k) below is the bare simplex integral of p(F^beta), before
# the display prefactor (-1)^[(k+1)/2], which is -1 at k = 1.
LEMMA_ORIENTATION = -1.0   # Upsilon_G(0, kappa_1) - Upsilon_G(0, kappa_0) = -d_G I: Stokes on
                           # the ds dt-oriented square gives d_G I = J(0, kappa_1) - J(0, kappa_0)
                           # (its s = 0 edge has beta = 0, its s = 1 edge the flat kappa_t)
ETA_P_VS_ETA = 1.0         # Upsilon^p(0, a* theta^L) = +eta: Maurer-Cartan makes
                           # F^{s theta^L} = ((s^2 - s)/2) [theta^L, theta^L], so
                           # J(0, theta^L) = -eta, and the prefactor -1 turns it to +eta
CS_VS_BOTT = -1.0          # Upsilon^p(0, beta) = -CS(beta): J(0, beta) is the Chern-Simons
                           # transgression of p(F^beta), and the prefactor is -1
KAC_MOODY = 1.0            # sigma^p = +int xi'.zeta on loops at the unit: varpi^p = varpi for
                           # the quadratic p, and varpi(xi, zeta) = int xi'.zeta where v = 0,
                           # the Kac-Moody cocycle (Pressley-Segal, Loop Groups, ch. 4)

# Every orientation sign of the Bott forms, with its source; the report's
# convention_table block echoes them.  The sign of the class 2-form is
# qham.OMEGA_SIGN.
SIGNS = {
    "upsilon_k0": (1.0, "the display of Upsilon at k = 0"),
    "upsilon_k1": (1.0, "the display of Upsilon at k = 1, prefactor included; eta^p = eta "
                        "and the flat-family transgression hold at it"),
    "upsilon_k2": (1.0, "the display of Upsilon at k = 2, prefactor included; varpi^p = "
                        "varpi holds at it (no Stokes identity fixes it)"),
    "rectangle": (1.0, "the (ds, dt) slot order of I^p; varpi^p = varpi, with varpi pinned "
                       "by closed-form spot values, holds at it"),
    "lemma_orientation": (LEMMA_ORIENTATION, "bott.LEMMA_ORIENTATION: Stokes on the square "
                                             "and the display prefactor"),
    "eta_p_vs_eta": (ETA_P_VS_ETA, "bott.ETA_P_VS_ETA: Maurer-Cartan and the display "
                                   "prefactor"),
    "cs_vs_bott": (CS_VS_BOTT, "bott.CS_VS_BOTT: the Chern-Simons transgression and the "
                               "display prefactor"),
    "kac_moody": (KAC_MOODY, "bott.KAC_MOODY: varpi^p = varpi on loops (Pressley-Segal ch. 4)"),
}

_CONVENTIONS = None


def calibrate_conventions():
    """Evaluate once, on su2 at the default step FD_STEP, the identities that
    hold at the fixed signs of SIGNS, whatever step the checks take.

    Returns a dict: `signs` and `sources` (SIGNS), `mismatch`, the relative
    mismatch |lhs - rhs| / max(1, |rhs|) of each identity, and `unmeasured`,
    the identities whose two sides are both exactly 0.0 and so measure
    nothing (the two Stokes identities: their forms vanish on the sections
    they are given).  The identities are Stokes at k = 1 and k = 2, the
    quadratic identity varpi^p = varpi (whose right side is pinned by
    closed-form spot values), the flat-family transgression and
    Upsilon^p(0, theta^L) = eta.
    """
    global _CONVENTIONS
    if _CONVENTIONS is not None:
        return _CONVENTIONS
    mismatch, unmeasured = {}, []

    def record(label, lhs, rhs):
        if lhs == 0.0 and rhs == 0.0:
            unmeasured.append(label)
        mismatch[label] = float(abs(lhs - rhs) / max(1.0, abs(rhs)))

    alg = make_group("su2")
    p = alg.polynomials[2]
    rng = np.random.default_rng(971)
    g = alg.random_group(rng)
    args3 = [random_section(alg, rng) for _ in range(3)]
    for _ in range(4):    # drawn and unused: the rest of the stream stays where it was
        random_section(alg, rng)

    thl = oneform_theta_left(alg)
    c = alg.random_vector(rng, 0.5)
    beta1 = AlgebroidForm(alg, 1, lambda gg, s: thl(gg, s) * 0.4
                          + scaled(alg.pairing(c, s.v(gg)), c), name="beta1")
    kappa = KappaFamily(alg)
    beta2 = kappa.at(0.3)

    # Stokes, k = 1: d Upsilon(b0, b1) = Upsilon(b1) - Upsilon(b0)
    u1 = AlgebroidForm(alg, 2, lambda gg, *ss: _upsilon_core(p, [thl, beta1], gg, ss, None))
    du1 = exterior_derivative(u1)
    record("Stokes k=1", du1(g, *args3),
           _upsilon_core(p, [beta1], g, args3, None) - _upsilon_core(p, [thl], g, args3, None))

    # Stokes, k = 2: d Upsilon(b0,b1,b2) = Upsilon(b1,b2) - Upsilon(b0,b2) + Upsilon(b0,b1)
    u2 = AlgebroidForm(alg, 1, lambda gg, *ss: _upsilon_core(p, [thl, beta1, beta2], gg, ss, None))
    du2 = exterior_derivative(u2)
    record("Stokes k=2", du2(g, *args3[:2]),
           _upsilon_core(p, [beta1, beta2], g, args3[:2], None)
           - _upsilon_core(p, [thl, beta2], g, args3[:2], None)
           + _upsilon_core(p, [thl, beta1], g, args3[:2], None))

    # the quadratic identity varpi^p = varpi on a section pair
    from .lifting import canonical_two_form
    x = alg.random_vector(rng)
    zero = oneform_zero(alg)
    kap0, kap1 = kappa.at(0.0), kappa.at(1.0)
    pair = args3[:2]
    i_raw = rectangle_integral(p, kappa, g, pair, x=x)
    ups = _upsilon_core(p, [zero, thl, kap0], g, pair, x)
    want = canonical_two_form(pair[0], pair[1], g, TimeGrid(201))
    record("quadratic varpi^p = varpi", i_raw, want + ups)

    # the flat-family transgression
    iform = AlgebroidForm(alg, 2, lambda gg, *ss: rectangle_integral(p, kappa, gg, ss, x=x))
    d_i = exterior_derivative(iform)
    lhs3 = (_upsilon_core(p, [zero, kap1], g, args3, x)
            - _upsilon_core(p, [zero, kap0], g, args3, x))
    record("flat-family transgression", lhs3, LEMMA_ORIENTATION * d_i(g, *args3))

    # Upsilon^p(0, theta^L) against the Cartan form
    eta = pullback_anchor(cartan_three_form(alg))
    record("eta^p = eta", _upsilon_core(p, [zero, thl], g, args3, None),
           ETA_P_VS_ETA * eta(g, *args3))
    _CONVENTIONS = {"signs": {name: sign for name, (sign, _) in SIGNS.items()},
                    "sources": {name: source for name, (_, source) in SIGNS.items()},
                    "mismatch": mismatch, "unmeasured": unmeasured}
    return _CONVENTIONS


# ---------------------------------------------------------------------------
# Chern-Simons forms and the Q functional
# ---------------------------------------------------------------------------

def chern_simons(beta, g, args):
    """CS(beta) = (1/2)(d beta) . beta + (1/6) beta . [beta, beta] on three sections."""
    alg = beta.algebra
    data = _PairData(alg, [beta], args, g)
    total = 0.0
    # (2,1) shuffles: B(d beta(i,j), beta(k))
    for (i, j), (k,) in _shuffle_blocks((0, 1, 2), (2, 1)):
        total += 0.5 * _perm_sign((i, j, k)) * alg.pairing(data.dbeta(0, i, j), data.value(0, k))
    # (1,2) shuffles: B(beta(i), [beta,beta](j,k)) with [beta,beta](a,b) = 2[b(a),b(b)]
    for (i,), (j, k) in _shuffle_blocks((0, 1, 2), (1, 2)):
        br = 2.0 * alg.bracket(data.value(0, j), data.value(0, k))
        total += (1.0 / 6.0) * _perm_sign((i, j, k)) * alg.pairing(data.value(0, i), br)
    return total


def q_functional(family, g, a1, a2, grid):
    """Q^beta = (1/2) Phi* theta^L . beta_0 + (1/2) int beta_t . beta_t' dt."""
    alg = family.algebra
    phi = family.phi
    tl1 = map_theta_left(alg, phi, g, a1.v(g))
    tl2 = map_theta_left(alg, phi, g, a2.v(g))
    b01 = family.value(0.0, g, a1)
    b02 = family.value(0.0, g, a2)
    out = 0.5 * (alg.pairing(tl1, b02) - alg.pairing(tl2, b01))
    ts = grid.nodes
    out += 0.5 * grid.integrate(
        alg.pairing(family.value(ts, g, a1), family.tderiv(ts, g, a2))
        - alg.pairing(family.value(ts, g, a2), family.tderiv(ts, g, a1)))
    return out


def q_concat_lambda(alg, phi1, phi2, g, a1, a2):
    """The concatenation defect (1/2) Phi2* theta^L . Phi1* theta^R on a pair.

    Convention: for Q(beta2 * beta1) = Q(beta1) + Q(beta2) + lambda-term, the
    theta^L leg rides the gauge of the outer (second) family; this matches
    the closed-form fusion identity on generators.
    """
    v1, v2 = a1.v(g), a2.v(g)
    lam = alg.pairing(map_theta_left(alg, phi2, g, v1), map_theta_right(alg, phi1, g, v2))
    lam -= alg.pairing(map_theta_left(alg, phi2, g, v2), map_theta_right(alg, phi1, g, v1))
    return 0.5 * lam


def concat_families(f1, f2, algebra):
    """beta2 * beta1 with the doubled-speed parametrization and product gauge.

    On [0, 1] the concatenation runs f1, then f2, at double speed; beyond it
    extends by the gauge step of Phi2 Phi1.
    """

    def half(t):
        return t > 0.5

    class _Concat:
        def __init__(self):
            self.algebra = algebra
            self.phi = lambda g: f2.phi(g) @ f1.phi(g)

        def value(self, t, g, sec):
            def piece(n, tn):
                val = piecewise(tn - n, half, lambda second, s:
                                (f2 if second else f1).value(2.0 * s - second, g, sec))
                if n == 0:
                    return val
                c = -map_theta_right(algebra, self.phi, g, sec.v(g))
                return gauge_steps(algebra, n, val, self.phi(g), c)
            return piecewise(t, np.floor, piece)

        def tderiv(self, t, g, sec):
            def piece(n, tn):
                val = piecewise(tn - n, half, lambda second, s:
                                2.0 * (f2 if second else f1).tderiv(2.0 * s - second, g, sec))
                return gauge_steps(algebra, n, val, self.phi(g))
            return piecewise(t, np.floor, piece)

        def at(self, t):
            return AlgebroidForm(algebra, 1, lambda g, sec: self.value(t, g, sec))

    return _Concat()


# ---------------------------------------------------------------------------
# higher primitives and Pressley-Segal forms
# ---------------------------------------------------------------------------

def eta_p_form(p):
    """eta^p_G = Upsilon^p_G(0, a* theta^L) as an algebroid form factory.

    Returns a callable (x, g, args) -> value; the argument count selects the
    graded component.
    """
    alg = p.algebra
    zero = oneform_zero(alg)
    thl = oneform_theta_left(alg)

    def equivariant(x, g, args):
        return upsilon_equivariant(p, [zero, thl], x, g, args)

    return equivariant


def varpi_p_equivariant(p):
    """varpi^p_G = I^p({kappa_t}) - Upsilon^p(0, a* theta^L, kappa_0).

    Returns a callable (x, g, args) -> value covering every graded component;
    kappa_t' is each section's analytic dprofile, or for a section without
    one the central difference at sections.T_STEP.
    """
    alg = p.algebra
    fam = KappaFamily(alg)
    zero = oneform_zero(alg)
    thl = oneform_theta_left(alg)
    kap0 = fam.at(0.0)

    def value(x, g, args):
        out = rectangle_integral(p, fam, g, args, x=x)
        out -= upsilon_equivariant(p, [zero, thl, kap0], x, g, args)
        return out

    return value


def pressley_segal_two_form(p):
    """sigma^p: the pull-back of varpi^p to loops at the group unit."""
    vpg = varpi_p_equivariant(p)
    alg = p.algebra
    x0 = np.zeros(alg.dim)

    def value(g_unit, args):
        return vpg(x0, g_unit, args)

    return value
