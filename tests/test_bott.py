"""Bott simplex forms, Chern-Simons calculus and the Q functional."""

import math

import numpy as np
import pytest

from atiyahcheck.algebroid import KappaFamily
from atiyahcheck.bott import (GaugePeriodicFamily, SimplexRule, _PairData, _p_wedge,
                              _upsilon_core, calibrate_conventions,
                              chern_simons, concat_families,
                              gauge_transform, map_theta_right, oneform_theta_left,
                              oneform_zero, pressley_segal_two_form, q_functional,
                              rectangle_integral, upsilon, upsilon_equivariant,
                              varpi_p_equivariant)
from atiyahcheck.forms import AlgebroidForm
from atiyahcheck.lifting import canonical_two_form
from atiyahcheck.liealg import cubic_polynomial, make_group, quadratic_polynomial
from atiyahcheck.sections import TimeGrid, integrate_01, random_section, scaled


@pytest.fixture(scope="module")
def conv():
    return calibrate_conventions()


@pytest.fixture
def su2():
    return make_group("su2")


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def test_simplex_rules():
    r0 = SimplexRule(0)
    assert sum(r0.weights) == 1.0
    r1 = SimplexRule(1)
    assert abs(sum(r1.weights) - 1.0) < 1e-13
    r2 = SimplexRule(2)
    assert abs(sum(r2.weights) - 0.5) < 1e-13
    with pytest.raises(ValueError):
        SimplexRule(3)


def test_convention_table_shape(conv):
    table = conv.as_dict()
    assert set(table) >= {"upsilon_k1", "upsilon_k2", "rectangle",
                          "lemma_orientation", "eta_p_vs_eta"}
    for key in ("upsilon_k1", "upsilon_k2", "rectangle", "eta_p_vs_eta"):
        assert table[key] in (1.0, -1.0)


def test_upsilon_flat_zero(su2, conv, rng):
    # k = 0 on a flat connection: p(F) = 0
    p = quadratic_polynomial(su2)
    thl = oneform_theta_left(su2)
    g = su2.random_group(rng)
    secs = [random_section(su2, rng) for _ in range(4)]
    assert abs(upsilon(p, [thl], g, secs, conventions=conv)) < 1e-9
    assert abs(upsilon(p, [oneform_zero(su2)], g, secs, conventions=conv)) < 1e-12


def test_eta_p_measured_sign(su2, conv, rng):
    from atiyahcheck.forms import cartan_three_form, pullback_anchor
    p = quadratic_polynomial(su2)
    eta = pullback_anchor(cartan_three_form(su2))
    g = su2.random_group(rng)
    secs = [random_section(su2, rng) for _ in range(3)]
    got = upsilon(p, [oneform_zero(su2), oneform_theta_left(su2)], g, secs,
                  conventions=conv)
    want = conv.eta_p_vs_eta * eta(g, *secs)
    assert abs(got - want) < 1e-9


def test_cs_values(su2, rng):
    g = su2.random_group(rng)
    secs = [random_section(su2, rng) for _ in range(3)]
    zero = oneform_zero(su2)
    assert abs(chern_simons(zero, g, secs)) < 1e-12
    # abelian constant form gives zero
    tor = make_group("torus2")
    gt = tor.random_group(rng)
    tsecs = [random_section(tor, rng) for _ in range(3)]
    c = tor.random_vector(rng)
    const = AlgebroidForm(tor, 1, lambda gg, s: scaled(tor.pairing(c, s.v(gg)), c),
                          scalar=False)
    assert abs(chern_simons(const, gt, tsecs)) < 1e-9


def test_rectangle_quadratic_closed_form(su2, conv, rng):
    # for the quadratic polynomial the rectangle integral reduces to the
    # kappa . kappa-dot integral (x-independent)
    p = quadratic_polynomial(su2)
    kf = KappaFamily(su2)
    g = su2.random_group(rng)
    xi, ze = random_section(su2, rng), random_section(su2, rng)
    x = su2.random_vector(rng)
    got = conv.rect_sign * rectangle_integral(p, kf, g, [xi, ze], x=x)
    grid = TimeGrid(201)
    want = -0.5 * integrate_01(
        lambda t: su2.pairing(kf.value(t, g, xi), kf.tderiv(t, g, ze))
        - su2.pairing(kf.value(t, g, ze), kf.tderiv(t, g, xi)), grid)
    assert abs(got - want) < 1e-6
    # x-independence
    got2 = conv.rect_sign * rectangle_integral(p, kf, g, [xi, ze],
                                               x=su2.random_vector(rng))
    assert abs(got - got2) < 1e-12


def test_upsilon2_closed_form(su2, conv, rng):
    # Upsilon^p_G(0, a*thetaL, kappa_0) = p(a*thetaL, kappa_0) for quadratic p
    p = quadratic_polynomial(su2)
    g = su2.random_group(rng)
    xi, ze = random_section(su2, rng), random_section(su2, rng)
    x = su2.random_vector(rng)
    zero = oneform_zero(su2)
    thl = oneform_theta_left(su2)
    kap0 = KappaFamily(su2).at(0.0)
    got = upsilon_equivariant(p, [zero, thl, kap0], x, g, [xi, ze],
                              conventions=conv)
    want = p(thl(g, xi), kap0(g, ze)) - p(thl(g, ze), kap0(g, xi))
    assert abs(got - want) < 1e-10


def test_varpi_p_equals_varpi(su2, conv, rng):
    p = quadratic_polynomial(su2)
    vpg = varpi_p_equivariant(p, conv)
    grid = TimeGrid(201)
    for _ in range(2):
        g = su2.random_group(rng)
        xi, ze = random_section(su2, rng), random_section(su2, rng)
        x = su2.random_vector(rng)
        assert abs(vpg(x, g, [xi, ze])
                   - canonical_two_form(xi, ze, g, grid)) < 1e-5


def test_pressley_segal_sin_cos(su2, conv):
    from atiyahcheck.sections import loop_section, scaled
    p = quadratic_polynomial(su2)
    ps = pressley_segal_two_form(p, conv)
    e1 = np.array([1.0, 0.0, 0.0])
    w = 2 * np.pi
    s1 = loop_section(su2, lambda t: scaled(np.sin(w * t), e1),
                      lambda t: scaled(w * np.cos(w * t), e1))
    s2 = loop_section(su2, lambda t: scaled(np.cos(w * t), e1),
                      lambda t: scaled(-w * np.sin(w * t), e1))
    val = ps(su2.identity(), [s1, s2])
    assert abs(abs(val) - np.pi) < 1e-7
    # constant loops pair to zero
    c = loop_section(su2, lambda t: scaled(np.ones(np.shape(t)), e1),
                     lambda t: np.zeros(np.shape(t) + (3,)))
    assert abs(ps(su2.identity(), [c, s2])) < 1e-9


def test_gauge_transform_composition(su2, rng):
    g = su2.random_group(rng)
    sec = random_section(su2, rng)
    thl = oneform_theta_left(su2)
    e0 = su2.random_vector(rng, 0.4)
    phi1 = lambda gg, m=su2.exp(e0): m @ gg
    phi2 = lambda gg: gg @ gg
    lhs = gauge_transform(lambda gg: phi2(gg) @ phi1(gg), thl)(g, sec)
    rhs = gauge_transform(phi2, gauge_transform(phi1, thl))(g, sec)
    assert np.linalg.norm(lhs - rhs) < 1e-9
    # constant gauge at the identity leaves forms unchanged
    ident = gauge_transform(lambda gg: np.eye(su2.matrix_size), thl)(g, sec)
    assert np.linalg.norm(ident - thl(g, sec)) < 1e-12


def test_q_functional_zero_family(su2, rng):
    g = su2.random_group(rng)
    s1, s2 = random_section(su2, rng), random_section(su2, rng)
    fam = GaugePeriodicFamily(su2, oneform_zero(su2),
                              lambda gg: np.eye(su2.matrix_size))
    assert abs(q_functional(fam, g, s1, s2, TimeGrid(101))) < 1e-12


def test_gauge_family_seams(su2, rng):
    # beta_{t+1} = Phi . beta_t on both sides of every seam, the concatenation
    # with Phi = Phi2 Phi1 included; t-derivatives follow the linear part Ad_Phi
    g = su2.random_group(rng)
    sec = random_section(su2, rng)
    thl = oneform_theta_left(su2)
    beta0 = AlgebroidForm(su2, 1, lambda gg, s: 0.4 * thl(gg, s), scalar=False)
    e0, e1 = su2.random_vector(rng, 0.4), su2.random_vector(rng, 0.4)
    phi1 = lambda gg, m=su2.exp(e0): m @ gg
    phi2 = lambda gg, m=su2.exp(e1): gg @ m
    f1 = GaugePeriodicFamily(su2, beta0, phi1)
    f2 = GaugePeriodicFamily(su2, gauge_transform(phi1, beta0), phi2)
    for fam in (f1, concat_families(f1, f2, su2)):
        k = fam.phi(g)
        c = map_theta_right(su2, fam.phi, g, sec.v(g))
        for t in (-1.4, -0.6, 0.3, 1.3):
            want = su2.Ad(k, fam.value(t, g, sec)) - c
            assert np.linalg.norm(fam.value(t + 1.0, g, sec) - want) < 1e-10
            want_d = su2.Ad(k, fam.tderiv(t, g, sec))
            assert np.linalg.norm(fam.tderiv(t + 1.0, g, sec) - want_d) < 1e-10


def test_varpi_p_differentiates_at_t_step(su2, conv, rng):
    # without an analytic d/dt, kappa' is the central difference at h_t
    from atiyahcheck.sections import AlgebroidSection, extend
    p = quadratic_polynomial(su2)
    step = 0.05
    g = su2.random_group(rng)
    x = su2.random_vector(rng)
    raw = []
    stepped = []
    for _ in range(2):
        sec = random_section(su2, rng)
        bare = AlgebroidSection(su2, sec.profile, sec.v)
        raw.append(bare)
        stepped.append(AlgebroidSection(
            su2, sec.profile, sec.v,
            dprofile=lambda gg, t, s=bare: (extend(s, gg, t + step)
                                            - extend(s, gg, t - step)) / (2.0 * step)))
    got = varpi_p_equivariant(p, conv, h_t=step)(x, g, raw)
    want = varpi_p_equivariant(p, conv)(x, g, stepped)
    fine = varpi_p_equivariant(p, conv)(x, g, raw)
    assert abs(got - want) < 1e-12
    assert abs(got - fine) > 1e-8


def _oracle_upsilon_core(p, betas, g, args, x, rule, h):
    """The simplex quadrature node by node: one wedge evaluation per node."""
    alg, m, k, r = p.algebra, p.degree, len(betas) - 1, len(args)
    n_f = (r - k) // 2
    n_z = m - k - n_f
    if (r - k) % 2 or n_f < 0 or n_z < 0 or (n_z and x is None):
        return 0.0
    data = _PairData(alg, betas, args, g, x=x, h=h)
    reorder = (-1.0) ** (k * (k - 1) // 2)
    coeff = math.factorial(m) / (math.factorial(n_f) * math.factorial(n_z))
    prefactor = (-1.0) ** ((k + 1) // 2)

    def f_block(s_full):
        def evaluate(pair):
            i, j = pair
            out = data.dbeta(0, i, j) * s_full[0]
            for fi in range(1, k + 1):
                out = out + s_full[fi] * data.dbeta(fi, i, j)
            left = sum(s_full[fi] * data.value(fi, i) for fi in range(k + 1))
            right = sum(s_full[fi] * data.value(fi, j) for fi in range(k + 1))
            return out + alg.bracket(left, right)
        return evaluate

    total = 0.0
    for node, weight in zip(rule.nodes, rule.weights):
        s_full = (1.0 - sum(node),) + tuple(node)
        blocks = [(1, lambda idx, i=i: data.value(i, idx[0]) - data.value(0, idx[0]))
                  for i in range(1, k + 1)]
        blocks += [(2, f_block(s_full))] * n_f
        if n_z:
            zv = np.asarray(data.x, dtype=float).copy()
            for fi in range(k + 1):
                zv = zv - s_full[fi] * data.iota_x(fi)
            blocks += [(0, lambda idx, zv=zv: zv)] * n_z
        total += weight * _p_wedge(p, blocks, r)
    return prefactor * reorder * coeff * total


def _random_oneform(alg, rng):
    thl = oneform_theta_left(alg)
    c, d = alg.random_vector(rng, 0.5), alg.random_vector(rng, 0.5)
    return AlgebroidForm(
        alg, 1, lambda g, s: 0.4 * thl(g, s) + scaled(alg.pairing(c, s.v(g)), alg.Ad(g, d))
        + c, scalar=False)


@pytest.mark.parametrize("name, degree", [("su2", 2), ("heisenberg3", 3)])
def test_upsilon_core_matches_node_by_node_oracle(name, degree):
    alg = make_group(name)
    p = quadratic_polynomial(alg) if degree == 2 else cubic_polynomial(alg)
    rng = np.random.default_rng(37)
    g = alg.random_group(rng)
    x = alg.random_vector(rng)
    forms = [_random_oneform(alg, rng) for _ in range(3)]
    secs = [random_section(alg, rng) for _ in range(2 * degree)]
    nonzero = 0
    for k in (0, 1, 2):
        rule = SimplexRule(k)
        for r in range(k % 2, 2 * degree + 1, 2):
            for xk in (None, x):
                got = _upsilon_core(p, forms[:k + 1], g, secs[:r], xk, rule, 1e-4)
                want = _oracle_upsilon_core(p, forms[:k + 1], g, secs[:r], xk, rule, 1e-4)
                assert got == want, (k, r, xk is None)
                nonzero += got != 0.0
    assert nonzero >= 6


@pytest.mark.parametrize("name, degree", [("su2", 2), ("heisenberg3", 3)])
def test_invariant_polynomial_over_node_axes(name, degree):
    alg = make_group(name)
    p = quadratic_polynomial(alg) if degree == 2 else cubic_polynomial(alg)
    rng = np.random.default_rng(41)
    xs = [rng.standard_normal((17, alg.dim)) for _ in range(degree)]
    batch = p(*xs)
    assert batch.shape == (17,)
    assert batch.tolist() == [p(*[x[n] for x in xs]) for n in range(17)]
    assert type(p(*[x[0] for x in xs])) is float
    # a single vector broadcasts against the node axis
    mixed = p(xs[0][0], *xs[1:])
    assert mixed.tolist() == [p(xs[0][0], *[x[n] for x in xs[1:]]) for n in range(17)]
