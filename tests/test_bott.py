"""Bott simplex forms, Chern-Simons calculus and the Q functional."""

import numpy as np
import pytest

from atiyahcheck.algebroid import KappaFamily, generator
from atiyahcheck.bott import (GaugePeriodicFamily, SimplexRule, calibrate_conventions,
                              chern_simons, chern_simons_equivariant, concat_families,
                              gauge_transform, map_theta_right, oneform_theta_left,
                              oneform_zero, pressley_segal_two_form, q_functional,
                              rectangle_integral, upsilon, upsilon_equivariant,
                              varpi_p_equivariant)
from atiyahcheck.forms import AlgebroidForm
from atiyahcheck.lifting import canonical_two_form
from atiyahcheck.liealg import make_group, quadratic_polynomial
from atiyahcheck.sections import TimeGrid, integrate_01, random_loop_section, random_section


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
    const = AlgebroidForm(tor, 1, lambda gg, s: tor.pairing(c, s.v(gg)) * c, scalar=False)
    assert abs(chern_simons(const, gt, tsecs)) < 1e-9


def test_cs_equivariant_component(su2, rng):
    g = su2.random_group(rng)
    x = su2.random_vector(rng)
    sec = random_section(su2, rng)
    thl = oneform_theta_left(su2)
    got = chern_simons_equivariant(thl, x, g, [sec])
    xa = generator(su2, x)
    iota = thl(g, xa)
    val = thl(g, sec)
    want = -0.5 * su2.pairing(iota, val) + su2.pairing(val, x)
    assert abs(got - want) < 1e-12
    with pytest.raises(ValueError):
        chern_simons_equivariant(thl, x, g, [sec, sec])


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
    from atiyahcheck.sections import loop_section
    p = quadratic_polynomial(su2)
    ps = pressley_segal_two_form(p, conv)
    e1 = np.array([1.0, 0.0, 0.0])
    w = 2 * np.pi
    s1 = loop_section(su2, lambda t: np.sin(w * t) * e1,
                      lambda t: w * np.cos(w * t) * e1)
    s2 = loop_section(su2, lambda t: np.cos(w * t) * e1,
                      lambda t: -w * np.sin(w * t) * e1)
    val = ps(su2.identity(), [s1, s2])
    assert abs(abs(val) - np.pi) < 1e-7
    # constant loops pair to zero
    c = loop_section(su2, lambda t: e1, lambda t: np.zeros(3))
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
