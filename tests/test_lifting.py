"""Central extension, splitting cocycle, the 2-form and the lifted bracket."""

import numpy as np
import pytest

from atiyahcheck.algebroid import build_alpha, generator, invariant_alpha0
from atiyahcheck.bott import _gl01
from atiyahcheck.checks import REGISTRY, CheckContext
from atiyahcheck.forms import AlgebroidForm, cartan_three_form, de_rham_differential
from atiyahcheck.homotopy import poincare_primitive
from atiyahcheck.lifting import (ExtendedLSection, bracket_lhat,
                                 canonical_two_form, central_cocycle,
                                 dtheta_j, dtheta_j_definitional,
                                 eta_from_data, lifted_jacobiator_scalar,
                                 nabla_hat, q_alpha, q_alpha_closed_form)
from atiyahcheck.liealg import make_group
from atiyahcheck.sections import (BumpFunction, TimeGrid, loop_section, scaled,
                                  random_section, random_twisted_loop)


@pytest.fixture
def su2():
    return make_group("su2")


@pytest.fixture
def grid():
    return TimeGrid(201)


@pytest.fixture
def rng():
    return np.random.default_rng(23)


def _sincos_pair(alg):
    e1 = np.zeros(alg.dim); e1[0] = 1.0
    w = 2 * np.pi
    s1 = loop_section(alg, lambda t: scaled(np.sin(w * t), e1),
                      lambda t: scaled(w * np.cos(w * t), e1))
    s2 = loop_section(alg, lambda t: scaled(np.cos(w * t), e1),
                      lambda t: scaled(-w * np.sin(w * t), e1))
    return s1, s2


def test_sigma_values(su2, grid):
    s1, s2 = _sincos_pair(su2)
    ge = su2.identity()
    assert abs(central_cocycle(s1, s2, ge, grid) + np.pi) < 1e-7
    # constant loops give zero
    c = loop_section(su2, lambda t: scaled(np.ones(np.shape(t)), np.array([0.3, -0.2, 0.5])),
                     lambda t: np.zeros(np.shape(t) + (3,)))
    assert abs(central_cocycle(c, s2, ge, grid)) < 1e-12
    # orthogonal directions integrate to zero
    e2 = np.array([0.0, 1.0, 0.0])
    w = 2 * np.pi
    s3 = loop_section(su2, lambda t: scaled(np.cos(w * t), e2),
                      lambda t: scaled(-w * np.sin(w * t), e2))
    assert abs(central_cocycle(s1, s3, ge, grid)) < 1e-10


def test_lhat_bracket_central(su2, grid, rng):
    g = su2.random_group(rng, scale=0.5)
    z1 = random_twisted_loop(su2, rng)
    z2 = random_twisted_loop(su2, rng)
    a = ExtendedLSection.split(z1)
    b = ExtendedLSection.split(z2)
    br = bracket_lhat(a, b, grid)
    # body is minus the pointwise bracket; scalar is -sigma
    t0 = 0.4
    want = -su2.bracket(z1.profile(g, t0), z2.profile(g, t0))
    assert np.linalg.norm(br.body.profile(g, t0) - want) < 1e-9
    assert abs(br.scalar(g) + central_cocycle(z1, z2, g, grid)) < 1e-12
    # central elements bracket to zero
    central = ExtendedLSection(
        loop_section(su2, lambda t: np.zeros(np.shape(t) + (3,)),
                     lambda t: np.zeros(np.shape(t) + (3,))), 1.0)
    out = bracket_lhat(central, b, grid)
    assert np.linalg.norm(out.body.profile(g, t0)) < 1e-13
    assert abs(out.scalar(g)) < 1e-13


def test_nabla_hat_generator_scalar(su2, grid, rng):
    # generator sections have constant profiles, so the flux term vanishes
    g = su2.random_group(rng, scale=0.5)
    x = su2.random_vector(rng)
    xa = generator(su2, x)
    body = random_twisted_loop(su2, rng)
    b = ExtendedLSection(body, 0.0)
    out = nabla_hat(xa, b, grid)
    drift_only = su2.directional(lambda gg: np.array(0.0), g, xa.v(g))
    assert abs(out.scalar(g) - float(drift_only)) < 1e-10


def test_varpi_specializations(su2, grid, rng):
    ge = su2.identity()
    s1, s2 = _sincos_pair(su2)
    # on loops varpi is the Kac-Moody cocycle int xi'.zeta
    got = canonical_two_form(s1, s2, ge, grid)
    assert abs(got - np.pi) < 1e-7
    # antisymmetry on random data
    g = su2.random_group(rng)
    xi, ze = random_section(su2, rng), random_section(su2, rng)
    assert abs(canonical_two_form(xi, ze, g, grid)
               + canonical_two_form(ze, xi, g, grid)) < 1e-6


def test_varpi_so3_spot_value():
    so3 = make_group("so3")
    grid = TimeGrid(201)
    e = np.eye(3)
    g = so3.exp(0.5 * np.pi * e[2])
    val = canonical_two_form(generator(so3, e[0]), generator(so3, e[1]), g, grid)
    assert abs(val + 1.0) < 1e-12


def test_dtheta_j_routes(su2, grid, rng):
    alpha = build_alpha(su2, alpha0=invariant_alpha0(su2, (0.2, -0.3, 0.1)),
                        invariant=True)
    g = su2.random_group(rng, scale=0.5)
    xi = random_section(su2, rng)
    ze = random_twisted_loop(su2, rng)
    r1 = dtheta_j(alpha, g, xi.v(g), ze, grid)
    r2 = dtheta_j_definitional(alpha, xi, ze, g, grid)
    assert abs(r1 - r2) < 1e-10
    # alpha_0 = 0 reduces to int f' v.zeta
    zero_alpha = build_alpha(su2)
    bump = BumpFunction()
    from atiyahcheck.sections import extend, integrate_01
    v = xi.v(g)
    want = integrate_01(
        lambda t: bump.deriv(t) * su2.pairing(v, extend(ze, g, t)), grid)
    got = dtheta_j(zero_alpha, g, v, ze, grid)
    assert abs(got - want) < 1e-10


def test_q_alpha(su2, grid, rng):
    g = su2.random_group(rng)
    v, w = su2.random_vector(rng), su2.random_vector(rng)
    zero_alpha = build_alpha(su2)
    assert abs(q_alpha(zero_alpha, g, v, w, grid)) < 1e-14
    alpha = build_alpha(su2, alpha0=invariant_alpha0(su2, (0.4, 0.2, -0.1)),
                        invariant=True)
    assert abs(q_alpha(alpha, g, v, w, grid)
               - q_alpha_closed_form(alpha, g, v, w)) < 1e-8


def test_eta_from_data_abelian():
    tor = make_group("torus2")
    rng = np.random.default_rng(5)
    etad = eta_from_data(build_alpha(tor), TimeGrid(51))
    g = tor.random_group(rng)
    vs = [tor.random_vector(rng) for _ in range(3)]
    assert abs(etad(g, *vs)) < 1e-13


def test_lifted_jacobiator_obstruction(su2, rng):
    grid = TimeGrid(101)
    alpha = build_alpha(su2)
    eta = cartan_three_form(su2)
    g = su2.random_group(rng, scale=0.5)
    vs = [su2.random_vector(rng) for _ in range(3)]
    fields = [lambda gg, vv=v: vv for v in vs]
    jac = lifted_jacobiator_scalar(None, alpha, fields, g, grid)
    assert abs(jac - eta(g, *vs)) < 1e-9


def _oracle_push(alg, x, u, h, ginv):
    """theta^R(d exp_x(u)) as first written: four single exponentials."""
    def at(s):
        return alg.exp(x + s * u)
    d1 = (at(h) - at(-h)) @ ginv / (2.0 * h)
    d2 = (at(2 * h) - at(-2 * h)) @ ginv / (4.0 * h)
    return alg.from_matrix((4.0 * d1 - d2) / 3.0)


def _oracle_primitive(omega, sign, n_radial=24, h=1e-4):
    """The radial primitive as first written: the chart pull-back of omega
    and the radial sum, node by node and one exponential at a time."""
    alg, k = omega.algebra, omega.degree
    nodes, weights = _gl01(n_radial)

    def chart_pullback(y, *us):
        g = alg.exp(y)
        ginv = alg.inv(g)
        return float(omega(g, *[_oracle_push(alg, y, u, h, ginv) for u in us]))

    def radial_primitive(x, *us):
        total = 0.0
        for s, w in zip(nodes, weights):
            total += w * (s ** (k - 1)) * chart_pullback(s * x, x, *us)
        return float(total)

    def primitive(g, *vs):
        x = alg.log(g)
        ginv = alg.inv(alg.exp(x))
        cols = [_oracle_push(alg, x, u, h, ginv) for u in np.eye(alg.dim)]
        back = np.linalg.inv(np.array(cols).T)
        return sign * radial_primitive(x, *[back @ v for v in vs])

    return primitive


def _primitive_cases():
    # -eta, and the 1-forms behind lifting.equivariant_generators
    for name in ("heisenberg3", "torus2"):
        alg = make_group(name)
        x = np.linspace(0.4, -0.7, alg.dim)
        yield AlgebroidForm(alg, 1, lambda g, a, alg=alg, x=x: -0.5 * alg.pairing(
            alg.maurer_cartan(g, a, "left") + a, x)), 1.0
    yield cartan_three_form(make_group("heisenberg3")), -1.0
    yield cartan_three_form(make_group("su2")), -1.0     # eta is not zero here


def test_poincare_primitive_matches_node_by_node_oracle():
    rng = np.random.default_rng(29)
    for omega, sign in _primitive_cases():
        alg = omega.algebra
        prim, oracle = poincare_primitive(omega, sign=sign), _oracle_primitive(omega, sign)
        for _ in range(3):
            g = alg.random_group(rng, scale=0.6)
            vs = [alg.random_vector(rng) for _ in range(omega.degree - 1)]
            assert prim(g, *vs) == oracle(g, *vs)


def test_poincare_primitive_heisenberg(rng):
    h3 = make_group("heisenberg3")
    one = AlgebroidForm(h3, 1, lambda g, a: g[..., 0, 1] * a[..., 0]
                        + np.sin(g[..., 1, 2]) * a[..., 1] + g[..., 0, 2] * a[..., 2])
    closed = de_rham_differential(one)
    prim = poincare_primitive(closed, sign=1.0)
    dprim = de_rham_differential(prim)
    g = h3.random_group(rng)
    x1, x2 = h3.random_vector(rng), h3.random_vector(rng)
    assert abs(dprim(g, x1, x2) - closed(g, x1, x2)) < 1e-6


def test_poincare_primitive_rejects_a_form_without_a_batch_axis():
    h3 = make_group("heisenberg3")
    one = AlgebroidForm(h3, 1, lambda g, a: g[0, 1] * a[0])
    with pytest.raises(ValueError, match="batch axis"):
        poincare_primitive(one)(h3.identity())


def test_heisenberg_eta_vanishes_and_the_primitive_check_says_so():
    # B is zero on the centre, which holds every bracket, so eta is exactly 0
    # and lifted_jacobi_primitive compares against omega = 0 there
    h3 = make_group("heisenberg3")
    eta = cartan_three_form(h3)
    rng = np.random.default_rng(43)
    for _ in range(6):
        g = h3.random_group(rng)
        assert eta(g, *[h3.random_vector(rng) for _ in range(3)]) == 0.0
    spec = next(s for s in REGISTRY if s.name == "lifted_jacobi_primitive")
    for group, noted in (("heisenberg3", True), ("torus2", False)):
        results = spec.fn(CheckContext(group, {"seed": 42}))
        assert [r.name for r in results] == ["lifted_jacobi_primitive"]
        assert all(r.passed for r in results)
        assert ("eta vanishes identically" in results[0].notes) == noted
