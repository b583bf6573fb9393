"""Algebroid structure: anchor, bracket, generators, connections, kappa."""

import numpy as np
import pytest

from atiyahcheck.algebroid import (KappaFamily, anchor, bracket, build_alpha,
                                   connection_apply, curvature, generator,
                                   generator_vertical_part, invariant_alpha0)
from atiyahcheck.liealg import make_group
from atiyahcheck.sections import BumpFunction, random_section, random_twisted_loop


@pytest.fixture
def su2():
    return make_group("su2")


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_anchor(su2, rng):
    g = su2.random_group(rng)
    z = random_twisted_loop(su2, rng)
    assert np.linalg.norm(anchor(z, g)) < 1e-13
    x = su2.random_vector(rng)
    got = anchor(generator(su2, x), g)
    assert np.linalg.norm(got - (su2.Ad(g, x) - x)) < 1e-12
    sec = random_section(su2, rng)
    assert np.allclose(anchor(sec, g), sec.v(g))


def test_generator_bracket(su2, rng):
    g = su2.random_group(rng)
    x, y = su2.random_vector(rng), su2.random_vector(rng)
    br = bracket(generator(su2, x), generator(su2, y))
    want = generator(su2, su2.bracket(x, y))
    assert np.linalg.norm(br.profile(g, 0.4) - want.profile(g, 0.4)) < 1e-10
    assert np.linalg.norm(br.v(g) - want.v(g)) < 1e-9


def test_loop_bracket_pointwise(su2, rng):
    # over loops the bracket is minus the pointwise algebra bracket
    ge = su2.identity()
    from atiyahcheck.sections import random_loop_section
    z1 = random_loop_section(su2, rng)
    z2 = random_loop_section(su2, rng)
    br = bracket(z1, z2)
    t0 = 0.37
    want = -su2.bracket(z1.profile(ge, t0), z2.profile(ge, t0))
    assert np.linalg.norm(br.profile(ge, t0) - want) < 1e-9


def test_bracket_self(su2, rng):
    g = su2.random_group(rng)
    sec = random_section(su2, rng)
    br = bracket(sec, sec)
    assert np.linalg.norm(br.profile(g, 0.3)) < 1e-9
    assert np.linalg.norm(br.v(g)) < 1e-9


def test_alpha_zero_interpolates_theta(su2, rng):
    bump = BumpFunction()
    alpha = build_alpha(su2, bump=bump)
    g = su2.random_group(rng)
    v = su2.random_vector(rng)
    for t in (0.1, 0.5, 0.93):
        assert np.linalg.norm(alpha.value(t, g, v) + bump(t) * v) < 1e-13
    # integer recursion: alpha_1 = g . alpha_0 = -theta^R
    assert np.linalg.norm(alpha.value(1.0, g, v) + v) < 1e-13


def test_abelian_alpha(rng):
    tor = make_group("torus2")
    alpha = build_alpha(tor)
    g = tor.random_group(rng)
    v = tor.random_vector(rng)
    assert np.linalg.norm(alpha.value(1.2, g, v) - (alpha.value(0.2, g, v) - v)) < 1e-13


def test_curvature_flat_cases(su2, rng):
    g = su2.random_group(rng)
    v, w = su2.random_vector(rng), su2.random_vector(rng)
    alpha = build_alpha(su2)
    # alpha_0 = 0 in the flat region of the bump: F = 0
    assert np.linalg.norm(curvature(alpha, g, 0.03, v, w)) < 1e-12
    tor = make_group("torus2")
    alpha_t = build_alpha(tor)
    gt = tor.random_group(rng)
    assert np.linalg.norm(curvature(alpha_t, gt, 0.5, v[:2], w[:2])) < 1e-12


def test_connection_apply_on_loop(su2, rng):
    alpha = build_alpha(su2, alpha0=invariant_alpha0(su2, (0.3, -0.2, 0.1)),
                        invariant=True)
    g = su2.random_group(rng, scale=0.5)
    z = random_twisted_loop(su2, rng)
    vert = connection_apply(alpha, z)
    t0 = 0.4
    assert np.linalg.norm(vert.profile(g, t0) - z.profile(g, t0)) < 1e-12


def test_psi_values(su2, rng):
    alpha = build_alpha(su2)
    x = su2.random_vector(rng)
    # at the identity the anchor of the generator vanishes
    got = generator_vertical_part(alpha, x, su2.identity(), 0.5)
    assert np.linalg.norm(got + x) < 1e-12
    g = su2.random_group(rng)
    # flat region of the bump with alpha_0 = 0
    assert np.linalg.norm(generator_vertical_part(alpha, x, g, 0.02) + x) < 1e-12
    plain = build_alpha(su2, alpha0=lambda gg, v: 0.1 * np.asarray(v),
                        invariant=False)
    with pytest.raises(ValueError):
        generator_vertical_part(plain, x, g, 0.5)


def test_kappa(su2, rng):
    g = su2.random_group(rng)
    x = su2.random_vector(rng)
    kf = KappaFamily(su2)
    # kappa_t(x_A) = x for every t, as a value and as the 1-form at t
    for t in (0.0, 0.6, 1.3):
        assert np.linalg.norm(kf.value(t, g, generator(su2, x)) - x) < 1e-12
        assert np.linalg.norm(kf.at(t)(g, generator(su2, x)) - x) < 1e-12
    assert kf.phi(g) is g
    sec = random_section(su2, rng)
    lhs = kf.value(1.25, g, sec)
    rhs = su2.Ad(g, kf.value(0.25, g, sec)) - sec.v(g)
    assert np.linalg.norm(lhs - rhs) < 1e-10
