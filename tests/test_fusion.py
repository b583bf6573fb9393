"""Concatenation, the fusion identity and the Courant structure."""

import numpy as np
import pytest

from atiyahcheck.algebroid import bracket, field_bracket
from atiyahcheck.forms import AlgebroidForm, cartan_three_form, contract
from atiyahcheck.fusion import (CourantElement, Slot, composable_residual, concat,
                                courant_bracket, courant_pairing,
                                fusion_residual, generator_pair,
                                mult_eta_residual, pair_bracket,
                                pair_from_template, reduced_bracket_residual)
from atiyahcheck.lifting import varpi_form
from atiyahcheck.liealg import make_group
from atiyahcheck.sections import TimeGrid, random_section, random_twisted_loop


@pytest.fixture
def su2():
    return make_group("su2")


@pytest.fixture
def rng():
    return np.random.default_rng(41)


def test_concat_constant(su2, rng):
    g2, g1 = su2.random_group(rng), su2.random_group(rng)
    x = su2.random_vector(rng)
    pair = generator_pair(su2, x)
    assert composable_residual(pair, g2, g1) < 1e-14
    cat = concat(pair, g2, g1)
    gm = g2 @ g1
    for t in (0.1, 0.5, 0.9):
        assert np.linalg.norm(cat.profile(gm, t) + x) < 1e-13
    assert np.linalg.norm(cat.v(gm) - (su2.Ad(gm, x) - x)) < 1e-12
    assert cat.compatibility_residual(gm) < 1e-12


def test_fusion_generators_exact(su2, rng):
    grid = TimeGrid(201)
    g2, g1 = su2.random_group(rng), su2.random_group(rng)
    x, y = su2.random_vector(rng), su2.random_vector(rng)
    res = fusion_residual(generator_pair(su2, x), generator_pair(su2, y),
                          g2, g1, grid)
    assert res < 1e-12


def test_fusion_abelian_constants():
    tor = make_group("torus2")
    rng = np.random.default_rng(1)
    grid = TimeGrid(101)
    g2, g1 = tor.random_group(rng), tor.random_group(rng)
    x, y = tor.random_vector(rng), tor.random_vector(rng)
    res = fusion_residual(generator_pair(tor, x), generator_pair(tor, y),
                          g2, g1, grid)
    assert res < 1e-13


def test_fusion_random_pairs(su2, rng):
    grid = TimeGrid(201)
    g2, g1 = su2.random_group(rng), su2.random_group(rng)
    p = pair_from_template(su2, rng)
    q = pair_from_template(su2, rng)
    assert composable_residual(p, g2, g1) < 1e-12
    assert fusion_residual(p, q, g2, g1, grid) < 1e-4


def test_pair_bracket_composable(su2, rng):
    g2, g1 = su2.random_group(rng), su2.random_group(rng)
    p = pair_from_template(su2, rng)
    q = pair_from_template(su2, rng)
    assert composable_residual(pair_bracket(p, q), g2, g1) < 1e-6


def test_slot_field_bracket_is_the_row_formula(su2, rng):
    # per row -[x_k, y_k] + D_X y_k - D_Y x_k, with the slot's own derivative
    m = (su2.random_group(rng), su2.random_group(rng))
    xf = pair_from_template(su2, rng)[0].xfield
    yf = pair_from_template(su2, rng)[0].xfield
    x, y = xf(m), yf(m)
    for slot in (Slot(su2, 0), Slot(su2, 1)):
        want = -np.array([su2.bracket(x[0], y[0]), su2.bracket(x[1], y[1])])
        want = want + slot.directional(yf, m, x) - slot.directional(xf, m, y)
        assert field_bracket(slot, xf, yf, m).tobytes() == want.tobytes()


def test_mult_eta(su2, rng):
    eta = cartan_three_form(su2)
    g2, g1 = su2.random_group(rng), su2.random_group(rng)
    triples = [(su2.random_vector(rng), su2.random_vector(rng)) for _ in range(3)]
    assert mult_eta_residual(su2, eta, g2, g1, triples) < 1e-4


def test_courant_isotropy_and_zero_coforms(su2, rng):
    grid = TimeGrid(101)
    vform = varpi_form(su2, grid)
    g = su2.random_group(rng, scale=0.5)
    z = random_twisted_loop(su2, rng)
    el = CourantElement(z, contract(vform, z))
    assert abs(courant_pairing(el, el, g)) < 1e-10
    # with zero coforms the bracket is just the algebroid bracket
    zero = AlgebroidForm(su2, 1, lambda gg, s: np.zeros(su2.point_axes(gg)))
    a = CourantElement(random_section(su2, rng), zero)
    b = CourantElement(random_section(su2, rng), zero)
    cb = courant_bracket(a, b)
    br = bracket(a.section, b.section)
    t0 = 0.3
    assert np.linalg.norm(cb.section.profile(g, t0) - br.profile(g, t0)) < 1e-12
    chi = random_section(su2, rng)
    assert abs(cb.coform(g, chi)) < 1e-12


def test_reduced_bracket_abelian_zero_twist():
    tor = make_group("torus2")
    rng = np.random.default_rng(2)
    grid = TimeGrid(101)
    vform = varpi_form(tor, grid)
    eta = cartan_three_form(tor)
    g = tor.random_group(rng)
    v1, v2, chi = [random_section(tor, rng) for _ in range(3)]
    zero = AlgebroidForm(tor, 1, lambda gg, s: np.zeros(tor.point_axes(gg)))
    res = reduced_bracket_residual(vform, eta, v1, v2, zero, zero, chi, g)
    assert res < 1e-4
