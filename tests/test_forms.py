"""Exterior calculus: contraction, Koszul differential, Cartan forms."""

import itertools

import numpy as np
import pytest

from atiyahcheck.algebroid import KappaFamily, generator
from atiyahcheck.forms import (AlgebroidForm, _perm_sign, cartan_three_form, contract,
                               de_rham_differential, equivariant_cartan,
                               exterior_derivative, lie_derivative, pullback_anchor)
from atiyahcheck.liealg import make_group
from atiyahcheck.sections import random_section, random_twisted_loop


@pytest.fixture
def su2():
    return make_group("su2")


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def test_contract_antisymmetry(su2, rng):
    g = su2.random_group(rng)
    phi = AlgebroidForm(su2, 2, lambda gg, a, b:
                        su2.pairing(a.v(gg), su2.bracket(b.v(gg), su2.Ad(gg, b.v(gg))))
                        - su2.pairing(b.v(gg), su2.bracket(a.v(gg), su2.Ad(gg, a.v(gg)))))
    xi = random_section(su2, rng)
    assert abs(contract(contract(phi, xi), xi)(g)) < 1e-12
    with pytest.raises(ValueError):
        contract(AlgebroidForm(su2, 0, lambda gg: 1.0), xi)


def test_contraction_kappa(su2, rng):
    # i_xi kappa_t = -xi_t; horizontal forms kill loop sections
    g = su2.random_group(rng, scale=0.5)
    kap = KappaFamily(su2).at(0.3)
    xi = random_section(su2, rng)
    from atiyahcheck.sections import extend
    assert np.linalg.norm(contract(kap, xi)(g) + extend(xi, g, 0.3)) < 1e-12
    z = random_twisted_loop(su2, rng)
    om = AlgebroidForm(su2, 1, lambda gg, v: su2.pairing(v, v) * 0.5 + v[0])
    assert abs(pullback_anchor(om)(g, z) - om(g, np.zeros(3))) < 1e-12


def test_d_constant_zero_form(su2, rng):
    g = su2.random_group(rng)
    const = AlgebroidForm(su2, 0, lambda gg: np.full(su2.point_axes(gg), 2.5))
    d = exterior_derivative(const)
    xi = random_section(su2, rng)
    assert abs(d(g, xi)) < 1e-12


def test_lie_derivative_constant(su2, rng):
    g = su2.random_group(rng)
    const = AlgebroidForm(su2, 0, lambda gg: np.full(su2.point_axes(gg), 1.0))
    xi = random_section(su2, rng)
    assert abs(lie_derivative(const, xi)(g)) < 1e-12


def test_pullback_anchor_values(su2, rng):
    g = su2.random_group(rng)
    xi = random_section(su2, rng)
    # a* theta^R and a* theta^L evaluate the Maurer-Cartan forms on anchors
    thr = AlgebroidForm(su2, 1, lambda gg, v: np.asarray(v), scalar=False)
    got = pullback_anchor(thr)(g, xi)
    assert np.allclose(got, xi.v(g))
    thl = AlgebroidForm(su2, 1,
                        lambda gg, v: su2.maurer_cartan(gg, v, "left"), scalar=False)
    got = pullback_anchor(thl)(g, xi)
    assert np.allclose(got, su2.Ad(np.linalg.inv(g), xi.v(g)))


def test_eta_values(su2, rng):
    eta = cartan_three_form(su2)
    e = np.eye(3)
    for _ in range(3):
        g = su2.random_group(rng)
        assert abs(eta(g, e[0], e[1], e[2]) - 0.5) < 1e-12
    # antisymmetrization oracle: a* eta on three generators
    a_eta = pullback_anchor(eta)
    g = su2.random_group(rng)
    xs = [su2.random_vector(rng) for _ in range(3)]
    gens = [generator(su2, x) for x in xs]
    vs = [su2.Ad(g, x) - x for x in xs]
    assert abs(a_eta(g, *gens) - eta(g, *vs)) < 1e-12


def test_eta_abelian_and_heis():
    for name in ("torus2", "heisenberg3"):
        alg = make_group(name)
        rng = np.random.default_rng(1)
        eta = cartan_three_form(alg)
        if alg.dim < 3:
            continue
        g = alg.random_group(rng)
        vs = [alg.random_vector(rng) for _ in range(3)]
        assert abs(eta(g, *vs)) < 1e-14


def _eta_alone(alg, g, vs):
    """The Cartan 3-form as first written: one Ad and one pairing per term."""
    ginv = alg.inv(g)
    us = [alg.Ad(ginv, v) for v in vs]
    total = 0.0
    for perm in itertools.permutations(range(3)):
        total += _perm_sign(perm) * alg.pairing(us[perm[0]],
                                                alg.bracket(us[perm[1]], us[perm[2]]))
    return total / 12.0


@pytest.mark.parametrize("name", ["su2", "so3", "heisenberg3", "torus2"])
def test_eta_batch_members_computed_alone(name):
    # a stack of points and tangents gives each member's single-point value,
    # and a single point still gives a float
    alg = make_group(name)
    rng = np.random.default_rng(21)
    eta = cartan_three_form(alg)
    gs = np.array([alg.random_group(rng) for _ in range(24)])
    vs = [np.array([alg.random_vector(rng) for _ in range(24)]) for _ in range(3)]
    alone = [eta(g, *(v[i] for v in vs)) for i, g in enumerate(gs)]
    assert all(type(value) is float for value in alone)
    assert alone == [_eta_alone(alg, g, [v[i] for v in vs]) for i, g in enumerate(gs)]
    batch = eta(gs, *vs)
    assert batch.shape == (24,)
    assert batch.tobytes() == np.array(alone).tobytes()


def test_eta_equivariant_degree_one(su2, rng):
    # at the identity the degree-1 part is -v.x
    x = su2.random_vector(rng)
    v = su2.random_vector(rng)
    parts = equivariant_cartan(su2, x)
    got = parts[1](su2.identity(), v)
    assert abs(got + su2.pairing(v, x)) < 1e-13


def test_de_rham_differential_mc_equation(su2, rng):
    # d theta^L = -(1/2)[theta^L, theta^L] in constant frames
    g = su2.random_group(rng)
    thl = AlgebroidForm(su2, 1, lambda gg, v: su2.maurer_cartan(gg, v, "left"),
                        scalar=False)
    d = de_rham_differential(thl)
    v, w = su2.random_vector(rng), su2.random_vector(rng)
    lv = su2.maurer_cartan(g, v, "left")
    lw = su2.maurer_cartan(g, w, "left")
    assert np.linalg.norm(d(g, v, w) + su2.bracket(lv, lw)) < 1e-9
