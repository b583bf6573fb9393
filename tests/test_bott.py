"""Bott simplex forms, Chern-Simons calculus and the Q functional."""

import math

import numpy as np
import pytest

from atiyahcheck.algebroid import KappaFamily
from atiyahcheck import bott
from atiyahcheck.bott import (ETA_P_VS_ETA, KAC_MOODY, SIGNS, GaugePeriodicFamily, SimplexRule,
                              _PairData, _p_wedge, _simplex_rule, _upsilon_core,
                              calibrate_conventions, chern_simons, concat_families,
                              gauge_transform, map_theta_left, map_theta_right,
                              oneform_theta_left, oneform_zero, pressley_segal_two_form,
                              q_functional, rectangle_integral, upsilon,
                              upsilon_equivariant, varpi_p_equivariant)
from atiyahcheck.checks import REGISTRY, CheckContext
from atiyahcheck.forms import AlgebroidForm
from atiyahcheck.lifting import canonical_two_form
from atiyahcheck.liealg import InvariantPolynomial, make_group
from atiyahcheck.sections import TimeGrid, integrate_01, random_section, scaled


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
    # the Bott forms' one rule per simplex dimension is the 8-node rule, built once
    assert [_simplex_rule(k) for k in range(3)] == [r0, r1, r2]
    assert _simplex_rule(2) is _simplex_rule(2)
    assert len(r1.nodes) == 8 and len(r2.nodes) == 64


def _run(group, name):
    """The results of one registered check at the default config."""
    [spec] = [spec for spec in REGISTRY if spec.name == name]
    return spec.fn(CheckContext(group, {}))


def test_convention_table_shape():
    table = calibrate_conventions()
    assert set(table) == {"signs", "sources", "mismatch", "unmeasured"}
    assert table["signs"] == {name: sign for name, (sign, _) in SIGNS.items()}
    assert set(table["sources"]) == set(SIGNS) and all(table["sources"].values())
    assert set(table["signs"].values()) == {1.0, -1.0}
    assert (table["signs"]["lemma_orientation"], table["signs"]["cs_vs_bott"]) == (-1.0, -1.0)
    # every identity is evaluated at the fixed signs, none picks one
    assert list(table["mismatch"]) == ["Stokes k=1", "Stokes k=2", "quadratic varpi^p = varpi",
                                       "flat-family transgression", "eta^p = eta"]
    assert max(table["mismatch"].values()) < 1e-5


def test_convention_table_notes_name_its_unmeasured_picks():
    # the two Stokes identities compare 0.0 with 0.0 on su2, so they measure
    # nothing; the check's residual is the worst of the three measured ones
    table = calibrate_conventions()
    assert table["unmeasured"] == ["Stokes k=1", "Stokes k=2"]
    [result] = _run("su2", "convention_table")
    assert result.notes == "unmeasured, both sides 0.0: Stokes k=1, Stokes k=2"
    assert result.n_samples == 3 and result.tolerance == 1e-3
    assert result.residual == max(v for k, v in table["mismatch"].items() if "Stokes" not in k)
    assert 0.0 < result.residual < 1e-5


def test_negated_rectangle_fails_varpi_p(monkeypatch):
    # the rectangle sign is fixed, so a sign error in I^p fails the check
    # rather than being absorbed by a fitted sign
    real = bott.rectangle_integral
    monkeypatch.setattr(bott, "rectangle_integral", lambda *a, **k: -real(*a, **k))
    [result] = _run("su2", "varpi_p_matches_varpi")
    assert not result.passed and result.residual > 1e-2


def test_negated_upsilon_fails_eta_p_anchor(monkeypatch):
    real = bott._upsilon_core
    monkeypatch.setattr(bott, "_upsilon_core", lambda *a: -real(*a))
    [result] = _run("su2", "eta_p_anchor")
    assert not result.passed and result.residual > 1e-2


def test_upsilon_flat_zero(su2, rng):
    # k = 0 on a flat connection: p(F) = 0
    p = su2.polynomials[2]
    thl = oneform_theta_left(su2)
    g = su2.random_group(rng)
    secs = [random_section(su2, rng) for _ in range(4)]
    assert abs(upsilon(p, [thl], g, secs)) < 1e-9
    assert abs(upsilon(p, [oneform_zero(su2)], g, secs)) < 1e-12


def test_eta_p_fixed_sign(su2, rng):
    from atiyahcheck.forms import cartan_three_form, pullback_anchor
    p = su2.polynomials[2]
    eta = pullback_anchor(cartan_three_form(su2))
    g = su2.random_group(rng)
    secs = [random_section(su2, rng) for _ in range(3)]
    got = upsilon(p, [oneform_zero(su2), oneform_theta_left(su2)], g, secs)
    want = ETA_P_VS_ETA * eta(g, *secs)
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
    const = AlgebroidForm(tor, 1, lambda gg, s: scaled(tor.pairing(c, s.v(gg)), c))
    assert abs(chern_simons(const, gt, tsecs)) < 1e-9


def test_rectangle_quadratic_closed_form(su2, rng):
    # for the quadratic polynomial the rectangle integral reduces to the
    # kappa . kappa-dot integral (x-independent)
    p = su2.polynomials[2]
    kf = KappaFamily(su2)
    g = su2.random_group(rng)
    xi, ze = random_section(su2, rng), random_section(su2, rng)
    x = su2.random_vector(rng)
    got = rectangle_integral(p, kf, g, [xi, ze], x=x)
    grid = TimeGrid(201)
    want = -0.5 * integrate_01(
        lambda t: su2.pairing(kf.value(t, g, xi), kf.tderiv(t, g, ze))
        - su2.pairing(kf.value(t, g, ze), kf.tderiv(t, g, xi)), grid)
    assert abs(got - want) < 1e-6
    # x-independence
    got2 = rectangle_integral(p, kf, g, [xi, ze], x=su2.random_vector(rng))
    assert abs(got - got2) < 1e-12


def test_upsilon2_closed_form(su2, rng):
    # Upsilon^p_G(0, a*thetaL, kappa_0) = p(a*thetaL, kappa_0) for quadratic p
    p = su2.polynomials[2]
    g = su2.random_group(rng)
    xi, ze = random_section(su2, rng), random_section(su2, rng)
    x = su2.random_vector(rng)
    zero = oneform_zero(su2)
    thl = oneform_theta_left(su2)
    kap0 = KappaFamily(su2).at(0.0)
    got = upsilon_equivariant(p, [zero, thl, kap0], x, g, [xi, ze])
    want = p(thl(g, xi), kap0(g, ze)) - p(thl(g, ze), kap0(g, xi))
    assert abs(got - want) < 1e-10


def test_varpi_p_equals_varpi(su2, rng):
    p = su2.polynomials[2]
    vpg = varpi_p_equivariant(p)
    grid = TimeGrid(201)
    for _ in range(2):
        g = su2.random_group(rng)
        xi, ze = random_section(su2, rng), random_section(su2, rng)
        x = su2.random_vector(rng)
        assert abs(vpg(x, g, [xi, ze])
                   - canonical_two_form(xi, ze, g, grid)) < 1e-5


def test_pressley_segal_sin_cos(su2):
    from atiyahcheck.sections import loop_section, scaled
    p = su2.polynomials[2]
    ps = pressley_segal_two_form(p)
    e1 = np.array([1.0, 0.0, 0.0])
    w = 2 * np.pi
    s1 = loop_section(su2, lambda t: scaled(np.sin(w * t), e1),
                      lambda t: scaled(w * np.cos(w * t), e1))
    s2 = loop_section(su2, lambda t: scaled(np.cos(w * t), e1),
                      lambda t: scaled(-w * np.sin(w * t), e1))
    val = ps(su2.identity(), [s1, s2])
    assert abs(val - KAC_MOODY * np.pi) < 1e-7
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
    # a gauge map takes point axes: the constant map keeps them
    unit = lambda gg: np.broadcast_to(su2.identity(), np.shape(gg))
    ident = gauge_transform(unit, thl)(g, sec)
    assert np.linalg.norm(ident - thl(g, sec)) < 1e-12


def test_q_functional_zero_family(su2, rng):
    g = su2.random_group(rng)
    s1, s2 = random_section(su2, rng), random_section(su2, rng)
    fam = GaugePeriodicFamily(su2, oneform_zero(su2),
                              lambda gg: np.broadcast_to(su2.identity(), np.shape(gg)))
    assert abs(q_functional(fam, g, s1, s2, TimeGrid(101))) < 1e-12


def test_gauge_map_dropping_its_point_axes_raises(su2, rng):
    # a 4x4 constant passes the stencil's shape check (the stencil axis also
    # has length 4), so the Maurer-Cartan pullback compares D_v Phi to Phi(g)
    g, v = su2.random_group(rng), su2.random_vector(rng)
    for pullback in (map_theta_right, map_theta_left):
        with pytest.raises(ValueError, match="must keep the point axes"):
            pullback(su2, lambda gg: np.eye(4), g, v)


def test_gauge_family_seams(su2, rng):
    # beta_{t+1} = Phi . beta_t on both sides of every seam, the concatenation
    # with Phi = Phi2 Phi1 included; t-derivatives follow the linear part Ad_Phi
    g = su2.random_group(rng)
    sec = random_section(su2, rng)
    thl = oneform_theta_left(su2)
    beta0 = AlgebroidForm(su2, 1, lambda gg, s: 0.4 * thl(gg, s))
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


def test_varpi_p_differentiates_at_t_step(su2, rng):
    # without an analytic d/dt, kappa' is the central difference at T_STEP
    from atiyahcheck.sections import T_STEP, AlgebroidSection, extend
    p = su2.polynomials[2]
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
            dprofile=lambda gg, t, s=bare: (extend(s, gg, t + T_STEP)
                                            - extend(s, gg, t - T_STEP)) / (2.0 * T_STEP)))
    got = varpi_p_equivariant(p)(x, g, raw)
    want = varpi_p_equivariant(p)(x, g, stepped)
    assert abs(got - want) < 1e-12


def _oracle_upsilon_core(p, betas, g, args, x, rule):
    """The simplex quadrature node by node: one wedge evaluation per node."""
    alg, m, k, r = p.algebra, p.degree, len(betas) - 1, len(args)
    n_f = (r - k) // 2
    n_z = m - k - n_f
    if (r - k) % 2 or n_f < 0 or n_z < 0 or (n_z and x is None):
        return 0.0
    data = _PairData(alg, betas, args, g, x=x)
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
        + c)


@pytest.mark.parametrize("name, degree", [("su2", 2), ("heisenberg3", 3)])
def test_upsilon_core_matches_node_by_node_oracle(name, degree):
    alg = make_group(name)
    p = alg.polynomials[degree]
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
                got = _upsilon_core(p, forms[:k + 1], g, secs[:r], xk)
                want = _oracle_upsilon_core(p, forms[:k + 1], g, secs[:r], xk, rule)
                assert got == want, (k, r, xk is None)
                nonzero += got != 0.0
    assert nonzero >= 6


def _oracle_rectangle(p, family, g, args, x=None):
    """The rectangle quadrature node by node: one wedge evaluation per (t, s) node."""
    alg, m, r = p.algebra, p.degree, len(args)
    n_f = (r - 2) // 2
    n_z = m - 2 - n_f
    if (r - 2) % 2 or n_f < 0 or n_z < 0 or (n_z and x is None):
        return 0.0
    s_nodes, s_weights = bott._gl01(8)
    t_nodes, t_weights = bott._gl01(32)
    coeff = math.factorial(m) / (math.factorial(n_f) * math.factorial(n_z))
    data = _PairData(alg, [family.at(t_nodes)], args, g, x=x)
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
            blocks += [(2, f_eval)] * n_f
            if n_z:
                zv = np.asarray(x, dtype=float) - s * data.iota_x(0)[ti]
                blocks += [(0, lambda idx, zv=zv: zv)] * n_z
            total += wt * ws * _p_wedge(p, blocks, r)
    return -1.0 * coeff * total


def _quartic(alg):
    """B(x, x)^2 / 4, polarised: an invariant polynomial whose rectangle integral
    takes the curvature block F (with its bracket) on four sections."""
    b = alg.pairing
    return InvariantPolynomial(alg, 4, lambda x, y, z, w: (
        b(x, y) * b(z, w) + b(x, z) * b(y, w) + b(x, w) * b(y, z)) / 12.0, name="quartic")


@pytest.mark.parametrize("name, degree, n_args, with_x", [
    ("su2", 2, 2, True),            # the quadratic p, as varpi^p_G takes it
    ("heisenberg3", 3, 2, True),    # n_z = 1: the zero-degree block su2 never takes
    ("su2", 4, 4, True),            # n_f = 1 and n_z = 1: the curvature block too
    ("su2", 2, 3, True),            # an odd number of sections gives 0.0
])
def test_rectangle_integral_matches_node_by_node_oracle(name, degree, n_args, with_x,
                                                       monkeypatch):
    alg = make_group(name)
    p = alg.polynomials[degree] if degree in alg.polynomials else _quartic(alg)
    rng = np.random.default_rng(43)
    kf = KappaFamily(alg)
    g = alg.random_group(rng)
    x = alg.random_vector(rng) if with_x else None
    secs = [random_section(alg, rng) for _ in range(n_args)]
    calls = []
    monkeypatch.setattr(bott, "_p_wedge", lambda *a: calls.append(a) or _p_wedge(*a))
    got = rectangle_integral(p, kf, g, secs, x=x)
    odd = n_args % 2 == 1
    # one wedge evaluation on all 32 x 8 nodes, none for an odd degree
    assert len(calls) == (0 if odd else 1)
    assert got == _oracle_rectangle(p, kf, g, secs, x=x)
    assert (got == 0.0) == odd


@pytest.mark.parametrize("name, degree", [("su2", 2), ("heisenberg3", 3)])
def test_invariant_polynomial_over_node_axes(name, degree):
    alg = make_group(name)
    p = alg.polynomials[degree]
    rng = np.random.default_rng(41)
    xs = [rng.standard_normal((17, alg.dim)) for _ in range(degree)]
    batch = p(*xs)
    assert batch.shape == (17,)
    assert batch.tolist() == [p(*[x[n] for x in xs]) for n in range(17)]
    assert type(p(*[x[0] for x in xs])) is float
    # a single vector broadcasts against the node axis
    mixed = p(xs[0][0], *xs[1:])
    assert mixed.tolist() == [p(xs[0][0], *[x[n] for x in xs[1:]]) for n in range(17)]
