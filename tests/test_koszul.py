"""The one Koszul differential against the hand-written formulas it replaced.

Each oracle below is a Koszul/Cartan sum spelled out for one base (the
group, the conjugacy class, G x G); the shared routine must reproduce it
bit for bit, since it evaluates the same terms in the same order.  Each
base carries the step of its derivatives, and a verify reaches every one
at the step configured for it.
"""

import sys

import numpy as np
import pytest

from atiyahcheck import bott, liealg, qham
from atiyahcheck.algebroid import (KappaFamily, bracket, build_alpha, curvature,
                                   field_bracket, invariant_alpha0)
from atiyahcheck.checks import run_checks
from atiyahcheck.forms import (AlgebroidForm, cartan_three_form, contract, de_rham_differential,
                               exterior_derivative, koszul, lie_derivative, pullback_anchor)
from atiyahcheck.fusion import Slot, fusion_lambda, mult_eta_residual, pair_from_template
from atiyahcheck.lifting import canonical_two_form, varpi_form
from atiyahcheck.liealg import make_group
from atiyahcheck.qham import ConjugacyClass
from atiyahcheck.sections import (TimeGrid, random_section,
                                  template_section)


@pytest.fixture
def su2():
    return make_group("su2")


@pytest.fixture
def rng():
    return np.random.default_rng(23)


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _class_section(alg, klass, rng):
    a0 = alg.random_vector(rng, 0.5)
    u0, u1 = rng.standard_normal(3), rng.standard_normal(3)
    return template_section(
        alg, lambda m: a0 + (m @ u0) * a0,
        lambda m: (np.eye(3) - np.outer(m, m)) @ (u1 + np.cross(m, u0)), base=klass)


def _anchor_oracle(form):
    """The Koszul sum over the group by the point-by-point `directional` route
    along the anchor, with the algebroid bracket (both at the group's step)."""
    alg = form.algebra
    return koszul(form, lambda f, g, sec: alg.directional(f, g, sec.v(g)), bracket)


def _group_forms(alg, rng):
    """Forms over the group whose differentials the checks take, by name, each
    with its exterior derivative and the per-point oracle of that derivative."""
    kappa = KappaFamily(alg).at(0.3)
    thl = bott.oneform_theta_left(alg)
    family = bott.GaugePeriodicFamily(alg, thl, lambda g: g @ g)
    c = alg.random_vector(rng)
    f = AlgebroidForm(alg, 0, lambda g: alg.pairing(c, alg.Ad(g, c)))
    xi = random_section(alg, rng)
    upsilon = AlgebroidForm(alg, 3, lambda g, *ss: bott.upsilon(
        alg.polynomials[2], [thl, kappa], g, ss))
    cases = {name: (exterior_derivative(form), _anchor_oracle(form)) for name, form in {
        "varpi": varpi_form(alg, TimeGrid(21)),
        "kappa_t": kappa,
        "a*eta": pullback_anchor(cartan_three_form(alg)),
        "beta_t": family.at(0.4),
        "a*thetaL": thl,
        "upsilon": upsilon,
    }.items()}
    cases["d(d f)"] = (exterior_derivative(exterior_derivative(f)),
                       _anchor_oracle(_anchor_oracle(f)))
    lie = AlgebroidForm(alg, 1, lambda g, chi: _anchor_oracle(kappa)(g, xi, chi)
                        + _anchor_oracle(contract(kappa, xi))(g, chi))
    cases["L_xi kappa_t"] = (lie_derivative(kappa, xi), lie)
    return cases


def test_group_sections_match_the_anchor_formula(su2, rng):
    g = su2.random_group(rng)
    secs = [random_section(su2, rng) for _ in range(2)]
    form = KappaFamily(su2).at(0.3)
    want = np.zeros(su2.dim)
    for i in range(2):
        rest = secs[:i] + secs[i + 1:]
        want = want + ((-1) ** i) * su2.directional(
            lambda gg: form(gg, *rest), g, secs[i].v(g))
    want = want - form(g, bracket(secs[0], secs[1]))
    assert np.array_equal(exterior_derivative(form)(g, *secs), want)
    # every derivative term is one call on the stencil stack, bit for bit the
    # point-by-point route
    secs += [random_section(su2, rng) for _ in range(2)]
    for name, (d, oracle) in _group_forms(su2, rng).items():
        got, want = d(g, *secs[:d.degree]), oracle(g, *secs[:d.degree])
        assert np.any(np.asarray(got) != 0.0), name
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def test_fd_step_reaches_the_bracket():
    # the sections' group carries the step of the derivatives and the bracket
    values = []
    for fd_step in (3e-3, 1e-4):
        alg = make_group("su2", fd_step=fd_step)
        rng = np.random.default_rng(23)
        g = alg.random_group(rng)
        secs = [random_section(alg, rng) for _ in range(2)]
        form = KappaFamily(alg).at(0.3)
        got = exterior_derivative(form)(g, *secs)
        assert got.tobytes() == _anchor_oracle(form)(g, *secs).tobytes()
        values.append(got.tobytes())
    assert values[0] != values[1]


@pytest.mark.parametrize("group", ["su2", "heisenberg3"])
def test_verify_takes_every_derivative_at_its_configured_step(monkeypatch, group):
    # every Richardson combination and every push of a verify at --fd-step
    # 3e-3 is at that step, the class's sphere step or its push step; the
    # extended bracket took the default 1e-4 in lhat_bracket,
    # nablahat_derivation and the lifted Jacobiator checks
    bott.calibrate_conventions()   # on its own su2 at the default step
    pending, steps = [], {}
    real = liealg._derivative

    def derivative(values, h):
        pending.append(h)
        return real(values, h)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("atiyahcheck") \
                and getattr(module, "_derivative", None) is real:
            monkeypatch.setattr(module, "_derivative", derivative)
    push = liealg.LieAlgebra.push_stencil
    monkeypatch.setattr(liealg.LieAlgebra, "push_stencil", lambda self, points, ginv, h:
                        pending.append(h) or push(self, points, ginv, h))

    def progress(spec, out):
        steps[spec.name] = set(pending)
        pending.clear()

    results = run_checks(group, {"fd_step": 3e-3}, progress=progress)
    assert results and all(r.passed for r in results)
    allowed = {3e-3, qham._SPHERE_STEP, qham._PUSH_STEP}
    assert {name: sorted(s - allowed) for name, s in steps.items() if s - allowed} == {}
    assert sum(3e-3 in s for s in steps.values()) >= 20


def test_bott_dbeta_matches_its_formula(su2, rng):
    g = su2.random_group(rng)
    si, sj = (random_section(su2, rng) for _ in range(2))
    beta = bott.oneform_theta_left(su2)
    data = bott._PairData(su2, [beta], [si, sj], g)
    out = su2.directional(lambda gg: beta(gg, sj), g, si.v(g))
    out = out - su2.directional(lambda gg: beta(gg, si), g, sj.v(g))
    out = out - beta(g, data._bracket_section(0, 1))
    assert np.array_equal(data.dbeta(0, 0, 1), out)
    assert np.array_equal(data.dbeta(0, 1, 0), -out)


def test_curvature_matches_its_frame_formula(su2, rng):
    alpha = build_alpha(su2, invariant_alpha0(su2, (0.3, -0.2, 0.4)))
    g = su2.random_group(rng)
    v, w = su2.random_vector(rng), su2.random_vector(rng)
    t = 0.37
    d = su2.directional(lambda gg: alpha.value(t, gg, w), g, v)
    d = d - su2.directional(lambda gg: alpha.value(t, gg, v), g, w)
    d = d - alpha.value(t, g, -su2.bracket(v, w))
    want = d + su2.bracket(alpha.value(t, g, v), alpha.value(t, g, w))
    assert np.array_equal(curvature(alpha, g, t, v, w), want)


def test_class_varpi_matches_its_koszul_sum(su2, rng):
    klass = ConjugacyClass(su2)
    n = _unit(rng)
    secs = [_class_section(su2, klass, rng) for _ in range(3)]
    grid = TimeGrid(21)

    def vform(m, p, q):
        return canonical_two_form(p, q, m, grid)

    total = 0.0
    for i in range(3):
        rest = [secs[m] for m in range(3) if m != i]
        dval = klass.directional(
            lambda m: np.array(vform(m, rest[0], rest[1])), n, secs[i].xfield(n))
        total += ((-1) ** i) * float(dval)
    for i in range(3):
        for j in range(i + 1, 3):
            (k,) = [m for m in range(3) if m != i and m != j]
            br = bracket(secs[i], secs[j])
            total += ((-1) ** (i + j)) * vform(n, br, secs[k])
    form = AlgebroidForm(su2, 2, vform)
    got = exterior_derivative(form)(n, *secs)
    assert got == total


def test_class_cochain_matches_the_sphere_formula(su2, rng):
    klass = ConjugacyClass(su2)
    n = _unit(rng)
    c1, c2 = su2.random_vector(rng), su2.random_vector(rng)
    om = AlgebroidForm(su2, 1, lambda g, v: su2.pairing(c1 + su2.Ad(g, c2), v))

    def pom(m, t):
        return om(klass.point(m), klass.push_tangent(m, t))

    t1, t2 = klass.tangent_basis(n)
    f1 = lambda m: (np.eye(3) - np.outer(m, m)) @ t1
    f2 = lambda m: (np.eye(3) - np.outer(m, m)) @ t2
    d1 = klass.directional(lambda m: np.array(pom(m, f2(m))), n, f1(n))
    d2 = klass.directional(lambda m: np.array(pom(m, f1(m))), n, f2(n))
    want = float(d1) - float(d2) - pom(n, field_bracket(klass, f1, f2, n))

    zero = lambda m: np.zeros(su2.dim)
    secs = [template_section(su2, zero, f, base=klass) for f in (f1, f2)]
    got = exterior_derivative(pullback_anchor(om))(n, *secs)
    assert got == want
    assert abs(got - pullback_anchor(de_rham_differential(om))(n, *secs)) < 1e-4


def test_product_group_dlambda_matches_its_cartan_sum(su2, rng):
    g2, g1 = su2.random_group(rng), su2.random_group(rng)
    triples = [(su2.random_vector(rng), su2.random_vector(rng)) for _ in range(3)]
    eta = cartan_three_form(su2)
    product = Slot(su2, 0)
    total = 0.0
    for i in range(3):
        rest = [triples[m] for m in range(3) if m != i]
        dval = product.stencil_derivative(
            lambda pt: np.array(fusion_lambda(su2, *pt, *rest[0], *rest[1])),
            (g2, g1), np.array(triples[i]))
        total += ((-1) ** i) * float(dval)
    for i in range(3):
        for j in range(i + 1, 3):
            f2 = -su2.bracket(triples[i][0], triples[j][0])
            f1 = -su2.bracket(triples[i][1], triples[j][1])
            (k,) = [m for m in range(3) if m != i and m != j]
            total += ((-1) ** (i + j)) * fusion_lambda(su2, g2, g1, f2, f1, *triples[k])
    lhs = eta(g2 @ g1, *[v2 + su2.Ad(g2, v1) for v2, v1 in triples])
    rhs = eta(g2, *[v2 for v2, _ in triples]) + eta(g1, *[v1 for _, v1 in triples])
    assert mult_eta_residual(su2, eta, g2, g1, triples) == abs(lhs - rhs + total)


def _zero_form_over(base_name, alg, rng):
    """A 0-form and two sections over the named base, with the base point."""
    c = alg.random_vector(rng)
    if base_name == "group":
        secs = [random_section(alg, rng) for _ in range(2)]
        return (lambda g: alg.pairing(c, alg.Ad(g, c))), secs, alg.random_group(rng)
    if base_name == "class":
        klass = ConjugacyClass(alg)
        secs = [_class_section(alg, klass, rng) for _ in range(2)]
        return (lambda m: alg.pairing(c, alg.Ad(klass.point(m), c))), secs, _unit(rng)
    secs = [pair_from_template(alg, rng)[0] for _ in range(2)]
    point = (alg.random_group(rng), alg.random_group(rng))
    return (lambda m: alg.pairing(c, alg.Ad(m[0] @ m[1], c))), secs, point


@pytest.mark.parametrize("base_name", ["group", "class", "slot"])
def test_d_squared_of_a_zero_form_over_every_base(su2, rng, base_name):
    f, secs, m = _zero_form_over(base_name, su2, rng)
    d = exterior_derivative(AlgebroidForm(su2, 0, f))
    df = d(m, secs[0])
    assert abs(df) > 1e-3
    dd = exterior_derivative(d)(m, *secs)
    assert abs(dd) < 1e-5
