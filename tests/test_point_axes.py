"""Sections, scalars, de Rham forms and algebroid forms over the group and
over a slot of G x G take leading point axes: every member of a stack of
points equals the value at that point alone, bit for bit, and a bracket or
a de Rham differential (one stencil call per derivative term) equals the
point-by-point route: `directional` over the group, the slot's stencil one
point at a time over a slot."""

import numpy as np
import pytest

from atiyahcheck import algebroid as albr
from atiyahcheck import bott
from atiyahcheck import fusion as fu
from atiyahcheck import lifting as lf
from atiyahcheck.checks import _coordinate_omega, _zero_two_form
from atiyahcheck.forms import (AlgebroidForm, cartan_three_form, de_rham_differential,
                               equivariant_cartan, exterior_derivative, koszul)
from atiyahcheck.homotopy import poincare_primitive
from atiyahcheck.liealg import GROUP_NAMES, _derivative, make_group, per_point
from atiyahcheck.qham import project_based
from atiyahcheck.sections import (AlgebroidSection, TimeGrid, constant_field,
                                  constant_profile_section, extend, random_loop_section,
                                  random_section, random_twisted_loop, scaled,
                                  template_section, time_derivative)

TIMES = (0.37, TimeGrid(41).nodes)


@pytest.fixture(params=GROUP_NAMES)
def algebra(request):
    return make_group(request.param)


def _points(alg, rng, shape=(4, 3)):
    """A stack of group points in the domain of the log (for twisted loops)."""
    flat = [alg.random_group(rng, scale=0.5) for _ in range(int(np.prod(shape)))]
    return np.array(flat).reshape(shape + flat[0].shape)


def _alone(fn, gs, *args):
    """fn at each point of the stack gs, stacked back over its point axes."""
    lead = gs.shape[:-2]
    flat = gs.reshape((-1,) + gs.shape[-2:])
    values = [np.asarray(fn(g, *args)) for g in flat]
    return np.array(values).reshape(lead + values[0].shape)


def _assert_point_axes(sec, gs):
    for t in TIMES:
        assert sec.profile(gs, t).tobytes() == _alone(sec.profile, gs, t).tobytes()
        assert sec.profile(gs, t).shape == gs.shape[:-2] + np.shape(t) + (sec.algebra.dim,)
        if sec.dprofile is not None:
            assert sec.dprofile(gs, t).tobytes() == _alone(sec.dprofile, gs, t).tobytes()
    for field in (sec.xfield, sec.v):
        assert field(gs).tobytes() == _alone(field, gs).tobytes()
        assert field(gs).shape == gs.shape[:-2] + (sec.algebra.dim,)


def _oracle_bracket(xi, zeta):
    """The algebroid bracket by the point-by-point `directional` route."""
    alg = xi.algebra
    derivative = alg.directional

    def profile(g, t):
        x, y = xi.xfield(g), zeta.xfield(g)
        term = -alg.bracket(xi.profile(g, t), zeta.profile(g, t))
        term = term + derivative(lambda gg: zeta.profile(gg, t), g, x)
        return term - derivative(lambda gg: xi.profile(gg, t), g, y)

    def xfield(g):
        x, y = xi.xfield(g), zeta.xfield(g)
        out = -alg.bracket(x, y) + derivative(zeta.xfield, g, x)
        return out - derivative(xi.xfield, g, y)

    def dprofile(g, t):
        x, y = xi.xfield(g), zeta.xfield(g)
        term = -alg.bracket(xi.dprofile(g, t), zeta.profile(g, t))
        term = term - alg.bracket(xi.profile(g, t), zeta.dprofile(g, t))
        term = term + derivative(lambda gg: zeta.dprofile(gg, t), g, x)
        return term - derivative(lambda gg: xi.dprofile(gg, t), g, y)

    return AlgebroidSection(alg, profile, xfield, dprofile=dprofile)


def _constructors(alg, rng):
    """One section of every group-base constructor a bracket can differentiate."""
    da = alg.random_vector(rng)
    dv = alg.random_vector(rng)
    template = template_section(alg, lambda g: alg.Ad(g, da),
                                lambda g: alg.Ad(g, dv) - dv)
    xi = random_section(alg, rng)
    alpha = albr.build_alpha(alg, alpha0=albr.invariant_alpha0(alg, (0.2, -0.1, 0.05)))
    lam = lf.HorizontalFamily(alg, lambda g, v: 0.2 * alg.Ad(g, v))
    w1, w2 = (constant_field(alg, alg.random_vector(rng)) for _ in range(2))
    return {
        "random": xi,
        "template": template,
        "constant": constant_profile_section(alg, alg.random_vector(rng)),
        "generator": albr.generator(alg, alg.random_vector(rng)),
        "loop": random_loop_section(alg, rng),
        "twisted-loop": random_twisted_loop(alg, rng),
        "theta": albr.connection_apply(alpha, xi),
        "horizontal": lf._hor_section(alpha, w1),
        "curvature": lf._curvature_section(alpha, w1, w2),
        "lambda(X)": lam.section(w1),
        "based": project_based(xi),
    }


def test_constructors_take_point_axes(algebra):
    rng = np.random.default_rng(71)
    gs = _points(algebra, rng)
    for sec in _constructors(algebra, rng).values():
        _assert_point_axes(sec, gs)


def test_brackets_take_point_axes(algebra):
    rng = np.random.default_rng(72)
    gs = _points(algebra, rng)
    a, b = random_section(algebra, rng), random_twisted_loop(algebra, rng)
    c = albr.generator(algebra, algebra.random_vector(rng))
    _assert_point_axes(albr.bracket(a, b), gs)
    _assert_point_axes(albr.bracket(albr.bracket(a, b), c), gs)


def test_lifted_bracket_body_takes_point_axes(algebra):
    rng = np.random.default_rng(73)
    gs = _points(algebra, rng, shape=(2, 3))
    alpha = albr.build_alpha(algebra)
    fields = [constant_field(algebra, algebra.random_vector(rng)) for _ in range(3)]
    h1, h2, h3 = (lf.horizontal_lift(alpha, w) for w in fields)
    grid = TimeGrid(11)
    zero = _zero_two_form(algebra)
    inner = lf.lifted_bracket(zero, alpha, h1, h2, grid)
    outer = lf.lifted_bracket(zero, alpha, inner, h3, grid)
    for lifted in (inner, outer):
        body = lifted.hat.body
        for t in TIMES:
            assert body.profile(gs, t).tobytes() == _alone(body.profile, gs, t).tobytes()
        assert lifted.tangent(gs).tobytes() == _alone(lifted.tangent, gs).tobytes()


def test_bracket_matches_directional_oracle(algebra):
    rng = np.random.default_rng(74)
    g = algebra.random_group(rng, scale=0.5)
    secs = _constructors(algebra, rng)
    pairs = [(secs["random"], secs["twisted-loop"]), (secs["generator"], secs["template"]),
             (secs["horizontal"], secs["lambda(X)"])]
    chi = secs["loop"]
    for xi, zeta in pairs:
        got, want = albr.bracket(xi, zeta), _oracle_bracket(xi, zeta)
        nested = albr.bracket(got, chi)
        nested_want = _oracle_bracket(want, chi)
        for t in TIMES:
            assert got.profile(g, t).tobytes() == want.profile(g, t).tobytes()
            assert got.dprofile(g, t).tobytes() == want.dprofile(g, t).tobytes()
            assert nested.profile(g, t).tobytes() == nested_want.profile(g, t).tobytes()
        assert got.xfield(g).tobytes() == want.xfield(g).tobytes()
        assert nested.xfield(g).tobytes() == nested_want.xfield(g).tobytes()


def test_field_bracket_matches_directional_oracle(algebra):
    rng = np.random.default_rng(75)
    gs = _points(algebra, rng)
    c1, c2 = algebra.random_vector(rng), algebra.random_vector(rng)
    xf = lambda g: algebra.Ad(g, c1)
    yf = constant_field(algebra, c2)
    inner = lambda g: albr.field_bracket(algebra, xf, yf, g)
    for field in (inner, lambda g: albr.field_bracket(algebra, inner, xf, g)):
        assert field(gs).tobytes() == _alone(field, gs).tobytes()
    g = gs[0, 0]
    want = -algebra.bracket(xf(g), yf(g)) + algebra.directional(yf, g, xf(g)) \
        - algebra.directional(xf, g, yf(g))
    assert inner(g).tobytes() == want.tobytes()


# -- extend and time_derivative on a stack of points ---------------------------

SEAM_TIMES = (TimeGrid(41).nodes, np.linspace(-2.3, 3.7, 37))


def test_extend_and_time_derivative_take_point_axes(algebra):
    # the seam steps broadcast Phi(m) and v(m) over the time axis; a section
    # without dprofile differentiates extend across the seam
    rng = np.random.default_rng(77)
    gs = _points(algebra, rng)
    a, b = random_section(algebra, rng), random_twisted_loop(algebra, rng)
    for sec in (a, b, albr.bracket(a, b), AlgebroidSection(algebra, a.profile, a.xfield)):
        for t in SEAM_TIMES:
            for fn in (extend, time_derivative):
                got = fn(sec, gs, t)
                assert got.shape == gs.shape[:-2] + t.shape + (algebra.dim,)
                assert got.tobytes() == _alone(lambda g: fn(sec, g, t), gs).tobytes()


# -- scalars and de Rham forms over a stack of points ---------------------------

def _assert_scalar(fn, gs):
    got = np.asarray(fn(gs))
    assert got.shape == gs.shape[:-2]
    assert got.tobytes() == _alone(fn, gs).tobytes()


def test_lifting_scalars_take_point_axes(algebra):
    rng = np.random.default_rng(78)
    gs = _points(algebra, rng)
    grid = TimeGrid(11)
    xi, ze = random_section(algebra, rng), random_section(algebra, rng)
    z1, z2 = random_twisted_loop(algebra, rng), random_twisted_loop(algebra, rng)
    gen = albr.generator(algebra, algebra.random_vector(rng))
    _assert_scalar(lambda g: lf._dot_deriv(algebra, grid, xi, z1, g), gs)
    _assert_scalar(lambda g: lf.central_cocycle(z1, z2, g, grid), gs)
    _assert_scalar(lambda g: lf.canonical_two_form(xi, ze, g, grid), gs)
    _assert_scalar(lambda g: lf.canonical_two_form(gen, z1, g, grid), gs)
    b = lf.ExtendedLSection(z1, lambda g: np.sin(g[..., 0, -1]))
    inner = lf.nabla_hat(ze, b, grid)
    split = [lf.ExtendedLSection.split(z) for z in (z1, z2, xi)]
    vert = lf.bracket_lhat(split[0], split[1], grid)
    for ext in (split[0], inner, lf.nabla_hat(xi, inner, grid),
                lf.nabla_hat(albr.bracket(xi, ze), b, grid),
                vert, lf.bracket_lhat(vert, split[2], grid),
                lf.nabla_hat(xi, vert, grid)):
        _assert_scalar(ext.scalar, gs)


def test_lifted_bracket_scalar_takes_point_axes(algebra):
    rng = np.random.default_rng(79)
    gs = _points(algebra, rng)
    grid = TimeGrid(11)
    alpha = albr.build_alpha(algebra)
    fields = [constant_field(algebra, algebra.random_vector(rng)) for _ in range(3)]
    h1, h2, h3 = (lf.horizontal_lift(alpha, w) for w in fields)
    for omega in (_zero_two_form(algebra), _coordinate_omega(algebra)):
        inner = lf.lifted_bracket(omega, alpha, h1, h2, grid)
        outer = lf.lifted_bracket(omega, alpha, inner, h3, grid)
        for lifted in (inner, outer):
            _assert_scalar(lifted.hat.scalar, gs)


def _de_rham_forms(alg, rng, grid):
    """A form of every kind that de_rham_differential differentiates, with the
    point axes it must take, by name."""
    x = alg.random_vector(rng)
    alpha = albr.build_alpha(alg, alpha0=albr.invariant_alpha0(alg, (0.2, -0.1, 0.05)))
    c1, c2 = alg.random_vector(rng, 0.3), alg.random_vector(rng, 0.3)
    lam = lf.HorizontalFamily(
        alg, lambda g, v: scaled(alg.pairing(c1, v), c2) + 0.2 * alg.Ad(g, v))
    bker = random_twisted_loop(alg, rng, scale=0.4)
    forms = {
        "alpha_t": AlgebroidForm(alg, 1, lambda g, u: alpha.value(0.37, g, u)),
        "eta": cartan_three_form(alg),
        "eta_G deg-1": equivariant_cartan(alg, x)[1],
        "coordinate omega": _coordinate_omega(alg),
        "eta(data)": lf.eta_from_data(alpha, grid),
        "gamma": lf.gamma_change(alpha, lam, bker, grid),
        "eta'": lf.eta_perturbed(alpha, lam, bker, grid),
    }
    if alg.eta_vanishes:    # slow: only on the groups the primitive checks run on
        mu = AlgebroidForm(alg, 1, lambda g, a: -0.5 * alg.pairing(
            alg.maurer_cartan(g, a, "left") + a, x))
        forms["primitive(eta)"] = poincare_primitive(cartan_three_form(alg), sign=-1.0)
        forms["primitive(mu)"] = poincare_primitive(mu)
    return forms


def _oracle_de_rham(omega):
    """de_rham_differential by the point-by-point `directional` route."""
    alg = omega.algebra
    return koszul(omega, alg.directional, lambda v, w: -alg.bracket(v, w))


# forms built from constant frames: their tangents are one vector for every point
FRAME_FORMS = ("eta(data)", "gamma", "eta'")


def test_de_rham_forms_take_point_axes(algebra):
    rng = np.random.default_rng(80)
    gs = _points(algebra, rng)
    for name, form in _de_rham_forms(algebra, rng, TimeGrid(11)).items():
        for carried in (False,) if name in FRAME_FORMS else (False, True):
            # the tangents hold at every point, or carry the point axes too
            shape = gs.shape[:-2] + (algebra.dim,) if carried else (algebra.dim,)
            vs = [rng.standard_normal(shape) for _ in range(form.degree)]
            got = form(gs, *vs)
            flat = gs.reshape((-1,) + gs.shape[-2:])
            each = [form(g, *[v.reshape((-1, algebra.dim))[i] if carried else v
                              for v in vs]) for i, g in enumerate(flat)]
            want = np.array(each).reshape(gs.shape[:-2] + np.shape(each[0]))
            assert got.tobytes() == want.tobytes(), name


def test_de_rham_differential_matches_directional_oracle(algebra):
    rng = np.random.default_rng(81)
    gs = _points(algebra, rng, shape=(2,))
    for name, form in _de_rham_forms(algebra, rng, TimeGrid(11)).items():
        if name in ("eta(data)", "eta'"):
            continue            # 3-forms whose differential no identity uses
        vs = [algebra.random_vector(rng) for _ in range(form.degree + 1)]
        d = de_rham_differential(form)
        got = d(gs, *vs)
        assert got.tobytes() == _alone(d, gs, *vs).tobytes(), name
        want = _oracle_de_rham(form)(gs[0], *vs)
        assert np.asarray(d(gs[0], *vs)).tobytes() == np.asarray(want).tobytes(), name


# -- algebroid forms over a stack of points --------------------------------------

def test_algebroid_oneforms_take_point_axes(algebra):
    rng = np.random.default_rng(82)
    gs = _points(algebra, rng)
    thl = bott.oneform_theta_left(algebra)
    phi = lambda g: g @ g
    forms = {
        "0": bott.oneform_zero(algebra),
        "a*thetaL": thl,
        "kappa_t": albr.KappaFamily(algebra).at(0.3),
        "beta_t": bott.GaugePeriodicFamily(algebra, thl, phi).at(1.4),
        "Phi.beta": bott.gauge_transform(phi, thl),
    }
    sec = random_section(algebra, rng)
    for name, form in forms.items():
        got = form(gs, sec)
        assert got.shape == gs.shape[:-2] + (algebra.dim,), name
        assert got.tobytes() == _alone(form, gs, sec).tobytes(), name


def test_per_point_stacks_the_values_at_each_point(algebra):
    rng = np.random.default_rng(83)
    gs = _points(algebra, rng)
    seen = []

    def fn(g):
        seen.append(g.shape)
        return algebra.Ad(g, np.arange(algebra.dim, dtype=float))

    got = per_point(fn, gs)
    assert seen == [gs.shape[-2:]] * 12
    assert got.shape == gs.shape[:-2] + (algebra.dim,)
    assert got.tobytes() == _alone(fn, gs).tobytes()


def test_form_dropping_its_point_axes_raises(algebra):
    rng = np.random.default_rng(84)
    g = algebra.random_group(rng)
    secs = [random_section(algebra, rng) for _ in range(2)]
    # one value for a whole stack of points
    constant = AlgebroidForm(algebra, 1, lambda gg, s: 1.0)
    with pytest.raises(ValueError, match="point axes"):
        exterior_derivative(constant)(g, *secs)


# -- slots of G x G over a stack of points ---------------------------------------

def _slot_oracle_derivative(slot):
    """A slot's derivative with its function called at one stencil point at a time."""
    def derivative(func, m, u):
        h = slot.fd_step
        return _derivative([func(p) for p in zip(*slot.stencil(m, u, h))], h)
    return derivative


def _slot_points(alg, rng, shape):
    return tuple(_points(alg, rng, shape) for _ in range(2))


def _slot_alone(fn, m, *args):
    """fn at each slot point of the stacks m = (g2s, g1s), the arguments' point
    axes taken along; the values stacked back over the point axes."""
    lead = m[0].shape[:-2]
    flat = [x.reshape((-1,) + x.shape[len(lead):]) for x in (*m, *args)]
    values = [np.asarray(fn((g2, g1), *rest)) for g2, g1, *rest in zip(*flat)]
    return np.array(values).reshape(lead + values[0].shape)


def _recording(fn, seen):
    """fn, recording the point axes of the slot point of each call."""
    def record(m, *args):
        seen.append(np.shape(m[0])[:-2])
        return fn(m, *args)
    return record


def test_slot_de_rham_differential_is_one_call_per_term_and_matches_points(algebra):
    rng = np.random.default_rng(85)
    slot = fu.Slot(algebra, 0)
    seen = []
    lam = AlgebroidForm(algebra, 2, _recording(lambda pt, a, b: fu.fusion_lambda(
        algebra, *pt, a[..., 0, :], a[..., 1, :], b[..., 0, :], b[..., 1, :]), seen))
    d = de_rham_differential(lam, base=slot)
    m = _slot_points(algebra, rng, ())
    frames = [rng.standard_normal((2, algebra.dim)) for _ in range(3)]
    got = d(m, *frames)
    # three derivative terms on the (4,) stencil, three bracket terms at m
    assert seen == [(4,)] * 3 + [()] * 3
    want = koszul(lam, _slot_oracle_derivative(slot), slot.frame_bracket)(m, *frames)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    ms = _slot_points(algebra, rng, (3,))
    carried = [rng.standard_normal((3, 2, algebra.dim)) for _ in range(3)]
    assert d(ms, *carried).tobytes() == _slot_alone(d, ms, *carried).tobytes()


def test_slot_field_bracket_is_one_call_per_term_and_matches_points(algebra):
    rng = np.random.default_rng(86)
    xf = fu.pair_from_template(algebra, rng)[0].xfield
    yf = fu.pair_from_template(algebra, rng)[0].xfield
    m = _slot_points(algebra, rng, ())
    ms = _slot_points(algebra, rng, (3,))
    for slot in fu.slots(algebra):
        seen = []
        got = albr.field_bracket(slot, _recording(xf, seen), _recording(yf, seen), m)
        # the fields at m, then each once on the (4,) stencil
        assert seen == [(), (), (4,), (4,)]
        x, y = xf(m), yf(m)
        oracle = _slot_oracle_derivative(slot)
        want = slot.frame_bracket(x, y) + oracle(yf, m, x) - oracle(xf, m, y)
        assert got.tobytes() == want.tobytes()
        stacked = albr.field_bracket(slot, xf, yf, ms)
        assert stacked.shape == (3, 2, algebra.dim)
        alone = _slot_alone(lambda mm: albr.field_bracket(slot, xf, yf, mm), ms)
        assert stacked.tobytes() == alone.tobytes()
