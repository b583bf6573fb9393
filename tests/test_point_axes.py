"""Sections over the group take leading point axes: every member of a stack
of points equals the section at that point alone, bit for bit, and a
bracket over the group (one stencil call per derivative term) equals the
point-by-point `directional` route."""

import numpy as np
import pytest

from atiyahcheck import algebroid as albr
from atiyahcheck import lifting as lf
from atiyahcheck.liealg import GROUP_NAMES, make_group
from atiyahcheck.qham import project_based
from atiyahcheck.sections import (AlgebroidSection, BumpFunction, TimeGrid, constant_field,
                                  constant_profile_section, random_loop_section,
                                  random_section, random_twisted_loop, template_section)

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


def _oracle_bracket(xi, zeta, h=1e-4):
    """The algebroid bracket by the point-by-point `directional` route."""
    alg = xi.algebra

    def derivative(f, g, u):
        return alg.directional(f, g, u, h=h)

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
                                lambda g: alg.Ad(g, dv) - dv, BumpFunction())
    xi = random_section(alg, rng)
    alpha = albr.build_alpha(alg, alpha0=albr.invariant_alpha0(alg, (0.2, -0.1, 0.05)))
    lam = lf.HorizontalFamily(alg, lambda g, v: 0.2 * alg.Ad(g, v), alpha.bump)
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
    inner = lf.lifted_bracket(None, alpha, h1, h2, grid)
    outer = lf.lifted_bracket(None, alpha, inner, h3, grid)
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
    inner = lambda g: algebra.field_bracket(xf, yf, g)
    for field in (inner, lambda g: algebra.field_bracket(inner, xf, g)):
        assert field(gs).tobytes() == _alone(field, gs).tobytes()
    g = gs[0, 0]
    want = -algebra.bracket(xf(g), yf(g)) + algebra.directional(yf, g, xf(g)) \
        - algebra.directional(xf, g, yf(g))
    assert inner(g).tobytes() == want.tobytes()


def test_constant_fields_need_not_carry_point_axes():
    # a field that returns one vector holds it at every point of a stack
    alg = make_group("so3")
    rng = np.random.default_rng(76)
    gs = _points(alg, rng)
    c1, c2 = alg.random_vector(rng), alg.random_vector(rng)
    bare = alg.field_bracket(lambda g: c1, lambda g: c2, gs)
    carried = alg.field_bracket(constant_field(alg, c1), constant_field(alg, c2), gs)
    assert bare.tobytes() == carried.tobytes()
