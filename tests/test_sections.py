"""Path sections: seams, extension, time calculus, quadrature."""

import numpy as np
import pytest

from atiyahcheck.liealg import _MEMO_SIZE, make_group
from atiyahcheck.sections import (FLAT_WIDTH, T_STEP, AlgebroidSection, PointMemo, TimeGrid,
                                  bump, constant_profile_section, extend, gauge_steps,
                                  integrate_01, loop_section, piecewise, random_loop_section,
                                  random_section, random_twisted_loop, scaled,
                                  template_section, time_derivative)


@pytest.fixture
def su2():
    return make_group("su2")


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(4)
    with pytest.raises(ValueError):
        TimeGrid(1)
    g = TimeGrid(5)
    assert abs(g.weights.sum() - 1.0) < 1e-14


def test_simpson_oracles():
    grid = TimeGrid(201)
    assert abs(integrate_01(lambda t: 1.0, grid) - 1.0) < 1e-14
    two_pi = 2 * np.pi
    assert abs(integrate_01(lambda t: np.sin(two_pi * t) * two_pi * np.cos(two_pi * t),
                            grid)) < 1e-12
    assert abs(integrate_01(lambda t: two_pi * np.cos(two_pi * t) ** 2, grid)
               - np.pi) < 1e-8


def test_simpson_fourth_order():
    f = lambda t: np.exp(t) * np.sin(3 * t)
    exact = integrate_01(f, TimeGrid(1601))
    e1 = abs(integrate_01(f, TimeGrid(11)) - exact)
    e2 = abs(integrate_01(f, TimeGrid(21)) - exact)
    assert e1 / e2 >= 12.0


def test_bump_flat_ends():
    assert bump(0.0) == 0.0 and bump(0.05) == 0.0 and bump(FLAT_WIDTH) == 0.0
    assert bump(1.0) == 1.0 and bump(0.97) == 1.0 and bump(1.0 - FLAT_WIDTH) == 1.0
    assert bump.deriv(0.02) == 0.0 and bump.deriv(0.99) == 0.0
    # derivative consistent with finite differences in the interior
    for t in (0.2, 0.5, 0.77):
        fd = (bump(t + 1e-6) - bump(t - 1e-6)) / 2e-6
        assert abs(fd - bump.deriv(t)) < 1e-7


def test_constant_section_seam(su2):
    rng = np.random.default_rng(0)
    g = su2.random_group(rng)
    c = su2.random_vector(rng)
    sec = constant_profile_section(su2, c)
    assert sec.compatibility_residual(g) < 1e-14
    # constant sections stay constant under extension
    assert np.linalg.norm(extend(sec, g, 1.5) - c) < 1e-12
    assert np.linalg.norm(extend(sec, g, -0.75) - c) < 1e-12


def test_template_zero(su2):
    zero = template_section(su2, lambda g: np.zeros(3), lambda g: np.zeros(3))
    g = su2.identity()
    assert np.linalg.norm(zero.profile(g, 0.4)) == 0.0


def test_template_generator_cancellation(su2):
    # a = -x, v = Ad_g x - x makes the bump coefficient vanish identically
    rng = np.random.default_rng(1)
    x = su2.random_vector(rng)
    sec = template_section(su2, lambda g: -x, lambda g: su2.Ad(g, x) - x)
    g = su2.random_group(rng)
    for t in (0.0, 0.31, 0.8):
        assert np.linalg.norm(sec.profile(g, t) + x) < 1e-12


def test_loop_extension(su2):
    rng = np.random.default_rng(2)
    g = su2.random_group(rng)
    z = random_twisted_loop(su2, rng)
    # v = 0: iterated seam gives Ad_g^2 at t = 2.25
    got = extend(z, g, 2.25)
    want = su2.Ad(g, su2.Ad(g, z.profile(g, 0.25)))
    assert np.linalg.norm(got - want) < 1e-10
    # inverse seam round trip
    back = extend(z, g, -0.75)
    assert np.linalg.norm(su2.Ad(g, back) - z.profile(g, 0.25)) < 1e-10


def test_time_derivative(su2):
    g = su2.identity()
    e1 = np.array([1.0, 0.0, 0.0])
    two_pi = 2 * np.pi
    z = loop_section(su2, lambda t: np.sin(two_pi * t) * e1)
    got = time_derivative(z, g, 0.3)
    want = two_pi * np.cos(two_pi * 0.3) * e1
    assert np.linalg.norm(got - want) < 1e-6
    # constant sections have zero derivative
    c = constant_profile_section(su2, e1)
    assert np.linalg.norm(time_derivative(c, su2.identity(), 0.5)) == 0.0


def test_template_derivative_consistency(su2):
    rng = np.random.default_rng(3)
    g = su2.random_group(rng)
    sec = random_section(su2, rng)
    for t in (0.2, 0.5, 0.85):
        fd = (extend(sec, g, t + 1e-5) - extend(sec, g, t - 1e-5)) / 2e-5
        assert np.linalg.norm(sec.dprofile(g, t) - fd) < 1e-6


def test_extend_cocycle_property(su2):
    rng = np.random.default_rng(4)
    g = su2.random_group(rng)
    sec = random_section(su2, rng)
    for t in (-1.2, -0.4, 0.1, 0.9, 1.7):
        lhs = extend(sec, g, t + 1.0)
        rhs = su2.Ad(g, extend(sec, g, t)) + sec.v(g)
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_twisted_loop_is_section(su2):
    rng = np.random.default_rng(5)
    z = random_twisted_loop(su2, rng)
    for _ in range(3):
        g = su2.random_group(rng, scale=0.5)
        assert z.compatibility_residual(g) < 1e-9
        assert np.linalg.norm(z.v(g)) <= 1e-10


def test_compatibility_residual_detects_a_broken_seam(su2):
    rng = np.random.default_rng(9)
    g = su2.random_group(rng)
    good = random_section(su2, rng)
    assert good.compatibility_residual(g) < 1e-8
    bad = AlgebroidSection(su2, lambda gg, t: np.array([t, 0.0, 0.0]),
                           lambda gg: np.zeros(3))
    assert bad.compatibility_residual(g) > 1e-8


def test_seam_over_every_base(su2):
    # extend(m, t+1) = Ad_{Phi(m)} extend(m, t) + v(m) on the class and both slots
    from atiyahcheck.fusion import pair_from_template
    from atiyahcheck.qham import ConjugacyClass
    rng = np.random.default_rng(17)
    klass = ConjugacyClass(su2)
    a0 = su2.random_vector(rng)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    on_class = template_section(
        su2, lambda m: a0 + m[2] * a0,
        lambda m: (np.eye(3) - np.outer(m, m)) @ np.array([0.4, -0.1, 0.6]), base=klass)
    m = (su2.random_group(rng), su2.random_group(rng))
    xi2, xi1 = pair_from_template(su2, rng)
    for sec, point in ((on_class, n), (xi2, m), (xi1, m)):
        g = sec.base.point(point)
        assert sec.compatibility_residual(point) < 1e-12
        for t in (-1.4, -0.3, 0.25, 1.6):
            want = su2.Ad(g, extend(sec, point, t)) + sec.v(point)
            assert np.linalg.norm(extend(sec, point, t + 1.0) - want) < 1e-12


def _agree_on_arrays(f, ts):
    """f(ts)[i] equals f(ts[i]) within 1e-14 of the values' scale."""
    whole = np.asarray(f(ts))
    points = np.array([f(t) for t in ts])
    assert whole.shape == points.shape == ts.shape + points.shape[1:]
    scale = max(1.0, float(np.abs(points).max()))
    assert float(np.abs(whole - points).max()) <= 1e-14 * scale


def _sections_and_families(su2, rng):
    """(section, base point) pairs and (family, group point, argument) triples
    built by every constructor."""
    from atiyahcheck import algebroid as albr
    from atiyahcheck import bott, fusion, lifting
    from atiyahcheck.forms import AlgebroidForm
    from atiyahcheck.qham import ConjugacyClass

    g = su2.random_group(rng, scale=0.5)
    xi, ze = random_section(su2, rng), random_section(su2, rng)
    klass = ConjugacyClass(su2)
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    a0 = su2.random_vector(rng)
    on_class = template_section(
        su2, lambda m: a0 + m[2] * a0,
        lambda m: (np.eye(3) - np.outer(m, m)) @ np.array([0.4, -0.1, 0.6]), base=klass)
    g2, g1 = su2.random_group(rng), su2.random_group(rng)
    pair = fusion.pair_from_template(su2, rng)
    alpha = albr.build_alpha(su2, alpha0=albr.invariant_alpha0(su2, (0.2, -0.1, 0.05)),
                             invariant=True)
    v, w = su2.random_vector(rng), su2.random_vector(rng)
    lam = lifting.HorizontalFamily(su2, lambda gg, u: 0.2 * su2.Ad(gg, u))
    sections = [
        (xi, g), (on_class, n), (pair[0], (g2, g1)), (pair[1], (g2, g1)),
        (constant_profile_section(su2, su2.random_vector(rng)), g),
        (random_loop_section(su2, rng), g), (random_twisted_loop(su2, rng), g),
        (albr.bracket(xi, ze), g), (albr.connection_apply(alpha, xi), g),
        (lifting._hor_section(alpha, lambda gg: v), g),
        (lifting._curvature_section(alpha, lambda gg: v, lambda gg: w), g),
        (lam.section(lambda gg: w), g), (fusion.concat(pair, g2, g1), g2 @ g1),
    ]
    thl = bott.oneform_theta_left(su2)
    beta0 = AlgebroidForm(su2, 1, lambda gg, s: 0.4 * thl(gg, s))
    phi1 = lambda gg, m=su2.exp(su2.random_vector(rng, 0.4)): m @ gg
    phi2 = lambda gg, m=su2.exp(su2.random_vector(rng, 0.4)): gg @ m
    f1 = bott.GaugePeriodicFamily(su2, beta0, phi1)
    f2 = bott.GaugePeriodicFamily(su2, bott.gauge_transform(phi1, beta0), phi2)
    families = [(alpha, g, v), (lam, g, w), (f1, g, xi),
                (bott.concat_families(f1, f2, su2), g, xi), (albr.KappaFamily(su2), g, xi)]
    return sections, families


def test_grid_matches_points(su2):
    # one call on an array of times equals one call per time, inside [0, 1]
    # and across integers, with invalid operations raising as in check bodies
    rng = np.random.default_rng(29)
    nodes = TimeGrid(41).nodes
    crossing = [nodes + T_STEP, nodes - T_STEP, np.array([-1.4, -0.3, 1.0, 1.6, 2.3])]
    with np.errstate(divide="raise", invalid="raise"):
        sections, families = _sections_and_families(su2, rng)
        for sec, m in sections:
            _agree_on_arrays(lambda t: sec.profile(m, t), nodes)
            if sec.dprofile is not None:
                _agree_on_arrays(lambda t: sec.dprofile(m, t), nodes)
            for ts in [nodes] + crossing:
                _agree_on_arrays(lambda t: extend(sec, m, t), ts)
                _agree_on_arrays(lambda t: time_derivative(sec, m, t), ts)
        for fam, g, arg in families:
            for ts in [nodes] + crossing:
                _agree_on_arrays(lambda t: fam.value(t, g, arg), ts)
                _agree_on_arrays(lambda t: fam.tderiv(t, g, arg), ts)
        for ts in [nodes] + crossing:
            _agree_on_arrays(bump, ts)
            _agree_on_arrays(bump.deriv, ts)


def _unmemoised_random_section(alg, seed):
    """random_section(alg, default_rng(seed)) rebuilt from its draws with no memo:
    its a and v, and the plain template section over them."""
    rng = np.random.default_rng(seed)
    a0, da = alg.random_vector(rng, 0.8), alg.random_vector(rng, 0.8)
    ca = rng.uniform(-1.0, 1.0)
    v0, dv = alg.random_vector(rng, 0.8), alg.random_vector(rng, 0.8)
    cv = rng.uniform(-1.0, 1.0)
    a = lambda g: a0 + ca * alg.Ad(g, da)
    v = lambda g: v0 + cv * alg.Ad(g, dv)
    return a, v, template_section(alg, a, v)


def _interpolated_families(su2, rng):
    """(family, argument) pairs of the memoised t-families, with their sections."""
    from atiyahcheck.sections import InterpolatedFamily

    sections, families = _sections_and_families(su2, rng)
    return sections, [(fam, arg) for fam, _, arg in families
                      if isinstance(fam, InterpolatedFamily)]


def test_point_memos_equal_unmemoised_computation(su2):
    # repeated and new points alike: a hit returns exactly the first miss's value
    rng = np.random.default_rng(47)
    sec = random_section(su2, np.random.default_rng(5))
    a, v, plain = _unmemoised_random_section(su2, 5)
    _, families = _interpolated_families(su2, rng)
    assert len(families) == 3
    ts = np.array([0.0, 0.05, 0.3, 0.5, 0.93, 1.0])
    points = [su2.random_group(rng) for _ in range(3)]
    for g in points + points[::-1] + [su2.random_group(rng)]:
        assert np.array_equal(sec.v(g), v(g))
        assert np.array_equal(sec.profile(g, 0.0), a(g))
        assert np.array_equal(sec.profile(g, ts), plain.profile(g, ts))
        assert np.array_equal(sec.dprofile(g, ts), plain.dprofile(g, ts))
        for fam, arg in families:
            for t in (-1.4, -0.3, 0.0, 0.45, 1.0, 1.6, 2.3):
                n = int(np.floor(t))
                lo, hi = fam._gauge_ends(n, g, arg)
                assert np.array_equal(fam.value(t, g, arg),
                                      lo + scaled(bump(t - n), hi - lo))
                assert np.array_equal(fam.tderiv(t, g, arg),
                                      scaled(bump.deriv(t - n), hi - lo))


def test_memoised_point_data_is_read_only(su2):
    rng = np.random.default_rng(53)
    g = su2.random_group(rng)
    sec = random_section(su2, rng)
    with pytest.raises(ValueError):
        sec.v(g)[0] = 1.0
    assert sec.profile(g, 0.4).flags.writeable
    for fam, arg in _interpolated_families(su2, rng)[1]:
        for end in fam._ends(1, g, arg):
            with pytest.raises(ValueError):
                end[0] = 1.0
        assert fam.value(1.5, g, arg).flags.writeable


def test_point_memos_hold_at_most_memo_size_entries(su2, monkeypatch):
    memos = []
    init = PointMemo.__init__

    def recording_init(memo, fn):
        memos.append(memo)
        init(memo, fn)

    monkeypatch.setattr(PointMemo, "__init__", recording_init)
    rng = np.random.default_rng(59)
    sections, families = _interpolated_families(su2, rng)
    sec = sections[0][0]                      # a random section
    for g in [su2.random_group(rng) for _ in range(_MEMO_SIZE + 20)]:
        sec.profile(g, 0.3)
        sec.v(g)
        for fam, arg in families:
            fam.value(0.3, g, arg)
        assert max(len(memo.entries) for memo in memos) <= _MEMO_SIZE
    assert sum(len(memo.entries) == _MEMO_SIZE for memo in memos) >= 2 + len(families)
    # the least recently used point is the one dropped
    calls = []
    memo = PointMemo(lambda x: calls.append(x) or 2.0 * x)
    keys = [np.full(2, float(i)) for i in range(_MEMO_SIZE + 1)]
    for key in keys[:_MEMO_SIZE]:
        memo(key)
    memo(keys[0])
    memo(keys[_MEMO_SIZE])
    assert len(calls) == _MEMO_SIZE + 1
    memo(keys[0])
    assert len(calls) == _MEMO_SIZE + 1
    memo(keys[1])
    assert len(calls) == _MEMO_SIZE + 2


def test_point_memo_keys_arrays_by_shape():
    memo = PointMemo(lambda t: np.asarray(t) * 2.0)
    assert np.shape(memo(0.5)) == ()
    assert np.shape(memo(np.array([0.5]))) == (1,)
    assert np.shape(memo(np.array([[0.5]]))) == (1, 1)
    assert len(memo.entries) == 3


def test_bump_memo_equals_uncached_formula():
    # float, 0-d array, 1-element array and grid: same bits, type and shape,
    # on the first call and on every hit
    nodes = TimeGrid(41).nodes
    times = [0.5, np.array(0.5), np.array([0.5]), 0.03, 0.97, nodes, nodes + 1e-5, 0.5]
    for t in times:
        for memoised, uncached in ((bump, bump._value), (bump.deriv, bump._deriv)):
            want = uncached(t)
            for got in (memoised(t), memoised(t)):
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(want) == np.shape(t)
                assert np.array_equal(got, want)
    assert type(bump(0.5)) is np.float64
    assert bump(nodes) is bump(nodes.copy())


def test_bump_memo_is_read_only_and_bounded():
    nodes = TimeGrid(41).nodes
    for values in (bump(nodes), bump.deriv(nodes)):
        with pytest.raises(ValueError):
            values[3] = 1.0
    for k in range(_MEMO_SIZE + 20):
        bump(k / (_MEMO_SIZE + 20))
        bump.deriv(np.array([k / 7.0]))
    assert len(bump._values.entries) == len(bump._derivs.entries) == _MEMO_SIZE


def _extend_oracle(section, m, t):
    """extend as one profile call per integer piece of t."""
    def piece(n, tn):
        val = section.profile(m, tn - n)
        if n == 0:
            return val
        return gauge_steps(section.algebra, n, val, section.base.point(m), section.v(m))
    return piecewise(t, np.floor, piece)


def test_extend_takes_one_profile_call_per_time_array(su2):
    from atiyahcheck.algebroid import bracket
    from atiyahcheck.qham import ConjugacyClass
    rng = np.random.default_rng(61)
    a0 = su2.random_vector(rng)
    on_class = template_section(
        su2, lambda m: a0 + m[2] * a0,
        lambda m: (np.eye(3) - np.outer(m, m)) @ np.array([0.4, -0.1, 0.6]),
        base=ConjugacyClass(su2))
    n = rng.standard_normal(3)
    g = su2.random_group(rng, scale=0.5)
    xi, ze = random_section(su2, rng), random_section(su2, rng)
    cases = [(xi, g), (bracket(xi, ze), g), (random_twisted_loop(su2, rng), g),
             (on_class, n / np.linalg.norm(n))]
    nodes = TimeGrid(41).nodes
    for sec, m in cases:
        calls = []
        profile = sec.profile
        sec.profile = lambda mm, t, profile=profile, calls=calls: (
            calls.append(np.shape(t)) or profile(mm, t))
        for ts in (nodes, np.linspace(-2.3, 3.7, 37), nodes + 2.0):
            calls.clear()
            got = extend(sec, m, ts)
            assert calls == [ts.shape]
            assert np.array_equal(got, _extend_oracle(sec, m, ts))


def test_twisted_loop_exponentiates_once_per_point_and_time(su2, monkeypatch):
    rng = np.random.default_rng(67)
    z = random_twisted_loop(su2, rng)
    points = [su2.random_group(rng, scale=0.5) for _ in range(2)]
    nodes = TimeGrid(41).nodes
    first = {}
    for g in points:
        for t in (0.3, np.array([0.3]), nodes):
            first[id(g), np.shape(t)] = (z.profile(g, t), z.dprofile(g, t))
    exps = []
    exp = su2.exp
    monkeypatch.setattr(su2, "exp", lambda x: exps.append(np.shape(x)) or exp(x))
    z = random_twisted_loop(su2, np.random.default_rng(67))
    for _ in range(2):
        for g in points:
            for t in (0.3, np.array([0.3]), nodes):
                prof, dprof = first[id(g), np.shape(t)]
                assert np.array_equal(z.dprofile(g, t), dprof)
                assert np.array_equal(z.profile(g, t), prof)
    assert len(exps) == 2 * 3
