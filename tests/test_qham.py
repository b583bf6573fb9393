"""Conjugacy-class pull-backs, the moment 2-form and the kernel theorem."""

import numpy as np
import pytest

from atiyahcheck import qham
from atiyahcheck.algebroid import bracket, generator
from atiyahcheck.checks import REGISTRY, CheckContext
from atiyahcheck.liealg import make_group
from atiyahcheck.lifting import canonical_two_form
from atiyahcheck.qham import (ConjugacyClass, TrivialClass, TruncatedBasis,
                              basis_metric, ghjw_omega, gram_kernel, gram_matrix,
                              project_based, worst_moment_residual)
from atiyahcheck.sections import TimeGrid, random_section, template_section


@pytest.fixture
def su2():
    return make_group("su2")


@pytest.fixture
def klass(su2):
    return ConjugacyClass(su2)


@pytest.fixture
def rng():
    return np.random.default_rng(53)


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def test_class_equivariance(su2, klass, rng):
    for _ in range(3):
        assert klass.equivariance_residual(su2.random_group(rng), _unit(rng)) < 1e-12


def test_central_point_omega_zero(su2, klass, monkeypatch):
    # at Ad_g = 1 (class angle -> 0 limit is central); instead check the
    # antipodal invariance: omega vanishes when Ad_g = Ad_{g^{-1}}
    monkeypatch.setattr(qham, "_ANGLE", np.pi)
    pi_class = ConjugacyClass(su2)
    omega = ghjw_omega(pi_class)
    n = np.array([0.0, 0.0, 1.0])
    t1, t2 = pi_class.tangent_basis(n)
    assert abs(omega(n, t1, t2)) < 1e-12


def test_ghjw_oracle_and_example(su2, klass, rng):
    omega = ghjw_omega(klass)
    assert worst_moment_residual(klass, omega, rng) < 1e-9
    n0 = np.array([0.0, 0.0, 1.0])
    t1 = klass.generator_field(np.array([1.0, 0.0, 0.0]), n0)
    t2 = klass.generator_field(np.array([0.0, 1.0, 0.0]), n0)
    assert abs(abs(omega(n0, t1, t2)) - 1.0) < 1e-12


def test_negated_omega_fails_the_moment_condition(monkeypatch):
    # the sign of omega is fixed, so the opposite sign is an error the
    # moment check reports, not a second candidate
    monkeypatch.setattr(qham, "OMEGA_SIGN", -1.0)
    [spec] = [spec for spec in REGISTRY if spec.name == "moment_sign_oracle"]
    results = spec.fn(CheckContext("su2", {}))
    assert not results[0].passed and results[0].residual > 1e-2


def test_pullback_template_seam(su2, klass, rng):
    a0 = su2.random_vector(rng)
    sec = template_section(su2, lambda m: a0 + m[0] * a0,
                           lambda m: (np.eye(3) - np.outer(m, m)) @ np.array([1.0, 0, 0]),
                           base=klass)
    for _ in range(3):
        assert sec.compatibility_residual(_unit(rng)) < 1e-10


def test_pullback_generator_bracket(su2, klass, rng):
    n = _unit(rng)
    x, y = su2.random_vector(rng), su2.random_vector(rng)
    gb = bracket(generator(su2, x, base=klass), generator(su2, y, base=klass))
    want = -su2.bracket(x, y)
    assert np.linalg.norm(gb.profile(n, 0.4) - want) < 1e-6
    assert gb.compatibility_residual(n) < 1e-6


def test_kernel_dimension_and_stability(su2, klass, rng):
    omega = ghjw_omega(klass)
    worst_moment_residual(klass, omega, rng)   # the draws place n as before
    n = _unit(rng)
    grid = TimeGrid(201)
    for n_max in (4, 6):
        basis = TruncatedBasis(klass, n, n_max, grid)
        assert basis.seam_residuals().max() < 1e-8
        kernels, s, dropped = gram_kernel(basis, omega, thresholds=(1e-7, 1e-8))
        assert [dim for dim, _ in kernels] == [3, 3]
        assert dropped == 2
    # generator rows pair to zero
    basis = TruncatedBasis(klass, n, 4, grid)
    kernels, s, _ = gram_kernel(basis, omega)
    assert np.abs(s[:3, :]).max() < 1e-5


def test_kernel_requires_nondegenerate_pairing():
    h3 = make_group("heisenberg3")
    rng = np.random.default_rng(3)

    class FakeClass(TrivialClass):
        pass

    basis = TruncatedBasis(FakeClass(h3), _unit(rng), 2, TimeGrid(51))
    with pytest.raises(ValueError):
        gram_kernel(basis, None)


def test_abelian_kernel_count(rng):
    tor = make_group("torus2")
    basis = TruncatedBasis(TrivialClass(tor), _unit(rng), 4, TimeGrid(201))
    [(dim, null)], s, dropped = gram_kernel(basis, None)
    assert dim == tor.dim + 2
    assert dropped == 0


def _oracle_gram(basis, omega):
    """The Gram matrix as first written: every row pushed, omega on every pair."""
    klass = basis.klass
    alg = klass.algebra
    n = basis.n
    g = klass.point(n)
    vs = np.array([klass.push_tangent(n, basis.tangents[i]) for i in range(basis.size)])
    lead = np.einsum("atd,de,bte,t->ab", basis.derivs, alg.B, basis.values,
                     basis.grid.weights)
    ad0 = np.array([alg.Ad(g, basis.values[i, 0]) for i in range(basis.size)])
    s = lead - 0.5 * np.einsum("ad,de,be->ab", vs, alg.B, vs) \
        - np.einsum("ad,de,be->ab", ad0, alg.B, vs)
    if omega is not None:
        for a in range(basis.size):
            for b in range(a + 1, basis.size):
                val = omega(n, basis.tangents[a], basis.tangents[b])
                s[a, b] += val
                s[b, a] -= val
    return s


def _oracle_kernel(basis, omega, threshold, dependency_tol=1e-9):
    """One threshold per call, each with its own Gram matrix, eigh and SVD."""
    s = _oracle_gram(basis, omega)
    w, vecs = np.linalg.eigh(basis_metric(basis))
    keep = w > dependency_tol * w.max()
    frame = vecs[:, keep] / np.sqrt(w[keep])
    _, sig, vh = np.linalg.svd(frame.T @ s @ frame)
    null = vh[sig < threshold * sig[0]].conj().T
    return null.shape[1], frame @ null, s, int((~keep).sum())


def _oracle_cases():
    su2 = make_group("su2")
    klass = ConjugacyClass(su2)
    n = _unit(np.random.default_rng(11))
    for n_max in (4, 8):
        yield TruncatedBasis(klass, n, n_max, TimeGrid(201)), ghjw_omega(klass)
    tor = make_group("torus2")
    yield TruncatedBasis(TrivialClass(tor), n, 4, TimeGrid(201)), None


def _oracle_push(klass, n, u, h=1e-5):
    """theta^R of d Phi(u) as first written: one class point per stencil point."""
    def at(s):
        m = n + s * u
        return klass.point(m / np.linalg.norm(m))
    ginv = klass.algebra.inv(at(0.0))
    d1 = (at(h) - at(-h)) @ ginv / (2 * h)
    d2 = (at(2 * h) - at(-2 * h)) @ ginv / (4 * h)
    return klass.algebra.from_matrix((4.0 * d1 - d2) / 3.0)


def test_push_tangent_matches_per_point_oracle(klass, rng):
    for _ in range(4):
        n = _unit(rng)
        for u in klass.tangent_basis(n) + (rng.standard_normal(3),):
            assert np.array_equal(klass.push_tangent(n, u), _oracle_push(klass, n, u))


def test_gram_matrix_matches_oracle():
    # skipping zero-tangent pushes and omega terms leaves every entry exact
    for basis, omega in _oracle_cases():
        assert np.array_equal(gram_matrix(basis, omega), _oracle_gram(basis, omega))


def test_threshold_sweep_matches_per_threshold_calls():
    thresholds = (1e-7, 1e-8, 1e-9)
    for basis, omega in _oracle_cases():
        kernels, s, dropped = gram_kernel(basis, omega, thresholds)
        assert len(kernels) == len(thresholds)
        for thr, (dim, null) in zip(thresholds, kernels):
            [(dim_one, null_one)], s_one, dropped_one = gram_kernel(basis, omega, (thr,))
            dim_old, null_old, s_old, dropped_old = _oracle_kernel(basis, omega, thr)
            assert dim == dim_one == dim_old
            assert np.array_equal(null, null_one) and np.array_equal(null, null_old)
            assert np.array_equal(s, s_one) and np.array_equal(s, s_old)
            assert dropped == dropped_one == dropped_old


def test_loop_rows_have_zero_push(su2, klass, rng):
    basis = TruncatedBasis(klass, _unit(rng), 4, TimeGrid(51))
    moving = basis.tangents.any(axis=1)
    assert moving.sum() == 5     # three generators and two tangents
    assert not basis.pushed[~moving].any()
    for k in np.flatnonzero(moving):
        assert np.array_equal(basis.pushed[k], klass.push_tangent(basis.n, basis.tangents[k]))


def test_varpi_pullback_generator_rows(su2, klass, rng):
    omega = ghjw_omega(klass)
    worst_moment_residual(klass, omega, rng)   # the draws place n as before
    n = _unit(rng)
    grid = TimeGrid(201)
    x = su2.random_vector(rng)
    xg = generator(su2, x, base=klass)
    sec = template_section(su2, lambda m: su2.random_vector(np.random.default_rng(1)),
                           lambda m: (np.eye(3) - np.outer(m, m)) @ np.array([0.3, -0.7, 0.2]),
                           base=klass)
    val = canonical_two_form(xg, sec, n, grid) \
        + omega(n, xg.xfield(n), sec.xfield(n))
    assert abs(val) < 1e-10


def test_project_based(su2, rng):
    g = su2.random_group(rng)
    xi = random_section(su2, rng)
    q = project_based(xi)
    assert np.linalg.norm(q.profile(g, 0.0)) < 1e-14
    x0 = xi.profile(g, 0.0)
    want = xi.v(g) + su2.Ad(g, x0) - x0
    assert np.linalg.norm(q.v(g) - want) < 1e-13
    # loop sections vanishing at zero are unchanged
    from atiyahcheck.sections import loop_section
    e1 = np.array([1.0, 0, 0])
    z = loop_section(su2, lambda t: np.sin(2 * np.pi * t) * e1)
    qz = project_based(z)
    ge = su2.identity()
    for t in (0.2, 0.7):
        assert np.linalg.norm(qz.profile(ge, t) - z.profile(ge, t)) < 1e-14


def test_project_based_pullback(su2, klass, rng):
    a0 = su2.random_vector(rng)
    sec = template_section(su2, lambda m: a0 + m[1] * a0,
                           lambda m: (np.eye(3) - np.outer(m, m)) @ np.array([0.2, 0.5, -0.1]),
                           base=klass)
    q = project_based(sec)
    n = _unit(rng)
    assert np.linalg.norm(q.profile(n, 0.0)) < 1e-14
    assert q.compatibility_residual(n) < 1e-9
    # pull-back generators project to zero sections with shifted tangent
    x = su2.random_vector(rng)
    qg = project_based(generator(su2, x, base=klass))
    assert np.linalg.norm(qg.profile(n, 0.6)) < 1e-14
    assert np.linalg.norm(qg.xfield(n)) < 1e-12
