"""Group/algebra core: catalog construction, exp/Ad, derivative oracles."""

import pathlib
import re

import numpy as np
import pytest

from atiyahcheck import liealg
from atiyahcheck.fusion import Slot
from atiyahcheck.forms import cartan_three_form
from atiyahcheck.liealg import GROUP_NAMES, expm, make_group
from atiyahcheck.qham import ConjugacyClass


@pytest.fixture(params=GROUP_NAMES)
def algebra(request):
    return make_group(request.param)


def test_catalog_names():
    assert set(GROUP_NAMES) == {"su2", "so3", "heisenberg3", "torus2"}
    with pytest.raises(ValueError):
        make_group("nope")


@pytest.mark.parametrize("step", [0.0, -1e-4, 1e-5, 5e-3, np.inf, np.nan])
def test_make_group_refuses_a_step_outside_the_range(step):
    with pytest.raises(ValueError, match="fd_step must lie in"):
        make_group("su2", fd_step=step)


def test_make_group_takes_the_range_edges():
    for edge in liealg.FD_STEP_RANGE:
        assert make_group("su2", fd_step=edge).fd_step == edge


def test_library_run_refuses_a_zero_step():
    # a zero step divided 0 by 0 in 7 of the 17 algebroid results
    from atiyahcheck.checks import run_checks
    with pytest.raises(ValueError, match="fd_step must lie in"):
        run_checks("torus2", {"fd_step": 0.0, "seed": 42}, suites=["algebroid"])


def test_construction_invariants(algebra):
    # construction already validates; re-check the pieces explicitly
    c = algebra.c
    assert np.max(np.abs(c + np.transpose(c, (1, 0, 2)))) < 1e-12
    jac = (np.einsum("ijm,mkl->ijkl", c, c)
           + np.einsum("jkm,mil->ijkl", c, c)
           + np.einsum("kim,mjl->ijkl", c, c))
    assert np.max(np.abs(jac)) < 1e-12


def test_nondegeneracy_flags():
    assert make_group("su2").nondegenerate
    assert make_group("so3").nondegenerate
    assert make_group("torus2").nondegenerate
    # invariance forces the Heisenberg center into the radical
    assert not make_group("heisenberg3").nondegenerate


def test_exp_identity(algebra):
    assert np.allclose(algebra.exp(np.zeros(algebra.dim)), algebra.identity())


def test_expm_against_series():
    rng = np.random.default_rng(0)
    m = 0.3 * rng.standard_normal((6, 6))
    series = np.eye(6)
    term = np.eye(6)
    for k in range(1, 30):
        term = term @ m / k
        series = series + term
    assert np.linalg.norm(expm(m) - series) < 1e-13


def test_expm_batch_members_computed_alone(algebra):
    # each member gets its own scaling, so a batch mixing norms (zero, below
    # and above 0.5, at and just past powers of two) matches single calls
    rng = np.random.default_rng(12)
    direction = algebra.to_matrix(algebra.random_vector(rng))
    unit = direction / np.abs(direction).sum(axis=0).max()
    norms = [0.0, 0.1, 0.5, np.nextafter(0.5, 1.0), 0.7, 1.0, np.nextafter(1.0, 2.0),
             2.0, 2.0 + 1e-9, 3.3, 8.0, np.nextafter(8.0, 9.0), 40.0]
    batch = np.array([r * unit for r in norms]
                     + [algebra.to_matrix(algebra.random_vector(rng, s)) for s in (0.2, 1.5, 6.0)])
    for shape in ((len(batch),), (2, len(batch) // 2)):
        got = expm(batch.reshape(shape + batch.shape[1:]))
        assert got.shape == shape + batch.shape[1:]
        for member, want in zip(got.reshape(batch.shape), batch):
            assert np.array_equal(member, expm(want))


def test_so3_rotation_oracle():
    alg = make_group("so3")
    t = 0.7
    g = alg.exp(t * np.array([0.0, 0.0, 1.0]))
    got = alg.Ad(g, np.array([1.0, 0.0, 0.0]))
    want = np.array([np.cos(t), np.sin(t), 0.0])
    assert np.linalg.norm(got - want) < 1e-12


def test_abelian_ad_trivial():
    alg = make_group("torus2")
    rng = np.random.default_rng(1)
    g = alg.random_group(rng)
    x = alg.random_vector(rng)
    assert np.linalg.norm(alg.Ad(g, x) - x) < 1e-13


def test_bracket_antisymmetry(algebra):
    rng = np.random.default_rng(2)
    x = algebra.random_vector(rng)
    y = algebra.random_vector(rng)
    assert np.linalg.norm(algebra.bracket(x, x)) < 1e-14
    assert np.linalg.norm(algebra.bracket(x, y) + algebra.bracket(y, x)) < 1e-14


def test_so3_structure():
    alg = make_group("so3")
    e = np.eye(3)
    assert np.allclose(alg.bracket(e[0], e[1]), e[2])


def test_directional_derivative_oracles(algebra):
    rng = np.random.default_rng(3)
    g = algebra.random_group(rng)
    v = algebra.random_vector(rng)
    c = algebra.random_vector(rng)
    # constant map differentiates to zero
    zero = algebra.directional(lambda gg: np.array(1.37), g, v)
    assert abs(zero) < 1e-12
    # matrix entries of the curve differentiate to v g
    got = algebra.directional(lambda gg: gg, g, v)
    assert np.linalg.norm(got - algebra.to_matrix(v) @ g) < 1e-9
    # the adjoint oracle
    got = algebra.directional(lambda gg: algebra.Ad(gg, c), g, v)
    want = algebra.bracket(v, algebra.Ad(g, c))
    assert np.linalg.norm(got - want) < 1e-7 * max(1.0, np.linalg.norm(want))


def test_maurer_cartan(algebra):
    rng = np.random.default_rng(4)
    v = algebra.random_vector(rng)
    e = algebra.identity()
    assert np.allclose(algebra.maurer_cartan(e, v, "left"), v)
    assert np.allclose(algebra.maurer_cartan(e, v, "right"), v)
    with pytest.raises(ValueError):
        algebra.maurer_cartan(e, v, "middle")


def test_maurer_cartan_rotation():
    alg = make_group("so3")
    g = alg.exp(0.5 * np.pi * np.array([0.0, 0.0, 1.0]))
    got = alg.maurer_cartan(g, np.array([1.0, 0.0, 0.0]), "left")
    assert np.linalg.norm(got - np.array([0.0, -1.0, 0.0])) < 1e-12


def test_membership_residual(algebra):
    rng = np.random.default_rng(5)
    g = algebra.random_group(rng)
    assert algebra.membership_residual(g) < liealg._GROUP_TOLERANCE


def test_log_roundtrip(algebra):
    rng = np.random.default_rng(6)
    x = 0.5 * algebra.random_vector(rng)
    assert np.linalg.norm(algebra.log(algebra.exp(x)) - x) < 1e-10


def test_polynomials():
    su2 = make_group("su2")
    p = su2.polynomials[2]
    x = np.array([1.0, 2.0, -1.0])
    assert abs(p(x, x) - 0.5 * su2.pairing(x, x)) < 1e-14
    assert su2.polynomials.get(3) is None
    p3 = make_group("heisenberg3").polynomials[3]
    assert abs(p3(np.array([2.0, 0, 0]), np.array([2.0, 0, 0]),
                  np.array([2.0, 0, 0])) - 8.0) < 1e-14


# -- what each group declares ---------------------------------------------------

@pytest.mark.parametrize("name, degrees", [
    ("su2", [2]), ("so3", [2]), ("heisenberg3", [2, 3]), ("torus2", [2])])
def test_declared_polynomial_degrees(name, degrees):
    alg = make_group(name)
    assert sorted(alg.polynomials) == degrees
    assert all(p.degree == d and p.algebra is alg for d, p in alg.polynomials.items())


def test_a_polynomial_is_built_once(algebra):
    assert algebra.polynomials[2] is algebra.polynomials[2]


def test_readme_group_table_matches_the_declarations():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| .+ \| ([\d, ]+) \| (yes|no) \| [^|]+ \|$", readme, re.M)
    assert sorted(name for name, _, _ in rows) == sorted(GROUP_NAMES)
    for name, degrees, vanishes in rows:
        alg = make_group(name)
        assert degrees == ", ".join(map(str, sorted(alg.polynomials))), name
        assert vanishes == ("yes" if alg.eta_vanishes else "no"), name


@pytest.mark.parametrize("name, vanishes", [
    ("su2", False), ("so3", False), ("heisenberg3", True), ("torus2", True)])
def test_eta_vanishes_exactly_where_declared(name, vanishes):
    alg = make_group(name)
    assert alg.eta_vanishes is vanishes
    eta = cartan_three_form(alg)
    rng = np.random.default_rng(23)
    values = [eta(alg.random_group(rng), *[alg.random_vector(rng) for _ in range(3)])
              for _ in range(5)]
    if vanishes:
        assert values == [0.0] * 5
    else:
        assert min(abs(v) for v in values) > 1e-3


# -- memo of step exponentials and group inverses ------------------------------

def _uncached_directional(algebra, func, g, v, h):
    vm = algebra.to_matrix(v)

    def delta(step):
        plus = np.asarray(func(expm(step * vm) @ g), dtype=float)
        minus = np.asarray(func(expm(-step * vm) @ g), dtype=float)
        return (plus - minus) / (2.0 * step)

    return (4.0 * delta(h) - delta(2.0 * h)) / 3.0


def test_memo_results_bit_identical(algebra):
    rng = np.random.default_rng(7)
    g = algebra.random_group(rng)
    v, x = algebra.random_vector(rng), algebra.random_vector(rng)
    func = lambda gg: gg @ algebra.to_matrix(x)
    want_d = _uncached_directional(algebra, func, g, v, algebra.fd_step)
    want_ad = algebra.from_matrix(g @ algebra.to_matrix(x) @ np.linalg.inv(g))
    for _ in range(2):  # cold, then served from the memo
        assert algebra.directional(func, g, v).tobytes() == want_d.tobytes()
        assert algebra.Ad(g, x).tobytes() == want_ad.tobytes()
        assert algebra.inv(g).tobytes() == np.linalg.inv(g).tobytes()


def test_directional_expm_calls_cold_and_warm(monkeypatch):
    alg = make_group("su2")
    rng = np.random.default_rng(8)
    g1, g2 = alg.random_group(rng), alg.random_group(rng)
    v, x = alg.random_vector(rng), alg.random_vector(rng)
    calls = []
    real = liealg.expm
    monkeypatch.setattr(liealg, "expm", lambda a: calls.append(1) or real(a))
    func = lambda gg: float(np.trace(gg @ alg.to_matrix(x)))
    alg.directional(func, g1, v)
    assert len(calls) == 4
    # the step exponentials depend on (v, h) only, not on the base point
    alg.directional(func, g2, v)
    assert len(calls) == 4
    alg.fd_step = 2e-4
    alg.directional(func, g1, v)
    assert len(calls) == 8


def test_directional_batch_members_computed_alone(algebra):
    # stacked points and directions give each member's own derivative, so a
    # de Rham differential evaluates on a batch of points
    rng = np.random.default_rng(13)
    gs = np.array([algebra.random_group(rng) for _ in range(24)])
    vs = np.array([algebra.random_vector(rng) for _ in range(24)])
    x = algebra.random_vector(rng)
    funcs = (lambda gg: gg @ algebra.to_matrix(x),
             lambda gg: np.sin(gg[..., 0, 1]) + gg[..., -1, -1] * gg[..., 0, 0],
             lambda gg: algebra.Ad(gg, x))
    for func in funcs:
        alone = np.array([algebra.directional(func, g, v) for g, v in zip(gs, vs)])
        assert algebra.directional(func, gs, vs).tobytes() == alone.tobytes()


def test_memo_size_is_bounded():
    # inverses and step exponentials each keep their own memo
    alg = make_group("so3")
    rng = np.random.default_rng(9)
    for _ in range(liealg._MEMO_SIZE + 50):
        alg.inv(alg.random_group(rng))
        alg.directional(lambda gg: gg, alg.identity(), alg.random_vector(rng))
    assert len(alg.inv.entries) == liealg._MEMO_SIZE
    assert len(alg.step_exponentials.entries) == liealg._MEMO_SIZE
    for memo in (alg.inv, alg.step_exponentials):
        for value in memo.entries.values():
            assert not value.flags.writeable


def test_memoised_inverse_is_read_only(algebra):
    rng = np.random.default_rng(10)
    g = algebra.random_group(rng)
    ginv = algebra.inv(g)
    with pytest.raises(ValueError):
        ginv[0, 0] = 123.0
    assert algebra.inv(g).tobytes() == np.linalg.inv(g).tobytes()


def test_memo_keys_hold_the_shape(algebra):
    # a stack of one point has the bytes of the point alone, not its shape
    rng = np.random.default_rng(11)
    g = algebra.random_group(rng)
    vm = algebra.to_matrix(algebra.random_vector(rng))
    n = algebra.matrix_size
    assert algebra.inv(g).shape == (n, n)
    assert algebra.inv(g[None]).shape == (1, n, n)
    assert np.shape(algebra.step_exponentials(vm, 1e-4)) == (4, n, n)
    assert np.shape(algebra.step_exponentials(vm[None], 1e-4)) == (4, 1, n, n)


def test_stencil_derivative_matches_directional(algebra):
    # one call on the (4, *point axes) stack gives directional's bits
    rng = np.random.default_rng(14)
    gs = np.array([[algebra.random_group(rng) for _ in range(3)] for _ in range(4)])
    vs = np.array([[algebra.random_vector(rng) for _ in range(3)] for _ in range(4)])
    x = algebra.random_vector(rng)
    funcs = (lambda gg: algebra.Ad(gg, x),
             lambda gg: np.sin(gg[..., 0, 1]) + gg[..., -1, -1] * gg[..., 0, 0])
    for func in funcs:
        for g, v in ((gs[0, 0], vs[0, 0]), (gs, vs), (gs, vs[0, 0])):
            want = algebra.directional(func, g, v)
            assert np.asarray(algebra.stencil_derivative(func, g, v)).tobytes() \
                == np.asarray(want).tobytes()


def test_stencil_derivative_rejects_dropped_point_axes():
    alg = make_group("su2")
    rng = np.random.default_rng(15)
    g, v = alg.random_group(rng), alg.random_vector(rng)
    with pytest.raises(ValueError, match="point axes"):
        alg.stencil_derivative(lambda gg: np.zeros(alg.dim), g, v)


@pytest.mark.parametrize("base_name", ["group", "class", "slot"])
def test_non_finite_derivative_raises_on_every_base(base_name):
    # every base combines its stencil values with the one checked Richardson step
    alg = make_group("su2")
    rng = np.random.default_rng(16)
    v = alg.random_vector(rng)
    if base_name == "group":
        base, m, u = alg, alg.random_group(rng), v
    elif base_name == "class":
        base, m, u = ConjugacyClass(alg), np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0])
    else:
        base, m, u = Slot(alg, 0), (alg.random_group(rng), alg.random_group(rng)), np.stack([v, v])
    # a slot has no per-point directional of its own
    derivatives = [base.stencil_derivative] + ([] if base_name == "slot" else [base.directional])
    for derivative in derivatives:
        with pytest.raises(FloatingPointError):
            derivative(lambda p: np.full(base.point_axes(p) + (3,), np.nan), m, u)


def test_richardson_of_stacked_values():
    # exact on cubics: f(s) = s^3 + 2 s has derivative 2 at 0
    h = 0.1
    values = [s ** 3 + 2.0 * s for s in liealg.stencil_steps(h)]
    assert abs(liealg.richardson(values, h) - 2.0) < 1e-13
