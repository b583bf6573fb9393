"""The benchmark's probe points: its tracer's self-test and the per-instance
section attributes it wraps, run against the package as it stands."""

import importlib.util
import pathlib
import time

import numpy as np

from atiyahcheck import algebroid, lifting, qham
from atiyahcheck.checks import run_checks
from atiyahcheck.forms import AlgebroidForm, cartan_three_form
from atiyahcheck.homotopy import poincare_primitive
from atiyahcheck.liealg import make_group
from atiyahcheck.sections import TimeGrid, random_section

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_self_test():
    assert _tracer_module().self_test() == []


def test_tracer_counts_section_attributes():
    tracer = _tracer_module().Tracer()
    with tracer.installed():
        alg = make_group("su2")
        rng = np.random.default_rng(3)
        g = alg.random_group(rng)
        xi, ze = random_section(alg, rng), random_section(alg, rng)
        lifting.canonical_two_form(xi, ze, g, TimeGrid(21))
    assert tracer.counts["sections.profile"] > 0
    assert tracer.counts["sections.v"] > 0
    assert tracer.calls["lifting.canonical_two_form"] == 1


def test_kernel_probe_work_per_truncation():
    # one Gram matrix per truncation, not one per (truncation, threshold)
    tracer = _tracer_module().Tracer()
    with tracer.installed():
        results = run_checks("su2", {"seed": 42}, suites=["qham"])
    assert all(r.passed for r in results)
    assert tracer.calls["qham.gram_matrix"] == 3


def test_class_points_do_not_grow_with_truncation():
    # only generator and tangent rows push through Phi, whatever n_max is
    klass = qham.ConjugacyClass(make_group("su2"))
    omega = qham.ghjw_omega(klass, 1.0)
    n = np.array([0.36, -0.48, 0.8])
    points = []
    for n_max in (4, 8):
        tracer = _tracer_module().Tracer()
        with tracer.installed():
            basis = qham.TruncatedBasis(klass, n, n_max, TimeGrid(101))
            basis.seam_residuals()
            qham.gram_kernel(basis, omega, (1e-7, 1e-8, 1e-9))
        points.append(tracer.calls["qham.ConjugacyClass.point"])
    assert points[0] == points[1] > 0


def test_primitive_expm_calls_do_not_grow_with_radial_nodes():
    # every radial node and stencil point is exponentiated in one batch
    alg = make_group("heisenberg3")
    rng = np.random.default_rng(4)
    g = alg.random_group(rng, scale=0.5)
    vs = [alg.random_vector(rng) for _ in range(2)]
    calls = []
    for n_radial in (12, 24):
        prim = poincare_primitive(cartan_three_form(alg), sign=-1.0, n_radial=n_radial)
        tracer = _tracer_module().Tracer()
        with tracer.installed():
            prim(g, *vs)
        calls.append(tracer.calls["liealg.expm"])
    assert calls[0] == calls[1] > 0


def test_primitive_evaluates_its_form_once():
    # the form is called once, on all radial nodes, not once per node
    alg = make_group("heisenberg3")
    rng = np.random.default_rng(4)
    g = alg.random_group(rng, scale=0.5)
    vs = [alg.random_vector(rng) for _ in range(2)]
    eta = cartan_three_form(alg)
    for n_radial in (12, 24):
        batches = []
        counted = AlgebroidForm(alg, 3, lambda gg, *us: batches.append(len(gg)) or eta(gg, *us))
        poincare_primitive(counted, sign=-1.0, n_radial=n_radial)(g, *vs)
        assert batches == [n_radial]


def test_check_bodies_run_inside_the_check_span():
    # the tracer times a check by wrapping spec.fn, so the body's samples
    # must be drawn inside that call, not by a caller after it returns
    tracer = _tracer_module().Tracer()
    with tracer.installed():
        start = time.perf_counter()
        results = run_checks("torus2", {"seed": 42}, suites=["algebroid"])
        wall = time.perf_counter() - start
    assert all(r.passed for r in results)
    assert sum(seconds for _, _, seconds in tracer.check_spans) >= 0.5 * wall


def _ad_calls_of_repeat(call):
    """liealg.Ad calls of a second call(), after a first one that makes some."""
    tracer = _tracer_module().Tracer()
    with tracer.installed():
        call()
        first = tracer.calls["liealg.Ad"]
        call()
    assert first > 0
    return tracer.calls["liealg.Ad"] - first


def test_repeated_family_point_adds_no_ad_calls():
    # a connection family's ends at (n, g, v) are computed once per point
    alg = make_group("su2")
    rng = np.random.default_rng(61)
    alpha = algebroid.build_alpha(
        alg, alpha0=algebroid.invariant_alpha0(alg, (0.2, -0.1, 0.05)))
    v = alg.random_vector(rng)
    for method in (alpha.value, alpha.tderiv):
        for t in (0.4, 1.7, np.linspace(-1.0, 2.0, 7)):
            g = alg.random_group(rng)
            assert _ad_calls_of_repeat(lambda: method(t, g, v)) == 0


def test_repeated_random_section_point_adds_no_ad_calls():
    # a random section's v(g) and template data are computed once per point
    alg = make_group("su2")
    rng = np.random.default_rng(67)
    xi = random_section(alg, rng)
    g = alg.random_group(rng)
    assert _ad_calls_of_repeat(lambda: xi.v(g)) == 0
    for t in (0.6, TimeGrid(21).nodes):
        g = alg.random_group(rng)
        assert _ad_calls_of_repeat(lambda: xi.profile(g, t)) == 0
