"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is evaluated at its stated tolerance through the same check
registry the CLI runs; nothing is recalibrated per test.  Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

from atiyahcheck.checks import CheckContext, REGISTRY, run_checks

BASE_CONFIG = {"n_points": 201, "fd_step": 1e-4, "seed": 42}

_SPECS = {spec.name: spec for spec in REGISTRY}
_CACHE = {}


def run_named(group, name):
    key = (group, name)
    if key not in _CACHE:
        ctx = CheckContext(group, BASE_CONFIG)
        start = time.perf_counter()
        results = _SPECS[name].fn(ctx)
        elapsed = time.perf_counter() - start
        _CACHE[key] = (results, elapsed)
    return _CACHE[key]


def report(criterion, label, worst, bound, extra=""):
    status = "PASS" if worst <= bound else "FAIL"
    print(f"[criterion {criterion:>2}] {status}: {label}: "
          f"residual {worst:.3e} <= {bound:.1e} {extra}")
    assert worst <= bound, f"criterion {criterion}: {label}: {worst} > {bound}"


def test_criterion_01_algebroid_axioms():
    start = time.perf_counter()
    worst = 0.0
    for group in ("su2", "heisenberg3"):
        for name in ("bracket_jacobi", "bracket_leibniz"):
            results, _ = run_named(group, name)
            worst = max(worst, max(r.residual for r in results))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 30s"
    report(1, "Jacobi and Leibniz on su2 and heisenberg3 (8 seeded triples/pairs)",
           worst, 1e-5, extra=f"({elapsed:.1f}s)")


def test_criterion_02_equivariant_three_form():
    results, _ = run_named("su2", "equivariant_three_form")
    worst3 = max(r.residual for r in results)
    deg1, _ = run_named("su2", "iota_generator_varpi")
    worst1 = max(r.residual for r in deg1)
    report(2, "d_G varpi = a* eta_G on su2 (alpha_0 = 0)", worst3, 1e-4)
    report(2, "degree-1 part i_{x_A} varpi = (1/2) a*((thL+thR).x)", worst1, 1e-5)


def test_criterion_03_varpi_spot_values():
    results, _ = run_named("so3", "varpi_generators")
    worst = max(r.residual for r in results)
    notes = results[0].notes
    assert "-1.0000000" in notes, notes
    report(3, "varpi(x_A,y_A) closed form at 20 so(3) samples, spot value -1",
           worst, 1e-8, extra=f"[{notes}]")


def test_criterion_04_lifting_mechanism():
    prim, _ = run_named("heisenberg3", "lifted_jacobi_primitive")
    worst_p = max(r.residual for r in prim)
    report(4, "lifted-bracket Jacobi with the primitive 2-form on heisenberg3",
           worst_p, 1e-4)
    worst_o = 0.0
    notes = []
    for group in ("heisenberg3", "su2"):
        obs, _ = run_named(group, "lifted_jacobi_obstruction")
        worst_o = max(worst_o, max(r.residual for r in obs))
        notes.append(f"{group}: {obs[0].notes}")
    report(4, "scalar Jacobiator equals the (d omega + eta)-pairing",
           worst_o, 1e-4, extra=" | ".join(notes))


def test_criterion_05_cocycle_suite():
    sig, _ = run_named("su2", "sigma_value")
    report(5, "sigma(sin e1, cos e1) = -pi at n_points = 201",
           max(r.residual for r in sig), 1e-7)
    worst = 0.0
    for name in ("dsigma_dj", "dthetaj_routes"):
        results, _ = run_named("su2", name)
        worst = max(worst, max(r.residual for r in results))
    report(5, "both splitting-derivative identities", worst, 1e-5)


def test_criterion_06_fusion():
    fus, _ = run_named("su2", "fusion_two_form")
    report(6, "mult! varpi = pr1! varpi + pr2! varpi - lambda (8 composable pairs)",
           max(r.residual for r in fus), 1e-4)
    lam, _ = run_named("su2", "lambda_cartan_form")
    report(6, "mult* eta = pr1* eta + pr2* eta - d lambda",
           max(r.residual for r in lam), 1e-4)


def test_criterion_07_courant():
    worst = 0.0
    for name in ("isotropy", "loop_action_brackets"):
        results, _ = run_named("su2", name)
        worst = max(worst, max(r.residual for r in results))
    report(7, "isotropy and bracket preservation of f(xi) = (xi, i_xi varpi)",
           worst, 1e-4)
    red, _ = run_named("su2", "reduced_twist")
    report(7, "eta-twisted reduced Courant bracket",
           max(r.residual for r in red), 1e-4)


def test_criterion_08_bott_cs_suite():
    from atiyahcheck.bott import calibrate_conventions
    table = calibrate_conventions()
    group_deriv = {"stokes_family": 1e-3, "cs_gauge_law": 1e-4,
                   "transgression": 1e-4, "cs_period_integral": 1e-4,
                   "cs_period_equivariant": 1e-4, "q_concatenation": 1e-5}
    pure = {"q_reparametrization": 1e-6, "q_inversion": 1e-6}
    for name, bound in {**group_deriv, **pure}.items():
        results, _ = run_named("su2", name)
        report(8, f"{name} at the fixed signs",
               max(r.residual for r in results), bound)
    report(8, "calibration identities at the fixed signs (relative)",
           max(table["mismatch"].values()), 1e-3)
    print(f"[criterion  8] fixed signs: {table['signs']}")


def test_criterion_09_higher_forms():
    hi, _ = run_named("su2", "higher_transgression_theorem")
    report(9, "d_G varpi^p_G = a* eta^p_G (quadratic p)",
           max(r.residual for r in hi), 1e-3)
    eq, _ = run_named("su2", "varpi_p_matches_varpi")
    report(9, "max |varpi^p_G - varpi| over random inputs",
           max(r.residual for r in eq), 1e-5)
    ps, _ = run_named("su2", "pressley_segal")
    km = [r for r in ps if r.name == "pressley_segal"]
    ce = [r for r in ps if r.name == "pressley_segal_closed"]
    report(9, "sigma^p equals the Kac-Moody cocycle on loop pairs",
           max(r.residual for r in km), 1e-6, extra=km[0].notes)
    report(9, "sigma^p is closed for the loop-algebra differential",
           max(r.residual for r in ce), 1e-4)


def test_criterion_10_kernel_theorem():
    start = time.perf_counter()
    oracle, _ = run_named("su2", "moment_sign_oracle")
    report(10, "moment condition of omega at its fixed sign on the class",
           max(r.residual for r in oracle), 1e-4, extra=oracle[0].notes)
    results, _ = run_named("su2", "kernel_theorem")
    by_name = {r.name: r for r in results}
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 10 runtime {elapsed:.1f}s exceeds 2min"
    report(10, "kernel dimension 3, stable over n_max in {4,6,8} and thresholds",
           by_name["kernel_theorem"].residual, 0.0,
           extra=by_name["kernel_theorem"].notes)
    report(10, "generator rows pair to zero",
           by_name["kernel_generator_rows"].residual, 1e-5)
    report(10, "kernel loop parts have max |xi'| below tolerance",
           by_name["kernel_loop_velocity"].residual, 1e-4,
           extra=f"({elapsed:.1f}s)")


def test_criterion_11_abelian_degeneration():
    start = time.perf_counter()
    results = run_checks("torus2", dict(BASE_CONFIG))
    failed = [r for r in results if not r.passed]
    assert not failed, [f"{r.suite}.{r.name}" for r in failed]
    collapse = [r for r in results if r.name == "abelian_collapse"]
    elapsed = time.perf_counter() - start
    report(11, f"full torus2 suite ({len(results)} checks) passes",
           0.0, 1.0, extra=f"({elapsed:.0f}s)")
    report(11, "curvature/eta/twist quantities collapse identically",
           collapse[0].residual, 1e-10)


def test_criterion_12_determinism():
    config = dict(BASE_CONFIG)
    first = run_checks("su2", config, suites=("forms", "fusion"))
    second = run_checks("su2", config, suites=("forms", "fusion"))
    assert len(first) == len(second)
    mismatches = [
        (a.name, repr(a.residual), repr(b.residual))
        for a, b in zip(first, second) if repr(a.residual) != repr(b.residual)
    ]
    assert not mismatches, mismatches
    report(12, f"two seeded runs agree to all printed digits "
               f"({len(first)} residuals compared)", 0.0, 1.0)
