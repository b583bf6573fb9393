"""CLI behavior: exit codes, report schema, determinism, identity table."""

import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from atiyahcheck.checks import REGISTRY, CheckContext
from atiyahcheck.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(args, module="atiyahcheck.cli", **kw):
    # the child process finds the package the way this test process did
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kw)


def test_list_checks_exit_zero():
    proc = run_cli(["list-checks", "--suite", "courant"])
    assert proc.returncode == 0
    assert "isotropy" in proc.stdout


def test_config_error_even_grid():
    proc = run_cli(["verify", "--group", "su2", "--grid-t", "200"])
    assert proc.returncode == 2


def test_config_error_unknown_group():
    proc = run_cli(["list-checks", "--group", "nope"])
    assert proc.returncode == 2


def test_python_m_package_runs_the_cli():
    proc = run_cli(["list-checks", "--suite", "qham"], module="atiyahcheck")
    assert proc.returncode == 0
    assert "qham.kernel_theorem" in proc.stdout


@pytest.mark.parametrize("command", ["verify", "list-checks"])
def test_commands_share_the_selection_rules(monkeypatch, command):
    # blank names in a suite list are dropped; unknown suites and groups exit 2
    from atiyahcheck import cli

    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: [])
    assert cli.main([command, "--group", "torus2", "--suite", "forms,"]) == 0
    assert cli.main([command, "--suite", "forms,nope"]) == 2
    assert cli.main([command, "--group", "nope"]) == 2


@pytest.mark.parametrize("command", ["verify", "list-checks"])
@pytest.mark.parametrize("selection", [",", " ", "", " , "])
def test_suite_selection_naming_no_suite_is_refused(monkeypatch, capsys, command, selection):
    # it became every suite: verify ran 70/70 on torus2 and exited 0
    from atiyahcheck import cli

    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: ran.append(1) or [])
    assert cli.main([command, "--group", "torus2", "--suite", selection]) == 2
    assert "names no suite" in capsys.readouterr().err
    assert not ran


@pytest.mark.parametrize("fd_step, code", [("1e-2", 2), ("5e-3", 2), ("1e-5", 2), ("1e-6", 2),
                                           ("3e-3", 0), ("2e-5", 0)])
def test_fd_step_range(monkeypatch, fd_step, code):
    # on su2, 1e-2 fails bracket_leibniz (5e-3 takes it to margin 0.99) and 1e-5
    # and 1e-6 fail bracket_jacobi
    from atiyahcheck import cli

    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: [])
    assert cli.main(["verify", "--group", "su2", "--fd-step", fd_step, "--quiet"]) == code


@pytest.mark.parametrize("flag", [
    ["--t-step", "1e-5"],    # the time step is a constant of the construction, sections.T_STEP
    ["--samples", "8"],      # each check fixes its own sample count
    ["--tol", "forms.eta_value=1e-6"],   # each result is judged at its declared tolerance
    ["--config", "c.json"],  # the flags are the whole configuration
], ids=" ".join)
def test_t_step_flag_is_refused(monkeypatch, flag):
    from atiyahcheck import cli

    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: ran.append(1) or [])
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--group", "torus2", *flag, "--quiet"])
    assert exc.value.code == 2
    assert not ran


@pytest.mark.parametrize("grid_t, code", [("199", 2), ("200", 2), ("201", 0), ("401", 0)])
def test_grid_t_range(monkeypatch, grid_t, code):
    # at 199 su2's qham.kernel_loop_velocity passes with 0.4% to spare; at 197 it fails
    from atiyahcheck import cli

    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: [])
    assert cli.main(["verify", "--group", "su2", "--grid-t", grid_t, "--quiet"]) == code


def test_report_in_a_missing_directory_is_refused_before_any_check(tmp_path, monkeypatch):
    # the report was opened after every check had run: a traceback and exit 1
    from atiyahcheck import cli

    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: ran.append(1) or [])
    report = tmp_path / "no" / "such" / "r.json"
    assert cli.main(["verify", "--group", "torus2", "--report", str(report), "--quiet"]) == 2
    assert not ran


def test_report_write_error_exits_2(tmp_path, monkeypatch, capsys):
    # a directory passes the directory check, and opening it for writing fails
    from atiyahcheck import cli

    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: [])
    assert cli.main(["verify", "--group", "torus2", "--report", str(tmp_path), "--quiet"]) == 2
    assert "cannot write the report" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["fd_stp", "samples", "tol_overrides"])
def test_context_refuses_an_unknown_key(key):
    # a misspelt key ran silently at the default step
    with pytest.raises(ValueError, match=key):
        CheckContext("su2", {key: 1e-3})


def test_context_refuses_a_coarse_grid():
    with pytest.raises(ValueError, match="n_points"):
        CheckContext("su2", {"n_points": 199})


def test_cli_and_context_share_the_defaults(monkeypatch):
    from atiyahcheck import cli
    from atiyahcheck.checks import DEFAULTS

    seen = []
    monkeypatch.setattr(cli, "run_checks", lambda group, config, **k: seen.append(config) or [])
    assert cli.main(["verify", "--group", "torus2", "--quiet"]) == 0
    assert seen == [DEFAULTS]
    ctx = CheckContext("torus2", {})
    assert (ctx.grid.n_points, ctx.algebra.fd_step, ctx.seed) == (
        DEFAULTS["n_points"], DEFAULTS["fd_step"], DEFAULTS["seed"])


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--seed=-3"]])
def test_negative_seed_flag(monkeypatch, argv):
    # numpy's seed sequence raised on negative entropy, a traceback and exit 1
    from atiyahcheck import cli

    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: ran.append(1) or [])
    assert cli.main(["verify", "--group", "torus2", *argv, "--quiet"]) == 2
    assert not ran


def test_non_finite_sample_fails():
    # the second sample is 0/0: the check and its sub-result fail with residual nan
    from atiyahcheck.checks import CheckSpec

    def body(ctx, rng):
        for num, den in ((1.0, 2.0), (0.0, 0.0), (1.0, 4.0)):
            yield np.float64(num) / np.float64(den), 0.0

    spec = CheckSpec("algebroid", "nan_probe", body, None,
                     (("nan_probe", "probe", 1.0), ("nan_probe_sub", "sub-probe", 1.0)))
    results = spec.fn(CheckContext("torus2", {}))
    assert [r.name for r in results] == ["nan_probe", "nan_probe_sub"]
    for r in results:
        assert not r.passed and np.isnan(r.residual)
        assert "floating-point error" in r.notes


def _probe(body, sub_results=()):
    from atiyahcheck.checks import CheckSpec

    spec = CheckSpec("algebroid", "probe", body, None,
                     (("probe", "probe", 1.0), *sub_results))
    return spec.fn(CheckContext("torus2", {}))


def test_sides_form_the_residual():
    # abs of a 0-d difference, the 2-norm of any other, bit for bit
    a, b = np.float64(0.1) * 3, 0.3
    u, v = np.array([0.1, 0.2, 0.7]) * 3, np.array([0.3, 0.6, 2.1])
    m = np.arange(6.0).reshape(2, 3) / 7

    def body(ctx, rng):
        yield a, b
        yield "probe_vec", u, v
        yield "probe_vec", m, 0.0
        yield "probe_count", 5, 3
        yield "probe_count", -np.float64(2.5), 0.0

    own, vec, count = _probe(body, [("probe_vec", "vector", 2.0),
                                    ("probe_count", "count", 3.0)])
    assert own.residual.hex() == abs(a - b).hex() and own.n_samples == 1
    norms = [np.linalg.norm(u - v), np.linalg.norm(m)]
    assert vec.residual.hex() == max(norms).hex() and vec.n_samples == 2
    assert (count.residual, count.n_samples, count.worst_sample) == (2.5, 2, 1)
    assert own.passed and vec.passed and count.passed


@pytest.mark.parametrize("sides", [
    (float("nan"), 0.0),
    (0.25, np.float64("nan")),
    (np.array([1.0, np.nan]), np.zeros(2)),
], ids=["lhs", "rhs", "array"])
def test_nan_side_fails(sides):
    # max(worst, nan) would keep worst: a NaN side fails the result instead
    def body(ctx, rng):
        yield 1e-3, 0.0
        yield sides
        yield 0.0, 0.0
        return {"notes": "extra"}

    [r] = _probe(body)
    assert not r.passed and np.isnan(r.residual)
    assert r.worst_sample == 1 and r.n_samples == 3
    assert r.notes == "sample 1 is nan; extra"


def test_worst_sample_is_first_maximum():
    def body(ctx, rng):
        yield from ((r, 0.0) for r in (0.0, 2e-3, 1e-3, 2e-3))
        yield "probe_sub", 0.0, 0.0

    own, sub = _probe(body, [("probe_sub", "sub-probe", 1.0)])
    assert (own.residual, own.n_samples, own.worst_sample) == (2e-3, 4, 1)
    assert (sub.residual, sub.n_samples, sub.worst_sample) == (0.0, 1, 0)
    assert own.passed and sub.passed


def test_missing_sub_result_fails():
    # a declared result with no sample used to crash verify with a KeyError
    def body(ctx, rng):
        yield 1e-3, 0.0

    own, sub = _probe(body, [("probe_sub", "sub-probe", 1.0)])
    assert own.passed and own.residual == 1e-3
    assert not sub.passed and np.isnan(sub.residual)
    assert sub.notes == "no samples" and sub.n_samples == 0 and sub.worst_sample is None


def test_undeclared_sub_result_raises():
    # a residual under an undeclared name used to be dropped silently
    def body(ctx, rng):
        yield 1e-3, 0.0
        yield "probe_typo", 2e-3, 0.0

    with pytest.raises(ValueError, match=r"algebroid\.probe.*'probe_typo'"):
        _probe(body, [("probe_sub", "sub-probe", 1.0)])


def test_every_body_is_a_generator():
    # the runner is the one place that reduces samples to a residual
    assert [s.name for s in REGISTRY if not inspect.isgeneratorfunction(s.body)] == []


def test_verify_report_schema(tmp_path):
    report = tmp_path / "out.json"
    code = main(["verify", "--group", "torus2", "--suite", "courant",
                 "--seed", "42", "--quiet", "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert set(data) == {"version", "config_echo", "convention_table",
                         "checks", "summary", "run"}
    assert set(data["run"]) == {"environment", "calibration_ms", "check_runtime_ms"}
    assert data["run"]["calibration_ms"] >= 0.0
    assert set(data["run"]["environment"]) == {"python", "numpy", "platform", "cpu_count"}
    # one runtime per check, sub-results included under their check
    spec_keys = {f"{s.suite}.{s.name}" for s in REGISTRY
                 if s.suite == "courant" and s.applicable("torus2")}
    assert set(data["run"]["check_runtime_ms"]) == spec_keys
    assert all(ms >= 0.0 for ms in data["run"]["check_runtime_ms"].values())
    assert data["summary"]["failed"] == 0
    assert data["summary"]["total"] == len(data["checks"])
    for check in data["checks"]:
        assert set(check) >= {"suite", "check_name", "identity", "params", "residual",
                              "tolerance", "margin", "pass", "n_samples", "worst_sample"}
        assert "runtime_ms" not in check
        assert check["n_samples"] >= 1 and 0 <= check["worst_sample"] < check["n_samples"]
        residual, tol = float(check["residual"]), check["tolerance"]
        assert check["pass"] == (residual <= tol)
        if tol:
            assert check["margin"] == residual / tol
        else:
            assert check["margin"] == (0.0 if residual == 0.0 else None)


def test_every_result_is_judged_at_its_declared_tolerance(tmp_path):
    report = tmp_path / "out.json"
    assert main(["verify", "--group", "torus2", "--suite", "forms,courant", "--quiet",
                 "--report", str(report)]) == 0
    declared = {(spec.suite, name): tol for spec in REGISTRY for name, _, tol in spec.results}
    checks = json.loads(report.read_text())["checks"]
    assert checks
    for c in checks:
        assert c["tolerance"] == declared[c["suite"], c["check_name"]]


def test_calibration_runs_before_the_checks(tmp_path, monkeypatch):
    # the one-time calibration is timed on its own, not inside the first
    # check that asks for the conventions
    from atiyahcheck import bott, cli

    monkeypatch.setattr(bott, "_CONVENTIONS", None)
    running, uncached_inside = [], []
    real = bott.calibrate_conventions

    def calibrate(*args, **kwargs):
        if bott._CONVENTIONS is None:
            uncached_inside.append(list(running))
        return real(*args, **kwargs)

    monkeypatch.setattr(bott, "calibrate_conventions", calibrate)
    monkeypatch.setattr(cli, "calibrate_conventions", calibrate)
    for spec in REGISTRY:
        def run(ctx, fn=spec.fn, name=spec.name):
            running.append(name)
            try:
                return fn(ctx)
            finally:
                running.pop()
        monkeypatch.setattr(spec, "fn", run)
    report = tmp_path / "out.json"
    assert main(["verify", "--group", "su2", "--suite", "bott", "--quiet",
                 "--report", str(report)]) == 0
    assert uncached_inside == [[]]
    assert "calibration_ms" in json.loads(report.read_text())["run"]


def test_margin_of_zero_tolerance():
    from atiyahcheck.cli import _margin

    assert _margin(0.0, 0.0) == 0.0
    assert _margin(1.0, 0.0) is None
    assert _margin(2e-5, 1e-4) == pytest.approx(0.2)


def test_report_determinism(tmp_path):
    payloads = []
    for i in range(2):
        report = tmp_path / f"out{i}.json"
        code = main(["verify", "--group", "torus2", "--suite", "fusion",
                     "--seed", "42", "--quiet", "--report", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        data.pop("run")
        payloads.append(json.dumps(data, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_readme_table_matches_registry():
    # one README row per declared result, and no row that no check reports
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.findall(r"^\| (\w+) \| `(\w+)` \| (.+) \| ([^|]+) \|$", readme, re.M)
    declared = [(spec.suite, name, identity,
                 "all" if spec.groups is None else ", ".join(spec.groups))
                for spec in REGISTRY for name, identity, _ in spec.results]
    assert len(declared) == len(set(declared))
    assert set(table) - set(declared) == set(), "README rows no check declares"
    assert set(declared) - set(table) == set(), "declared results missing from README"
    assert len(table) == len(declared)


def test_sign_error_fails_named_checks_with_a_report(tmp_path, monkeypatch):
    # no sign is fitted, so a negated simplex integral is not absorbed: the
    # calibration records its mismatch and verify reports the failing checks
    from atiyahcheck import bott

    real = bott._upsilon_core

    def negated(p, betas, g, args, x):
        # over point axes the real core maps this one over the points
        return real(p, betas, g, args, x) if np.ndim(g) > 2 else -real(p, betas, g, args, x)

    monkeypatch.setattr(bott, "_upsilon_core", negated)
    monkeypatch.setattr(bott, "_CONVENTIONS", None)
    report = tmp_path / "out.json"
    assert main(["verify", "--group", "su2", "--suite", "bott", "--quiet",
                 "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    failed = {c["check_name"] for c in data["checks"] if not c["pass"]}
    assert {"convention_table", "eta_p_anchor", "varpi_p_matches_varpi"} <= failed
    assert data["convention_table"]["mismatch"]["eta^p = eta"] > 1e-3
