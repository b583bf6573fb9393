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


def test_config_suites_naming_no_suite_is_refused(tmp_path, monkeypatch, capsys):
    from atiyahcheck import cli

    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: ran.append(1) or [])
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"group": "torus2", "suites": []}')
    assert cli.main(["verify", "--config", str(cfg), "--quiet"]) == 2
    assert "names no suite" in capsys.readouterr().err
    assert not ran


def test_config_null_group_is_refused(tmp_path, monkeypatch, capsys):
    # None passed the selection rules (every group, for list-checks) and
    # verify died in make_group(None) with a traceback and exit 1
    from atiyahcheck import cli

    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: ran.append(1) or [])
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"group": null}')
    assert cli.main(["verify", "--config", str(cfg), "--quiet"]) == 2
    assert "group must be one of" in capsys.readouterr().err
    assert not ran
    # a --group flag still wins over the file
    assert cli.main(["verify", "--config", str(cfg), "--group", "torus2", "--quiet"]) == 0


def test_config_error_bad_tol():
    assert main(["verify", "--tol", "nonsense"]) == 2


@pytest.mark.parametrize("fd_step, code", [("1e-2", 2), ("5e-3", 2), ("1e-5", 2), ("1e-6", 2),
                                           ("3e-3", 0), ("2e-5", 0)])
def test_fd_step_range(monkeypatch, fd_step, code):
    # on su2, 1e-2 fails bracket_leibniz (5e-3 takes it to margin 0.99) and 1e-5
    # and 1e-6 fail bracket_jacobi
    from atiyahcheck import cli

    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: [])
    assert cli.main(["verify", "--group", "su2", "--fd-step", fd_step, "--quiet"]) == code


def test_t_step_flag_is_refused(monkeypatch):
    # the time step is a constant of the construction, sections.T_STEP
    from atiyahcheck import cli

    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: ran.append(1) or [])
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--group", "torus2", "--t-step", "1e-5", "--quiet"])
    assert exc.value.code == 2
    assert not ran


def test_t_step_config_key_is_unknown(tmp_path, monkeypatch, capsys):
    from atiyahcheck import cli

    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: ran.append(1) or [])
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"t_step": 1e-5}')
    assert cli.main(["verify", "--group", "torus2", "--config", str(cfg), "--quiet"]) == 2
    assert "unknown config keys ['t_step']" in capsys.readouterr().err
    assert not ran


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


def test_context_refuses_an_unknown_key():
    # a misspelt key ran silently at the default step
    with pytest.raises(ValueError, match="fd_stp"):
        CheckContext("su2", {"fd_stp": 1e-3})


def test_cli_and_context_share_the_defaults():
    from atiyahcheck.checks import DEFAULTS
    from atiyahcheck.cli import validate_config

    config = {}
    validate_config(config)
    assert {key: config[key] for key in DEFAULTS} == DEFAULTS
    ctx = CheckContext("torus2", {})
    assert (ctx.grid.n_points, ctx.algebra.fd_step, ctx.samples, ctx.seed) == (
        DEFAULTS["n_points"], DEFAULTS["fd_step"], DEFAULTS["samples"], DEFAULTS["seed"])


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--seed=-3"]])
def test_negative_seed_flag(monkeypatch, argv):
    # numpy's seed sequence raised on negative entropy, a traceback and exit 1
    from atiyahcheck import cli

    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: ran.append(1) or [])
    assert cli.main(["verify", "--group", "torus2", *argv, "--quiet"]) == 2
    assert not ran


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
def test_tolerance_must_be_finite_non_negative(monkeypatch, value):
    # nan failed the check silently (exit 1) and inf passed any residual
    from atiyahcheck import cli

    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: ran.append(1) or [])
    assert cli.main(["verify", "--group", "torus2", "--suite", "fusion",
                     "--tol", f"fusion.fusion_two_form={value}", "--quiet"]) == 2
    assert not ran


def test_zero_tolerance_accepted(monkeypatch):
    from atiyahcheck import cli

    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: [])
    assert cli.main(["verify", "--group", "torus2", "--suite", "fusion",
                     "--tol", "fusion.fusion_two_form=0", "--quiet"]) == 0


@pytest.mark.parametrize("content", [
    '{"seed": -3}',            # negative seed
    '{"tol_overrides": {"forms.eta_value": NaN}}',
    '{"tol_overrides": {"forms.eta_value": -1e-6}}',
    '{"tol_overrides": {"forms.eta_value": Infinity}}',
    '{"fd_step": "abc"}',      # not a number
    '[1, 2]',                  # not an object
    '{"sead": 3}',             # unknown key
    '{"n_points": 201.7}',     # not an integer
    '{"samples": 2.5}',        # not an integer
    '{"tol_overrides": {"forms.eta_value": "tight"}}',
])
def test_bad_config_file(tmp_path, monkeypatch, content):
    from atiyahcheck import cli

    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: ran.append(1) or [])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert cli.main(["verify", "--config", str(cfg), "--quiet"]) == 2
    assert not ran


def test_non_finite_sample_fails():
    # the second sample is 0/0: the check and its sub-result fail with residual nan
    from atiyahcheck.checks import CheckSpec

    def body(ctx, rng):
        for num, den in ((1.0, 2.0), (0.0, 0.0), (1.0, 4.0)):
            yield np.float64(num) / np.float64(den)

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


@pytest.mark.parametrize("samples, index, value", [
    ((1e-3, float("nan"), 0.0), 1, "nan"),   # max(worst, nan) kept worst
    ((-1.0,), 0, "-1.0"),                    # the 0.0 floor hid a negative residual
    ((0.5, np.float64(-2e-3)), 1, "-0.002"),
])
def test_nan_or_negative_sample_fails(samples, index, value):
    def body(ctx, rng):
        yield from samples
        return {"notes": "extra"}

    [r] = _probe(body)
    assert not r.passed and np.isnan(r.residual)
    assert r.worst_sample == index and r.n_samples == len(samples)
    assert r.notes == f"sample {index} is {value}; extra"


def test_worst_sample_is_first_maximum():
    def body(ctx, rng):
        yield from (0.0, 2e-3, 1e-3, 2e-3)
        yield "probe_sub", 0.0

    own, sub = _probe(body, [("probe_sub", "sub-probe", 1.0)])
    assert (own.residual, own.n_samples, own.worst_sample) == (2e-3, 4, 1)
    assert (sub.residual, sub.n_samples, sub.worst_sample) == (0.0, 1, 0)
    assert own.passed and sub.passed


def test_missing_sub_result_fails():
    # a declared result with no sample used to crash verify with a KeyError
    def body(ctx, rng):
        yield 1e-3

    own, sub = _probe(body, [("probe_sub", "sub-probe", 1.0)])
    assert own.passed and own.residual == 1e-3
    assert not sub.passed and np.isnan(sub.residual)
    assert sub.notes == "no samples" and sub.n_samples == 0 and sub.worst_sample is None


def test_undeclared_sub_result_raises():
    # a residual under an undeclared name used to be dropped silently
    def body(ctx, rng):
        yield 1e-3
        yield "probe_typo", 2e-3

    with pytest.raises(ValueError, match=r"algebroid\.probe.*'probe_typo'"):
        _probe(body, [("probe_sub", "sub-probe", 1.0)])


def test_every_body_is_a_generator():
    # the runner is the one place that reduces samples to a residual
    assert [s.name for s in REGISTRY if not inspect.isgeneratorfunction(s.body)] == []


def test_config_error_unknown_tol_key(monkeypatch):
    from atiyahcheck import cli

    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: ran.append(1) or [])
    assert cli.main(["verify", "--group", "torus2", "--suite", "forms",
                     "--tol", "forms.no_such_check=1e-30", "--quiet"]) == 2
    assert not ran  # rejected before any check runs


def test_tol_key_of_sub_result_accepted(monkeypatch):
    from atiyahcheck import cli

    seen = []
    monkeypatch.setattr(cli, "run_checks",
                        lambda group, config, **k: seen.append(config) or [])
    assert cli.main(["verify", "--group", "su2", "--suite", "qham",
                     "--tol", "qham.kernel_loop_velocity=2e-4", "--quiet"]) == 0
    assert seen[0]["tol_overrides"] == {"qham.kernel_loop_velocity": 2e-4}


@pytest.mark.parametrize("group, check, key", [
    ("torus2", "pressley_segal", "bott.pressley_segal_closed"),
    ("torus2", "eta_value", "forms.eta_value"),
    ("su2", "cubic_polynomial_suite", "bott.cubic_polynomial_suite"),
])
def test_tol_override_is_the_result_tolerance(group, check, key):
    # every result, sub-results and early returns included, takes its --tol override
    spec = next(s for s in REGISTRY if s.name == check)
    ctx = CheckContext(group, {"samples": 2, "tol_overrides": {key: 3e-3}})
    expected = {f"{spec.suite}.{name}": tol for name, _, tol in spec.results}
    expected[key] = 3e-3
    assert {f"{r.suite}.{r.name}": r.tolerance for r in spec.fn(ctx)} == expected


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


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "su2", "suites": ["courant"],
                               "samples": 2, "seed": 7}))
    report = tmp_path / "out.json"
    code = main(["verify", "--config", str(cfg), "--group", "torus2",
                 "--quiet", "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["config_echo"]["group"] == "torus2"  # flag wins
    assert data["config_echo"]["seed"] == 7          # file value kept


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


def test_tolerance_override_can_fail(tmp_path):
    # an absurdly tight override must flip the exit code to 1
    code = main(["verify", "--group", "torus2", "--suite", "fusion",
                 "--tol", "fusion.fusion_two_form=1e-18", "--quiet"])
    assert code == 1


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
