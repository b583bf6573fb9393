"""CLI behavior: exit codes, report schema, determinism, identity table."""

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


def run_cli(args, **kw):
    # the child process finds the package the way this test process did
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "atiyahcheck.cli", *args],
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


@pytest.mark.parametrize("t_step", ["0", "-1e-5", "nan", "inf"])
def test_t_step_must_be_positive_finite(monkeypatch, t_step):
    # a zero step made the time central difference 0/0, which max() then hid
    from atiyahcheck import cli

    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: [])
    assert cli.main(["verify", "--group", "torus2", f"--t-step={t_step}", "--quiet"]) == 2


@pytest.mark.parametrize("content", [
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
        worst = 0.0
        for num, den in ((1.0, 2.0), (0.0, 0.0), (1.0, 4.0)):
            worst = max(worst, np.float64(num) / np.float64(den))
        return worst

    spec = CheckSpec("algebroid", "nan_probe", body, None,
                     (("nan_probe", "probe", 1.0), ("nan_probe_sub", "sub-probe", 1.0)))
    results = spec.fn(CheckContext("torus2", {}))
    assert [r.name for r in results] == ["nan_probe", "nan_probe_sub"]
    for r in results:
        assert not r.passed and np.isnan(r.residual)
        assert "floating-point error" in r.notes


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
                         "checks", "summary"}
    assert data["summary"]["failed"] == 0
    assert data["summary"]["total"] == len(data["checks"])
    for check in data["checks"]:
        assert set(check) >= {"suite", "check_name", "identity", "params", "residual",
                              "tolerance", "margin", "pass", "runtime_ms"}
        residual, tol = float(check["residual"]), check["tolerance"]
        assert check["pass"] == (residual <= tol)
        if tol:
            assert check["margin"] == residual / tol
        else:
            assert check["margin"] == (0.0 if residual == 0.0 else None)


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
        for check in data["checks"]:
            check.pop("runtime_ms")
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


def test_convention_abort_exit_code(monkeypatch):
    from atiyahcheck import cli
    from atiyahcheck.bott import ConventionError

    def boom(*a, **k):
        raise ConventionError("forced")

    monkeypatch.setattr(cli, "run_checks", boom)
    assert cli.main(["verify", "--group", "torus2", "--suite", "courant",
                     "--quiet"]) == 3
