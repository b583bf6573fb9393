"""CLI behavior: exit codes, report schema, determinism, identity table."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from atiyahcheck.checks import REGISTRY
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
        assert set(check) >= {"suite", "check_name", "identity", "params",
                              "residual", "tolerance", "pass", "runtime_ms"}
        assert check["pass"] == (float(check["residual"]) <= check["tolerance"])


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


def test_no_orphan_identities():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [spec.name for spec in REGISTRY if spec.identity not in readme]
    assert not missing, f"identities missing from README: {missing}"


def test_convention_abort_exit_code(monkeypatch):
    from atiyahcheck import cli
    from atiyahcheck.bott import ConventionError

    def boom(*a, **k):
        raise ConventionError("forced")

    monkeypatch.setattr(cli, "run_checks", boom)
    assert cli.main(["verify", "--group", "torus2", "--suite", "courant",
                     "--quiet"]) == 3
