"""tools/report_diff.py on small hand-written reports, and tools/reports.py
on one report of its standard set."""

import importlib.util
import io
import json
import pathlib

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _tool(name="report_diff"):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(suite, name, residual, tolerance, passed=True):
    return {"suite": suite, "check_name": name, "identity": "x = y", "params": {},
            "residual": repr(residual), "tolerance": tolerance,
            "margin": residual / tolerance, "pass": passed,
            "n_samples": 2, "worst_sample": 0, "notes": ""}


def _write(path, results):
    path.write_text(json.dumps({"checks": results, "run": {"environment": {}}}))
    return str(path)


def _diff(tmp_path, parent, change):
    out = io.StringIO()
    code = _tool().diff(_write(tmp_path / "parent.json", parent),
                        _write(tmp_path / "change.json", change), out=out)
    return code, out.getvalue().splitlines()


def test_moved_result_is_listed(tmp_path):
    parent = [_result("forms", "stokes", 1e-9, 1e-6), _result("courant", "isotropy", 4e-15, 1e-10)]
    change = [_result("forms", "stokes", 1e-9, 1e-6), _result("courant", "isotropy", 5e-15, 1e-10)]
    code, lines = _diff(tmp_path, parent, change)
    assert code == 0
    assert lines[0] == "total 2 results, 1 identical"
    assert lines[1:] == ["  courant.isotropy: 4e-15 -> 5e-15  tol 1e-10  margin move 1e-05"]


def test_moved_fields_are_named_when_the_residual_stays(tmp_path):
    parent = [_result("lifting", "obstruction", 0.0, 1e-4)]
    change = [{**parent[0], "notes": "dim 2 < 3", "n_samples": 3}]
    code, lines = _diff(tmp_path, parent, change)
    assert code == 0
    assert lines == ["total 1 results, 0 identical",
                     "  lifting.obstruction: 0.0 (moved n_samples, notes)  tol 0.0001  margin move 0"]


def test_pass_flip_or_other_result_set_fails(tmp_path):
    parent = [_result("forms", "stokes", 1e-9, 1e-6), _result("lifting", "dsigma_dj", 2e-6, 1e-5)]
    flipped = [_result("forms", "stokes", 1e-9, 1e-6),
               _result("lifting", "dsigma_dj", 2e-5, 1e-5, passed=False)]
    code, lines = _diff(tmp_path, parent, flipped)
    assert code == 1 and lines[0] == "total 2 results, 1 identical"
    assert lines[1].endswith("PASS FLIPPED")
    code, lines = _diff(tmp_path, parent, parent[:1])
    assert code == 1
    assert lines == ["total 1 results, 1 identical", "  only in parent: lifting.dsigma_dj"]
    code, _ = _diff(tmp_path, parent, parent)
    assert code == 0


def test_directories_are_diffed_report_by_report(tmp_path):
    parent_dir, change_dir = tmp_path / "parent", tmp_path / "change"
    parent_dir.mkdir()
    change_dir.mkdir()
    stokes = _result("forms", "stokes", 1e-9, 1e-6)
    isotropy = _result("courant", "isotropy", 4e-15, 1e-10)
    moved = _result("courant", "isotropy", 5e-15, 1e-10)
    _write(parent_dir / "su2_42.json", [stokes, isotropy])
    _write(change_dir / "su2_42.json", [stokes, moved])
    _write(parent_dir / "so3_42.json", [stokes])
    _write(change_dir / "so3_42.json", [stokes])
    (parent_dir / "notes.txt").write_text("not a report")
    out = io.StringIO()
    code = _tool().diff(str(parent_dir), str(change_dir), out=out)
    assert code == 0
    assert out.getvalue().splitlines() == [
        "total 3 results, 2 identical",
        "so3_42.json: 1 results, 1 identical",
        "su2_42.json: 2 results, 1 identical",
        "  courant.isotropy: 4e-15 -> 5e-15  tol 1e-10  margin move 1e-05",
    ]
    # a flip in any pair, or a report only one directory holds, exits 1
    _write(change_dir / "so3_42.json", [_result("forms", "stokes", 2e-6, 1e-6, passed=False)])
    assert _tool().diff(str(parent_dir), str(change_dir), out=io.StringIO()) == 1
    _write(change_dir / "so3_42.json", [stokes])
    _write(parent_dir / "torus2_42.json", [stokes])
    out = io.StringIO()
    assert _tool().diff(str(parent_dir), str(change_dir), out=out) == 1
    assert out.getvalue().splitlines()[-1] == "only in parent: torus2_42.json"
    assert _tool().main([str(parent_dir), str(change_dir / "su2_42.json")]) == 2


def test_standard_reports_on_one_selection(tmp_path):
    reports = _tool("reports")
    out = io.StringIO()
    assert reports.write(str(tmp_path), ["torus2-seed7"], out=out) == 0
    assert out.getvalue().splitlines() == ["torus2-seed7: exit 0"]
    report = json.loads((tmp_path / "torus2-seed7.json").read_text())
    assert report["config_echo"]["seed"] == 7
    assert report["summary"]["failed"] == 0
    out = io.StringIO()
    assert _tool().diff(str(tmp_path), str(tmp_path), out=out) == 0
    assert out.getvalue().splitlines()[0] == "total 69 results, 69 identical"
    assert reports.write(str(tmp_path), ["torus2-seed8"]) == 2
    assert len(reports.REPORTS) == 13
