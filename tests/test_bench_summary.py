"""tools/bench_summary.py on the committed stencil records and on small
hand-written ones."""

import importlib.util
import json
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_summary",
                                                  _ROOT / "tools" / "bench_summary.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load(name):
    with open(_ROOT / name, encoding="utf-8") as fh:
        return json.load(fh)


def _record(seed, **metrics):
    return {"environment": {"seed": seed},
            "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}


def test_committed_stencil_records():
    tool = _tool()
    rows = tool.summarize(_load("BENCH_stencil_parent.json"), _load("BENCH_stencil_change.json"),
                          tool.end_to_end_metrics())
    row = next(r for r in rows if (r["workload"], r["metric"]) == ("heisenberg3-fine", "verify_s"))
    assert row["pairs"] == 10 and row["unpaired"] == 0
    assert round(row["parent_median"], 3) == 0.466
    assert round(row["change_median"], 3) == 0.403
    assert round(row["parent_q3"] - row["parent_q1"], 3) == 0.024
    assert row["wins"] == 10
    assert {r["workload"] for r in rows} == {"heisenberg3-fine", "su2-full", "su2-qham"}


def test_pairs_by_seed_and_direction():
    tool = _tool()
    parent = {"w": [_record(1, t=1.0, ok=1.0), _record(2, t=2.0, ok=0.5), _record(3, t=9.0)]}
    change = {"w": [_record(2, t=1.0, ok=1.0), _record(1, t=1.0, ok=0.5)],
              "only-change": [_record(1, t=1.0)]}
    rows = tool.summarize(parent, change, [("t", "lower"), ("ok", "higher")])
    t, ok = rows
    assert (t["pairs"], t["unpaired"], t["wins"]) == (2, 1, 1)    # a tie counts for neither
    assert (ok["pairs"], ok["wins"]) == (2, 1)                     # higher is better


def test_usage_error():
    assert _tool().main(["only-one.json"]) == 2
