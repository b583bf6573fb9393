"""Summarise a parent/change pair of `BENCH_*.json` benchmark records.

    python tools/bench_summary.py PARENT.json CHANGE.json

Each file maps a workload name to a list of `perfbench/run.py` records.
Records are paired by workload and `environment.seed`; a record without a
partner is counted but not compared.  For each workload and each
end-to-end metric of `BENCHMARK.json` it prints the number of pairs, the
parent and change medians, the parent's quartiles (inclusive method) and
the pairs the change wins (better by the metric's direction; ties count
for neither side).

Exits 2 on a usage error, 0 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def end_to_end_metrics(path=BENCHMARK):
    """(name, better) of each end-to-end metric the benchmark declares."""
    with open(path, encoding="utf-8") as fh:
        return [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]


def _by_seed(records):
    return {r["environment"]["seed"]: r for r in records}


def summarize(parent, change, metrics):
    """One row per workload and metric, for the workloads both files hold."""
    rows = []
    for workload in sorted(set(parent) & set(change)):
        old, new = _by_seed(parent[workload]), _by_seed(change[workload])
        seeds = sorted(set(old) & set(new))
        unpaired = len(old) + len(new) - 2 * len(seeds)
        for name, better in metrics:
            pairs = [(old[s]["metrics"][name]["value"], new[s]["metrics"][name]["value"])
                     for s in seeds if name in old[s]["metrics"] and name in new[s]["metrics"]]
            if not pairs:
                continue
            sign = 1.0 if better == "lower" else -1.0
            base = [p for p, _ in pairs]
            q1, _, q3 = (statistics.quantiles(base, n=4, method="inclusive")
                         if len(base) > 1 else (base[0],) * 3)
            parent_median = statistics.median(base)
            change_median = statistics.median(c for _, c in pairs)
            wins = sum(sign * (p - c) > 0 for p, c in pairs)
            rows.append({
                "workload": workload, "metric": name, "pairs": len(pairs),
                "unpaired": unpaired, "parent_median": parent_median,
                "change_median": change_median, "parent_q1": q1, "parent_q3": q3,
                "wins": wins,
            })
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/bench_summary.py PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    loaded = []
    for path in argv:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2
    print(f"{'workload':18s} {'metric':12s} {'pairs':>5s} {'parent':>10s} {'change':>10s} "
          f"{'parent q1':>10s} {'parent q3':>10s} {'wins':>7s}")
    for row in summarize(*loaded, end_to_end_metrics()):
        extra = f" ({row['unpaired']} unpaired)" if row["unpaired"] else ""
        print(f"{row['workload']:18s} {row['metric']:12s} {row['pairs']:5d} "
              f"{row['parent_median']:10.4g} {row['change_median']:10.4g} "
              f"{row['parent_q1']:10.4g} {row['parent_q3']:10.4g} "
              f"{row['wins']:3d}/{row['pairs']}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
