"""Benchmark of `atiyahcheck verify`: time to verdict per workload.

    python3 perfbench/run.py --workload su2-full [--seed 42] [--seconds 5] [--trace 0|1]

Run from the repository root.  With `--trace 0` it measures set-up in
fresh processes, then runs `verify` in one worker process until
`--seconds` have passed (at least once), and reports the end-to-end
metrics; their times are in nominal seconds, wall seconds corrected for
the host's speed as a reference kernel measured it (perfbench/hostspeed.py).  With `--trace 1` it runs the same untraced worker, then a
second worker that installs the tracer, and reports the per-layer metrics
plus the tracing overhead.  Either way every verdict is checked; the last
line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`, and the full record, with an environment stamp,
is written under `.bench_results/`.  Metric definitions: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, names_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_results"
SETUP_PROBES = 3
DEADLINE_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def run_worker(args, out_path, deadline):
    """Run perfbench/worker.py to completion and return its JSON output."""
    out_path.unlink(missing_ok=True)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args,
                               "--out", str(out_path)],
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args[0]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not out_path.exists():
        raise WorkerError(f"worker {args[0]} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        data = json.load(fh)
    out_path.unlink()
    return data


def margin(residual, tolerance):
    """residual / tolerance; a zero tolerance admits only a zero residual."""
    if tolerance == 0.0:
        return 0.0 if residual == 0.0 else math.inf
    return residual / tolerance


class Gate:
    """Correctness of every verify in a run, against the workload and each other."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.margins = []
        self.reference = None          # "suite.check" -> residual repr

    def add(self, verify, label):
        wl = self.workload
        self.attempted += wl.results
        results = verify["results"]
        if verify["error"] or verify["exit_code"] != 0:
            self.problems.append(f"{label}: verify exited {verify['exit_code']}"
                                 + (f" ({verify['error']})" if verify["error"] else ""))
        names = [f"{s}.{c}" for s, c, *_ in results]
        if len(results) != wl.results or names_digest(names) != wl.names_sha256:
            self.problems.append(f"{label}: {len(results)} results, not the workload's "
                                 f"{wl.results}-result set")
            self.failed += wl.results
            return
        if self.reference is None:
            self.reference = {f"{s}.{c}": r for s, c, r, _, _ in results}
        for suite, check, residual, tolerance, passed in results:
            m = margin(float(residual), tolerance)
            if math.isfinite(m):
                self.margins.append(m)
            same = residual == self.reference[f"{suite}.{check}"]
            if not passed or not same:
                self.failed += 1
                why = "failed" if not passed else "residual differs between runs"
                self.problems.append(f"{label}: {suite}.{check} {why} "
                                     f"(residual {residual}, tolerance {tolerance})")

    def max_margin(self):
        return max(self.margins, default=0.0)


def saved_residuals_path(workload, seed):
    """Where the first run of this source tree, workload and seed keeps its residuals,
    so later runs of the same seed are checked against it."""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode("utf-8"))
        src.update(path.read_bytes())
    return OUT_DIR / "residuals" / f"{workload.name}-seed{seed}-{src.hexdigest()[:16]}.json"


def git_commit():
    """The checked-out commit, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(workload, args):
    import numpy
    bench = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")):
        bench.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
        "benchmark_sha256": bench.hexdigest(),
        "workload": workload.name,
        "verify_config": workload.config(args.seed),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workload, args, deadline):
    """Run the workers; returns (gate, metrics, record)."""
    gate = Gate(workload)
    saved = saved_residuals_path(workload, args.seed)
    if saved.exists():
        with open(saved, encoding="utf-8") as fh:
            gate.reference = json.load(fh)
    record = {}
    metrics = {}
    tmp = OUT_DIR / f"{workload.name}-{args.seed}-{args.trace}.worker.json"
    verify_args = ["verify", "--workload", workload.name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds)]
    if not args.trace:
        probes = [run_worker(["setup", "--group", workload.group], tmp, deadline)
                  for _ in range(SETUP_PROBES)]
        record["setup_probes"] = probes
        metrics["setup_s"] = (statistics.median(p["setup_s"] for p in probes), "s")
    plain = run_worker(verify_args, tmp, deadline)
    for i, verify in enumerate(plain["verifies"]):
        gate.add(verify, f"verify {i}")
    record["verify_s"] = [v["nominal_s"] for v in plain["verifies"]]
    record["verify_wall_s"] = [v["seconds"] for v in plain["verifies"]]
    record["verify_kernel_s"] = [v["kernel_s"] for v in plain["verifies"]]
    record["results"] = plain["verifies"][0]["results"]
    if gate.reference is not None and not saved.exists():
        saved.parent.mkdir(exist_ok=True)
        with open(saved, "w", encoding="utf-8") as fh:
            json.dump(gate.reference, fh)
    wall_s = statistics.median(record["verify_wall_s"])
    if not args.trace:
        metrics["verify_s"] = (statistics.median(record["verify_s"]), "s")
        metrics["peak_rss_mb"] = (plain["peak_rss_mb"], "MB")
        metrics["pass_frac"] = (1.0 - gate.failed / gate.attempted, "ratio")
        return gate, metrics, record
    traced = run_worker(verify_args + ["--trace"], tmp, deadline)
    for failure in traced["self_test_failures"]:
        gate.problems.append(f"tracer self-test: {failure}")
    traced_verify = traced["verifies"][0]
    gate.add(traced_verify, "traced verify")
    record["traced_verify_s"] = traced_verify["seconds"]
    record["check_spans"] = traced["check_spans"]
    metrics.update({k: tuple(v) for k, v in traced["layers"].items()})
    metrics["checks.max_margin"] = (gate.max_margin(), "ratio")
    metrics["verify_wall_s"] = (wall_s, "s")
    metrics["trace_overhead_frac"] = (traced_verify["seconds"] / wall_s - 1.0, "ratio")
    return gate, metrics, record


def main(argv=None):
    parser = argparse.ArgumentParser(description="atiyahcheck verify benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "atiyahcheck" / "__init__.py").is_file():
        print(f"no atiyahcheck package under {ROOT / 'src'}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    try:
        gate, metrics, record = measure(workload, args, deadline)
    except WorkerError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    correct = not gate.problems and gate.failed == 0
    failed_frac = gate.failed / gate.attempted
    record.update({"environment": environment(workload, args), "correct": correct,
                   "attempted": gate.attempted, "failed": gate.failed,
                   "failed_frac": failed_frac, "max_margin": gate.max_margin(),
                   "problems": gate.problems,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
    result_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for problem in gate.problems:
        print(f"CHECK {problem}")
    print(f"{workload.name} seed {args.seed}: {len(record['verify_s'])} untraced verify "
          f"run(s); record in {result_path.relative_to(ROOT)}")
    print(f"  {'failed_frac':48s} {failed_frac:.6g} ratio ({gate.failed} of {gate.attempted})")
    print(f"  {'max_margin':48s} {gate.max_margin():.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
