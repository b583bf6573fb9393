"""One measured process of the benchmark; `run.py` starts it and reads its output.

    python3 perfbench/worker.py setup --group su2 --out OUT.json
    python3 perfbench/worker.py verify --workload su2-full --seed 42 --seconds 5 \
        [--trace] --out OUT.json
    python3 perfbench/worker.py selftest

`setup` times what a fresh `atiyahcheck verify` process pays before its
first check: importing the package, building the group and the first
convention calibration.  `verify` pays that set-up untimed, then runs
`atiyahcheck verify` through `cli.main` until `--seconds` have passed
(at least once) and records each run's wall time and results.  Both run
under a `hostspeed.SpeedProbe` and also record each time in nominal
seconds (see hostspeed.py).  With `--trace` it first runs the tracer
self-test, then one verify with the tracer installed and no probe.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from hostspeed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def cmd_setup(args):
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import atiyahcheck.cli  # noqa: F401  (the import is what is timed)
        from atiyahcheck.bott import calibrate_conventions
        from atiyahcheck.liealg import make_group
        t1 = time.perf_counter()
        make_group(args.group)
        t2 = time.perf_counter()
        calibrate_conventions()
        t3 = time.perf_counter()
    return {"import_s": t1 - t0, "make_group_s": t2 - t1, "calibrate_s": t3 - t2,
            "wall_s": t3 - t0, "setup_s": probe.scaled(t0, t3),
            "kernel_s": probe.kernel_s(t0, t3)}


def _verify_once(cli, workload, seed, report_path, probe=None):
    """One `atiyahcheck verify`: its wall seconds (and nominal seconds under a
    probe), exit code, error and results."""
    argv = workload.verify_argv(seed, str(report_path))
    if report_path.exists():
        report_path.unlink()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a raising check: its results count as missing
        code, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    results = []
    if report_path.exists():
        with open(report_path, encoding="utf-8") as fh:
            for c in json.load(fh)["checks"]:
                results.append([c["suite"], c["check_name"], c["residual"],
                                c["tolerance"], c["pass"]])
    out = {"seconds": end - start, "exit_code": code, "error": error, "results": results}
    if probe is not None:
        out["nominal_s"] = probe.scaled(start, end)
        out["kernel_s"] = probe.kernel_s(start, end)
    return out


def cmd_verify(args):
    from workloads import WORKLOADS

    import atiyahcheck.cli as cli
    from atiyahcheck.bott import calibrate_conventions
    from atiyahcheck.liealg import make_group

    workload = WORKLOADS[args.workload]
    make_group(workload.group)
    calibrate_conventions()
    report_path = Path(args.out).with_suffix(".report.json")
    out = {"verifies": []}
    if args.trace:
        from tracer import Tracer, self_test
        out["self_test_failures"] = self_test()
        tracer = Tracer()
        with tracer.installed():
            out["verifies"].append(_verify_once(cli, workload, args.seed, report_path))
        out["layers"] = {k: list(v) for k, v in tracer.metrics().items()}
        out["check_spans"] = tracer.check_spans
    else:
        with SpeedProbe() as probe:
            start = time.perf_counter()
            while not out["verifies"] or time.perf_counter() - start < args.seconds:
                out["verifies"].append(_verify_once(cli, workload, args.seed, report_path,
                                                    probe))
    if report_path.exists():
        report_path.unlink()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (own + kids) / 1024.0        # ru_maxrss is in KiB on Linux
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--group", required=True)
    verify = sub.add_parser("verify")
    verify.add_argument("--workload", required=True)
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--seconds", type=float, required=True)
    verify.add_argument("--trace", action="store_true")
    for p in (setup, verify):
        p.add_argument("--out", required=True)
    sub.add_parser("selftest")
    args = parser.parse_args(argv)
    if args.mode == "selftest":
        from tracer import self_test
        failures = self_test()
        print("\n".join(failures) or "tracer self-test passed")
        return 1 if failures else 0
    payload = cmd_setup(args) if args.mode == "setup" else cmd_verify(args)
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
