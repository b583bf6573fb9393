"""Command-line runner: configuration, suite selection, JSON reports.

Usage:
    atiyahcheck verify --group su2 --suite lifting,bott --seed 42 --report out.json
    atiyahcheck list-checks [--group su2] [--suite lifting]

`verify` is configured by its flags alone: --group --suite --grid-t
--fd-step --seed --report --quiet.  Every result is judged at its
declared tolerance, and each check fixes its own sample count; --seed
draws new samples.

Exit codes: 0 all checks pass, 1 check failure, 2 configuration error.
The report's convention_table block is bott.calibrate_conventions(): the
fixed orientation signs, their sources and the mismatch of the identities
that hold at them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .bott import calibrate_conventions
from .checks import DEFAULTS, SUITES, list_checks, run_checks, validate_grid
from .liealg import GROUP_NAMES, validate_fd_step

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2


class ConfigError(ValueError):
    pass


def build_config(args):
    """The verify flags as one config: the group, the suites (with --suite),
    the report path and every key of `checks.DEFAULTS`."""
    config = {"group": args.group, "n_points": args.grid_t, "fd_step": args.fd_step,
              "seed": args.seed, "report_path": args.report}
    if args.suite is not None:
        config["suites"] = _parse_suites(args.suite)
    validate_config(config)
    return config


def _parse_suites(text):
    """The suite names of a comma-separated --suite value; blank names are dropped."""
    return [s.strip() for s in text.split(",") if s.strip()]


def _validate_selection(group, suites):
    """Reject an unknown group (None selects every group), an unknown suite
    or a suite list that names none (None selects every suite)."""
    if group is not None and group not in GROUP_NAMES:
        raise ConfigError(f"unknown group {group!r}; choose from {GROUP_NAMES}")
    if suites is not None:
        if not suites:
            raise ConfigError(f"the suite selection names no suite; choose from {SUITES}")
        bad = [s for s in suites if s not in SUITES]
        if bad:
            raise ConfigError(f"unknown suites {bad}; choose from {SUITES}")


def validate_config(config):
    """Refuse, with ConfigError, what a typed flag can still get wrong."""
    _validate_selection(config["group"], config.get("suites"))
    try:
        validate_grid(config["n_points"])
        validate_fd_step(config["fd_step"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if config["seed"] < 0:
        # numpy's seed sequence takes only non-negative entropy
        raise ConfigError("seed must be a non-negative integer")
    report_path = config["report_path"]
    if report_path:
        report_dir = os.path.dirname(os.path.abspath(report_path))
        if not os.path.isdir(report_dir):
            raise ConfigError(f"report_path {report_path!r}: no directory {report_dir!r}")


def _margin(residual, tolerance):
    """residual / tolerance, or None where that is no finite number.

    A zero tolerance admits only a zero residual, whose margin is 0.
    """
    if tolerance == 0.0:
        return 0.0 if residual == 0.0 else None
    margin = residual / tolerance
    return margin if math.isfinite(margin) else None


def _environment():
    """Where the report was produced: interpreter, numpy, platform, CPU count.

    platform.platform() would start a child process (`uname -p`); the
    platform string is built from in-process queries instead.
    """
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
            "cpu_count": os.cpu_count()}


def _report_payload(config, results, convention_table, calibration_ms):
    checks = []
    for r in sorted(results, key=lambda r: (r.suite, r.name)):
        checks.append({
            "suite": r.suite,
            "check_name": r.name,
            "identity": r.identity,
            "params": r.params,
            "residual": repr(r.residual),
            "tolerance": r.tolerance,
            "margin": _margin(r.residual, r.tolerance),
            "pass": r.passed,
            "n_samples": r.n_samples,
            "worst_sample": r.worst_sample,
            "notes": r.notes,
        })
    passed = sum(1 for r in results if r.passed)
    return {
        "version": __version__,
        "config_echo": {k: v for k, v in config.items() if k != "report_path"},
        "convention_table": convention_table,
        "checks": checks,
        "summary": {"total": len(results), "passed": passed,
                    "failed": len(results) - passed},
        # what differs between two runs of the same configuration
        "run": {"environment": _environment(),
                "calibration_ms": round(calibration_ms, 3),
                "check_runtime_ms": {f"{r.suite}.{r.check}": round(r.runtime_ms, 3)
                                     for r in results}},
    }


def cmd_verify(args):
    try:
        config = build_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    group = config["group"]

    def progress(spec, out):
        if args.quiet:
            return
        for r in out:
            mark = "pass" if r.passed else "FAIL"
            print(f"[{mark}] {r.suite}.{r.name}  residual {r.residual:.3e}"
                  f"  tol {r.tolerance:.1e}")

    # calibrated before the checks, so no check's runtime carries it
    start = time.perf_counter()
    convention_table = calibrate_conventions()
    calibration_ms = (time.perf_counter() - start) * 1000.0
    results = run_checks(group, {k: config[k] for k in DEFAULTS},
                         suites=config.get("suites"), progress=progress)

    payload = _report_payload(config, results, convention_table, calibration_ms)
    report_path = config["report_path"]
    if report_path:
        try:
            with open(report_path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"configuration error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    summary = payload["summary"]
    print(f"{summary['passed']}/{summary['total']} checks passed on {group}")
    failed = [c for c in payload["checks"] if not c["pass"]]
    for c in failed:
        print(f"  FAILED {c['suite']}.{c['check_name']}: residual {c['residual']}")
    return EXIT_OK if not failed else EXIT_CHECK_FAILURE


def cmd_list_checks(args):
    group = args.group
    suites = None if args.suite is None else _parse_suites(args.suite)
    try:
        _validate_selection(group, suites)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    for spec in list_checks(group=group, suites=suites):
        scope = "all groups" if spec.groups is None else ", ".join(spec.groups)
        for name, identity, _ in spec.results:
            print(f"{spec.suite}.{name}  [{scope}]")
            print(f"    {identity}")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="atiyahcheck",
        description="Numerical verification of path-fibration algebroid identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--group", default="su2", help="one of " + ", ".join(GROUP_NAMES))
    ver.add_argument("--suite", default=None,
                     help="comma-separated subset of " + ",".join(SUITES))
    ver.add_argument("--grid-t", dest="grid_t", type=int, default=DEFAULTS["n_points"],
                     help="odd number of time-grid nodes, at least 201 (the default)")
    ver.add_argument("--fd-step", dest="fd_step", type=float, default=DEFAULTS["fd_step"])
    ver.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    ver.add_argument("--report", default=None, help="JSON report path")
    ver.add_argument("--quiet", action="store_true")
    ver.set_defaults(func=cmd_verify)

    ls = sub.add_parser("list-checks", help="print check names and identities")
    ls.add_argument("--group", default=None, help="one of " + ", ".join(GROUP_NAMES))
    ls.add_argument("--suite", default=None,
                    help="comma-separated subset of " + ",".join(SUITES))
    ls.set_defaults(func=cmd_list_checks)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
