"""Command-line runner: configuration, suite selection, JSON reports.

Usage:
    atiyahcheck verify --group su2 --suite lifting,bott --seed 42 --report out.json
    atiyahcheck list-checks [--group su2] [--suite lifting]

Exit codes: 0 all checks pass, 1 check failure, 2 configuration error,
3 convention or sign-oracle abort.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .bott import ConventionError, calibrate_conventions
from .checks import SUITES, list_checks, result_keys, run_checks
from .liealg import GROUP_NAMES
from .qham import GhjwSignError

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_CONVENTION_ABORT = 3


class ConfigError(ValueError):
    pass


def _parse_tol(items):
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigError(f"tolerance override {item!r} is not key=value")
        key, val = item.split("=", 1)
        try:
            out[key.strip()] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
    return out


# the keys a config file may set; each flag sets the key of the same meaning
CONFIG_KEYS = ("group", "suites", "n_points", "fd_step", "t_step", "seed", "samples",
               "tol_overrides", "report_path")


def _read_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ConfigError("a config file must hold one JSON object")
    unknown = sorted(set(config) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; choose from {list(CONFIG_KEYS)}")
    return config


def build_config(args):
    config = {}
    if getattr(args, "config", None):
        config.update(_read_config_file(args.config))
    # flags win over the config file
    mapping = {
        "group": "group", "grid_t": "n_points", "fd_step": "fd_step",
        "t_step": "t_step", "seed": "seed", "samples": "samples",
        "report": "report_path",
    }
    for attr, key in mapping.items():
        val = getattr(args, attr, None)
        if val is not None:
            config[key] = val
    if getattr(args, "suite", None):
        config["suites"] = [s.strip() for s in args.suite.split(",") if s.strip()]
    tols = config.get("tol_overrides", {})
    if not isinstance(tols, dict):
        raise ConfigError("tol_overrides must be a JSON object of suite.check: value")
    tols = dict(tols)
    tols.update(_parse_tol(getattr(args, "tol", None)))
    config["tol_overrides"] = tols
    validate_config(config)
    return config


def _integer(config, key, default):
    val = config.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{key} must be an integer, not {val!r}")
    return val


def _number(config, key, default):
    val = config.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{key} must be a number, not {val!r}")
    return float(val)


def validate_config(config):
    group = config.get("group", "su2")
    if group not in GROUP_NAMES:
        raise ConfigError(f"unknown group {group!r}; choose from {GROUP_NAMES}")
    n = _integer(config, "n_points", 201)
    if n < 3 or n % 2 == 0:
        raise ConfigError("n_points must be an odd integer >= 3")
    fd = _number(config, "fd_step", 1e-4)
    if not (2e-5 <= fd <= 3e-3):
        # where every check was seen to pass at its default tolerance: above
        # it Richardson truncation, below it round-off nears the ladder
        raise ConfigError("fd_step must lie in [2e-5, 3e-3]")
    t_step = _number(config, "t_step", 1e-5)
    if not (math.isfinite(t_step) and t_step > 0.0):
        # a zero step makes the time central difference 0/0
        raise ConfigError("t_step must be a positive finite number")
    samples = _integer(config, "samples", 4)
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    suites = config.get("suites")
    if suites:
        if not isinstance(suites, list):
            raise ConfigError("suites must be a list of suite names")
        bad = [s for s in suites if s not in SUITES]
        if bad:
            raise ConfigError(f"unknown suites {bad}; choose from {SUITES}")
    tols = config.get("tol_overrides", {})
    unknown = sorted(set(tols) - result_keys())
    if unknown:
        raise ConfigError(f"unknown tolerance keys {unknown}; a key names a "
                          "reported result as suite.check")
    for key in tols:
        tols[key] = _number(tols, key, None)
    if not isinstance(config.get("report_path", ""), str):
        raise ConfigError("report_path must be a string")
    config["group"] = group
    config["n_points"] = n
    config["fd_step"] = fd
    config["samples"] = samples
    config["seed"] = _integer(config, "seed", 42)
    config["t_step"] = t_step


def _margin(residual, tolerance):
    """residual / tolerance, or None where that is no finite number.

    A zero tolerance admits only a zero residual, whose margin is 0.
    """
    if tolerance == 0.0:
        return 0.0 if residual == 0.0 else None
    margin = residual / tolerance
    return margin if math.isfinite(margin) else None


def _report_payload(config, results, convention_table):
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
            "runtime_ms": round(r.runtime_ms, 3),
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
    }


def cmd_verify(args):
    try:
        config = build_config(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    group = config["group"]
    suites = config.get("suites")

    def progress(spec, out):
        if args.quiet:
            return
        for r in out:
            mark = "pass" if r.passed else "FAIL"
            print(f"[{mark}] {r.suite}.{r.name}  residual {r.residual:.3e}"
                  f"  tol {r.tolerance:.1e}")

    try:
        results = run_checks(group, config, suites=suites, progress=progress)
        convention_table = calibrate_conventions().as_dict()
    except (ConventionError, GhjwSignError) as exc:
        print(f"convention abort: {exc}", file=sys.stderr)
        return EXIT_CONVENTION_ABORT

    payload = _report_payload(config, results, convention_table)
    report_path = config.get("report_path")
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    summary = payload["summary"]
    print(f"{summary['passed']}/{summary['total']} checks passed on {group}")
    failed = [c for c in payload["checks"] if not c["pass"]]
    for c in failed:
        print(f"  FAILED {c['suite']}.{c['check_name']}: residual {c['residual']}")
    return EXIT_OK if not failed else EXIT_CHECK_FAILURE


def cmd_list_checks(args):
    group = getattr(args, "group", None)
    suites = None
    if getattr(args, "suite", None):
        suites = [s.strip() for s in args.suite.split(",")]
        bad = [s for s in suites if s not in SUITES]
        if bad:
            print(f"unknown suites {bad}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    if group is not None and group not in GROUP_NAMES:
        print(f"unknown group {group!r}", file=sys.stderr)
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
    ver.add_argument("--group", choices=GROUP_NAMES, default=None)
    ver.add_argument("--suite", default=None,
                     help="comma-separated subset of " + ",".join(SUITES))
    ver.add_argument("--grid-t", dest="grid_t", type=int, default=None,
                     help="odd number of time-grid nodes (default 201)")
    ver.add_argument("--fd-step", dest="fd_step", type=float, default=None)
    ver.add_argument("--t-step", dest="t_step", type=float, default=None)
    ver.add_argument("--tol", action="append", default=None,
                     metavar="suite.check=value", help="tolerance override")
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--report", default=None, help="JSON report path")
    ver.add_argument("--config", default=None, help="JSON config file (flags win)")
    ver.add_argument("--quiet", action="store_true")
    ver.set_defaults(func=cmd_verify)

    ls = sub.add_parser("list-checks", help="print check names and identities")
    ls.add_argument("--group", default=None)
    ls.add_argument("--suite", default=None)
    ls.set_defaults(func=cmd_list_checks)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
