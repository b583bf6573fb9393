"""Write the standard set of `atiyahcheck verify --report` files.

    python tools/reports.py OUTDIR [NAME ...]

The set is every catalog group at seeds 42 and 7 (`su2-seed42.json`, ...,
`torus2-seed7.json`), the algebroid and lifting suites of heisenberg3 on
a 401-node grid at seed 42 (`heisenberg3-fine-seed42.json`), and su2 and
heisenberg3 at seed 42 at both ends of the validated `--fd-step` range,
3e-3 and 2e-5 (`su2-fd3e-3-seed42.json`, ...,
`heisenberg3-fd2e-5-seed42.json`), where a step that fails to reach a
derivative changes its result.  Given names, only those reports are
written.  Each report comes from its own
`python -m atiyahcheck verify` process run on the `src/` next to this
file, so running the copy of this script in another checkout reports that
checkout.  Compare two such directories with `tools/report_diff.py`.

Prints one line per report with the verify exit code; exits 1 when any
verify exits nonzero, 2 on a usage error (an unknown name), 0 otherwise.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

REPORTS = {
    f"{group}-seed{seed}": ["--group", group, "--seed", str(seed)]
    for group in ("su2", "so3", "heisenberg3", "torus2") for seed in (42, 7)
}
REPORTS["heisenberg3-fine-seed42"] = ["--group", "heisenberg3", "--suite", "algebroid,lifting",
                                      "--grid-t", "401", "--seed", "42"]
REPORTS.update({
    f"{group}-fd{step}-seed42": ["--group", group, "--fd-step", step, "--seed", "42"]
    for group in ("su2", "heisenberg3") for step in ("3e-3", "2e-5")
})


def write(outdir, names=None, out=None):
    """Write the named reports (all by default) into outdir; returns the exit code."""
    out = sys.stdout if out is None else out
    names = list(REPORTS) if not names else names
    unknown = [name for name in names if name not in REPORTS]
    if unknown:
        print(f"unknown report {', '.join(unknown)}; choose from {', '.join(REPORTS)}",
              file=sys.stderr)
        return 2
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = 0
    for name in names:
        path = os.path.join(outdir, f"{name}.json")
        argv = [sys.executable, "-m", "atiyahcheck", "verify", *REPORTS[name],
                "--report", path, "--quiet"]
        rc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode
        print(f"{name}: exit {rc}", file=out)
        code = max(code, 1 if rc else 0)
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python tools/reports.py OUTDIR [NAME ...]", file=sys.stderr)
        return 2
    return write(argv[0], argv[1:])


if __name__ == "__main__":
    sys.exit(main())
