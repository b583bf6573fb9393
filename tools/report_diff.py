"""Compare two `atiyahcheck verify --report` files result by result.

    python tools/report_diff.py PARENT.json CHANGE.json

Prints `total N results, M identical`, where a result is identical when
every reported field of it (residual, tolerance, margin, pass, params,
notes, n_samples, worst_sample, identity) is equal in both reports.  Each
moved result follows on its own line: `suite.check`, both residual reprs,
the tolerance and the margin move |margin_change - margin_parent|.  The
`run` block (environment and runtimes) is not compared.

Exits 1 when the two reports hold different sets of results or any result's
`pass` flips, 2 on a usage error, and 0 otherwise.
"""

from __future__ import annotations

import json
import sys


def _results(path):
    with open(path, encoding="utf-8") as fh:
        return {(c["suite"], c["check_name"]): c for c in json.load(fh)["checks"]}


def _margin_move(old, new):
    if old["margin"] is None or new["margin"] is None:
        return "n/a" if old["margin"] != new["margin"] else "0"
    return f"{abs(new['margin'] - old['margin']):.3g}"


def diff(parent_path, change_path, out=None):
    """Print the comparison of two reports (to stdout by default); returns
    the exit code."""
    out = sys.stdout if out is None else out
    parent, change = _results(parent_path), _results(change_path)
    shared = sorted(parent.keys() & change.keys())
    moved = [key for key in shared if parent[key] != change[key]]
    print(f"total {len(shared)} results, {len(shared) - len(moved)} identical", file=out)
    flips = 0
    for key in moved:
        old, new = parent[key], change[key]
        flip = old["pass"] != new["pass"]
        flips += flip
        tol = (f"{new['tolerance']:g}" if old["tolerance"] == new["tolerance"]
               else f"{old['tolerance']:g} -> {new['tolerance']:g}")
        print(f"  {key[0]}.{key[1]}: {old['residual']} -> {new['residual']}  tol {tol}"
              f"  margin move {_margin_move(old, new)}"
              + ("  PASS FLIPPED" if flip else ""), file=out)
    for label, keys in (("only in parent", parent.keys() - change.keys()),
                        ("only in change", change.keys() - parent.keys())):
        for suite, check in sorted(keys):
            print(f"  {label}: {suite}.{check}", file=out)
    same_set = parent.keys() == change.keys()
    return 0 if same_set and not flips else 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/report_diff.py PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    return diff(*argv)


if __name__ == "__main__":
    sys.exit(main())
