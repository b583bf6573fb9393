"""Compare `atiyahcheck verify --report` files result by result.

    python tools/report_diff.py PARENT.json CHANGE.json
    python tools/report_diff.py PARENT_DIR CHANGE_DIR

Prints `total N results, M identical`, where a result is identical when
every reported field of it (residual, tolerance, margin, pass, params,
notes, n_samples, worst_sample, identity) is equal in both reports.  Each
moved result follows on its own line: `suite.check`, both residual reprs
(or, where the residual did not move, the residual and the fields that
did, as `0.0 (moved notes)`), the tolerance and the margin move
|margin_change - margin_parent|.  The `run` block (environment and
runtimes) is not compared.

Given two directories, it compares every `*.json` report that both hold,
matched by file name: the grand total comes first, then one line
`NAME: N results, M identical` per pair, each followed by its moved
results.  A report that only one directory holds is listed.

Exits 1 when two compared reports hold different sets of results, any
result's `pass` flips or a report is missing from one directory, 2 on a
usage error, and 0 otherwise.
"""

from __future__ import annotations

import json
import os
import sys


def _results(path):
    with open(path, encoding="utf-8") as fh:
        return {(c["suite"], c["check_name"]): c for c in json.load(fh)["checks"]}


def _margin_move(old, new):
    if old["margin"] is None or new["margin"] is None:
        return "n/a" if old["margin"] != new["margin"] else "0"
    return f"{abs(new['margin'] - old['margin']):.3g}"


def _compare(parent_path, change_path):
    """(results compared, identical, lines on moved or unmatched results, exit code)."""
    parent, change = _results(parent_path), _results(change_path)
    shared = sorted(parent.keys() & change.keys())
    moved = [key for key in shared if parent[key] != change[key]]
    lines = []
    flips = 0
    for key in moved:
        old, new = parent[key], change[key]
        flip = old["pass"] != new["pass"]
        flips += flip
        tol = (f"{new['tolerance']:g}" if old["tolerance"] == new["tolerance"]
               else f"{old['tolerance']:g} -> {new['tolerance']:g}")
        if old["residual"] != new["residual"]:
            what = f"{old['residual']} -> {new['residual']}"
        else:
            fields = [f for f in {**old, **new} if old.get(f) != new.get(f)]
            what = f"{new['residual']} (moved {', '.join(fields)})"
        lines.append(f"  {key[0]}.{key[1]}: {what}"
                     f"  tol {tol}  margin move {_margin_move(old, new)}"
                     + ("  PASS FLIPPED" if flip else ""))
    for label, keys in (("only in parent", parent.keys() - change.keys()),
                        ("only in change", change.keys() - parent.keys())):
        lines += [f"  {label}: {suite}.{check}" for suite, check in sorted(keys)]
    same_set = parent.keys() == change.keys()
    return len(shared), len(shared) - len(moved), lines, 0 if same_set and not flips else 1


def _reports(directory):
    return {name for name in os.listdir(directory) if name.endswith(".json")}


def _compare_dirs(parent_path, change_path):
    """_compare over every report the two directories share, one line per pair."""
    parent, change = _reports(parent_path), _reports(change_path)
    body, total, same, code = [], 0, 0, 0
    for name in sorted(parent & change):
        n, m, lines, pair_code = _compare(os.path.join(parent_path, name),
                                          os.path.join(change_path, name))
        body += [f"{name}: {n} results, {m} identical"] + lines
        total, same, code = total + n, same + m, max(code, pair_code)
    for label, names in (("only in parent", parent - change), ("only in change", change - parent)):
        body += [f"{label}: {name}" for name in sorted(names)]
        code = max(code, 1 if names else 0)
    return total, same, body, code


def diff(parent_path, change_path, out=None):
    """Print the comparison of two reports, or of every report two
    directories share (to stdout by default); returns the exit code."""
    out = sys.stdout if out is None else out
    if not (os.path.isdir(parent_path) and os.path.isdir(change_path)):
        total, same, body, code = _compare(parent_path, change_path)
    else:
        total, same, body, code = _compare_dirs(parent_path, change_path)
    print(f"total {total} results, {same} identical", file=out)
    for line in body:
        print(line, file=out)
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or os.path.isdir(argv[0]) != os.path.isdir(argv[1]):
        print("usage: python tools/report_diff.py PARENT.json CHANGE.json\n"
              "       python tools/report_diff.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    return diff(*argv)


if __name__ == "__main__":
    sys.exit(main())
