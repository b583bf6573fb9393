"""Workload definitions: the `atiyahcheck verify` configuration of each one.

The benchmark seed becomes the verify seed; nothing else reaches the
program.  Why each workload was chosen is recorded in BENCHMARK.json and
perfbench/README.md.

`results` is the number of reported results and `names_sha256` the digest
of their sorted "suite.check" names, so a run can tell a missing or
renamed result from a passing one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    group: str
    suites: tuple | None
    grid_t: int | None
    results: int
    names_sha256: str

    def verify_argv(self, seed, report_path):
        argv = ["verify", "--group", self.group, "--seed", str(seed), "--quiet",
                "--report", report_path]
        if self.suites:
            argv += ["--suite", ",".join(self.suites)]
        if self.grid_t is not None:
            argv += ["--grid-t", str(self.grid_t)]
        return argv

    def config(self, seed):
        return {"group": self.group, "suites": list(self.suites or ()),
                "grid_t": self.grid_t, "seed": seed}


def names_digest(names):
    return hashlib.sha256("\n".join(sorted(names)).encode("utf-8")).hexdigest()


WORKLOADS = {w.name: w for w in (
    Workload("su2-full", "su2", None, None, 82,
             "7703719b1d062d1e24c0df606a01cd221b1a064ff4ca12feeed1d0aad8e076c4"),
    Workload("heisenberg3-fine", "heisenberg3", ("algebroid", "lifting"), 401, 35,
             "5374fe577d17343fd0130dff6298f5c0454f4092f347e44ed3e53f3c3bd54520"),
    Workload("su2-qham", "su2", ("qham",), None, 10,
             "94d2dd8fd3408dbba3650335e5d434a7d53f5dea375a0d5e1ba035e083821a94"),
)}
