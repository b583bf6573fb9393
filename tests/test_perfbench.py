"""The benchmark's probe points: its tracer's self-test and the per-instance
section attributes it wraps, run against the package as it stands."""

import importlib.util
import pathlib

import numpy as np

from atiyahcheck import lifting
from atiyahcheck.liealg import make_group
from atiyahcheck.sections import TimeGrid, random_section

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_self_test():
    assert _tracer_module().self_test() == []


def test_tracer_counts_section_attributes():
    tracer = _tracer_module().Tracer()
    with tracer.installed():
        alg = make_group("su2")
        rng = np.random.default_rng(3)
        g = alg.random_group(rng)
        xi, ze = random_section(alg, rng), random_section(alg, rng)
        lifting.canonical_two_form(xi, ze, g, TimeGrid(21))
    assert tracer.counts["sections.profile"] > 0
    assert tracer.counts["sections.v"] > 0
    assert tracer.calls["lifting.canonical_two_form"] == 1
