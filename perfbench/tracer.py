"""Span tracing installed from outside the atiyahcheck package.

A ``Tracer`` replaces the public functions of each layer with thin
wrappers that open a span on entry and close it on exit.  Spans are not
kept one by one: each close folds into per-name aggregates (calls, self
time, inclusive time) and per-(parent, child) direct-child counts.  Only
check-level spans are kept as records, one per executed check.

Self time of a span is its duration minus the durations of its direct
child spans.  Inclusive time of a name counts only the outermost span of
that name on the stack, so recursive calls (``directional`` inside
``directional``) are not counted twice.

Wrappers only forward arguments and return values, so traced numerics are
bit-identical to untraced ones.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute); the module attribute may be a function,
# which is then rebound wherever the package imported it by name, or
# "Class.method", which is patched on the class.
LAYER_FUNCTIONS = (
    ("liealg.expm", "atiyahcheck.liealg", "expm"),
    ("liealg.directional", "atiyahcheck.liealg", "LieAlgebra.directional"),
    ("liealg.Ad", "atiyahcheck.liealg", "LieAlgebra.Ad"),
    ("liealg.Ad_operator", "atiyahcheck.liealg", "LieAlgebra.Ad_operator"),
    ("linalg.inv", "numpy.linalg", "inv"),
    ("sections.integrate_01", "atiyahcheck.sections", "integrate_01"),
    ("sections.extend", "atiyahcheck.sections", "extend"),
    ("sections.time_derivative", "atiyahcheck.sections", "time_derivative"),
    ("qham.ConjugacyClass.directional", "atiyahcheck.qham", "ConjugacyClass.directional"),
    ("qham.ConjugacyClass.point", "atiyahcheck.qham", "ConjugacyClass.point"),
    ("qham.gram_matrix", "atiyahcheck.qham", "gram_matrix"),
    ("algebroid.bracket", "atiyahcheck.algebroid", "bracket"),
    ("forms.exterior_derivative", "atiyahcheck.forms", "exterior_derivative"),
    ("forms.de_rham_differential", "atiyahcheck.forms", "de_rham_differential"),
    ("lifting.lifted_bracket", "atiyahcheck.lifting", "lifted_bracket"),
    ("lifting.canonical_two_form", "atiyahcheck.lifting", "canonical_two_form"),
    ("lifting.gamma_change", "atiyahcheck.lifting", "gamma_change"),
    ("fusion.pair_bracket", "atiyahcheck.fusion", "pair_bracket"),
    ("fusion.concat", "atiyahcheck.fusion", "concat"),
    ("homotopy.poincare_primitive", "atiyahcheck.homotopy", "poincare_primitive"),
)


class Tracer:
    """Span stack plus aggregates; one per traced process or self-test."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.children = defaultdict(int)      # (parent name, child name) -> count
        self.counts = defaultdict(int)        # plain event counters
        self.check_spans = []                 # (suite, check, seconds)
        self._stack = []                      # [name, start, child seconds]
        self._open = defaultdict(int)         # name -> depth on the stack
        self._restore = []

    # -- spans ----------------------------------------------------------------

    def enter(self, name):
        self._open[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self, name):
        end = time.perf_counter()
        _, start, child = self._stack.pop()
        dur = end - start
        self._open[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if not self._open[name]:
            self.inclusive_s[name] += dur
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            self.children[(parent[0], name)] += 1
        return dur

    def span(self, name, fn):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(name)
        traced.__wrapped__ = fn
        return traced

    def counted(self, name, fn):
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        counting.__wrapped__ = fn
        return counting

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        """Replace every module-level binding of `original` in the package."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("atiyahcheck"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        import numpy.linalg

        from atiyahcheck import checks, sections

        for name, mod_name, attr in LAYER_FUNCTIONS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self.span(name, cls.__dict__[meth]))
                continue
            original = getattr(mod, attr)
            if name == "sections.integrate_01":
                wrapper = self._integrate_wrapper(original)
            else:
                wrapper = self.span(name, original)
            if mod is numpy.linalg:
                self._set(mod, attr, wrapper)
            else:
                self._rebind_everywhere(original, wrapper)

        init = sections.AlgebroidSection.__init__
        tracer = self

        def section_init(sec, *args, **kwargs):
            init(sec, *args, **kwargs)
            sec.profile = tracer.counted("sections.profile", sec.profile)
            sec.v = tracer.counted("sections.v", sec.v)

        self._set(sections.AlgebroidSection, "__init__", section_init)

        for spec in checks.REGISTRY:
            self._set(spec, "fn", self._check_wrapper(spec))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _integrate_wrapper(self, original):
        traced = self.span("sections.integrate_01", original)

        def integrate_01(f, grid):
            self.counts["sections.integrate_01.nodes"] += len(grid.nodes)
            return traced(f, grid)
        integrate_01.__wrapped__ = original
        return integrate_01

    def _check_wrapper(self, spec):
        name = f"checks.{spec.suite}.{spec.name}"
        fn = spec.fn

        def run_check(ctx):
            self.enter(name)
            try:
                return fn(ctx)
            finally:
                self.check_spans.append((spec.suite, spec.name, self.exit(name)))
        run_check.__wrapped__ = fn
        return run_check

    # -- metrics ----------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}; absent layers read 0."""
        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        busy = defaultdict(float)
        for suite, _, seconds in self.check_spans:
            busy[suite] += seconds
        for suite in CHECK_SUITES:
            out[f"checks.{suite}.busy_s"] = (busy[suite], "s")
        out["checks.max_check_s"] = (max((s for _, _, s in self.check_spans), default=0.0), "s")
        for check in TIMED_CHECKS:
            out[f"checks.{check}.busy_s"] = (self.inclusive_s[f"checks.{check}"], "s")
        for name, _, _ in LAYER_FUNCTIONS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            if name not in CALLS_ONLY:
                out[f"{name}.self_s"] = (self.self_s[name], "s")
        out["liealg.directional.busy_s"] = (self.inclusive_s["liealg.directional"], "s")
        out["liealg.expm_per_directional"] = (ratio(
            self.children[("liealg.directional", "liealg.expm")],
            self.calls["liealg.directional"]), "ratio")
        out["liealg.inv_per_Ad"] = (ratio(
            self.children[("liealg.Ad", "linalg.inv")], self.calls["liealg.Ad"]), "ratio")
        nodes = self.counts["sections.integrate_01.nodes"]
        out["sections.integrate_01.nodes"] = (nodes, "count")
        out["sections.integrate_01.busy_s"] = (self.inclusive_s["sections.integrate_01"], "s")
        out["sections.profile.evals"] = (self.counts["sections.profile"], "count")
        out["sections.v.evals"] = (self.counts["sections.v"], "count")
        out["sections.v_evals_per_node"] = (ratio(self.counts["sections.v"], nodes), "ratio")
        return out


# metric names are fixed by BENCHMARK.json, so the suites are listed here
CHECK_SUITES = ("algebroid", "forms", "lifting", "bott", "fusion", "courant", "qham")

# checks whose own time is reported (inclusive of everything they call)
TIMED_CHECKS = (
    "lifting.gamma_change", "lifting.equivariant_three_form",
    "lifting.lifted_jacobi_obstruction", "lifting.lifted_jacobi_primitive",
    "lifting.dvarpi_eta", "bott.cs_period_integral", "courant.loop_action_brackets",
    "qham.pullback_three_form", "qham.kernel_theorem",
)

# layer spans reported by call count alone; the others also report self time
CALLS_ONLY = {"liealg.Ad_operator", "qham.ConjugacyClass.point"}


def self_test():
    """Exact counts the metrics rely on; returns a list of failure strings."""
    import numpy as np

    from atiyahcheck import liealg, sections

    failures = []
    tracer = Tracer()
    with tracer.installed():
        alg = liealg.make_group("su2")
        rng = np.random.default_rng(0)
        g = alg.random_group(rng)
        v = alg.random_vector(rng)
        x = alg.random_vector(rng)
        alg.directional(lambda p: float(np.trace(p @ alg.to_matrix(x))), g, v)
        expm_children = tracer.children[("liealg.directional", "liealg.expm")]
        if tracer.calls["liealg.directional"] != 1:
            failures.append("one directional call was not recorded once")
        if expm_children != 4:
            failures.append(f"directional recorded {expm_children} expm children, not 4")

        evals = []
        grid = sections.TimeGrid(201)
        sections.integrate_01(lambda t: evals.append(t) or t, grid)
        nodes = tracer.counts["sections.integrate_01.nodes"]
        if nodes != 201 or len(evals) != 201:
            failures.append(f"integrate_01 recorded {nodes} nodes for {len(evals)} evaluations")
        if tracer._stack:
            failures.append("span stack not empty after the self-test")
    if hasattr(liealg.LieAlgebra.directional, "__wrapped__") \
            or hasattr(sections.integrate_01, "__wrapped__"):
        failures.append("uninstall left wrappers in place")
    return failures
