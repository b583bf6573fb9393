"""Every exported name resolves, so `from module import *` cannot break."""

import importlib
import inspect
import pkgutil

import pytest

import atiyahcheck
from atiyahcheck import sections

MODULES = ["atiyahcheck"] + [f"atiyahcheck.{info.name}"
                             for info in pkgutil.iter_modules(atiyahcheck.__path__)]

# fixed by the construction: the one bump and its flat width, the Bott
# quadrature rules and node counts, the Fourier modes of a random loop, the
# time step, the group membership tolerance, the invariance spot checks, the
# Gram kernel's dependency cut, the radial nodes of a Poincare primitive and
# the angle of the conjugacy class; and the orientation signs (bott.SIGNS)
CONSTANTS = {"bump", "flat_width", "rule", "rule2", "n_s", "n_t", "n_modes",
             "h_t", "group_tolerance", "check_samples", "dependency_tol",
             "n_radial", "angle", "conventions"}

# the Richardson stencil's geometry takes an explicit step: the one
# combination of its values and each base's four points; every derivative
# reads the step of its base (the group's fd_step, the class's sphere step)
STEP_GEOMETRY = {"richardson", "_derivative", "stencil_steps", "LieAlgebra.push_stencil",
                 "LieAlgebra.stencil", "ConjugacyClass.stencil", "Slot.stencil"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def _own_callables(mod):
    for _, obj in inspect.getmembers(mod):
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield from (fn for fn in vars(obj).values() if inspect.isfunction(fn))


@pytest.mark.parametrize("name", MODULES)
def test_construction_constants_are_not_parameters(name):
    mod = importlib.import_module(name)
    taken = {(fn.__qualname__, param) for fn in _own_callables(mod)
             for param in inspect.signature(fn).parameters if param in CONSTANTS}
    assert taken == set()


def test_only_the_stencil_geometry_takes_a_step():
    taken = {fn.__qualname__ for name in MODULES
             for fn in _own_callables(importlib.import_module(name))
             if "h" in inspect.signature(fn).parameters}
    assert taken == STEP_GEOMETRY


def test_calibrations_and_class_pushes_take_no_numeric_parameter():
    from atiyahcheck import bott, qham

    signatures = {
        qham.worst_moment_residual: ["klass", "omega", "rng"],
        qham.ghjw_omega: ["klass"],
        bott.calibrate_conventions: [],
        qham.ConjugacyClass.push_tangent: ["self", "n", "u"],
        qham.TrivialClass.push_tangent: ["self", "n", "u"],
    }
    for fn, params in signatures.items():
        assert list(inspect.signature(fn).parameters) == params, fn.__qualname__


def test_the_package_exports_the_one_bump():
    assert atiyahcheck.bump is sections.bump
    assert "BumpFunction" not in atiyahcheck.__all__
