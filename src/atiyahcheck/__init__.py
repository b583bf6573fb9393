"""Numerical differential geometry of the path-fibration algebroid over a
matrix Lie group: sections, brackets, connections, the canonical 2-form,
Bott and Chern-Simons calculus, fusion, Courant reduction and the
conjugacy-class kernel theorem, all verified by randomized residual checks.
"""

__version__ = "0.1.0"

from .liealg import LieAlgebra, InvariantPolynomial, make_group, GROUP_NAMES
from .sections import (AlgebroidSection, TimeGrid, bump,
                       extend, integrate_01, template_section, time_derivative)
from .algebroid import bracket, build_alpha, generator, KappaFamily

__all__ = [
    "__version__",
    "LieAlgebra", "InvariantPolynomial", "make_group", "GROUP_NAMES",
    "AlgebroidSection", "TimeGrid", "bump",
    "extend", "integrate_01", "template_section", "time_derivative",
    "bracket", "build_alpha", "generator", "KappaFamily",
]
