"""Source guards on the package.

No code chooses its mathematics by a group's name.  A group declares what
sets it apart where it is built (its log map, its invariant polynomials;
whether eta vanishes follows from c and B), so no module may compare a
`.name` or a `group_name` with a string literal.

No check body forms its own residual.  A body yields the two sides of each
identity and `checks._residual` forms every residual, so no `yield` in
`checks.py` wraps a side in `abs`, `np.linalg.norm` or `float`.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "atiyahcheck"


def _is_name(node):
    if isinstance(node, ast.Attribute):
        return node.attr in ("name", "group_name")
    return isinstance(node, ast.Name) and node.id == "group_name"


def _is_literal(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_literal(elt) for elt in node.elts)
    return False


def name_comparisons(source):
    """Line numbers of the comparisons of a name with a string literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_name, operands)) and any(map(_is_literal, operands)):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("snippet", [
    'if alg.name == "su2": pass',
    'x = 1 if "heisenberg3" != ctx.group_name else 2',
    'ok = algebra.name in ("su2", "so3")',
    'ok = group_name == "torus2"',
])
def test_guard_sees_a_name_comparison(snippet):
    assert name_comparisons(snippet) == [1]


def test_guard_passes_other_comparisons():
    assert name_comparisons('if spec.suite == "bott" and r.name == other.name: pass') == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_compares_a_name_with_a_literal(path):
    assert name_comparisons(path.read_text(encoding="utf-8")) == []


RESIDUAL_CALLS = ("abs", "float", "np.linalg.norm")


def wrapped_samples(source):
    """Line numbers of the yields with a side (or sample) wrapped in a residual call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Yield) and node.value is not None:
            sides = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
            if any(isinstance(side, ast.Call) and ast.unparse(side.func) in RESIDUAL_CALLS
                   for side in sides):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("snippet", [
    "def body(): yield abs(lhs - rhs)",
    "def body(): yield float(np.linalg.norm(lhs - rhs))",
    'def body(): yield "sub_result", np.linalg.norm(x)',
    "def body(): yield abs(x), 0.0",
])
def test_guard_sees_a_wrapped_sample(snippet):
    assert wrapped_samples(snippet) == [1]


def test_guard_passes_sides():
    source = "\n".join([
        "def body():",
        "    yield lhs, rhs",
        '    yield "sub_result", np.abs(s).max(), 0.0',
        "    yield np.linalg.norm(got - want) / scale, 0.0",
        "    yield from other()",
    ])
    assert wrapped_samples(source) == []


def test_no_check_body_forms_its_own_residual():
    assert wrapped_samples((SRC / "checks.py").read_text(encoding="utf-8")) == []
