"""No code in the package chooses its mathematics by a group's name.

A group declares what sets it apart where it is built (its log map, its
invariant polynomials; whether eta vanishes follows from c and B), so no
module may compare a `.name` or a `group_name` with a string literal.
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
