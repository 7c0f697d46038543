"""Correctness checks in the package must survive `python -O`, which
strips `assert` statements."""

import ast
from pathlib import Path

import pytest

import digitcover

PACKAGE = Path(digitcover.__file__).parent
MODULES = sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    tree = ast.parse((PACKAGE / module).read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{module} has bare asserts at lines {lines}"
