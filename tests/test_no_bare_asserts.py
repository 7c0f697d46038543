"""Correctness checks in these modules must survive `python -O`, which
strips `assert` statements."""

import ast
from pathlib import Path

import pytest

import digitcover

PACKAGE = Path(digitcover.__file__).parent


@pytest.mark.parametrize("module", ["arith.py", "cyclotomic.py"])
def test_no_assert_statements(module):
    tree = ast.parse((PACKAGE / module).read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{module} has bare asserts at lines {lines}"
