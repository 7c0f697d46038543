"""Malformed input of every kind is a ValueError whose message names what
is wrong, and the CLI reports all of them, and OSError, in one place, as
`error: <message>` with exit code 2.  Covering files, order tables and
constructions share one set of field rules, and each error names the file,
the line and the field."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import digitcover
from digitcover import cli
from digitcover.bundle import parse_covering_file
from digitcover.construction import load_construction
from digitcover.cyclotomic import load_order_table

PACKAGE = Path(digitcover.__file__).parent


def test_package_defines_no_exception_class():
    defined = [
        f"{info.name}:{name}"
        for info in pkgutil.iter_modules([str(PACKAGE)])
        for name, obj in vars(importlib.import_module(f"digitcover.{info.name}")).items()
        if inspect.isclass(obj)
        and obj.__module__ == f"digitcover.{info.name}"
        and issubclass(obj, BaseException)
    ]
    assert defined == []


def test_main_has_one_except_clause():
    tree = ast.parse(inspect.getsource(cli.main))
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(h.type) for h in handlers] == ["(ValueError, OSError)"]


BAD_FIELDS = {
    # (loader, file text, line, message); order tables have no index and
    # no header, and their one-line-per-modulus rule stands in for one
    "covering-modulus-0": (parse_covering_file, "0 1\n0 0\n", 2, "modulus '0' must be positive"),
    "covering-index": (parse_covering_file, "0 1\n0 2 -3\n", 2, "index '-3' must be >= 1"),
    "covering-header": (
        parse_covering_file,
        "# digit 9\n0 2\n# digit 4\n1 2\n",
        3,
        "repeated '# digit' header, first on line 1",
    ),
    "order-modulus-0": (load_order_table, "6: 7, 13\n0: 7\n", 2, "modulus '0' must be positive"),
    "order-modulus-1e10": (
        load_order_table,
        "6: 7, 13\n10000000000: 7\n",
        2,
        "modulus '10000000000' must be below 10000000000",
    ),
    "order-repeated": (load_order_table, "6: 7\n# note\n6: 13\n", 3, "duplicate modulus 6"),
    "construction-modulus-0": (
        load_construction, "A=1\n7 0 0 9 1\n", 2, "modulus '0' must be positive"
    ),
    "construction-modulus-1e10": (
        load_construction,
        "A=1\n7 0 10000000000 9 1\n",
        2,
        "modulus '10000000000' must be below 10000000000",
    ),
    "construction-index": (load_construction, "A=1\n11 0 2 9 -3\n", 2, "rho '-3' must be >= 1"),
    "construction-header": (
        load_construction, "A=1\nB=2\nA=3\n", 3, "repeated 'A=' header, first on line 1"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_field_rules_name_the_file_line_and_field(tmp_path, case):
    loader, text, line, message = BAD_FIELDS[case]
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        loader(path)
    assert str(info.value) == f"{path}:{line}: {message}"
