"""Malformed input of every kind is a ValueError whose message names what
is wrong, and the CLI reports all of them, and OSError, in one place, as
`error: <message>` with exit code 2."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import digitcover
from digitcover import cli

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
