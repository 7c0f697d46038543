"""Every name a package module exports, and every method of a package
class, must have a caller: code in the package or in bench/ that refers to
it outside its own definition.  Every annotated field of a package class
must be read as an attribute there.  Tests alone do not keep a name
alive."""

import ast
from pathlib import Path

import pytest

import digitcover

PACKAGE = Path(digitcover.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
SOURCES = sorted(PACKAGE.rglob("*.py")) + sorted(BENCH.glob("*.py"))
MODULES = sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py"))

# Exported for reference and tests only:
REFERENCE_ONLY = {
    # the itemized walk that tests compare first_failure against
    "substitution_report",
    # the sampled property-(*) check of a construction; it keeps its
    # SampleReport result type referenced
    "verify_property_star_sample",
    # the reference table of primes that serve more than one digit offset
    "REPEATED_PRIME_DIGITS",
}

# Fields that the package writes but never reads, each with its reason:
UNREAD_FIELDS = {
    # says how a composite verdict's witness is checked: a divisor divides
    # n, a Miller-Rabin base exposes n
    "PrimalityVerdict.witness_kind",
}


def exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def references(tree: ast.AST, own_definition: str = "") -> set[str]:
    """Names read, attributes accessed and names imported in tree, outside
    the function or class called own_definition."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name == own_definition
        ):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def methods(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, method) for every non-dunder method of a top-level class."""
    return [
        (node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
    ]


def fields(tree: ast.Module) -> list[str]:
    """"class.field" for every annotated field of a top-level class."""
    return [
        f"{node.name}.{item.target.id}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def attributes_read(tree: ast.AST) -> set[str]:
    """Attribute names loaded in tree, augmented assignments included."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            found.add(node.target.attr)
    return found


TREES = {path: ast.parse(path.read_text()) for path in SOURCES}


def test_bench_scripts_are_scanned():
    assert any(path.parent == BENCH for path in TREES)


@pytest.mark.parametrize("module", MODULES)
def test_every_export_has_a_caller(module):
    path = PACKAGE / module
    dead = [
        name
        for name in exported(TREES[path])
        if name not in REFERENCE_ONLY
        and not any(
            name in references(tree, name if other == path else "")
            for other, tree in TREES.items()
        )
    ]
    assert not dead, f"{module} exports names only tests call: {dead}"


def test_reference_only_names_are_exported():
    names = {name for tree in TREES.values() for name in exported(tree)}
    assert REFERENCE_ONLY <= names


@pytest.mark.parametrize("module", MODULES)
def test_every_method_has_a_caller(module):
    path = PACKAGE / module
    dead = [
        f"{cls}.{name}"
        for cls, name in methods(TREES[path])
        if not any(
            name in references(tree, name if other == path else "")
            for other, tree in TREES.items()
        )
    ]
    assert not dead, f"{module} defines methods only tests call: {dead}"


@pytest.mark.parametrize("module", MODULES)
def test_every_field_is_read(module):
    read = set().union(*(attributes_read(tree) for tree in TREES.values()))
    unread = [
        field
        for field in fields(TREES[PACKAGE / module])
        if field.split(".")[1] not in read and field not in UNREAD_FIELDS
    ]
    assert not unread, f"{module} defines fields nothing reads: {unread}"


def test_unread_fields_exist():
    assert UNREAD_FIELDS <= {field for tree in TREES.values() for field in fields(tree)}
