"""Every name a package module exports, and every method of a package
class, must have a caller: code in the package or in bench/ that refers to
it outside its own definition.  Every annotated field of a package class
must be read as an attribute there.  Tests alone do not keep a name
alive.  A package module's private names stay its own: no other package
module imports them."""

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
    # the acceptance suite asserts it to show that the property-(*) sample
    # was not empty, so the check cannot pass vacuously
    "SampleReport.checked",
}

# Private names that one package module imports from another, each with its
# reason, as (importing module, name); none at present:
PRIVATE_IMPORTS: set[tuple[str, str]] = set()


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
    """Attribute names loaded in tree.  An augmented assignment such as
    x.f += 1 stores x.f, so it counts as a write, not a read."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def private_imports(tree: ast.AST) -> set[str]:
    """Underscore-prefixed names, dunders aside, that tree imports from a
    package module."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "digitcover")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    }


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


def test_augmented_assignment_is_a_write():
    assert attributes_read(ast.parse("x.f += 1")) == set()
    assert attributes_read(ast.parse("y = x.f")) == {"f"}


def test_unread_fields_exist():
    assert UNREAD_FIELDS <= {field for tree in TREES.values() for field in fields(tree)}


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_is_imported_across_modules(module):
    crossing = {
        name
        for name in private_imports(TREES[PACKAGE / module])
        if (module, name) not in PRIVATE_IMPORTS
    }
    assert not crossing, f"{module} imports another module's private names: {crossing}"


def test_private_import_exceptions_exist():
    assert PRIVATE_IMPORTS <= {
        (module, name) for module in MODULES for name in private_imports(TREES[PACKAGE / module])
    }
