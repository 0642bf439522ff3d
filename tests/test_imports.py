"""No module of the package imports a name it never uses, or imports or
reads another module's underscore name.

Read with the standard library's ast alone: a name bound by an import
statement must appear as a name somewhere in the same module, and no
import statement names, and no attribute read off an imported name is, a
name that starts with an underscore and is not a dunder.  So another
module's internals, such as the Groebner engine's packed runs, are reached
through its public entries only.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "tvbcox"


def imported_names(tree):
    """The names the import statements of tree bind, with the line of each."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def unused_imports(source):
    """The names that the import statements of source bind and that no
    other node of source reads, with the line of each import."""
    tree = ast.parse(source)
    bound = imported_names(tree)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_names_used(source):
    """The underscore names of other modules that source imports (from m
    import _x) or reads off a name an import binds (m._x, m.C._x), with
    their lines."""
    tree = ast.parse(source)
    bound = imported_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if _private(alias.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_the_checker_finds_an_unused_import():
    source = "import os\nfrom itertools import chain, product\nimport a.b as c\n\nchain(os.sep)\n"
    assert unused_imports(source) == [(2, "product"), (3, "c")]


def test_the_checker_finds_another_modules_underscore_names():
    source = (
        "from .poly import _packed_run, buchberger\n"
        "from . import cox\n"
        "import os\n"
        "\n"
        "def f(x):\n"
        "    cox._permuted(os.__name__, buchberger, x._own, _packed_run)\n"
        "    return cox.Polynomial._operand\n"
    )
    # a dunder and an attribute of a name no import binds are not flagged
    assert private_names_used(source) == [
        (1, "_packed_run"), (6, "cox._permuted"), (7, "cox.Polynomial._operand")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_or_reads_another_modules_underscore_name(path):
    assert private_names_used(path.read_text(encoding="utf-8")) == []
