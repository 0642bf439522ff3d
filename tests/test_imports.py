"""No module of the package imports a name it never uses.

Read with the standard library's ast alone: a name bound by an import
statement must appear as a name somewhere in the same module.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "tvbcox"


def unused_imports(source):
    """The names that the import statements of source bind and that no
    other node of source reads, with the line of each import."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_checker_finds_an_unused_import():
    source = "import os\nfrom itertools import chain, product\nimport a.b as c\n\nchain(os.sep)\n"
    assert unused_imports(source) == [(2, "product"), (3, "c")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
