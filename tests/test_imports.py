"""The package's imports, read from its source with `ast`.

solvrad has no runtime dependencies: every import in `src/solvrad` is
relative or from the standard library.  And every name a module imports is
used in it, so an import a change leaves behind shows here; `__init__.py`
imports to re-export, and is exempt from that check.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "solvrad"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree):
    """The module-level import statements, at any depth outside a def or a
    class: those inside an `if` or a `try` count too."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_the_package_has_modules():
    assert {"perm.py", "bsgs.py", "criteria.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    outside = []
    for node in _imports(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                continue
            roots = [node.module.split(".")[0]]
        else:
            roots = [alias.name.split(".")[0] for alias in node.names]
        outside += [r for r in roots if r not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    bound = set()
    for node in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            # `import a.b` binds a; `from m import x as y` binds y
            bound.add(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(bound - used) == []


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from functools import reduce\nfrom operator import or_\n"
                    "x = reduce(max, [1])\n")
    with pytest.raises(AssertionError):
        test_every_imported_name_is_used(path)
    path.write_text("import numpy\n")
    with pytest.raises(AssertionError):
        test_imports_are_relative_or_stdlib(path)
