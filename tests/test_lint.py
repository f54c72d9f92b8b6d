"""Static checks on the package source that need only the standard library."""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "deepself"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")  # __init__ re-exports


def unused_module_imports(source: str) -> list[str]:
    """The names a module imports at module level and never reads, in import order.

    ``from __future__`` imports are compiler directives and bind no name.
    """
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from math import pi, tau\n\n\ndef f():\n    import sys\n    return np.e + tau\n")
    assert unused_module_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_unused_module_level_imports(path):
    assert unused_module_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """Every module a source imports anywhere, a relative one (``from .data``) by its own name."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    return imported


@pytest.mark.parametrize("module", ["config", "evaluation"])
def test_module_does_not_import_data(module):
    assert not imported_modules((SRC / f"{module}.py").read_text(encoding="utf-8")) & {"data", "deepself.data"}


def test_only_files_imports_csv():
    assert [path.stem for path in MODULES if "csv" in imported_modules(path.read_text(encoding="utf-8"))] == ["files"]


def unreferenced_definitions(sources: dict[str, str], defining) -> list[str]:
    """``source:name`` of each top-level function or class in the ``defining`` sources that no
    source names (as a name, an attribute or an import) outside its own definition."""
    trees = {source: ast.parse(text) for source, text in sources.items()}
    uses = defaultdict(list)  # name -> [(source, line)]
    for source, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append((source, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append((source, node.lineno))
            elif isinstance(node, ast.alias):
                uses[node.name.rpartition(".")[2]].append((source, node.lineno))
    return [f"{source}:{node.name}" for source in defining for node in trees[source].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and all(where == source and node.lineno <= line <= node.end_lineno for where, line in uses[node.name])]


def test_finds_unreferenced_definitions():
    sources = {"lib": ("import os\n\n\ndef used():\n    return os.sep\n\n\ndef recursive(n):\n"
                       "    return recursive(n - 1)\n\n\nclass Kept:\n    def method(self):\n        pass\n"),
               "user": "from lib import used\nimport lib\n\nlib.Kept().method()\n"}
    assert unreferenced_definitions(sources, ["lib"]) == ["lib:recursive"]


def test_every_top_level_definition_is_named_elsewhere():
    paths = [path for tree in ("src", "tests", "perfbench") for path in sorted((ROOT / tree).rglob("*.py"))]
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in paths}
    assert unreferenced_definitions(sources, [str(path.relative_to(ROOT)) for path in SRC.glob("*.py")]) == []
