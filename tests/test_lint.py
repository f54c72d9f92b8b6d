"""Static checks on the package source that need only the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "deepself"
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
