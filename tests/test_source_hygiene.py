"""Static checks on the ll_lab sources that no linter makes here.

A deletion can leave an import behind that nothing reads any more.  This
test parses every module of ``src/ll_lab`` and asserts that each name a
module imports is read somewhere in it.  ``__init__.py`` is exempt: its
imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ll_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no Name node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                            key=lambda item: item[1])
            if name not in read]


def test_modules_found():
    assert len(MODULES) >= 7, MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from typing import Optional, Sequence\n\n"
              "def f(x: Optional[int]) -> float:\n    return math.pi + os.sep\n")
    assert _unused_imports(source) == ["line 4: Sequence"]
