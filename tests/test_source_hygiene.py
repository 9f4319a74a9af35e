"""Static checks on the ll_lab sources that no linter makes here.

A deletion can leave an import, or a private helper, behind that nothing
reads any more.  These tests parse every module of ``src/ll_lab`` and
assert that each name a module imports is read somewhere in it
(``__init__.py`` is exempt: its imports are the package's public names),
that each module-level private name (``_name``) defined anywhere in the
package is read somewhere in the package, and that one module imports
``csv``.
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


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions (functions, classes, assignments)
    that no Name or Attribute node of any of the sources reads.  An import
    is not a read: an imported name that is never read is an unused import."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                targets = []
            for name in targets:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{where}: {name}" for name, where in defined.items() if name not in read)


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_checker_flags_an_unread_private_name():
    sources = {"a.py": "_LIMIT = 3\n\ndef _used():\n    return _LIMIT\n\n"
                       "def _orphan():\n    return 1\n\nclass _Spare:\n    pass\n",
               "b.py": "from .a import _orphan, _used\n\nVALUE = _used()\n"}
    assert _unread_private_names(sources) == ["a.py:6: _orphan", "a.py:9: _Spare"]


def _importers(module: str) -> list[str]:
    """The package modules that import the top-level module ``module``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = [alias.name for node in nodes if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
        if any(name.split(".")[0] == module for name in names):
            found.append(path.name)
    return found


def test_one_csv_writer():
    """Every CSV is written by the one ``write_table``, so one module
    imports ``csv``."""
    assert _importers("csv") == ["dynamics.py"]
