"""Every name a package module imports is used in that module, and every
module-level private function is used in its own module.

`__init__.py` re-exports on purpose and is left out.  Parsed with `ast`, so
the check needs no linter.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "betawords"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def unused_private_functions(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {node.name: node.lineno for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(defined.items())
            if name not in used]


def test_sources_found():
    assert len(SOURCES) >= 6


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_private_functions(path):
    assert unused_private_functions(path.read_text()) == []


def test_check_catches_an_unused_private_function():
    source = ("def _used():\n    return 1\n\n\ndef _dead():\n    return 2\n\n\n"
              "def public():\n    return _used()\n")
    assert unused_private_functions(source) == ["_dead (line 5)"]


def test_check_catches_an_unused_import():
    assert unused_imports("import json\nimport re\nre.compile('x')\n") == [
        "json (line 1)"
    ]
