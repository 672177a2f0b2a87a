"""The core package stays standard-library only, and the tests need only
pytest besides it."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "stratopt").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def outside_imports(paths, allowed=frozenset()):
    """(file, line, module) of every absolute import in paths whose top
    level is neither a standard-library module nor in allowed."""
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, node.lineno, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | allowed
            ]
    return outside


def test_core_imports_only_the_standard_library():
    """Every absolute import in src/stratopt names a standard-library
    module at its top level; relative imports stay inside the package."""
    assert SOURCES
    assert outside_imports(SOURCES) == []


def test_tests_import_only_pytest_and_the_project():
    """Every absolute import in tests/ names a standard-library module,
    pytest, stratopt or the tests' own helpers."""
    assert TESTS
    assert outside_imports(TESTS, frozenset({"pytest", "stratopt", "helpers"})) == []
