"""The core package stays standard-library only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "stratopt").glob("*.py"))


def test_core_imports_only_the_standard_library():
    """Every absolute import in src/stratopt names a standard-library
    module at its top level; relative imports stay inside the package."""
    assert SOURCES
    outside = []
    for path in SOURCES:
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
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
