"""The code-line counter in tools/ counts code and leaves out docstrings,
comments and blank lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
two lines."""

import math  # a trailing comment keeps the line

# a comment line
WIDTH = 3
"""An attribute docstring."""


class Box:
    """Class docstring."""

    side: float

    def area(self) -> float:
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return math.prod(
            (self.side, self.side)
        )
'''


def test_counts_code_lines_only():
    """Counted: import, WIDTH, class, side, def, the two-line string, and
    the three-line return."""
    assert code_lines.code_lines(SNIPPET) == 10


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "a.py").write_text('"""Doc."""\n# note\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["    0 a.py", "    2 b.py", "    2 total", ""]
