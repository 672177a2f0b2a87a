"""Count the code lines of the stratopt package, module by module.

A code line is a physical line that holds at least one token other than a
comment or a docstring. Blank lines, comment lines and docstrings do not
count: the docstrings of modules, classes and functions, and any other
statement that is a bare string, such as an attribute docstring. A string
token spanning several lines counts each of them. Standard library only.

Usage: python tools/code_lines.py [DIRECTORY]

DIRECTORY defaults to src/stratopt next to this script's parent folder.
Prints one "count path" line per module, in name order, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)


def code_lines(source: str) -> int:
    """Number of lines of source that hold code, leaving out docstrings,
    comments and blank lines."""
    docstrings = {
        (node.lineno, node.col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "stratopt"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
