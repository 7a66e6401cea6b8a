"""Count lines of code: lines that hold code, not only docstrings, comments or blanks.

Usage (from the repository root):

    python3 tools/loc.py [package directory, default src/brickkit]

Prints each module's count, then the total. A docstring is a string
statement that opens a module, class or function body; every line of a
token that is not a comment spans counts, so each line of a multi-line
call or string literal is code.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of source hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/brickkit")
    total = 0
    for module in sorted(package.glob("*.py")):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{module.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
