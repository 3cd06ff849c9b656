"""Count the code lines of every module of the ``scbn`` package.

usage: python tools/code_lines.py [ROOT]

Prints, for the source tree at ROOT (default: the tree holding this
script), one ``<count>  <file>`` line per module of ``ROOT/src/scbn`` in
file-name order, then ``<total>  total``.  A line counts when it holds a
token outside comments and docstrings: blank lines, comment lines and the
lines of a module, class or function docstring do not.  Counts of two
trees compare the size of their code, whatever their comments.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that are layout, not code
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring of the module."""
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
    """The number of lines of ``source`` holding a token outside comments
    and docstrings."""
    docs = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    total = 0
    for path in sorted((root / "src" / "scbn").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count}  {path.name}")
    print(f"{total}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
