"""Print the size of each module of src/poroflow: its lines by ``wc -l``,
its code lines and its docstring lines, and the totals.

    python tools/code_size.py [package directory]

A code line is a line that holds a token that is neither a comment nor part
of a module, class or function docstring; a string token spanning several
lines holds each of them. A docstring line is a line of such a docstring.
Blank lines, comment-only lines and docstrings count in neither column, so
the two do not add up to the ``wc -l`` count.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def sizes(path: Path):
    """(wc -l lines, code lines, docstring lines) of one Python file."""
    source = path.read_text()
    docs = docstring_lines(source)
    code = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in _SKIPPED:
                code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code - docs), len(docs)


def main(argv) -> None:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "poroflow"
    rows = [(path.name, *sizes(path)) for path in sorted(root.glob("*.py"))]
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    print(f"{'module':<18}{'wc -l':>8}{'code':>8}{'docstring':>11}")
    for name, lines, code, docs in rows:
        print(f"{name:<18}{lines:>8}{code:>8}{docs:>11}")


if __name__ == "__main__":
    main(sys.argv)
