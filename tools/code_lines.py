"""Count the code lines of each ``src/qvlms`` module.

A code line holds at least one token of code outside a docstring:
comments, blank lines and docstrings do not count, and a statement split
over several lines counts each of them. A docstring is the string
expression that opens a module, class or function body.

Run from the repository root::

    python tools/code_lines.py            # src/qvlms/*.py
    python tools/code_lines.py FILE ...   # the files given

It prints each module's count and the total. Only the standard library
is used.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that hold no code: layout, comments and the file's end.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], ...]]:
    """The (start, end) of every docstring in ``tree``, each position a
    (line, UTF-8 byte column) as ``ast`` gives it."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            spans.append(((first.lineno, first.col_offset),
                          (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``. A docstring's
    string tokens are skipped, not the lines they sit on, so code that
    shares a line with a docstring counts."""
    docs = docstring_spans(ast.parse(source))
    rows = io.StringIO(source).readlines()

    def at(row, col):
        # tokenize counts characters, ast counts UTF-8 bytes
        return row, len(rows[row - 1][:col].encode())

    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and any(
                start <= at(*tok.start) and at(*tok.end) <= end
                for start, end in docs)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    paths = [Path(p) for p in sys.argv[1:]]
    if not paths:
        paths = sorted((Path(__file__).resolve().parents[1] / "src" / "qvlms")
                       .glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
