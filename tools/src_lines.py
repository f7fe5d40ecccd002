"""Count the lines of each module of ``src/amalgsep``.

For each module, and in total, prints its ``wc -l`` line count and a
``tokenize`` split of those lines into code, docstring, comment and blank
lines. A line holding any token outside a docstring counts as code; else a
line of the docstring of the module, a class or a function counts as
docstring; else a line with a comment counts as comment; every other line
is blank.

Usage: python3 tools/src_lines.py [SRC_DIR]   (default: src/amalgsep)
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of the docstrings of the module, its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def classify(path: Path) -> dict[str, int]:
    text = path.read_bytes()
    docs = docstring_lines(ast.parse(text))
    code: set[int] = set()
    comments: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.COMMENT:
                comments.add(tok.start[0])
            elif tok.type not in LAYOUT:
                code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                            if line not in docs)
    counts = dict.fromkeys(KINDS, 0)
    n_lines = len(text.splitlines())
    for line in range(1, n_lines + 1):
        kind = ("code" if line in code else "docstring" if line in docs
                else "comment" if line in comments else "blank")
        counts[kind] += 1
    return {"lines": n_lines, **counts}


def main(argv: list[str]) -> int:
    src = Path(argv[1] if len(argv) > 1 else "src/amalgsep")
    rows = [(path.name, classify(path)) for path in sorted(src.glob("*.py"))]
    total = {key: sum(row[key] for _, row in rows) for key in ("lines", *KINDS)}
    header = ("module", "lines", *KINDS)
    print(f"{header[0]:<14}" + "".join(f"{h:>10}" for h in header[1:]))
    for name, row in [*rows, ("total", total)]:
        print(f"{name:<14}" + "".join(f"{row[key]:>10}" for key in header[1:]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
