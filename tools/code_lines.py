"""Print the code lines of each module of `src/nhchain` and their total.

    python3 tools/code_lines.py                 # src/nhchain
    python3 tools/code_lines.py path/to/pkg     # any directory of .py files

A code line holds at least one token that is neither a comment nor part of
a docstring (the first statement of a module, class or function, when it
is a string).  Blank lines, comment lines and docstring lines do not
count; a string that spans lines counts on every line it spans.  The
measure follows what the code does, not how it is commented, so a change
that only rewraps prose leaves it as it is.
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token outside comments
    and docstrings."""
    docstrings = _docstring_lines(ast.parse(source))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in skip or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(directory: Path) -> dict[str, int]:
    """{file name: code lines} of the .py files directly in `directory`."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=Path, default=ROOT / "src" / "nhchain")
    args = parser.parse_args(argv)
    counts = count(args.directory)
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
