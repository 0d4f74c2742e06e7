"""Count the code lines of a Python package: lines that hold code, not
counting blank lines, comments and docstrings.

Usage: python .github/code_lines.py [DIR]   (default: src/racelab)

Prints one line per module, then the total. A line counts once however
many statements it holds; a statement spread over several lines counts
each of them.
"""

import ast
import io
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers taken by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of lines of source that hold a code token outside a docstring."""
    doc = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


def main(root):
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            print(f"{name:<16} {count:>5}")
            total += count
    print(f"{'total':<16} {total:>5}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/racelab")
