"""Print the size of a Python package in two counts: ``wc -l`` and code lines.

A code line is a line that is not blank, not only a comment and not inside
a docstring.  Docstrings are found with ``ast`` (the first statement of a
module, class or function, when it is a string), comments and blank lines
with ``tokenize``, so a docstring neither adds to nor subtracts from the
count.  Usage, from the repository root:

    python tools/code_lines.py [DIR]    # DIR defaults to src/qwl
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The code lines of one Python file."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/qwl")
    files = sorted(root.rglob("*.py"))
    wc = sum(len(f.read_bytes().splitlines()) for f in files)
    code = sum(code_lines(f) for f in files)
    print(f"{root}: {wc} lines (wc -l), {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
