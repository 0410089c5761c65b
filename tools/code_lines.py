"""Count the code lines of the package: the lines of src/lastlayer/*.py
that hold a token, leaving out blank lines, comments and docstrings.  A
docstring is the first statement of a module, class or function when that
statement is a string literal.  A string that spans lines counts each of
its lines.

Usage: python tools/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_spans(tree: ast.Module) -> dict:
    """Start position of each docstring mapped to its end position."""
    spans = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans[(first.lineno, first.col_offset)] = (first.end_lineno, first.end_col_offset)
    return spans


def code_lines(source: str) -> int:
    spans = docstring_spans(ast.parse(source))
    lines, docstring_end = set(), (0, 0)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        docstring_end = spans.get(tok.start, docstring_end)
        if tok.type not in SKIP and tok.start >= docstring_end:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    package = Path(__file__).resolve().parent.parent / "src" / "lastlayer"
    print(sum(code_lines(path.read_text()) for path in sorted(package.glob("*.py"))))


if __name__ == "__main__":
    main()
