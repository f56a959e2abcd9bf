"""Print the two sizes of ``src/bykov`` that ROADMAP tracks: all its lines, and those without blank, comment and docstring lines.

Usage, from the repository root::

    python tools/src_lines.py

The first count is that of ``cat src/bykov/*.py | wc -l``.  The second
counts the lines that some token other than a comment or a line end
spans, less the lines of docstrings, which ``statement_coverage.py``
defines: statements that are a string constant alone, at any depth.
"""

from __future__ import annotations

import ast
import io
import tokenize

from statement_coverage import SOURCES, _is_docstring

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The lines of ``text`` that hold code: spanned by a token that is not a comment or a line end, and by no docstring."""
    docs = {n for node in ast.walk(ast.parse(text)) if _is_docstring(node) for n in range(node.lineno, node.end_lineno + 1)}
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    code = {n for tok in tokens if tok.type not in NOT_CODE for n in range(tok.start[0], tok.end[0] + 1)}
    return len(code - docs)


def main() -> None:
    texts = [path.read_text(encoding="utf-8") for path in SOURCES]
    lines = sum(text.count("\n") for text in texts)
    print(f"src/ lines: {lines}")
    print(f"src/ lines without blank, comment and docstring lines: {sum(map(code_lines, texts))}")


if __name__ == "__main__":
    main()
