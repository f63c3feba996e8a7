"""Raw and code line counts of the package and its tests.

    python tools/code_lines.py

Prints, for ``src/`` and ``tests/`` of the tree this script sits in, the
number of raw lines and of code lines of their ``*.py`` files.  A code line
holds part of a statement.  Blank lines, comments and docstrings are not
code: a docstring here is any statement that is a lone string literal.  The
lines are read with ``tokenize``, so a line inside a multi-line string or
bracket that belongs to a statement counts, and a ``#`` inside a string is
not a comment.
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIRECTORIES = ("src", "tests")

# tokens that carry no statement: layout, comments and the stream's ends
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count_lines(text: str) -> tuple[int, int]:
    """(raw lines, code lines) of the Python source ``text``."""
    code, statement = set(), []
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in _LAYOUT:
            continue
        if token.type != tokenize.NEWLINE:
            statement.append(token)
            continue
        if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
            for part in statement:
                code.update(range(part.start[0], part.end[0] + 1))
        statement = []
    return len(text.splitlines()), len(code)


def count_tree(directory: Path) -> tuple[int, int]:
    """(raw lines, code lines) summed over the ``*.py`` files under
    ``directory``."""
    raw = code = 0
    for path in sorted(directory.rglob("*.py")):
        file_raw, file_code = count_lines(path.read_text())
        raw += file_raw
        code += file_code
    return raw, code


def main() -> None:
    for name in DIRECTORIES:
        raw, code = count_tree(ROOT / name)
        print(f"{name}: {raw} raw lines, {code} code lines")


if __name__ == "__main__":
    main()
