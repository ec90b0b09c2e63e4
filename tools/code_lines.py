"""Count the lines of Python code under a directory.

A line counts when it holds a token other than a comment, a docstring or
layout (newlines, indentation, the end marker). A docstring here is any
statement made only of string literals, wherever it stands. A token that
spans several lines, such as a triple-quoted string argument, counts on each
of them.

Usage: python tools/code_lines.py DIR

Prints the count of each .py file under DIR, sorted by path, then the total.
Uses only the standard library.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
# f-strings are one STRING token before Python 3.12 and three kinds after
_STRING = {tokenize.STRING} | {getattr(tokenize, n) for n in
                               ("FSTRING_START", "FSTRING_MIDDLE", "FSTRING_END")
                               if hasattr(tokenize, n)}


def code_lines(path: Path) -> int:
    """The number of lines of `path` that hold a code token."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []

    def close() -> None:
        if statement and not all(t.type in _STRING for t in statement):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement.clear()

    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.ENCODING:
                continue
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                close()
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    close()
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: python tools/code_lines.py DIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root).as_posix()}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
