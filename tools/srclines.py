"""Line counts of the wcreg sources.

    python3 tools/srclines.py [SRC]

prints the total and the code-only line counts of SRC/wcreg/*.py, with SRC
the `src/` next to this tool's directory by default.  A code-only line holds
a token other than a comment, a newline or an indent, and is not part of a
module, class or function docstring.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> tuple[int, int]:
    """(total lines, code-only lines) of one source file."""
    text = path.read_text()
    code = {line for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type not in _LAYOUT for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            code -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    files = sorted((src / "wcreg").glob("*.py"))
    if not files:
        print(f"no sources under {src / 'wcreg'}", file=sys.stderr)
        return 1
    total = code = 0
    for path in files:
        t, c = count(path)
        print(f"{path.name:16} {t:6,} {c:6,}")
        total, code = total + t, code + c
    print(f"{'src/ total':16} {total:6,} {code:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
