"""Code lines of the modules of src/btflow.

A code line holds a token other than a comment and is not part of a
docstring, so blank lines, comments and docstring edits do not move the
count.  Prints one line per module and the total; with ``--base REV`` also
the total of the same modules at git revision REV and the change against it.

    python scripts/code_lines.py
    python scripts/code_lines.py --base origin/main
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

PACKAGE = "src/btflow"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of lines of source that hold code, docstrings excluded."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare the total with")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(Path(PACKAGE).glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} code lines in {PACKAGE}")
    if args.base:
        paths = [p for p in _git("ls-tree", "--name-only", f"{args.base}:{PACKAGE}").split() if p.endswith(".py")]
        base = sum(code_lines(_git("show", f"{args.base}:{PACKAGE}/{p}")) for p in paths)
        print(f"{base:6d} code lines at {args.base}; change {total - base:+d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
