"""Code lines and public settable values of the modules of src/btflow.

A code line holds a token other than a comment and is not part of a
docstring, so blank lines, comments and docstring edits do not move the
count.  A settable value is a defaulted parameter of a public function or
method, or a defaulted field of a public dataclass (``init=False`` fields
excluded); public means a module-level name, or a method name, without a
leading underscore.  A CLI config key is one that ``cli.py`` reads through
``_require`` with a literal key.  Prints one line per module, the total code
lines, the settable-value count and the CLI config keys; with ``--base REV``
also the totals at git revision REV, the changes against them, and the
settable values and CLI config keys added or removed.

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
CLI = "cli.py"
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


def _dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _defaulted(fn) -> list[str]:
    """Names of the parameters of fn that have a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults) :]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _init_false(value) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False for k in value.keywords
    )


def settable_values(source: str, module: str) -> list[str]:
    """Public settable values of one module, as ``module.function(param)`` or ``module.Class.field``."""
    found = []
    for node in ast.parse(source).body:
        public = not getattr(node, "name", "_").startswith("_")
        if public and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{module}.{node.name}({p})" for p in _defaulted(node)]
        elif public and isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    found += [f"{module}.{node.name}.{item.name}({p})" for p in _defaulted(item)]
                elif (
                    _dataclass(node)
                    and isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.value is not None
                    and not _init_false(item.value)
                ):
                    found.append(f"{module}.{node.name}.{item.target.id}")
    return found


def config_keys(source: str) -> list[str]:
    """The sorted literal keys that ``_require`` calls in source read."""
    return sorted(
        {
            node.args[1].value
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_require"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        }
    )


def _changes(label: str, base: list[str], now: list[str]):
    """Print the entries of now that base lacks, and those of base that now lacks, under label."""
    for name in sorted(set(base) - set(now)):
        print(f"  - {label}{name}")
    for name in sorted(set(now) - set(base)):
        print(f"  + {label}{name}")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare the total with")
    args = parser.parse_args(argv)
    total, knobs = 0, []
    for path in sorted(Path(PACKAGE).glob("*.py")):
        source = path.read_text()
        count = code_lines(source)
        total += count
        knobs += settable_values(source, path.stem)
        print(f"{count:6d} {path}")
    print(f"{total:6d} code lines in {PACKAGE}")
    print(f"{len(knobs):6d} public settable values in {PACKAGE}")
    keys = config_keys(Path(PACKAGE, CLI).read_text())
    print(f"{len(keys):6d} CLI config keys: {', '.join(keys)}")
    if args.base:
        paths = [p for p in _git("ls-tree", "--name-only", f"{args.base}:{PACKAGE}").split() if p.endswith(".py")]
        sources = {p: _git("show", f"{args.base}:{PACKAGE}/{p}") for p in paths}
        base = sum(code_lines(source) for source in sources.values())
        base_knobs = [k for p, source in sources.items() for k in settable_values(source, p[: -len(".py")])]
        print(f"{base:6d} code lines at {args.base}; change {total - base:+d}")
        print(f"{len(base_knobs):6d} public settable values at {args.base}; change {len(knobs) - len(base_knobs):+d}")
        _changes("", base_knobs, knobs)
        base_keys = config_keys(sources[CLI])
        print(f"{len(base_keys):6d} CLI config keys at {args.base}; change {len(keys) - len(base_keys):+d}")
        _changes("config key ", base_keys, keys)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
