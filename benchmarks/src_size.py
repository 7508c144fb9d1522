"""Size of ``src/repro``: code lines and public names per package.

Code lines are non-blank source lines outside docstrings and comments; a
line counts when it carries any other token.  Public names are the entries
of the ``__all__`` lists of a package's modules, counted once per package
(a package ``__init__`` re-exporting its modules' names adds none).  The
top-level modules (``repro/__init__.py``, ``cli.py``, ``flags.py``) form the
``repro`` row.

Usage (from the repository root)::

    python benchmarks/src_size.py

prints a GitHub-flavored markdown table; the CI docs job appends it to the
job's step summary, so every change shows what it did to the size of
``src/``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: tokens that never make a line count as code
_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Non-blank lines of ``text`` outside docstrings and comments."""
    docstrings = _docstring_lines(ast.parse(text))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in _NON_CODE:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in docstrings:
                lines.add(line)
    return len(lines)


def public_names(text: str) -> set[str]:
    """The string entries of a module's top-level ``__all__``."""
    names: set[str] = set()
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            names.update(
                element.value for element in node.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
    return names


def package_sizes(src: Path = SRC) -> dict[str, tuple[int, int]]:
    """``{package: (code lines, public names)}`` for every package of ``src``."""
    lines: dict[str, int] = {}
    names: dict[str, set[str]] = {}
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src)
        package = relative.parts[0] if len(relative.parts) > 1 else src.name
        text = path.read_text(encoding="utf-8")
        lines[package] = lines.get(package, 0) + code_lines(text)
        names.setdefault(package, set()).update(public_names(text))
    return {
        package: (lines[package], len(names[package]))
        for package in sorted(lines)
    }


def render(sizes: dict[str, tuple[int, int]]) -> str:
    """Markdown table: one row per package plus a total row."""
    rows = [
        f"| {package} | {count} | {public} |"
        for package, (count, public) in sizes.items()
    ]
    rows.append(
        f"| total | {sum(count for count, _ in sizes.values())} "
        f"| {sum(public for _, public in sizes.values())} |"
    )
    lines = [
        "### `src/` size", "",
        "| package | code lines | public names |",
        "|---|---:|---:|",
        *rows,
    ]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(render(package_sizes()))
