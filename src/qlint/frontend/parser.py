"""Parsing of Python source: `ast.parse` plus the facts read off the whole file."""

from __future__ import annotations

import ast

from .nodes import CIRCUIT_METHODS, ModuleAst


class ParseError(Exception):
    """Raised when a file cannot be parsed at all; callers skip the file."""

    def __init__(self, file: str, line: int, message: str) -> None:
        super().__init__(f"{file}:{line}: {message}")
        self.file = file
        self.line = line
        self.message = message


def source_lines(source: str) -> list[str]:
    """Split source text into lines numbered as `ast` numbers them.

    Only \\n, \\r\\n and \\r end a line. `str.splitlines` also splits at form
    feeds and other separators, which would shift every later line.
    """
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def parse_file(source: str, file: str) -> ModuleAst:
    """Parse source text; the statements are the `ast.stmt`s of `ast.parse`.

    A file that is not syntactically valid Python raises ParseError.
    """
    try:
        tree = ast.parse(source, filename=file)
    except SyntaxError as exc:
        raise ParseError(file, exc.lineno or 1, exc.msg or "invalid syntax") from exc
    except ValueError as exc:  # Python 3.10 rejects a NUL byte this way
        raise ParseError(file, 1, str(exc)) from exc
    wide_lines = None
    if not source.isascii():
        lines = enumerate(source_lines(source), 1)
        wide_lines = {n: line.encode() for n, line in lines if not line.isascii()}
    rebound_names = _rebound_names(tree, source)
    calls_circuit_methods = any(method in source for method in CIRCUIT_METHODS)
    return ModuleAst(file, tree.body, rebound_names, calls_circuit_methods, wide_lines)


def _rebound_names(tree: ast.Module, source: str) -> frozenset[str]:
    """Names bound by `:=` or declared `global`/`nonlocal` anywhere in the file.

    Each search runs only when the source text can hold what it looks for.
    `global` and `nonlocal` are statements, so their search skips expressions.
    """
    rebound = set()
    if ":=" in source:
        rebound.update(n.target.id for n in ast.walk(tree) if type(n) is ast.NamedExpr)
    if "global" in source or "nonlocal" in source:
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            if type(node) is ast.Global or type(node) is ast.Nonlocal:
                rebound.update(node.names)
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                stack.extend(getattr(node, field, ()))
    return frozenset(rebound)
