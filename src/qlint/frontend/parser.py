"""Parsing of Python source: `ast.parse` plus the facts read off the whole file."""

import _ast

from .nodes import ModuleAst, walk


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

    The tree comes from the `compile` call that `ast.parse` makes, without
    importing `ast`. A file that is not syntactically valid Python raises
    ParseError.
    """
    try:
        tree = compile(source, file, "exec", _ast.PyCF_ONLY_AST, dont_inherit=True)
    except SyntaxError as exc:
        raise ParseError(file, exc.lineno or 1, exc.msg or "invalid syntax") from exc
    except ValueError as exc:  # Python 3.10 rejects a NUL byte this way
        raise ParseError(file, 1, str(exc)) from exc
    wide_lines = None
    if not source.isascii():
        lines = enumerate(source_lines(source), 1)
        wide_lines = {n: line.encode() for n, line in lines if not line.isascii()}
    return ModuleAst(file, tree.body, _rebound_names(tree, source), wide_lines)


def _rebound_names(tree: _ast.Module, source: str) -> frozenset[str]:
    """Names bound by `:=` or declared `global`/`nonlocal` anywhere in the file.

    The tree is walked only when the source text can hold one of them.
    """
    if ":=" not in source and "global" not in source and "nonlocal" not in source:
        return frozenset()
    rebound = set()
    for node in walk(tree):
        cls = type(node)
        if cls is _ast.NamedExpr:
            rebound.add(node.target.id)
        elif cls is _ast.Global or cls is _ast.Nonlocal:
            rebound.update(node.names)
    return frozenset(rebound)
