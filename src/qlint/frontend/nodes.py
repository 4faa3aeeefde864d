"""Restricted AST over the supported Python/Qiskit subset.

Statements and expressions are the `ast` objects that `ast.parse`
returned; `form` decides which expressions the subset models, and the
extractor reads them through it. Statements and expressions outside the
subset stay opaque: the extractor takes the names they mention as possibly
used in any way, instead of silently dropping program behavior.
"""

from __future__ import annotations

import ast
from typing import Any, NamedTuple, TypeVar

_R = TypeVar("_R", bound="Record")
MODULE_SCOPE = "<module>"  # the scope of a file's top-level statements
# Methods that only a circuit has: a call result later used as the receiver
# of one of them is taken to be a circuit.
CIRCUIT_METHODS = frozenset({"to_gate", "to_instruction", "assign_parameters"})


class SourceSpan(NamedTuple):
    """Immutable location in a file; 1-based line/column, end column exclusive."""

    file: str
    line: int
    column: int
    end_line: int
    end_column: int

    def anchor(self) -> tuple[str, int, int]:
        return (self.file, self.line, self.column)


_new_span = tuple.__new__  # `SourceSpan(...)` without its Python-level `__new__`


class Record:
    """Base of qlint's mutable records: field-wise `repr`, `==` and `_replace`.

    A subclass names its own fields in `__slots__` and sets them in a
    hand-written `__init__`; `_fields` collects them, base classes first.
    The records are written out rather than made by `@dataclass`, so
    importing qlint generates and compiles no code.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    def __repr__(self) -> str:
        """`Class(field=value, ...)` over `_fields`: the text `@dataclass` printed."""
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        """Same class and equal fields; like a dataclass, a record is unhashable."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self._fields
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]

    def _replace(self: _R, **changes: Any) -> _R:
        """A shallow copy with `changes` applied, like `dataclasses.replace`."""
        new = object.__new__(type(self))
        for name in self._fields:
            setattr(new, name, changes.pop(name) if name in changes else getattr(self, name))
        if changes:
            raise TypeError(f"{type(self).__name__} has no fields {sorted(changes)}")
        return new


# --- expressions ---

_BIN_OPS = frozenset({ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Div, ast.Mod, ast.Pow})
_LITERAL_TYPES = frozenset({int, float, str, bool, type(None)})
# Classes modelled whatever they hold, and their forms.
_ALWAYS = {
    ast.Name: ast.Name,
    ast.Attribute: ast.Attribute,
    ast.Call: ast.Call,
    ast.List: ast.Tuple,
    ast.Tuple: ast.Tuple,
}


def form(node: ast.expr) -> type[ast.expr] | None:
    """The subset form of `node`: its `ast` class, or None when it is opaque.

    A list display answers `ast.Tuple`, like a tuple. Opaque are: a
    subscript by a slice; a binary operator other than `+ - * // / % **`; a
    unary operator other than `-`; a constant other than an int, float,
    str, bool or None (complex, bytes, `...`); and every other class. In a
    call, a `*` value is read as an argument of its own (see
    `arguments`); anywhere else an `ast.Starred` is opaque.
    """
    cls = type(node)
    got = _ALWAYS.get(cls)
    if got is not None:
        return got
    if cls is ast.Constant:
        return cls if type(node.value) in _LITERAL_TYPES else None
    if cls is ast.Subscript:
        return None if type(node.slice) is ast.Slice else cls
    if cls is ast.BinOp:
        return cls if type(node.op) in _BIN_OPS else None
    if cls is ast.UnaryOp:
        return cls if type(node.op) is ast.USub else None
    return None


def positional_args(call: ast.Call) -> list[ast.expr]:
    """The positional arguments of `call`, without its `*` values."""
    args = call.args
    if ast.Starred in map(type, args):
        return [a for a in args if type(a) is not ast.Starred]
    return args


def keyword_values(call: ast.Call) -> list[ast.expr]:
    """The `*` values of `call`, then its keyword and `**` values.

    This is the order of the former `Call.keywords` list, not Python's
    evaluation order, which `arguments` gives.
    """
    values = [a.value for a in call.args if type(a) is ast.Starred]
    values += [k.value for k in call.keywords]
    return values


def arguments(call: ast.Call) -> list[ast.expr]:
    """Every argument value of `call`, in Python's evaluation order.

    That is `call.args` in source order, each `*` value in its place, then
    the keyword and `**` values.
    """
    if call.keywords or ast.Starred in map(type, call.args):
        values = [a.value if type(a) is ast.Starred else a for a in call.args]
        return values + [k.value for k in call.keywords]
    return call.args


def has_star_args(call: ast.Call) -> bool:
    """True when `call` unpacks a `*` or `**` value."""
    if ast.Starred in map(type, call.args):
        return True
    return bool(call.keywords) and any(k.arg is None for k in call.keywords)


def children(node: ast.expr) -> list[ast.expr]:
    """The sub-expressions the subset models `node` by; none for a leaf or opaque node."""
    f = form(node)
    if f is ast.Call:
        return [node.func, *arguments(node)]
    if f is ast.Attribute:
        return [node.value]
    if f is ast.Subscript:
        return [node.value, node.slice]
    if f is ast.Tuple:
        return node.elts
    if f is ast.BinOp:
        return [node.left, node.right]
    if f is ast.UnaryOp:
        return [node.operand]
    return []


def names(node: ast.AST) -> frozenset[str]:
    """Every variable name mentioned anywhere inside `node`."""
    return frozenset(n.id for n in ast.walk(node) if type(n) is ast.Name)


# --- statements ---


def tuple_assign_pairs(
    targets: list[ast.expr], value: ast.expr
) -> list[tuple[str, ast.expr]] | None:
    """(name, value expr) pairs of `a, b = x, y`, or None for other shapes."""
    if len(targets) != 1 or form(targets[0]) is not ast.Tuple or form(value) is not ast.Tuple:
        return None
    names = targets[0].elts
    if len(names) != len(value.elts) or any(type(e) is not ast.Name for e in names):
        return None
    return [(t.id, v) for t, v in zip(names, value.elts)]


class ModuleAst(Record):
    """A file: its top-level `ast.stmt`s plus facts read off the whole file."""

    __slots__ = ("file", "statements", "rebound_names", "calls_circuit_methods", "wide_lines")

    def __init__(
        self, file: str, statements: list[ast.stmt], rebound_names: frozenset[str] = frozenset(),
        calls_circuit_methods: bool = False, wide_lines: dict[int, bytes] | None = None,
    ) -> None:
        self.file = file
        self.statements = statements
        # Names bound by `:=` or declared `global`/`nonlocal` anywhere in the file.
        self.rebound_names = rebound_names
        # False when no CIRCUIT_METHODS name occurs in the source text.
        self.calls_circuit_methods = calls_circuit_methods
        # The UTF-8 text of each line that is not ASCII, by line number.
        self.wide_lines = {} if wide_lines is None else wide_lines

    def span(self, node: ast.stmt | ast.expr) -> SourceSpan:
        """Where `node` is in the file, its columns counted in characters.

        `ast` counts columns in UTF-8 bytes, which differ only on lines
        that are not ASCII.
        """
        line, column = node.lineno, node.col_offset
        end_line, end_column = node.end_lineno, node.end_col_offset
        wide = self.wide_lines
        if wide:
            if line in wide:
                column = len(wide[line][:column].decode())
            if end_line in wide:
                end_column = len(wide[end_line][:end_column].decode())
        return _new_span(SourceSpan, (self.file, line, column + 1, end_line, end_column + 1))
