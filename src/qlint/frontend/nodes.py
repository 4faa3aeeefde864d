"""Restricted AST over the supported Python/Qiskit subset.

Statements are qlint's own records, which `unroll_loops` builds from the
parsed `ast.stmt`s. Expressions are the `ast.expr` objects that `ast.parse`
returned; `form` decides which of them the subset models, and every stage
reads them through it. Statements and expressions outside the subset stay
opaque: later stages take the names they mention as possibly used in any
way, instead of silently dropping program behavior.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, NamedTuple, TypeVar

_R = TypeVar("_R", bound="Record")
MODULE_SCOPE = "<module>"  # the scope of a file's top-level statements


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
    `keyword_values`); anywhere else an `ast.Starred` is opaque.
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

    Stages evaluate them in this order, after `positional_args`.
    """
    values = [a.value for a in call.args if type(a) is ast.Starred]
    values += [k.value for k in call.keywords]
    return values


def arguments(call: ast.Call) -> list[ast.expr]:
    """`positional_args`, then `keyword_values`: every argument value, in evaluation order."""
    if call.keywords or ast.Starred in map(type, call.args):
        return [*positional_args(call), *keyword_values(call)]
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


def int_value(expr: ast.expr) -> int | None:
    """The value of an integer constant (not a bool), else None.

    Unrolling folds every integer whose value it knows into such a constant.
    """
    if type(expr) is ast.Constant and type(expr.value) is int:
        return expr.value
    return None


def replacing(old: ast.AST, new: ast.AST) -> ast.AST:
    """`new`, given the source position of `old`, which it stands in for."""
    new.lineno, new.col_offset = old.lineno, old.col_offset
    new.end_lineno, new.end_col_offset = old.end_lineno, old.end_col_offset
    return new


def names(node: ast.AST) -> frozenset[str]:
    """Every variable name mentioned anywhere inside `node`."""
    return frozenset(n.id for n in ast.walk(node) if type(n) is ast.Name)


# --- statements ---


class Node(Record):
    """A statement and its span; `uid` is its number in the unrolled tree, from 1."""

    __slots__ = ("span", "uid")


class Assign(Node):
    __slots__ = ("targets", "value")
    def __init__(
        self, targets: list[ast.expr], value: ast.expr, *, span: SourceSpan, uid: int
    ) -> None:
        self.span, self.uid, self.targets, self.value = span, uid, targets, value


class ExprStmt(Node):
    __slots__ = ("value",)
    def __init__(self, value: ast.expr, *, span: SourceSpan, uid: int) -> None:
        self.span, self.uid, self.value = span, uid, value


class ForRange(Node):
    """A kept `for ... in range(...)` loop; expanded loops leave no record."""

    __slots__ = ("range_args", "body")
    def __init__(
        self, range_args: list[ast.expr], body: list[Stmt], *, span: SourceSpan, uid: int
    ) -> None:
        self.span, self.uid, self.range_args, self.body = span, uid, range_args, body


class If(Node):
    __slots__ = ("test", "body", "orelse")
    def __init__(
        self, test: ast.expr, body: list[Stmt], orelse: list[Stmt],
        *, span: SourceSpan, uid: int,
    ) -> None:
        self.span, self.uid, self.test = span, uid, test
        self.body, self.orelse = body, orelse


class FunctionDef(Node):
    __slots__ = ("name", "params", "body", "method_receivers")
    def __init__(
        self, name: str, params: list[str], body: list[Stmt],
        method_receivers: frozenset[str] = frozenset(), *, span: SourceSpan, uid: int,
    ) -> None:
        self.span, self.uid, self.name, self.params, self.body = span, uid, name, params, body
        # Names the body calls `to_gate`, `to_instruction` or `assign_parameters` on.
        self.method_receivers = method_receivers


class Return(Node):
    __slots__ = ("value",)
    def __init__(self, value: ast.expr | None, *, span: SourceSpan, uid: int) -> None:
        self.span, self.uid, self.value = span, uid, value


class Opaque(Node):
    """Statement outside the subset; keeps the names it mentions."""

    __slots__ = ("names",)
    def __init__(self, names: frozenset[str] = frozenset(), *, span: SourceSpan, uid: int) -> None:
        self.span, self.uid, self.names = span, uid, names


Stmt = Assign | ExprStmt | ForRange | If | FunctionDef | Return | Opaque


def tuple_assign_pairs(stmt: Assign) -> list[tuple[str, ast.expr]] | None:
    """(name, value expr) pairs of `a, b = x, y`, or None for other shapes."""
    if len(stmt.targets) != 1:
        return None
    target = stmt.targets[0]
    value = stmt.value
    if form(target) is not ast.Tuple or form(value) is not ast.Tuple:
        return None
    if len(target.elts) != len(value.elts):
        return None
    if not all(type(e) is ast.Name for e in target.elts):
        return None
    return [(t.id, v) for t, v in zip(target.elts, value.elts)]


def _agree(a: int | None, b: int | None) -> int | None:
    return a if a == b else None


def join_envs(
    a: dict[str, Any],
    b: dict[str, Any],
    join: Callable[[Any, Any], Any] = _agree,
    missing: Any = None,
) -> dict[str, Any]:
    """Join of two branch environments, name by name over both.

    A name bound on one side only meets `missing` from the other. The
    default keeps an integer only where both branches agree; the extractor
    passes its own binding join.
    """
    return {name: join(a.get(name, missing), b.get(name, missing)) for name in {**a, **b}}


class ModuleAst(Record):
    """A file: its top-level statements plus bookkeeping set by unrolling.

    `parse_file` leaves the `ast.stmt`s of the file in `statements`;
    `unroll_loops` replaces them with qlint's records.
    """

    __slots__ = ("file", "statements", "non_unrollable", "rebound_names", "method_receivers",
                 "wide_lines")

    def __init__(
        self, file: str, statements: list[ast.stmt] | list[Stmt],
        non_unrollable: list[int] | None = None, rebound_names: frozenset[str] = frozenset(),
        method_receivers: frozenset[str] = frozenset(), wide_lines: dict[int, bytes] | None = None,
    ) -> None:
        self.file = file
        self.statements = statements
        self.non_unrollable = [] if non_unrollable is None else non_unrollable
        # Names bound by `:=` or declared `global`/`nonlocal` anywhere in the file.
        self.rebound_names = rebound_names
        # Like FunctionDef.method_receivers, for the module's own statements.
        self.method_receivers = method_receivers
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
