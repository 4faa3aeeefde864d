"""Restricted AST over the supported Python/Qiskit subset.

Statements and expressions are the `ast` objects that the parser's
`compile` returned; `form` decides which expressions the subset models, and
the extractor reads them through it. Statements and expressions outside the
subset stay opaque: the extractor takes the names they mention as possibly
used in any way, instead of silently dropping program behavior. The node
classes are read from `_ast`, where `ast` takes them from, so importing qlint
does not run the `ast` module's own body.
"""

import _ast
from collections import _tuplegetter

MODULE_SCOPE = "<module>"  # the scope of a file's top-level statements


class TupleRecord(tuple):
    """Base of qlint's immutable records, with the API of a `namedtuple`.

    A subclass names its fields in `_fields` and passes them, in order, from
    its own `__new__` to `tuple.__new__`. Each field is read by a C-level
    getter; `repr`, `==`, `hash` and iteration are a tuple's. The records are
    written out rather than made by `typing.NamedTuple`, so importing qlint
    generates and compiles no code.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for index, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))
        cls.__match_args__ = cls._fields

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"

    def __getnewargs__(self) -> tuple:  # what `copy` and `pickle` pass to `__new__`
        return tuple(self)

    def _replace(self, **changes: object) -> "TupleRecord":
        new = tuple.__new__(type(self), map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return new

    def _asdict(self) -> dict[str, object]:
        return dict(zip(self._fields, self))


class SourceSpan(TupleRecord):
    """Immutable location in a file; 1-based line/column, end column exclusive."""

    __slots__ = ()
    _fields = ("file", "line", "column", "end_line", "end_column")

    def __new__(cls, file: str, line: int, column: int, end_line: int, end_column: int):
        return tuple.__new__(cls, (file, line, column, end_line, end_column))


_new_span = tuple.__new__  # `SourceSpan(...)` without its Python-level `__new__`


class Record:
    """Base of qlint's mutable records: field-wise `repr` and `==`.

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


# --- expressions ---

_BIN_OPS = frozenset({_ast.Add, _ast.Sub, _ast.Mult, _ast.FloorDiv, _ast.Div, _ast.Mod,
                      _ast.Pow})
_LITERAL_TYPES = frozenset({int, float, str, bool, type(None)})
# Classes modelled whatever they hold, and their forms.
_ALWAYS = {
    _ast.Name: _ast.Name,
    _ast.Attribute: _ast.Attribute,
    _ast.Call: _ast.Call,
    _ast.List: _ast.Tuple,
    _ast.Tuple: _ast.Tuple,
}


def form(node: _ast.expr) -> type[_ast.expr] | None:
    """The subset form of `node`: its `ast` class, or None when it is opaque.

    A list display answers `_ast.Tuple`, like a tuple. Opaque are: a
    subscript by a slice; a binary operator other than `+ - * // / % **`; a
    unary operator other than `-`; a constant other than an int, float,
    str, bool or None (complex, bytes, `...`); and every other class. In a
    call, a `*` value is read as an argument of its own (see
    `arguments`); anywhere else an `_ast.Starred` is opaque.
    """
    cls = type(node)
    got = _ALWAYS.get(cls)
    if got is not None:
        return got
    if cls is _ast.Constant:
        return cls if type(node.value) in _LITERAL_TYPES else None
    if cls is _ast.Subscript:
        return None if type(node.slice) is _ast.Slice else cls
    if cls is _ast.BinOp:
        return cls if type(node.op) in _BIN_OPS else None
    if cls is _ast.UnaryOp:
        return cls if type(node.op) is _ast.USub else None
    return None


def positional_args(call: _ast.Call) -> list[_ast.expr]:
    """The positional arguments of `call`, without its `*` values."""
    args = call.args
    if _ast.Starred in map(type, args):
        return [a for a in args if type(a) is not _ast.Starred]
    return args


def arguments(call: _ast.Call) -> list[_ast.expr]:
    """Every argument value of `call`, in Python's evaluation order.

    That is `call.args` in source order, each `*` value in its place, then
    the keyword and `**` values.
    """
    if call.keywords or _ast.Starred in map(type, call.args):
        values = [a.value if type(a) is _ast.Starred else a for a in call.args]
        return values + [k.value for k in call.keywords]
    return call.args


def has_star_args(call: _ast.Call) -> bool:
    """True when `call` unpacks a `*` or `**` value."""
    if _ast.Starred in map(type, call.args):
        return True
    return bool(call.keywords) and any(k.arg is None for k in call.keywords)


def walk(node: _ast.AST) -> list[_ast.AST]:
    """`node` and every node below it, in the order `ast.walk` yields them."""
    found = [node]
    for node in found:  # a list iterator also visits what is appended
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, _ast.AST):
                found.append(value)
            elif isinstance(value, list):
                found.extend(item for item in value if isinstance(item, _ast.AST))
    return found


def names(node: _ast.AST) -> frozenset[str]:
    """Every variable name mentioned anywhere inside `node`."""
    return frozenset(n.id for n in walk(node) if type(n) is _ast.Name)


# --- statements ---


def tuple_assign_pairs(
    targets: list[_ast.expr], value: _ast.expr
) -> list[tuple[str, _ast.expr]] | None:
    """(name, value expr) pairs of `a, b = x, y`, or None for other shapes."""
    if len(targets) != 1 or form(targets[0]) is not _ast.Tuple or form(value) is not _ast.Tuple:
        return None
    names = targets[0].elts
    if len(names) != len(value.elts) or any(type(e) is not _ast.Name for e in names):
        return None
    return [(t.id, v) for t, v in zip(names, value.elts)]


class ModuleAst(Record):
    """A file: its top-level `ast.stmt`s plus facts read off the whole file."""

    __slots__ = ("file", "statements", "rebound_names", "wide_lines")

    def __init__(
        self, file: str, statements: list[_ast.stmt], rebound_names: frozenset[str] = frozenset(),
        wide_lines: dict[int, bytes] | None = None,
    ) -> None:
        self.file = file
        self.statements = statements
        # Names bound by `:=` or declared `global`/`nonlocal` anywhere in the file.
        self.rebound_names = rebound_names
        # The UTF-8 text of each line that is not ASCII, by line number.
        self.wide_lines = {} if wide_lines is None else wide_lines

    def span(self, node: _ast.stmt | _ast.expr) -> SourceSpan:
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
