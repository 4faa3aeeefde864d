"""Restricted AST over the supported Python/Qiskit subset.

Constructs outside the subset are preserved as opaque nodes that remember
the identifiers they mention, so later stages can stay conservative instead
of silently dropping program behavior.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple, TypeVar

if TYPE_CHECKING:
    from .constprop import ConstEnv

_R = TypeVar("_R", bound="Record")


class SourceSpan(NamedTuple):
    """Immutable location in a file; 1-based line/column, end column exclusive."""

    file: str
    line: int
    column: int
    end_line: int
    end_column: int

    def anchor(self) -> tuple[str, int, int]:
        return (self.file, self.line, self.column)


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


class Node(Record):
    """An expression or a statement, with its span."""

    __slots__ = ("span",)


class StmtNode(Node):
    """A statement; `uid` is its number in an unrolled tree (-1 as parsed)."""

    __slots__ = ("uid",)


# --- expressions ---


class IntLit(Node):
    """An integer, written in the source or folded from a known expression."""

    __slots__ = ("value",)
    def __init__(self, value: int, *, span: SourceSpan) -> None:
        self.span, self.value = span, value


class Literal(Node):
    """A float, string, bool or None constant."""

    __slots__ = ("value",)
    def __init__(self, value: float | str | bool | None, *, span: SourceSpan) -> None:
        self.span, self.value = span, value


class Name(Node):
    __slots__ = ("ident",)
    def __init__(self, ident: str, *, span: SourceSpan) -> None:
        self.span, self.ident = span, ident


class Attribute(Node):
    __slots__ = ("value", "attr")
    def __init__(self, value: Expr, attr: str, *, span: SourceSpan) -> None:
        self.span, self.value, self.attr = span, value, attr


class Subscript(Node):
    __slots__ = ("value", "index")
    def __init__(self, value: Expr, index: Expr, *, span: SourceSpan) -> None:
        self.span, self.value, self.index = span, value, index


class Keyword(Record):
    __slots__ = ("name", "value")
    def __init__(self, name: str | None, value: Expr) -> None:
        self.name = name  # None for an unpacked `*args` or `**kwargs` value
        self.value = value


class Call(Node):
    __slots__ = ("func", "args", "keywords", "has_star_args")
    def __init__(
        self, func: Expr, args: list[Expr], keywords: list[Keyword], has_star_args: bool = False,
        *, span: SourceSpan,
    ) -> None:
        self.span, self.func, self.args = span, func, args
        self.keywords, self.has_star_args = keywords, has_star_args


class SeqExpr(Node):
    """A list or tuple display."""

    __slots__ = ("elements",)
    def __init__(self, elements: list[Expr], *, span: SourceSpan) -> None:
        self.span, self.elements = span, elements


class BinOp(Node):
    __slots__ = ("left", "op", "right")
    def __init__(self, left: Expr, op: str, right: Expr, *, span: SourceSpan) -> None:
        self.span, self.left, self.op, self.right = span, left, op, right


class UnaryOp(Node):
    __slots__ = ("op", "operand")
    def __init__(self, op: str, operand: Expr, *, span: SourceSpan) -> None:
        self.span, self.op, self.operand = span, op, operand


class OpaqueExpr(Node):
    """Expression outside the subset; keeps the names it mentions."""

    __slots__ = ("names",)
    def __init__(self, names: frozenset[str] = frozenset(), *, span: SourceSpan) -> None:
        self.span, self.names = span, names


Expr = (
    IntLit | Literal | Name | Attribute | Subscript | Call | SeqExpr | BinOp | UnaryOp | OpaqueExpr
)


# --- statements ---


class Assign(StmtNode):
    __slots__ = ("targets", "value")
    def __init__(
        self, targets: list[Expr], value: Expr, *, span: SourceSpan, uid: int = -1
    ) -> None:
        self.span, self.uid, self.targets, self.value = span, uid, targets, value


class ExprStmt(StmtNode):
    __slots__ = ("value",)
    def __init__(self, value: Expr, *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.value = span, uid, value


class ForRange(StmtNode):
    __slots__ = ("var", "range_args", "body")
    def __init__(
        self, var: str, range_args: list[Expr], body: list[Stmt],
        *, span: SourceSpan, uid: int = -1,
    ) -> None:
        self.span, self.uid, self.var = span, uid, var
        self.range_args, self.body = range_args, body


class If(StmtNode):
    __slots__ = ("test", "body", "orelse")
    def __init__(
        self, test: Expr, body: list[Stmt], orelse: list[Stmt],
        *, span: SourceSpan, uid: int = -1,
    ) -> None:
        self.span, self.uid, self.test = span, uid, test
        self.body, self.orelse = body, orelse


class FunctionDef(StmtNode):
    __slots__ = ("name", "params", "body", "method_receivers")
    def __init__(
        self, name: str, params: list[str], body: list[Stmt],
        method_receivers: frozenset[str] = frozenset(), *, span: SourceSpan, uid: int = -1,
    ) -> None:
        self.span, self.uid, self.name, self.params, self.body = span, uid, name, params, body
        # Names the body calls `to_gate`, `to_instruction` or `assign_parameters` on.
        self.method_receivers = method_receivers


class Return(StmtNode):
    __slots__ = ("value",)
    def __init__(self, value: Expr | None, *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.value = span, uid, value


class NoOp(StmtNode):
    """Statement with no analysis effect (pass, import, break, continue)."""

    __slots__ = ("kind",)
    def __init__(self, kind: str = "pass", *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.kind = span, uid, kind


class Opaque(StmtNode):
    """Statement outside the subset; keeps the names it mentions."""

    __slots__ = ("names", "label")
    def __init__(
        self, names: frozenset[str] = frozenset(), label: str = "stmt",
        *, span: SourceSpan, uid: int = -1,
    ) -> None:
        self.span, self.uid, self.names, self.label = span, uid, names, label


Stmt = Assign | ExprStmt | ForRange | If | FunctionDef | Return | NoOp | Opaque


class ModuleAst(Record):
    """Parsed file: top-level statements plus bookkeeping set by unrolling."""

    __slots__ = ("file", "statements", "non_unrollable", "constants", "rebound_names",
                 "method_receivers")

    def __init__(
        self, file: str, statements: list[Stmt], non_unrollable: list[int] | None = None,
        constants: ConstEnv | None = None, rebound_names: frozenset[str] = frozenset(),
        method_receivers: frozenset[str] = frozenset(),
    ) -> None:
        self.file = file
        self.statements = statements
        self.non_unrollable = [] if non_unrollable is None else non_unrollable
        self.constants = constants
        # Names bound by `:=` or declared `global`/`nonlocal` anywhere in the file.
        self.rebound_names = rebound_names
        # Like FunctionDef.method_receivers, for the module's own statements.
        self.method_receivers = method_receivers


def expr_names(expr: Expr) -> set[str]:
    """All variable names mentioned anywhere inside an expression."""
    out: set[str] = set()
    _collect_names(expr, out)
    return out


def _collect_names(expr: Expr, out: set[str]) -> None:
    if isinstance(expr, Name):
        out.add(expr.ident)
    elif isinstance(expr, OpaqueExpr):
        out.update(expr.names)
    elif isinstance(expr, Attribute):
        _collect_names(expr.value, out)
    elif isinstance(expr, Subscript):
        _collect_names(expr.value, out)
        _collect_names(expr.index, out)
    elif isinstance(expr, Call):
        _collect_names(expr.func, out)
        for a in expr.args:
            _collect_names(a, out)
        for k in expr.keywords:
            _collect_names(k.value, out)
    elif isinstance(expr, SeqExpr):
        for e in expr.elements:
            _collect_names(e, out)
    elif isinstance(expr, BinOp):
        _collect_names(expr.left, out)
        _collect_names(expr.right, out)
    elif isinstance(expr, UnaryOp):
        _collect_names(expr.operand, out)
