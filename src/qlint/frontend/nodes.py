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
    """A statement or expression: its span, and a uid unique within its tree."""

    __slots__ = ("span", "uid")


# --- expressions ---


class IntLit(Node):
    __slots__ = ("value",)
    def __init__(self, value: int, *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.value = span, uid, value


class FloatLit(Node):
    __slots__ = ("value",)
    def __init__(self, value: float, *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.value = span, uid, value


class StrLit(Node):
    __slots__ = ("value",)
    def __init__(self, value: str, *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.value = span, uid, value


class BoolLit(Node):
    __slots__ = ("value",)
    def __init__(self, value: bool, *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.value = span, uid, value


class NoneLit(Node):
    __slots__ = ()
    def __init__(self, *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid = span, uid


class Name(Node):
    __slots__ = ("ident",)
    def __init__(self, ident: str, *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.ident = span, uid, ident


class Attribute(Node):
    __slots__ = ("value", "attr")
    def __init__(self, value: Expr, attr: str, *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.value, self.attr = span, uid, value, attr


class Subscript(Node):
    __slots__ = ("value", "index")
    def __init__(self, value: Expr, index: Expr, *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.value, self.index = span, uid, value, index


class Keyword(Record):
    __slots__ = ("name", "value")
    def __init__(self, name: str | None, value: Expr) -> None:
        self.name = name  # None for an unpacked `*args` or `**kwargs` value
        self.value = value


class Call(Node):
    __slots__ = ("func", "args", "keywords", "has_star_args")
    def __init__(
        self, func: Expr, args: list[Expr], keywords: list[Keyword], has_star_args: bool = False,
        *, span: SourceSpan, uid: int = -1,
    ) -> None:
        self.span, self.uid, self.func, self.args = span, uid, func, args
        self.keywords, self.has_star_args = keywords, has_star_args


class ListExpr(Node):
    __slots__ = ("elements",)
    def __init__(self, elements: list[Expr], *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.elements = span, uid, elements


class TupleExpr(Node):
    __slots__ = ("elements",)
    def __init__(self, elements: list[Expr], *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.elements = span, uid, elements


class BinOp(Node):
    __slots__ = ("left", "op", "right")
    def __init__(
        self, left: Expr, op: str, right: Expr, *, span: SourceSpan, uid: int = -1
    ) -> None:
        self.span, self.uid, self.left, self.op, self.right = span, uid, left, op, right


class UnaryOp(Node):
    __slots__ = ("op", "operand")
    def __init__(self, op: str, operand: Expr, *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.op, self.operand = span, uid, op, operand


class OpaqueExpr(Node):
    """Expression outside the subset; keeps the names it mentions."""

    __slots__ = ("names",)
    def __init__(
        self, names: frozenset[str] = frozenset(), *, span: SourceSpan, uid: int = -1
    ) -> None:
        self.span, self.uid, self.names = span, uid, names


Expr = (
    IntLit
    | FloatLit
    | StrLit
    | BoolLit
    | NoneLit
    | Name
    | Attribute
    | Subscript
    | Call
    | ListExpr
    | TupleExpr
    | BinOp
    | UnaryOp
    | OpaqueExpr
)


# --- statements ---


class Assign(Node):
    __slots__ = ("targets", "value")
    def __init__(
        self, targets: list[Expr], value: Expr, *, span: SourceSpan, uid: int = -1
    ) -> None:
        self.span, self.uid, self.targets, self.value = span, uid, targets, value


class ExprStmt(Node):
    __slots__ = ("value",)
    def __init__(self, value: Expr, *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.value = span, uid, value


class ForRange(Node):
    __slots__ = ("var", "range_args", "body")
    def __init__(
        self, var: str, range_args: list[Expr], body: list[Stmt],
        *, span: SourceSpan, uid: int = -1,
    ) -> None:
        self.span, self.uid, self.var = span, uid, var
        self.range_args, self.body = range_args, body


class If(Node):
    __slots__ = ("test", "body", "orelse")
    def __init__(
        self, test: Expr, body: list[Stmt], orelse: list[Stmt],
        *, span: SourceSpan, uid: int = -1,
    ) -> None:
        self.span, self.uid, self.test = span, uid, test
        self.body, self.orelse = body, orelse


class FunctionDef(Node):
    __slots__ = ("name", "params", "body", "method_receivers")
    def __init__(
        self, name: str, params: list[str], body: list[Stmt],
        method_receivers: frozenset[str] = frozenset(), *, span: SourceSpan, uid: int = -1,
    ) -> None:
        self.span, self.uid, self.name, self.params, self.body = span, uid, name, params, body
        # Names the body calls `to_gate`, `to_instruction` or `assign_parameters` on.
        self.method_receivers = method_receivers


class Return(Node):
    __slots__ = ("value",)
    def __init__(self, value: Expr | None, *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.value = span, uid, value


class NoOp(Node):
    """Statement with no analysis effect (pass, import, break, continue)."""

    __slots__ = ("kind",)
    def __init__(self, kind: str = "pass", *, span: SourceSpan, uid: int = -1) -> None:
        self.span, self.uid, self.kind = span, uid, kind


class Opaque(Node):
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

    __slots__ = ("file", "statements", "last_uid", "non_unrollable", "constants",
                 "rebound_names", "method_receivers")

    def __init__(
        self, file: str, statements: list[Stmt], last_uid: int = 0,
        non_unrollable: list[int] | None = None, constants: ConstEnv | None = None,
        rebound_names: frozenset[str] = frozenset(),
        method_receivers: frozenset[str] = frozenset(),
    ) -> None:
        self.file = file
        self.statements = statements
        self.last_uid = last_uid  # largest node uid; unrolling numbers its copies after it
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
    elif isinstance(expr, (ListExpr, TupleExpr)):
        for e in expr.elements:
            _collect_names(e, out)
    elif isinstance(expr, BinOp):
        _collect_names(expr.left, out)
        _collect_names(expr.right, out)
    elif isinstance(expr, UnaryOp):
        _collect_names(expr.operand, out)
