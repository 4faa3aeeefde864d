"""Restricted AST over the supported Python/Qiskit subset.

Constructs outside the subset are preserved as opaque nodes that remember
the identifiers they mention, so later stages can stay conservative instead
of silently dropping program behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .constprop import ConstEnv


@dataclass(frozen=True)
class SourceSpan:
    """Location in the analyzed file; 1-based line/column, end column exclusive."""

    file: str
    line: int
    column: int
    end_line: int
    end_column: int

    def anchor(self) -> tuple[str, int, int]:
        return (self.file, self.line, self.column)


@dataclass(kw_only=True)
class Node:
    span: SourceSpan
    uid: int = -1


# --- expressions ---


@dataclass
class IntLit(Node):
    value: int


@dataclass
class FloatLit(Node):
    value: float


@dataclass
class StrLit(Node):
    value: str


@dataclass
class BoolLit(Node):
    value: bool


@dataclass
class NoneLit(Node):
    pass


@dataclass
class Name(Node):
    ident: str


@dataclass
class Attribute(Node):
    value: Expr
    attr: str


@dataclass
class Subscript(Node):
    value: Expr
    index: Expr


@dataclass
class Keyword:
    name: str | None  # None for **kwargs
    value: Expr


@dataclass
class Call(Node):
    func: Expr
    args: list[Expr]
    keywords: list[Keyword]
    has_star_args: bool = False


@dataclass
class ListExpr(Node):
    elements: list[Expr]


@dataclass
class TupleExpr(Node):
    elements: list[Expr]


@dataclass
class BinOp(Node):
    left: Expr
    op: str
    right: Expr


@dataclass
class UnaryOp(Node):
    op: str
    operand: Expr


@dataclass
class OpaqueExpr(Node):
    """Expression outside the subset; keeps the names it mentions."""

    names: frozenset[str] = frozenset()


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


@dataclass
class Assign(Node):
    targets: list[Expr]
    value: Expr


@dataclass
class ExprStmt(Node):
    value: Expr


@dataclass
class ForRange(Node):
    var: str
    range_args: list[Expr]
    body: list[Stmt]


@dataclass
class If(Node):
    test: Expr
    body: list[Stmt]
    orelse: list[Stmt]


@dataclass
class FunctionDef(Node):
    name: str
    params: list[str]
    body: list[Stmt]


@dataclass
class Return(Node):
    value: Expr | None


@dataclass
class NoOp(Node):
    """Statement with no analysis effect (pass, import, break, continue)."""

    kind: str = "pass"


@dataclass
class Opaque(Node):
    """Statement outside the subset; keeps the names it mentions."""

    names: frozenset[str] = frozenset()
    label: str = "stmt"


Stmt = Assign | ExprStmt | ForRange | If | FunctionDef | Return | NoOp | Opaque


@dataclass
class ModuleAst:
    """Parsed file: top-level statements plus bookkeeping set by unrolling."""

    file: str
    statements: list[Stmt]
    span: SourceSpan
    non_unrollable: list[int] = field(default_factory=list)
    constants: ConstEnv | None = None


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
