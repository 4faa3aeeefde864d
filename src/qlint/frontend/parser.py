"""Lowering of Python source into the restricted AST."""

from __future__ import annotations

import ast

from .nodes import (
    Assign,
    Attribute,
    BinOp,
    BoolLit,
    Call,
    Expr,
    ExprStmt,
    FloatLit,
    ForRange,
    FunctionDef,
    If,
    IntLit,
    Keyword,
    ListExpr,
    ModuleAst,
    Name,
    NoneLit,
    NoOp,
    Opaque,
    OpaqueExpr,
    Return,
    SourceSpan,
    Stmt,
    StrLit,
    Subscript,
    TupleExpr,
    UnaryOp,
)

_BIN_OPS: dict[type[ast.operator], str] = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.FloorDiv: "//",
    ast.Div: "/",
    ast.Mod: "%",
    ast.Pow: "**",
}


class ParseError(Exception):
    """Raised when a file cannot be parsed at all; callers skip the file."""

    def __init__(self, file: str, line: int, message: str) -> None:
        super().__init__(f"{file}:{line}: {message}")
        self.file = file
        self.line = line
        self.message = message


class _Builder:
    def __init__(self, file: str) -> None:
        self.file = file
        self.last_uid = 0
        self.rebound_names: set[str] = set()

    def span(self, node: ast.stmt | ast.expr) -> SourceSpan:
        # ast.parse sets all four positions on every statement and expression.
        return SourceSpan(
            self.file, node.lineno, node.col_offset + 1, node.end_lineno, node.end_col_offset + 1
        )

    # --- statements ---

    def stmts(self, body: list[ast.stmt]) -> list[Stmt]:
        return [self.stmt(s) for s in body]

    def stmt(self, node: ast.stmt) -> Stmt:
        span = self.span(node)
        uid = self.last_uid = self.last_uid + 1
        out = self._stmt(node, span)
        out.uid = uid
        return out

    def _stmt(self, node: ast.stmt, span: SourceSpan) -> Stmt:
        if isinstance(node, ast.Assign):
            targets = [self.expr(t) for t in node.targets]
            return Assign(targets, self.expr(node.value), span=span)
        if isinstance(node, ast.AnnAssign):
            if node.value is None:
                return NoOp("annotation", span=span)
            return Assign([self.expr(node.target)], self.expr(node.value), span=span)
        if isinstance(node, ast.AugAssign):
            target = self.expr(node.target)
            op = _BIN_OPS.get(type(node.op))
            if isinstance(target, Name) and op is not None:
                value = BinOp(self.expr(node.target), op, self.expr(node.value), span=span)
                value.uid = self.last_uid = self.last_uid + 1
                return Assign([target], value, span=span)
            return self._opaque(node, span, "augassign")
        if isinstance(node, ast.Expr):
            return ExprStmt(self.expr(node.value), span=span)
        if isinstance(node, ast.For):
            return self._for(node, span)
        if isinstance(node, ast.If):
            return If(
                self.expr(node.test),
                self.stmts(node.body),
                self.stmts(node.orelse),
                span=span,
            )
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [a.arg for a in node.args.args]
            params += [a.arg for a in node.args.posonlyargs]
            params += [a.arg for a in node.args.kwonlyargs]
            for outer in [node.args, *node.decorator_list]:
                self._names(outer)  # note walrus targets of defaults and decorators
            return FunctionDef(node.name, params, self.stmts(node.body), span=span)
        if isinstance(node, ast.Return):
            value = self.expr(node.value) if node.value is not None else None
            return Return(value, span=span)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return NoOp("import", span=span)
        if isinstance(node, ast.Pass):
            return NoOp("pass", span=span)
        if isinstance(node, ast.Break):
            return NoOp("break", span=span)
        if isinstance(node, ast.Continue):
            return NoOp("continue", span=span)
        label = type(node).__name__.lower()
        return self._opaque(node, span, label)

    def _for(self, node: ast.For, span: SourceSpan) -> Stmt:
        it = node.iter
        is_range = (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
            and not it.keywords
            and 1 <= len(it.args) <= 3
        )
        if not is_range or not isinstance(node.target, ast.Name) or node.orelse:
            return self._opaque(node, span, "for")
        args = [self.expr(a) for a in it.args]
        return ForRange(node.target.id, args, self.stmts(node.body), span=span)

    def _opaque(self, node: ast.AST, span: SourceSpan, label: str) -> Opaque:
        return Opaque(self._names(node), label, span=span)

    # --- expressions ---

    def expr(self, node: ast.expr) -> Expr:
        span = self.span(node)
        uid = self.last_uid = self.last_uid + 1
        out = self._expr(node, span)
        out.uid = uid
        return out

    def _expr(self, node: ast.expr, span: SourceSpan) -> Expr:
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, bool):
                return BoolLit(v, span=span)
            if isinstance(v, int):
                return IntLit(v, span=span)
            if isinstance(v, float):
                return FloatLit(v, span=span)
            if isinstance(v, str):
                return StrLit(v, span=span)
            if v is None:
                return NoneLit(span=span)
            return self._opaque_expr(node, span)
        if isinstance(node, ast.Name):
            return Name(node.id, span=span)
        if isinstance(node, ast.Attribute):
            return Attribute(self.expr(node.value), node.attr, span=span)
        if isinstance(node, ast.Subscript):
            if isinstance(node.slice, ast.Slice):
                return self._opaque_expr(node, span)
            return Subscript(self.expr(node.value), self.expr(node.slice), span=span)
        if isinstance(node, ast.Call):
            star = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            args = [
                self.expr(a) for a in node.args if not isinstance(a, ast.Starred)
            ]
            keywords = [
                Keyword(k.arg, self.expr(k.value))
                for k in node.keywords
                if k.arg is not None
            ]
            return Call(self.expr(node.func), args, keywords, star, span=span)
        if isinstance(node, (ast.List, ast.Tuple)):
            elements = [self.expr(e) for e in node.elts]
            cls = ListExpr if isinstance(node, ast.List) else TupleExpr
            return cls(elements, span=span)
        if isinstance(node, ast.BinOp):
            op = _BIN_OPS.get(type(node.op))
            if op is None:
                return self._opaque_expr(node, span)
            return BinOp(self.expr(node.left), op, self.expr(node.right), span=span)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return UnaryOp("-", self.expr(node.operand), span=span)
        return self._opaque_expr(node, span)

    def _opaque_expr(self, node: ast.AST, span: SourceSpan) -> OpaqueExpr:
        return OpaqueExpr(self._names(node), span=span)

    def _names(self, node: ast.AST) -> frozenset[str]:
        """Names an opaque node mentions; also notes the ones it may rebind."""
        names = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.NamedExpr):
                self.rebound_names.add(n.target.id)
            elif isinstance(n, (ast.Global, ast.Nonlocal)):
                self.rebound_names.update(n.names)
        return frozenset(names)


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
    """Parse source text into the restricted AST.

    Unsupported statements become opaque nodes carrying their span; a file
    that is not syntactically valid Python raises ParseError.
    """
    try:
        tree = ast.parse(source, filename=file)
    except SyntaxError as exc:
        raise ParseError(file, exc.lineno or 1, exc.msg or "invalid syntax") from exc
    builder = _Builder(file)
    statements = builder.stmts(tree.body)
    lines = source_lines(source) or [""]
    span = SourceSpan(file, 1, 1, len(lines), len(lines[-1]) + 1)
    rebound = frozenset(builder.rebound_names)
    return ModuleAst(file, statements, span, last_uid=builder.last_uid, rebound_names=rebound)
