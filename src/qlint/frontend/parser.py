"""Lowering of Python source into the restricted AST."""

from __future__ import annotations

import ast

from .nodes import (
    Assign,
    Attribute,
    BinOp,
    Call,
    Expr,
    ExprStmt,
    ForRange,
    FunctionDef,
    If,
    IntLit,
    Keyword,
    Literal,
    ModuleAst,
    Name,
    NoOp,
    Opaque,
    OpaqueExpr,
    Return,
    SeqExpr,
    SourceSpan,
    Stmt,
    Subscript,
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
# Methods that only a circuit has: a call result later used as the receiver
# of one of them is taken to be a circuit.
_CIRCUIT_METHOD_MARKERS = frozenset({"to_gate", "to_instruction", "assign_parameters"})
# `if` statements nested deeper than this (an `elif` counts as one more level)
# are kept opaque, so a long `elif` chain cannot exhaust the Python stack.
MAX_IF_DEPTH = 100


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
        self.rebound_names: set[str] = set()
        self.method_receivers: set[str] = set()  # of the scope being lowered
        self.if_depth = 0

    def span(self, node: ast.stmt | ast.expr) -> SourceSpan:
        # ast.parse sets all four positions on every statement and expression.
        return SourceSpan(
            self.file, node.lineno, node.col_offset + 1, node.end_lineno, node.end_col_offset + 1
        )

    # --- statements ---

    def stmts(self, body: list[ast.stmt]) -> list[Stmt]:
        return [self.stmt(s) for s in body]

    def stmt(self, node: ast.stmt) -> Stmt:
        return _STMT.get(type(node), _Builder._other_stmt)(self, node, self.span(node))

    def _assign(self, node: ast.Assign, span: SourceSpan) -> Stmt:
        return Assign([self.expr(t) for t in node.targets], self.expr(node.value), span=span)

    def _ann_assign(self, node: ast.AnnAssign, span: SourceSpan) -> Stmt:
        if node.value is None:
            return NoOp("annotation", span=span)
        return Assign([self.expr(node.target)], self.expr(node.value), span=span)

    def _aug_assign(self, node: ast.AugAssign, span: SourceSpan) -> Stmt:
        op = _BIN_OPS.get(type(node.op))
        if not isinstance(node.target, ast.Name) or op is None:
            return self._opaque(node, span, "augassign")
        target = self.expr(node.target)
        value = BinOp(self.expr(node.target), op, self.expr(node.value), span=span)
        return Assign([target], value, span=span)

    def _expr_stmt(self, node: ast.Expr, span: SourceSpan) -> Stmt:
        return ExprStmt(self.expr(node.value), span=span)

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

    def _if(self, node: ast.If, span: SourceSpan) -> Stmt:
        if self.if_depth >= MAX_IF_DEPTH:
            return self._opaque(node, span, "if")
        self.if_depth += 1
        out = If(self.expr(node.test), self.stmts(node.body), self.stmts(node.orelse), span=span)
        self.if_depth -= 1
        return out

    def _function_def(self, node: ast.FunctionDef, span: SourceSpan) -> Stmt:
        a = node.args
        params = [p.arg for p in [*a.args, *a.posonlyargs, *a.kwonlyargs, a.vararg, a.kwarg] if p]
        for outer in filter(None, [a, node.returns, *node.decorator_list]):
            self._names(outer)  # note walrus targets of defaults, annotations and decorators
        outer_receivers, self.method_receivers = self.method_receivers, set()
        body = self.stmts(node.body)
        receivers, self.method_receivers = frozenset(self.method_receivers), outer_receivers
        return FunctionDef(node.name, params, body, receivers, span=span)

    def _return(self, node: ast.Return, span: SourceSpan) -> Stmt:
        value = self.expr(node.value) if node.value is not None else None
        return Return(value, span=span)

    def _no_op(self, node: ast.stmt, span: SourceSpan) -> Stmt:
        kind = type(node).__name__.lower()  # import, importfrom, pass, break, continue
        return NoOp("import" if kind == "importfrom" else kind, span=span)

    def _other_stmt(self, node: ast.stmt, span: SourceSpan) -> Stmt:
        return self._opaque(node, span, type(node).__name__.lower())

    def _opaque(self, node: ast.AST, span: SourceSpan, label: str) -> Opaque:
        return Opaque(self._names(node), label, span=span)

    # --- expressions ---

    def expr(self, node: ast.expr) -> Expr:
        return _EXPR.get(type(node), _Builder._opaque_expr)(self, node, self.span(node))

    def _constant(self, node: ast.Constant, span: SourceSpan) -> Expr:
        v = node.value
        if type(v) is int:
            return IntLit(v, span=span)
        if type(v) in _LITERAL_TYPES:
            return Literal(v, span=span)
        return self._opaque_expr(node, span)  # complex, bytes, Ellipsis

    def _name(self, node: ast.Name, span: SourceSpan) -> Expr:
        return Name(node.id, span=span)

    def _attribute(self, node: ast.Attribute, span: SourceSpan) -> Expr:
        return Attribute(self.expr(node.value), node.attr, span=span)

    def _subscript(self, node: ast.Subscript, span: SourceSpan) -> Expr:
        if isinstance(node.slice, ast.Slice):
            return self._opaque_expr(node, span)
        return Subscript(self.expr(node.value), self.expr(node.slice), span=span)

    def _call(self, node: ast.Call, span: SourceSpan) -> Expr:
        args = [self.expr(a) for a in node.args if not isinstance(a, ast.Starred)]
        # An unpacked `*` or `**` value becomes a keyword without a name.
        keywords = [
            Keyword(None, self.expr(a.value)) for a in node.args if isinstance(a, ast.Starred)
        ]
        has_star_args = bool(keywords) or any(k.arg is None for k in node.keywords)
        keywords += [Keyword(k.arg, self.expr(k.value)) for k in node.keywords]
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in _CIRCUIT_METHOD_MARKERS:
            if isinstance(f.value, ast.Name):
                self.method_receivers.add(f.value.id)
        return Call(self.expr(node.func), args, keywords, has_star_args, span=span)

    def _seq(self, node: ast.List | ast.Tuple, span: SourceSpan) -> Expr:
        return SeqExpr([self.expr(e) for e in node.elts], span=span)

    def _bin_op(self, node: ast.BinOp, span: SourceSpan) -> Expr:
        op = _BIN_OPS.get(type(node.op))
        if op is None:
            return self._opaque_expr(node, span)
        return BinOp(self.expr(node.left), op, self.expr(node.right), span=span)

    def _unary_op(self, node: ast.UnaryOp, span: SourceSpan) -> Expr:
        if not isinstance(node.op, ast.USub):
            return self._opaque_expr(node, span)
        return UnaryOp("-", self.expr(node.operand), span=span)

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


_STMT = {
    ast.Assign: _Builder._assign,
    ast.AnnAssign: _Builder._ann_assign,
    ast.AugAssign: _Builder._aug_assign,
    ast.Expr: _Builder._expr_stmt,
    ast.For: _Builder._for,
    ast.If: _Builder._if,
    ast.FunctionDef: _Builder._function_def,
    ast.AsyncFunctionDef: _Builder._function_def,
    ast.Return: _Builder._return,
    **dict.fromkeys(
        [ast.Import, ast.ImportFrom, ast.Pass, ast.Break, ast.Continue], _Builder._no_op
    ),
}
_LITERAL_TYPES = frozenset({float, str, bool, type(None)})
_EXPR = {
    ast.Constant: _Builder._constant,
    ast.Name: _Builder._name,
    ast.Attribute: _Builder._attribute,
    ast.Subscript: _Builder._subscript,
    ast.Call: _Builder._call,
    ast.List: _Builder._seq,
    ast.Tuple: _Builder._seq,
    ast.BinOp: _Builder._bin_op,
    ast.UnaryOp: _Builder._unary_op,
}


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
    except ValueError as exc:  # Python 3.10 rejects a NUL byte this way
        raise ParseError(file, 1, str(exc)) from exc
    builder = _Builder(file)
    statements = builder.stmts(tree.body)
    return ModuleAst(
        file,
        statements,
        rebound_names=frozenset(builder.rebound_names),
        method_receivers=frozenset(builder.method_receivers),
    )
