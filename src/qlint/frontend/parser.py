"""Lowering of Python source into the restricted AST: statements only."""

from __future__ import annotations

import ast

from .nodes import (
    Assign,
    ExprStmt,
    ForRange,
    FunctionDef,
    If,
    ModuleAst,
    NoOp,
    Opaque,
    Return,
    SourceSpan,
    Stmt,
    children,
    form,
    replacing,
)

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
    """Lowers statements; expressions stay the parsed `ast` objects.

    Walrus targets and circuit-method receivers are read from expressions,
    which are scanned only when the source text can hold them.
    """

    def __init__(self, tree: ModuleAst, source: str) -> None:
        self.span = tree.span
        self.rebound_names: set[str] = set()
        self.method_receivers: set[str] = set()  # of the scope being lowered
        self.if_depth = 0
        self.scan_walrus = ":=" in source
        self.scan_receivers = any(m in source for m in _CIRCUIT_METHOD_MARKERS)

    def held(self, *exprs: ast.expr) -> None:
        """Note the walrus targets and circuit-method receivers of a statement's expressions."""
        if self.scan_walrus:
            for e in exprs:
                self._names(e)
        if self.scan_receivers:
            for e in exprs:
                self._receivers(e)

    def _receivers(self, node: ast.expr) -> None:
        """Note `name.to_gate()` and the like, in the positions the subset models."""
        if type(node) is ast.Call:
            f = node.func
            if type(f) is ast.Attribute and f.attr in _CIRCUIT_METHOD_MARKERS:
                if type(f.value) is ast.Name:
                    self.method_receivers.add(f.value.id)
        for child in children(node):
            self._receivers(child)

    # --- statements ---

    def stmts(self, body: list[ast.stmt]) -> list[Stmt]:
        return [self.stmt(s) for s in body]

    def stmt(self, node: ast.stmt) -> Stmt:
        return _STMT.get(type(node), _Builder._other_stmt)(self, node, self.span(node))

    def _assign(self, node: ast.Assign, span: SourceSpan) -> Stmt:
        self.held(*node.targets, node.value)
        return Assign(node.targets, node.value, span=span)

    def _ann_assign(self, node: ast.AnnAssign, span: SourceSpan) -> Stmt:
        if node.value is None:
            return NoOp("annotation", span=span)
        self.held(node.target, node.value)
        return Assign([node.target], node.value, span=span)

    def _aug_assign(self, node: ast.AugAssign, span: SourceSpan) -> Stmt:
        # `x += e` is `x = x + e`, the sum placed at the statement.
        value = replacing(node, ast.BinOp(node.target, node.op, node.value))
        if type(node.target) is not ast.Name or form(value) is None:
            return self._opaque(node, span, "augassign")
        self.held(value)
        return Assign([node.target], value, span=span)

    def _expr_stmt(self, node: ast.Expr, span: SourceSpan) -> Stmt:
        self.held(node.value)
        return ExprStmt(node.value, span=span)

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
        self.held(*it.args)
        return ForRange(node.target.id, it.args, self.stmts(node.body), span=span)

    def _if(self, node: ast.If, span: SourceSpan) -> Stmt:
        if self.if_depth >= MAX_IF_DEPTH:
            return self._opaque(node, span, "if")
        self.if_depth += 1
        self.held(node.test)
        out = If(node.test, self.stmts(node.body), self.stmts(node.orelse), span=span)
        self.if_depth -= 1
        return out

    def _function_def(self, node: ast.FunctionDef, span: SourceSpan) -> Stmt:
        a = node.args
        params = [p.arg for p in [*a.args, *a.posonlyargs, *a.kwonlyargs, a.vararg, a.kwarg] if p]
        if self.scan_walrus:
            for outer in filter(None, [a, node.returns, *node.decorator_list]):
                self._names(outer)  # note walrus targets of defaults, annotations and decorators
        outer_receivers, self.method_receivers = self.method_receivers, set()
        body = self.stmts(node.body)
        receivers, self.method_receivers = frozenset(self.method_receivers), outer_receivers
        return FunctionDef(node.name, params, body, receivers, span=span)

    def _return(self, node: ast.Return, span: SourceSpan) -> Stmt:
        if node.value is not None:
            self.held(node.value)
        return Return(node.value, span=span)

    def _no_op(self, node: ast.stmt, span: SourceSpan) -> Stmt:
        kind = type(node).__name__.lower()  # import, importfrom, pass, break, continue
        return NoOp("import" if kind == "importfrom" else kind, span=span)

    def _other_stmt(self, node: ast.stmt, span: SourceSpan) -> Stmt:
        return self._opaque(node, span, type(node).__name__.lower())

    def _opaque(self, node: ast.AST, span: SourceSpan, label: str) -> Opaque:
        return Opaque(self._names(node), label, span=span)

    def _names(self, node: ast.AST) -> frozenset[str]:
        """Names `node` mentions; also notes the ones it may rebind."""
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
    wide_lines = None
    if not source.isascii():
        lines = enumerate(source_lines(source), 1)
        wide_lines = {n: line.encode() for n, line in lines if not line.isascii()}
    out = ModuleAst(file, [], wide_lines=wide_lines)
    builder = _Builder(out, source)
    out.statements = builder.stmts(tree.body)
    out.rebound_names = frozenset(builder.rebound_names)
    out.method_receivers = frozenset(builder.method_receivers)
    return out
