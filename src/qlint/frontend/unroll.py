"""Bounded unrolling of `for ... in range(...)` loops, with constant recording.

A loop is expanded only when its trip count is statically known and small;
every other loop is kept intact and flagged, so downstream stages treat its
body conservatively. The same walk propagates integer constants: an unrolled
iteration binds the loop variable to its value and walks a fresh copy of the
body, and the value of every expression it emits is recorded in a ConstEnv.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import count

from .constprop import (
    ConstEnv,
    ConstValue,
    UNKNOWN,
    collect_assigned_names,
    eval_expr,
    join_envs,
    known,
    range_values,
    tuple_assign_pairs,
)
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
    ListExpr,
    ModuleAst,
    Name,
    NoOp,
    Opaque,
    Return,
    Stmt,
    Subscript,
    TupleExpr,
    UnaryOp,
    expr_names,
)

DEFAULT_MAX_UNROLL = 10


def unroll_loops(tree: ModuleAst, max_iterations: int = DEFAULT_MAX_UNROLL) -> ModuleAst:
    """Return a new tree with small constant-bound loops expanded.

    Loops that cannot be expanded (unknown or too-large trip count, or a
    break/continue in the body) are preserved and listed in the result's
    `non_unrollable` field. The result's `constants` resolve every
    expression of the new tree.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    unroller = _Unroller(max_iterations, tree.rebound_names)
    statements = unroller.walk(tree.statements, {})
    return ModuleAst(
        tree.file,
        statements,
        tree.span,
        non_unrollable=unroller.non_unrollable,
        constants=unroller.constants,
        rebound_names=tree.rebound_names,
    )


class _Unroller:
    def __init__(self, max_iterations: int, rebound_names: frozenset[str]) -> None:
        self.max_iterations = max_iterations
        self.non_unrollable: list[int] = []
        self.constants = ConstEnv(rebound_names)
        self._uids = count(1)

    def walk(self, stmts: list[Stmt], env: dict[str, ConstValue]) -> list[Stmt]:
        """Copies of `stmts` with loops expanded; `env` ends as the bindings after them."""
        out: list[Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, ForRange):
                out.extend(self._for_range(stmt, env))
            else:
                out.append(self._stmt(stmt, env))
        return out

    def _for_range(self, stmt: ForRange, env: dict[str, ConstValue]) -> list[Stmt]:
        args = [self._value(a, env) for a in stmt.range_args]
        values = range_values([self.constants.resolve(a) for a in args], self.max_iterations)
        if values is None or _has_loop_escape(stmt.body):
            # The body may run any number of times: whatever it binds is
            # unknown inside it and after it.
            for name in collect_assigned_names(stmt.body) | {stmt.var}:
                env[name] = UNKNOWN
            self.constants.forget_rebound(env)
            node = ForRange(stmt.var, args, self.walk(stmt.body, dict(env)), span=stmt.span)
            node.uid = next(self._uids)
            self.non_unrollable.append(node.uid)
            return [node]
        out: list[Stmt] = []
        for value in values:
            env[stmt.var] = known(value)
            out.extend(self.walk(stmt.body, env))
        return out

    def _stmt(self, stmt: Stmt, env: dict[str, ConstValue]) -> Stmt:
        span = stmt.span
        node: Stmt
        if isinstance(stmt, Assign):
            node = Assign([self._copy(t) for t in stmt.targets], self._copy(stmt.value), span=span)
            self._assign(node, env)
            if not all(isinstance(t, Name) for t in stmt.targets):  # may hold a walrus
                self.constants.forget_rebound(env)
        elif isinstance(stmt, ExprStmt):
            node = ExprStmt(self._value(stmt.value, env), span=span)
        elif isinstance(stmt, Return):
            value = self._value(stmt.value, env) if stmt.value is not None else None
            node = Return(value, span=span)
        elif isinstance(stmt, If):
            test = self._value(stmt.test, env)
            env_else = dict(env)
            body = self.walk(stmt.body, env)
            orelse = self.walk(stmt.orelse, env_else)
            joined = join_envs(env, env_else)
            env.clear()
            env.update(joined)
            node = If(test, body, orelse, span=span)
        elif isinstance(stmt, FunctionDef):
            self.constants.forget_rebound(env)  # defaults and decorators may hold a walrus
            body = self.walk(stmt.body, {p: UNKNOWN for p in stmt.params})
            node = FunctionDef(stmt.name, list(stmt.params), body, span=span)
        else:
            node = replace(stmt)  # NoOp or Opaque: no expressions to evaluate
            if isinstance(stmt, Opaque):
                for name in stmt.names:
                    if name in env:
                        env[name] = UNKNOWN
        node.uid = next(self._uids)
        return node

    def _assign(self, stmt: Assign, env: dict[str, ConstValue]) -> None:
        pairs = tuple_assign_pairs(stmt)
        if pairs is not None:
            # The whole right side evaluates before any name is rebound.
            values = [eval_expr(v, env, self.constants) for _, v in pairs]
            env.update(zip([name for name, _ in pairs], values))
            return
        value = eval_expr(stmt.value, env, self.constants)
        for target in stmt.targets:
            if isinstance(target, Name):
                env[target.ident] = value
            elif isinstance(target, (ListExpr, TupleExpr)):
                for name in expr_names(target):
                    env[name] = UNKNOWN

    def _value(self, expr: Expr, env: dict[str, ConstValue]) -> Expr:
        """Copy of an evaluated expression, its values recorded."""
        node = self._copy(expr)
        eval_expr(node, env, self.constants)
        return node

    def _copy(self, expr: Expr) -> Expr:
        node: Expr
        if isinstance(expr, Name):
            node = Name(expr.ident, span=expr.span)
        elif isinstance(expr, IntLit):
            node = IntLit(expr.value, span=expr.span)
        elif isinstance(expr, Attribute):
            node = Attribute(self._copy(expr.value), expr.attr, span=expr.span)
        elif isinstance(expr, Subscript):
            node = Subscript(self._copy(expr.value), self._copy(expr.index), span=expr.span)
        elif isinstance(expr, Call):
            node = Call(
                self._copy(expr.func),
                [self._copy(a) for a in expr.args],
                [Keyword(k.name, self._copy(k.value)) for k in expr.keywords],
                expr.has_star_args,
                span=expr.span,
            )
        elif isinstance(expr, (ListExpr, TupleExpr)):
            node = type(expr)([self._copy(e) for e in expr.elements], span=expr.span)
        elif isinstance(expr, BinOp):
            node = BinOp(self._copy(expr.left), expr.op, self._copy(expr.right), span=expr.span)
        elif isinstance(expr, UnaryOp):
            node = UnaryOp(expr.op, self._copy(expr.operand), span=expr.span)
        else:
            node = replace(expr)
        node.uid = next(self._uids)
        return node


def _has_loop_escape(stmts: list[Stmt]) -> bool:
    """True when the body has a break/continue bound to this loop."""
    for stmt in stmts:
        if isinstance(stmt, NoOp) and stmt.kind in ("break", "continue"):
            return True
        if isinstance(stmt, If):
            if _has_loop_escape(stmt.body) or _has_loop_escape(stmt.orelse):
                return True
        # Nested loops own their break/continue statements.
    return False
