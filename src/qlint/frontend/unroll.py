"""Bounded unrolling of `for ... in range(...)` loops, with constant recording.

A loop is expanded only when its trip count is statically known and small;
every other loop is kept intact and flagged, so downstream stages treat its
body conservatively. The same walk propagates integer constants: an unrolled
iteration binds the loop variable to its value and walks a fresh copy of the
body, every other node is walked once as parsed, and the value of every
expression in the result is recorded in a ConstEnv.
"""

from __future__ import annotations

from itertools import count
from operator import is_

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
    """Return the tree with small constant-bound loops expanded, sharing other nodes.

    Only an expanded loop body is copied, once per iteration, with uids after
    the input's `last_uid`; the input is never mutated. Loops that cannot be
    expanded (unknown or too-large trip count, or a break/continue in the
    body) are kept and listed in `non_unrollable`. The result's `constants`
    resolve every expression of the result.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    unroller = _Unroller(max_iterations, tree.rebound_names, tree.last_uid)
    statements = unroller.walk(tree.statements, {}, fresh=False)
    return tree._replace(
        statements=statements,
        last_uid=next(unroller.uids) - 1,
        non_unrollable=unroller.non_unrollable,
        constants=unroller.constants,
    )


class _Unroller:
    def __init__(self, max_iterations: int, rebound_names: frozenset[str], last_uid: int) -> None:
        self.max_iterations = max_iterations
        self.non_unrollable: list[int] = []
        self.constants = ConstEnv(rebound_names)
        self.uids = count(last_uid + 1)

    def walk(self, stmts: list[Stmt], env: dict[str, ConstValue], fresh: bool) -> list[Stmt]:
        """`stmts`, loops expanded, copied if `fresh`; `env` ends as the bindings after them."""
        out: list[Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, ForRange):
                out.extend(self._for_range(stmt, env, fresh))
            else:
                out.append(self._stmt(stmt, env, fresh))
        return stmts if not fresh and len(out) == len(stmts) and all(map(is_, out, stmts)) else out

    def _for_range(self, stmt: ForRange, env: dict[str, ConstValue], fresh: bool) -> list[Stmt]:
        args = [self._value(a, env, fresh) for a in stmt.range_args]
        values = range_values([self.constants.resolve(a) for a in args], self.max_iterations)
        if values is None or _has_loop_escape(stmt.body):
            # The body may run any number of times: whatever it binds is
            # unknown inside it and after it.
            for name in collect_assigned_names(stmt.body) | {stmt.var}:
                env[name] = UNKNOWN
            self.constants.forget_rebound(env)
            body = self.walk(stmt.body, dict(env), fresh)
            node: Stmt = stmt
            if fresh or body is not stmt.body:
                node = ForRange(stmt.var, args, body, span=stmt.span)
                node.uid = next(self.uids) if fresh else stmt.uid
            self.non_unrollable.append(node.uid)
            return [node]
        out: list[Stmt] = []
        for value in values:
            env[stmt.var] = known(value)
            out.extend(self.walk(stmt.body, env, fresh=True))
        return out

    def _stmt(self, stmt: Stmt, env: dict[str, ConstValue], fresh: bool) -> Stmt:
        """`stmt` walked; a copy if `fresh`, a new shell if a loop inside it expanded."""
        span = stmt.span
        node: Stmt = stmt
        if isinstance(stmt, Assign):
            if fresh:
                targets = [self._copy(t) for t in stmt.targets]
                node = Assign(targets, self._copy(stmt.value), span=span)
            self._assign(node, env)
            if not all(isinstance(t, Name) for t in stmt.targets):  # may hold a walrus
                self.constants.forget_rebound(env)
        elif isinstance(stmt, (ExprStmt, Return)):
            value = self._value(stmt.value, env, fresh) if stmt.value is not None else None
            if fresh:
                node = type(stmt)(value, span=span)
        elif isinstance(stmt, If):
            test = self._value(stmt.test, env, fresh)
            env_else = dict(env)
            body = self.walk(stmt.body, env, fresh)
            orelse = self.walk(stmt.orelse, env_else, fresh)
            joined = join_envs(env, env_else)
            env.clear()
            env.update(joined)
            if fresh or body is not stmt.body or orelse is not stmt.orelse:
                node = If(test, body, orelse, span=span)
        elif isinstance(stmt, FunctionDef):
            self.constants.forget_rebound(env)  # defaults and decorators may hold a walrus
            body = self.walk(stmt.body, {p: UNKNOWN for p in stmt.params}, fresh)
            if fresh or body is not stmt.body:
                node = stmt._replace(params=list(stmt.params), body=body)
        else:
            if fresh:
                node = stmt._replace()  # NoOp or Opaque: no expressions to evaluate
            if isinstance(stmt, Opaque):
                for name in stmt.names:
                    if name in env:
                        env[name] = UNKNOWN
        if node is not stmt:  # a rebuilt shell keeps the uid of the node it replaces
            node.uid = next(self.uids) if fresh else stmt.uid
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

    def _value(self, expr: Expr, env: dict[str, ConstValue], fresh: bool) -> Expr:
        """`expr`, or its copy if `fresh`, evaluated with its values recorded."""
        node = self._copy(expr) if fresh else expr
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
            node = expr._replace()
        node.uid = next(self.uids)
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
