"""Bounded unrolling of `for ... in range(...)` loops, with constant recording.

A loop is expanded only when its trip count is statically known and small;
every other loop is kept intact and flagged, so downstream stages treat its
body conservatively. The same walk propagates integer constants: an unrolled
iteration binds the loop variable to its value and copies the body,
evaluating each expression as its copy is built; every other node is walked
once as parsed. The value of every expression in the result is recorded in a
ConstEnv.
"""

from __future__ import annotations

from itertools import count
from operator import is_

from .constprop import (
    ConstEnv,
    ConstValue,
    UNKNOWN,
    binop_value,
    collect_assigned_names,
    eval_expr,
    join_envs,
    known,
    range_values,
    tuple_assign_pairs,
    unary_value,
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
    OpaqueExpr,
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
        self.values = self.constants._values  # filled as copies are evaluated
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
            value = self._value(stmt.value, env, fresh)
            if fresh:
                node = Assign([self._copy(t, None) for t in stmt.targets], value, span=span)
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
        """Bind the targets of `stmt`, whose value is already evaluated."""
        resolve = self.constants.resolve
        pairs = tuple_assign_pairs(stmt)
        if pairs is not None:
            # The whole right side evaluates before any name is rebound.
            env.update([(name, resolve(v)) for name, v in pairs])
            return
        value = resolve(stmt.value)
        for target in stmt.targets:
            if isinstance(target, Name):
                env[target.ident] = value
            elif isinstance(target, (ListExpr, TupleExpr)):
                for name in expr_names(target):
                    env[name] = UNKNOWN

    def _value(self, expr: Expr, env: dict[str, ConstValue], fresh: bool) -> Expr:
        """`expr`, or its copy if `fresh`, evaluated with its values recorded."""
        if fresh:
            return self._copy(expr, env)
        eval_expr(expr, env, self.constants)
        return expr

    def _copy(self, expr: Expr, env: dict[str, ConstValue] | None) -> Expr:
        """A copy of `expr` with new uids, evaluated as it is built unless `env` is None:
        as by eval_expr and in its order, with every copied subterm's value recorded."""
        node: Expr
        value = UNKNOWN
        if isinstance(expr, Name):
            node = Name(expr.ident, span=expr.span)
            if env is not None:
                value = env.get(expr.ident, UNKNOWN)
        elif isinstance(expr, IntLit):
            node = IntLit(expr.value, span=expr.span)
            value = known(expr.value)
        elif isinstance(expr, Call):
            args = [self._copy(a, env) for a in expr.args]
            keywords = [Keyword(k.name, self._copy(k.value, env)) for k in expr.keywords]
            func = self._copy(expr.func, env)
            node = Call(func, args, keywords, expr.has_star_args, span=expr.span)
            if env is not None:
                self.constants.forget_rebound(env)
        elif isinstance(expr, Attribute):
            node = Attribute(self._copy(expr.value, env), expr.attr, span=expr.span)
        elif isinstance(expr, Subscript):
            node = Subscript(self._copy(expr.value, env), self._copy(expr.index, env),
                             span=expr.span)
        elif isinstance(expr, (ListExpr, TupleExpr)):
            node = type(expr)([self._copy(e, env) for e in expr.elements], span=expr.span)
        elif isinstance(expr, BinOp):
            left, right = self._copy(expr.left, env), self._copy(expr.right, env)
            node = BinOp(left, expr.op, right, span=expr.span)
            value = binop_value(expr.op, self.values.get(left.uid, UNKNOWN),
                                self.values.get(right.uid, UNKNOWN))
        elif isinstance(expr, UnaryOp):
            operand = self._copy(expr.operand, env)
            node = UnaryOp(expr.op, operand, span=expr.span)
            value = unary_value(expr.op, self.values.get(operand.uid, UNKNOWN))
        else:
            node = expr._replace()
            if env is not None and isinstance(expr, OpaqueExpr):
                self.constants.forget_rebound(env)
        node.uid = next(self.uids)
        if env is not None:
            self.values[node.uid] = value
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
