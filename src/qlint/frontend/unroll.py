"""Bounded unrolling of `for ... in range(...)` loops, with constant folding.

A loop is expanded only when its trip count is statically known and small;
every other loop is kept intact and flagged, so downstream stages treat its
body conservatively. The same walk propagates integer constants, and
`_Unroller._value` is qlint's one constant evaluator: an expanded loop body
is walked again for each iteration with the loop variable bound, and every
expression whose integer value is known is folded into an `IntLit`.
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
    ModuleAst,
    Name,
    NoOp,
    Opaque,
    OpaqueExpr,
    Return,
    SeqExpr,
    Stmt,
    Subscript,
    UnaryOp,
    expr_names,
)

DEFAULT_MAX_UNROLL = 10


def unroll_loops(tree: ModuleAst, max_iterations: int = DEFAULT_MAX_UNROLL) -> ModuleAst:
    """Return the tree with small constant-bound loops expanded and known integers folded.

    Every statement of the result is new, with a `uid` from 1 up in walk
    order. Expressions are the parsed objects, except that one of known
    integer value becomes an `IntLit` with its span, and the nodes above it
    are rebuilt; the input is never mutated. Loops that cannot be expanded
    (unknown or too-large trip count, or a break/continue in the body) are
    kept and their uids listed in `non_unrollable`.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    unroller = _Unroller(max_iterations, ConstEnv(tree.rebound_names))
    return tree._replace(
        statements=unroller.walk(tree.statements, {}),
        non_unrollable=unroller.non_unrollable,
        constants=unroller.constants,
    )


class _Unroller:
    def __init__(self, max_iterations: int, constants: ConstEnv) -> None:
        self.max_iterations = max_iterations
        self.non_unrollable: list[int] = []
        self.constants = constants
        self.uids = count(1)

    def walk(self, stmts: list[Stmt], env: dict[str, ConstValue]) -> list[Stmt]:
        """New `stmts`, loops expanded; `env` ends as the bindings after them."""
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
            uid = next(self.uids)
            self.non_unrollable.append(uid)
            # The body may run any number of times: whatever it binds is
            # unknown inside it and after it.
            for name in collect_assigned_names(stmt.body) | {stmt.var}:
                env[name] = UNKNOWN
            self.constants.forget_rebound(env)
            body = self.walk(stmt.body, dict(env))
            return [ForRange(stmt.var, args, body, span=stmt.span, uid=uid)]
        out: list[Stmt] = []
        for value in values:
            env[stmt.var] = known(value)
            out.extend(self.walk(stmt.body, env))
        return out

    def _stmt(self, stmt: Stmt, env: dict[str, ConstValue]) -> Stmt:
        """A new `stmt`, its expressions evaluated under `env`."""
        span, uid = stmt.span, next(self.uids)
        if isinstance(stmt, Assign):
            node = Assign(stmt.targets, self._value(stmt.value, env), span=span, uid=uid)
            self._assign(node, env)
            if not all(isinstance(t, Name) for t in stmt.targets):  # may hold a walrus
                self.constants.forget_rebound(env)
            return node
        if isinstance(stmt, (ExprStmt, Return)):
            value = self._value(stmt.value, env) if stmt.value is not None else None
            return type(stmt)(value, span=span, uid=uid)
        if isinstance(stmt, If):
            test = self._value(stmt.test, env)
            env_else = dict(env)
            body = self.walk(stmt.body, env)
            orelse = self.walk(stmt.orelse, env_else)
            joined = join_envs(env, env_else)
            env.clear()
            env.update(joined)
            return If(test, body, orelse, span=span, uid=uid)
        if isinstance(stmt, FunctionDef):
            self.constants.forget_rebound(env)  # defaults and decorators may hold a walrus
            body = self.walk(stmt.body, {p: UNKNOWN for p in stmt.params})
            return FunctionDef(
                stmt.name, stmt.params, body, stmt.method_receivers, span=span, uid=uid
            )
        if isinstance(stmt, Opaque):
            for name in stmt.names:
                if name in env:
                    env[name] = UNKNOWN
            return Opaque(stmt.names, stmt.label, span=span, uid=uid)
        return NoOp(stmt.kind, span=span, uid=uid)

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
            elif isinstance(target, SeqExpr):
                for name in expr_names(target):
                    env[name] = UNKNOWN

    def _value(self, expr: Expr, env: dict[str, ConstValue]) -> Expr:
        """`expr` evaluated under `env`, each subterm after its operands.

        A subterm of known integer value becomes an `IntLit` with its span,
        and only the nodes above one are rebuilt: an expression with nothing
        to fold comes back as itself. Call arguments go first, then keyword
        values, then the callee, then `forget_rebound`. Operand lists are
        built by loops: a comprehension is a function call on CPython 3.11.
        """
        if isinstance(expr, Name):
            value = env.get(expr.ident, UNKNOWN).value
            return expr if value is None else IntLit(value, span=expr.span)
        if isinstance(expr, Call):
            args, keywords = [], []
            for a in expr.args:
                args.append(self._value(a, env))
            for k in expr.keywords:
                value = self._value(k.value, env)
                keywords.append(k if value is k.value else Keyword(k.name, value))
            func = self._value(expr.func, env)
            self.constants.forget_rebound(env)
            if (
                func is expr.func
                and all(map(is_, args, expr.args))
                and all(map(is_, keywords, expr.keywords))
            ):
                return expr
            return Call(func, args, keywords, expr.has_star_args, span=expr.span)
        if isinstance(expr, Attribute):
            inner = self._value(expr.value, env)
            return expr if inner is expr.value else Attribute(inner, expr.attr, span=expr.span)
        if isinstance(expr, Subscript):
            inner, index = self._value(expr.value, env), self._value(expr.index, env)
            if inner is expr.value and index is expr.index:
                return expr
            return Subscript(inner, index, span=expr.span)
        resolve = self.constants.resolve
        if isinstance(expr, BinOp):
            left, right = self._value(expr.left, env), self._value(expr.right, env)
            value = binop_value(expr.op, resolve(left), resolve(right)).value
            if value is not None:
                return IntLit(value, span=expr.span)
            if left is expr.left and right is expr.right:
                return expr
            return BinOp(left, expr.op, right, span=expr.span)
        if isinstance(expr, UnaryOp):
            operand = self._value(expr.operand, env)
            value = unary_value(expr.op, resolve(operand)).value
            if value is not None:
                return IntLit(value, span=expr.span)
            return expr if operand is expr.operand else UnaryOp(expr.op, operand, span=expr.span)
        if isinstance(expr, SeqExpr):
            elements = []
            for e in expr.elements:
                elements.append(self._value(e, env))
            if all(map(is_, elements, expr.elements)):
                return expr
            return SeqExpr(elements, span=expr.span)
        if isinstance(expr, OpaqueExpr):
            self.constants.forget_rebound(env)
        return expr  # literals and opaque expressions fold no further


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
