"""Bounded unrolling of `for ... in range(...)` loops, with constant recording.

A loop is expanded only when its trip count is statically known and small;
every other loop is kept intact and flagged, so downstream stages treat its
body conservatively. The same walk propagates integer constants, and
`_Unroller._value` is qlint's one constant evaluator: an unrolled iteration
binds the loop variable to its value and copies the body, evaluating each
expression as its copy is built; every other node is evaluated in place, as
parsed. The value of every expression in the result is recorded in a
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
                node = Assign([self._value(t, None, True) for t in stmt.targets], value, span=span)
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

    def _value(self, expr: Expr, env: dict[str, ConstValue] | None, fresh: bool) -> Expr:
        """`expr` evaluated under `env`, each subterm's value recorded after its operands'.

        Call arguments go first, then keyword values, then the callee, then
        `forget_rebound`. With `fresh` the result is a copy with new uids;
        with `env` None (assignment targets) it is only copied. Operand lists
        are built by loops: a comprehension is a function call on CPython 3.11.
        """
        node = expr
        value = UNKNOWN
        if isinstance(expr, Name):
            if env is not None:
                value = env.get(expr.ident, UNKNOWN)
            if fresh:
                node = Name(expr.ident, span=expr.span)
        elif isinstance(expr, IntLit):
            value = known(expr.value)
            if fresh:
                node = IntLit(expr.value, span=expr.span)
        elif isinstance(expr, Call):
            args, keywords = [], []
            for a in expr.args:
                args.append(self._value(a, env, fresh))
            for k in expr.keywords:
                keywords.append(self._value(k.value, env, fresh))
            func = self._value(expr.func, env, fresh)
            if env is not None:
                self.constants.forget_rebound(env)
            if fresh:
                keywords = [Keyword(k.name, v) for k, v in zip(expr.keywords, keywords)]
                node = Call(func, args, keywords, expr.has_star_args, span=expr.span)
        elif isinstance(expr, Attribute):
            inner = self._value(expr.value, env, fresh)
            if fresh:
                node = Attribute(inner, expr.attr, span=expr.span)
        elif isinstance(expr, Subscript):
            inner, index = self._value(expr.value, env, fresh), self._value(expr.index, env, fresh)
            if fresh:
                node = Subscript(inner, index, span=expr.span)
        elif isinstance(expr, BinOp):
            left, right = self._value(expr.left, env, fresh), self._value(expr.right, env, fresh)
            if env is not None:
                value = binop_value(expr.op, self.values[left.uid], self.values[right.uid])
            if fresh:
                node = BinOp(left, expr.op, right, span=expr.span)
        elif isinstance(expr, UnaryOp):
            operand = self._value(expr.operand, env, fresh)
            if env is not None:
                value = unary_value(expr.op, self.values[operand.uid])
            if fresh:
                node = UnaryOp(expr.op, operand, span=expr.span)
        elif isinstance(expr, (ListExpr, TupleExpr)):
            elements = []
            for e in expr.elements:
                elements.append(self._value(e, env, fresh))
            if fresh:
                node = type(expr)(elements, span=expr.span)
        else:  # strings, floats, bools and opaque expressions are not ints
            if env is not None and isinstance(expr, OpaqueExpr):
                self.constants.forget_rebound(env)
            if fresh:
                node = expr._replace()
        if fresh:
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
