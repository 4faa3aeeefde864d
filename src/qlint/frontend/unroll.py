"""Lowering of the parsed statements, with bounded unrolling and constant folding.

`unroll_loops` walks the `ast.stmt`s of `parse_file` once and builds each
statement record of its result there; every decision of what the subset
models at statement level is made in this module. A `for ... in range(...)`
loop is expanded only when its trip count is statically known and small;
every other loop is kept intact and flagged, so downstream stages treat its
body conservatively. The same walk propagates integer constants, and
`_Unroller._value` is qlint's one constant evaluator: an expanded loop body
is walked again for each iteration with the loop variable bound, and every
expression whose integer value is known is folded into a new `ast.Constant`
at the same source position. Expressions are read as `ast` nodes through
`nodes.form`, and the parsed nodes are never mutated: loop copies share
every subtree that has nothing to fold.
"""

from __future__ import annotations

import ast
from itertools import count
from operator import is_

from .constprop import (
    ConstEnv,
    Env,
    UNKNOWN,
    binop_value,
    join_envs,
    known,
    negated,
    range_values,
    tuple_assign_pairs,
)
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
    Stmt,
    arguments,
    form,
    names,
    replacing,
)

DEFAULT_MAX_UNROLL = 10
# `if` statements nested deeper than this (an `elif` counts as one more level)
# are kept opaque, so a long `elif` chain cannot exhaust the Python stack.
MAX_IF_DEPTH = 100
# Methods that only a circuit has: a call result later used as the receiver
# of one of them is taken to be a circuit.
_CIRCUIT_METHOD_MARKERS = frozenset({"to_gate", "to_instruction", "assign_parameters"})
_NO_OP_KINDS = {
    ast.Import: "import",
    ast.ImportFrom: "import",
    ast.Pass: "pass",
    ast.Break: "break",
    ast.Continue: "continue",
}


def unroll_loops(tree: ModuleAst, max_iterations: int = DEFAULT_MAX_UNROLL) -> ModuleAst:
    """Lower the parsed statements of `tree`, small constant-bound loops expanded.

    Every statement of the result is a new record, with a `uid` from 1 up
    in walk order. Expressions are the parsed objects, except that one of
    known integer value becomes an `ast.Constant` at its position, and the
    nodes above it are rebuilt; the input is never mutated. Loops that
    cannot be expanded (unknown or too-large trip count, or a break/continue
    in the body) are kept and their uids listed in `non_unrollable`.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    unroller = _Unroller(tree, max_iterations)
    statements = unroller.walk(tree.statements, {})
    return tree._replace(
        statements=statements,
        non_unrollable=unroller.non_unrollable,
        constants=unroller.constants,
        method_receivers=frozenset(unroller.method_receivers),
    )


def _range_args(node: ast.For) -> list[ast.expr] | None:
    """The arguments of `for name in range(...)` with no `else`; None for another loop."""
    it = node.iter
    if (
        type(it) is ast.Call
        and type(it.func) is ast.Name
        and it.func.id == "range"
        and not it.keywords
        and 1 <= len(it.args) <= 3
        and type(node.target) is ast.Name
        and not node.orelse
    ):
        return it.args
    return None


def _aug_value(node: ast.AugAssign) -> ast.expr | None:
    """`x + e` for `x += e`, placed at the statement; None unless the subset models it."""
    if type(node.target) is not ast.Name:
        return None
    value = replacing(node, ast.BinOp(node.target, node.op, node.value))
    return value if form(value) is not None else None


class _Unroller:
    def __init__(self, tree: ModuleAst, max_iterations: int) -> None:
        self.span = tree.span
        self.max_iterations = max_iterations
        self.non_unrollable: list[int] = []
        self.constants = ConstEnv(tree.rebound_names)
        self.uids = count(1)
        self.if_depth = 0
        self.method_receivers: set[str] = set()  # of the scope being walked

    def walk(self, stmts: list[ast.stmt], env: Env) -> list[Stmt]:
        """Records for `stmts`, loops expanded; `env` ends as the bindings after them."""
        out: list[Stmt] = []
        for node in stmts:
            _LOWER.get(type(node), _Unroller._opaque)(self, node, env, out)
        return out

    # --- statements: each appends its records to `out` ---

    def _assign(self, node: ast.Assign, env: Env, out: list[Stmt]) -> None:
        out.append(self._bind(node, node.targets, node.value, env))

    def _ann_assign(self, node: ast.AnnAssign, env: Env, out: list[Stmt]) -> None:
        if node.value is None:
            out.append(NoOp("annotation", span=self.span(node), uid=next(self.uids)))
        else:
            out.append(self._bind(node, [node.target], node.value, env))
        # A module-level annotation runs after the assignment and may hold a walrus.
        self.constants.forget_rebound(env)

    def _aug_assign(self, node: ast.AugAssign, env: Env, out: list[Stmt]) -> None:
        value = _aug_value(node)
        if value is None:
            self._opaque(node, env, out, "augassign")
        else:
            out.append(self._bind(node, [node.target], value, env))

    def _bind(
        self, node: ast.stmt, targets: list[ast.expr], value: ast.expr, env: Env
    ) -> Assign:
        """An `Assign` of `value` to `targets`, bound in `env` once `value` is evaluated."""
        stmt = Assign(targets, self._value(value, env), span=self.span(node), uid=next(self.uids))
        resolve = self.constants.resolve
        pairs = tuple_assign_pairs(stmt)
        if pairs is not None:
            # The whole right side evaluates before any name is rebound.
            env.update([(name, resolve(v)) for name, v in pairs])
        else:
            bound = resolve(stmt.value)
            for target in targets:
                if type(target) is ast.Name:
                    env[target.id] = bound
                elif form(target) is ast.Tuple:
                    for name in names(target):
                        env[name] = UNKNOWN
        for target in targets:
            if type(target) is not ast.Name:
                self._value(target, env)  # for its effects: targets are kept as parsed
                self.constants.forget_rebound(env)  # a walrus, or a setter that rebinds
        return stmt

    def _expr(self, node: ast.Expr, env: Env, out: list[Stmt]) -> None:
        value = self._value(node.value, env)
        out.append(ExprStmt(value, span=self.span(node), uid=next(self.uids)))

    def _return(self, node: ast.Return, env: Env, out: list[Stmt]) -> None:
        value = self._value(node.value, env) if node.value is not None else None
        out.append(Return(value, span=self.span(node), uid=next(self.uids)))

    def _for(self, node: ast.For, env: Env, out: list[Stmt]) -> None:
        range_args = _range_args(node)
        if range_args is None:
            self._opaque(node, env, out, "for")
            return
        var = node.target.id
        args = [self._value(a, env) for a in range_args]
        values = range_values([self.constants.resolve(a) for a in args], self.max_iterations)
        if values is None or _has_loop_escape(node.body):
            uid = next(self.uids)
            self.non_unrollable.append(uid)
            # The body may run any number of times: whatever it binds is
            # unknown inside it and after it.
            for name in _assigned_names(node.body, self.if_depth) | {var}:
                env[name] = UNKNOWN
            self.constants.forget_rebound(env)
            body = self.walk(node.body, dict(env))
            out.append(ForRange(var, args, body, span=self.span(node), uid=uid))
            return
        for value in values:
            env[var] = known(value)
            out.extend(self.walk(node.body, env))

    def _if(self, node: ast.If, env: Env, out: list[Stmt]) -> None:
        if self.if_depth >= MAX_IF_DEPTH:
            self._opaque(node, env, out, "if")
            return
        uid = next(self.uids)
        test = self._value(node.test, env)
        env_else = dict(env)
        self.if_depth += 1
        body = self.walk(node.body, env)
        orelse = self.walk(node.orelse, env_else)
        self.if_depth -= 1
        joined = join_envs(env, env_else)
        env.clear()
        env.update(joined)
        out.append(If(test, body, orelse, span=self.span(node), uid=uid))

    def _function_def(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, env: Env, out: list[Stmt]
    ) -> None:
        uid = next(self.uids)
        a = node.args
        params = [p.arg for p in [*a.args, *a.posonlyargs, *a.kwonlyargs, a.vararg, a.kwarg] if p]
        self.constants.forget_rebound(env)  # defaults and decorators may hold a walrus
        outer_receivers, self.method_receivers = self.method_receivers, set()
        body = self.walk(node.body, {p: UNKNOWN for p in params})
        receivers, self.method_receivers = frozenset(self.method_receivers), outer_receivers
        out.append(FunctionDef(node.name, params, body, receivers, span=self.span(node), uid=uid))

    def _no_op(self, node: ast.stmt, env: Env, out: list[Stmt]) -> None:
        out.append(NoOp(_NO_OP_KINDS[type(node)], span=self.span(node), uid=next(self.uids)))

    def _opaque(
        self, node: ast.stmt, env: Env, out: list[Stmt], label: str | None = None
    ) -> None:
        """Keep `node` whole: any name it mentions may be rebound, so becomes Unknown."""
        mentioned = names(node)
        for name in mentioned:
            if name in env:
                env[name] = UNKNOWN
        label = label or type(node).__name__.lower()
        out.append(Opaque(mentioned, label, span=self.span(node), uid=next(self.uids)))

    # --- expressions ---

    def _value(self, expr: ast.expr, env: Env) -> ast.expr:
        """`expr` evaluated under `env`, each subterm after its operands.

        A subterm of known integer value becomes an `ast.Constant` at its
        position, and only the nodes above one are rebuilt: an expression
        with nothing to fold comes back as itself. Call arguments go first,
        then `*` values, then keyword values, then the callee, then
        `forget_rebound`. Operand lists are built by loops: a comprehension
        is a function call on CPython 3.11.
        """
        f = form(expr)
        if f is ast.Name:
            value = env.get(expr.id, UNKNOWN).value
            return expr if value is None else replacing(expr, ast.Constant(value))
        if f is ast.Call:
            return self._call(expr, env)
        if f is ast.Constant:
            return expr
        if f is ast.Attribute:
            value = expr.value
            inner = self._value(value, env)
            if inner is value:
                return expr
            return replacing(expr, ast.Attribute(inner, expr.attr, expr.ctx))
        if f is ast.Subscript:
            value, index = expr.value, expr.slice
            inner, folded = self._value(value, env), self._value(index, env)
            if inner is value and folded is index:
                return expr
            return replacing(expr, ast.Subscript(inner, folded, expr.ctx))
        resolve = self.constants.resolve
        if f is ast.BinOp:
            left, right = self._value(expr.left, env), self._value(expr.right, env)
            value = binop_value(type(expr.op), resolve(left), resolve(right)).value
            if value is not None:
                return replacing(expr, ast.Constant(value))
            if left is expr.left and right is expr.right:
                return expr
            return replacing(expr, ast.BinOp(left, expr.op, right))
        if f is ast.UnaryOp:
            operand = self._value(expr.operand, env)
            value = negated(resolve(operand)).value
            if value is not None:
                return replacing(expr, ast.Constant(value))
            if operand is expr.operand:
                return expr
            return replacing(expr, ast.UnaryOp(expr.op, operand))
        if f is ast.Tuple:
            elements = []
            for e in expr.elts:
                elements.append(self._value(e, env))
            if all(map(is_, elements, expr.elts)):
                return expr
            return replacing(expr, type(expr)(elements, expr.ctx))
        self.constants.forget_rebound(env)  # an opaque expression may hold a walrus
        return expr

    def _call(self, call: ast.Call, env: Env) -> ast.expr:
        """`_value` of a call; also notes `name` of `name.to_gate()` and the like."""
        f = call.func
        if type(f) is ast.Attribute and f.attr in _CIRCUIT_METHOD_MARKERS:
            if type(f.value) is ast.Name:
                self.method_receivers.add(f.value.id)
        folded = {}
        for arg in arguments(call):
            value = self._value(arg, env)
            if value is not arg:
                folded[arg] = value
        func = self._value(call.func, env)
        self.constants.forget_rebound(env)
        if func is call.func and not folded:
            return call
        args, keywords = [], []
        for a in call.args:
            if type(a) is ast.Starred and a.value in folded:
                a = replacing(a, ast.Starred(folded[a.value], a.ctx))
            args.append(folded.get(a, a))
        for k in call.keywords:
            if k.value in folded:
                k = replacing(k, ast.keyword(k.arg, folded[k.value]))
            keywords.append(k)
        return replacing(call, ast.Call(func, args, keywords))


_LOWER = {
    ast.Assign: _Unroller._assign,
    ast.AnnAssign: _Unroller._ann_assign,
    ast.AugAssign: _Unroller._aug_assign,
    ast.Expr: _Unroller._expr,
    ast.For: _Unroller._for,
    ast.If: _Unroller._if,
    ast.FunctionDef: _Unroller._function_def,
    ast.AsyncFunctionDef: _Unroller._function_def,
    ast.Return: _Unroller._return,
    **dict.fromkeys(_NO_OP_KINDS, _Unroller._no_op),
}


def _assigned_names(stmts: list[ast.stmt], if_depth: int) -> set[str]:
    """Names the lowering of `stmts` at `if` depth `if_depth` may bind, same scope only.

    An opaque statement may bind any name it mentions.
    """
    out: set[str] = set()
    for node in stmts:
        cls = type(node)
        if cls is ast.For and _range_args(node) is not None:
            out.add(node.target.id)
            out |= _assigned_names(node.body, if_depth)
        elif cls is ast.If and if_depth < MAX_IF_DEPTH:
            out |= _assigned_names(node.body, if_depth + 1)
            out |= _assigned_names(node.orelse, if_depth + 1)
        elif cls is ast.Assign or cls is ast.AnnAssign and node.value is not None:
            for target in node.targets if cls is ast.Assign else [node.target]:
                if form(target) in (ast.Name, ast.Tuple):
                    out |= names(target)
        elif cls is ast.AugAssign and _aug_value(node) is not None:
            out.add(node.target.id)
        elif cls not in _LOWER or cls in (ast.For, ast.If, ast.AugAssign):
            out |= names(node)  # kept opaque
    return out


_TRY_FIELDS = ("body", "handlers", "orelse", "finalbody")
# Where a `break`/`continue` of the enclosing loop can sit, by statement
# class. A nested loop's body, a `def` and a `class` hold their own.
_ESCAPE_FIELDS = {
    ast.If: ("body", "orelse"),
    ast.For: ("orelse",),
    ast.AsyncFor: ("orelse",),
    ast.While: ("orelse",),
    ast.With: ("body",),
    ast.AsyncWith: ("body",),
    ast.Try: _TRY_FIELDS,
    getattr(ast, "TryStar", ast.Try): _TRY_FIELDS,  # Python 3.11+
    ast.ExceptHandler: ("body",),
    ast.Match: ("cases",),
    ast.match_case: ("body",),
}


def _has_loop_escape(body: list[ast.stmt]) -> bool:
    """True when a loop with this body has a `break` or `continue` of its own."""
    stack = list(body)
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is ast.Break or cls is ast.Continue:
            return True
        fields = _ESCAPE_FIELDS.get(cls)
        if fields is not None:
            for field in fields:
                stack.extend(getattr(node, field))
    return False
