"""Integer constants: the value domain and its transfer functions.

Values are either exactly known integers or Unknown; any operation with an
Unknown operand stays Unknown, so a Known answer is always trustworthy. The
flow-sensitive walk that applies these rules is the loop unroller's, which
records every expression's value into a ConstEnv as it expands the file.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nodes import (
    Assign,
    Attribute,
    BinOp,
    Call,
    Expr,
    ForRange,
    If,
    IntLit,
    ListExpr,
    ModuleAst,
    Name,
    Opaque,
    OpaqueExpr,
    Stmt,
    Subscript,
    TupleExpr,
    UnaryOp,
    expr_names,
)

MODULE_SCOPE = "<module>"


@dataclass(frozen=True)
class ConstValue:
    """A statically resolved integer, or Unknown when value is None."""

    value: int | None

    @property
    def is_known(self) -> bool:
        return self.value is not None

    def __repr__(self) -> str:
        return f"Known({self.value})" if self.is_known else "Unknown"


UNKNOWN = ConstValue(None)


def known(value: int) -> ConstValue:
    return ConstValue(value)


_Env = dict[str, ConstValue]


def eval_expr(expr: Expr, env: _Env, record: ConstEnv) -> ConstValue:
    """Evaluate an expression under the given bindings, recording every subterm."""
    result = _eval(expr, env, record)
    record._values[expr.uid] = result
    return result


def _eval(expr: Expr, env: _Env, record: ConstEnv) -> ConstValue:
    if isinstance(expr, IntLit):
        return known(expr.value)
    if isinstance(expr, Name):
        return env.get(expr.ident, UNKNOWN)
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, env, record)
        right = eval_expr(expr.right, env, record)
        if not (left.is_known and right.is_known):
            return UNKNOWN
        assert left.value is not None and right.value is not None
        if expr.op == "+":
            return known(left.value + right.value)
        if expr.op == "-":
            return known(left.value - right.value)
        if expr.op == "*":
            return known(left.value * right.value)
        if expr.op == "//":
            if right.value == 0:
                return UNKNOWN
            return known(left.value // right.value)
        return UNKNOWN
    if isinstance(expr, UnaryOp):
        operand = eval_expr(expr.operand, env, record)
        if expr.op == "-" and operand.is_known:
            assert operand.value is not None
            return known(-operand.value)
        return UNKNOWN
    if isinstance(expr, Call):
        # Visit arguments so their resolutions are recorded too.
        for a in expr.args:
            eval_expr(a, env, record)
        for k in expr.keywords:
            eval_expr(k.value, env, record)
        eval_expr(expr.func, env, record)
        record.forget_rebound(env)
        return UNKNOWN
    if isinstance(expr, Subscript):
        eval_expr(expr.value, env, record)
        eval_expr(expr.index, env, record)
        return UNKNOWN
    if isinstance(expr, Attribute):
        eval_expr(expr.value, env, record)
        return UNKNOWN
    if isinstance(expr, (ListExpr, TupleExpr)):
        for e in expr.elements:
            eval_expr(e, env, record)
        return UNKNOWN
    if isinstance(expr, OpaqueExpr):
        record.forget_rebound(env)
    # Everything else (strings, floats, bools, opaque expressions) is not an int.
    return UNKNOWN


def range_values(vals: list[ConstValue], limit: int) -> list[int] | None:
    """Concrete iteration values of range(*vals), or None when not resolvable.

    Loops longer than `limit` iterations return None as well, so callers never
    materialize huge ranges.
    """
    if not all(v.is_known for v in vals):
        return None
    ints = [v.value for v in vals if v.value is not None]
    try:
        rng = range(*ints)
    except (TypeError, ValueError):
        return None
    if len(rng) > limit:
        return None
    return list(rng)


def tuple_assign_pairs(stmt: Assign) -> list[tuple[str, Expr]] | None:
    """(name, value expr) pairs of `a, b = x, y`, or None for other shapes."""
    if len(stmt.targets) != 1:
        return None
    target = stmt.targets[0]
    value = stmt.value
    if not isinstance(target, (ListExpr, TupleExpr)):
        return None
    if not isinstance(value, (ListExpr, TupleExpr)):
        return None
    if len(target.elements) != len(value.elements):
        return None
    if not all(isinstance(e, Name) for e in target.elements):
        return None
    return [
        (t.ident, v)
        for t, v in zip(target.elements, value.elements)
        if isinstance(t, Name)
    ]


def collect_assigned_names(stmts: list[Stmt]) -> set[str]:
    """Names possibly (re)bound anywhere in a statement list, same scope only."""
    out: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, Assign):
            for target in stmt.targets:
                if isinstance(target, Name):
                    out.add(target.ident)
                elif isinstance(target, (ListExpr, TupleExpr)):
                    out.update(expr_names(target))
        elif isinstance(stmt, ForRange):
            out.add(stmt.var)
            out.update(collect_assigned_names(stmt.body))
        elif isinstance(stmt, If):
            out.update(collect_assigned_names(stmt.body))
            out.update(collect_assigned_names(stmt.orelse))
        elif isinstance(stmt, Opaque):
            out.update(stmt.names)
    return out


def join_envs(a: _Env, b: _Env) -> _Env:
    """Join of two branch environments: keep a binding only if both agree."""
    out: _Env = {}
    for name, val in a.items():
        if b.get(name, UNKNOWN) == val:
            out[name] = val
        else:
            out[name] = UNKNOWN
    for name in b:
        if name not in a:
            out[name] = UNKNOWN
    return out


class ConstEnv:
    """Resolved integer values per expression node of an unrolled tree."""

    def __init__(self, rebound_names: frozenset[str] = frozenset()) -> None:
        self._values: dict[int, ConstValue] = {}
        self.rebound_names = rebound_names

    def forget_rebound(self, env: _Env) -> None:
        """Make Unknown the names a walrus or a function's `global` may rebind."""
        for name in self.rebound_names & env.keys():
            env[name] = UNKNOWN

    def resolve(self, expr: Expr) -> ConstValue:
        """ConstValue of an expression occurrence in the analyzed tree."""
        got = self._values.get(expr.uid)
        if got is not None:
            return got
        # Context-free fallback for expressions the walk does not evaluate,
        # such as assignment targets.
        if isinstance(expr, IntLit):
            return known(expr.value)
        if (
            isinstance(expr, UnaryOp)
            and expr.op == "-"
            and isinstance(expr.operand, IntLit)
        ):
            return known(-expr.operand.value)
        return UNKNOWN


def propagate_constants(tree: ModuleAst) -> ConstEnv:
    """Known/Unknown integer facts for every expression of an unrolled tree.

    `unroll_loops` records them while it walks the file; this only hands
    them out.
    """
    if tree.constants is None:
        raise ValueError("constants are recorded by unroll_loops; unroll the tree first")
    return tree.constants
