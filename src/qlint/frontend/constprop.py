"""Integer constants: the value domain and its transfer functions.

Values are either exactly known integers or Unknown; any operation with an
Unknown operand stays Unknown, so a Known answer is always trustworthy. This
module holds no evaluator: the one walk that applies these rules is the loop
unroller's `_Unroller._value`, which folds every expression of known value
into an integer `ast.Constant` as it expands the file. Operators and
expressions are `ast` classes and nodes, read through `nodes.form`.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, NamedTuple

from .nodes import Assign, ForRange, If, ModuleAst, Opaque, Stmt, form, names

MODULE_SCOPE = "<module>"


class ConstValue(NamedTuple):
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


def binop_value(op: type[ast.operator], left: ConstValue, right: ConstValue) -> ConstValue:
    """`left op right` for +, -, * and //; Unknown for any other operator or operand."""
    a, b = left.value, right.value
    if a is None or b is None:
        return UNKNOWN
    if op is ast.Add:
        return known(a + b)
    if op is ast.Sub:
        return known(a - b)
    if op is ast.Mult:
        return known(a * b)
    if op is ast.FloorDiv and b != 0:
        return known(a // b)
    return UNKNOWN


def negated(operand: ConstValue) -> ConstValue:
    """`-operand`; Unknown for an Unknown operand."""
    return UNKNOWN if operand.value is None else known(-operand.value)


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


def tuple_assign_pairs(stmt: Assign) -> list[tuple[str, ast.expr]] | None:
    """(name, value expr) pairs of `a, b = x, y`, or None for other shapes."""
    if len(stmt.targets) != 1:
        return None
    target = stmt.targets[0]
    value = stmt.value
    if form(target) is not ast.Tuple or form(value) is not ast.Tuple:
        return None
    if len(target.elts) != len(value.elts):
        return None
    if not all(type(e) is ast.Name for e in target.elts):
        return None
    return [(t.id, v) for t, v in zip(target.elts, value.elts)]


def collect_assigned_names(stmts: list[Stmt]) -> set[str]:
    """Names possibly (re)bound anywhere in a statement list, same scope only."""
    out: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, Assign):
            for target in stmt.targets:
                if type(target) is ast.Name:
                    out.add(target.id)
                elif form(target) is ast.Tuple:
                    out.update(names(target))
        elif isinstance(stmt, ForRange):
            out.add(stmt.var)
            out.update(collect_assigned_names(stmt.body))
        elif isinstance(stmt, If):
            out.update(collect_assigned_names(stmt.body))
            out.update(collect_assigned_names(stmt.orelse))
        elif isinstance(stmt, Opaque):
            out.update(stmt.names)
    return out


def _agree(a: ConstValue, b: ConstValue) -> ConstValue:
    return a if a == b else UNKNOWN


def join_envs(
    a: dict[str, Any],
    b: dict[str, Any],
    join: Callable[[Any, Any], Any] = _agree,
    missing: Any = UNKNOWN,
) -> dict[str, Any]:
    """Join of two branch environments, name by name over both.

    A name bound on one side only meets `missing` from the other. The
    default keeps an integer only where both branches agree; the extractor
    passes its own binding join.
    """
    return {name: join(a.get(name, missing), b.get(name, missing)) for name in {**a, **b}}


class ConstEnv:
    """Integer facts of an unrolled tree, whose known integers are `ast.Constant`s."""

    def __init__(self, rebound_names: frozenset[str] = frozenset()) -> None:
        self.rebound_names = rebound_names

    def forget_rebound(self, env: _Env) -> None:
        """Make Unknown the names a walrus or a function's `global` may rebind."""
        if self.rebound_names:
            for name in self.rebound_names & env.keys():
                env[name] = UNKNOWN

    @staticmethod
    def resolve(expr: ast.expr) -> ConstValue:
        """Known for an integer constant (not a bool), else Unknown: unrolling
        folds every known value."""
        if type(expr) is ast.Constant and type(expr.value) is int:
            return known(expr.value)
        return UNKNOWN


def propagate_constants(tree: ModuleAst) -> ConstEnv:
    """Known/Unknown integer facts for every expression of an unrolled tree.

    `unroll_loops` folds them into the tree while it walks the file; this
    only hands out the environment it made.
    """
    if tree.constants is None:
        raise ValueError("constants are folded by unroll_loops; unroll the tree first")
    return tree.constants
