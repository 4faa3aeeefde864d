"""Intra-procedural control-flow graph over the restricted AST.

Each scope (module top level, every function body) gets its own block graph;
the graphs share one block-id space so statements map to globally unique
blocks. Kept loops contribute a back edge; unrolled ones are plain chains.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable

from .constprop import MODULE_SCOPE
from .nodes import ForRange, FunctionDef, If, ModuleAst, Record, Stmt


class Block(Record):
    __slots__ = ("id", "scope")

    def __init__(self, id: int, scope: str) -> None:
        self.id, self.scope = id, scope


class Cfg:
    """Blocks of every scope, their edges, and the block of each statement."""

    __slots__ = ("blocks", "edges", "block_of_stmt", "adjacency", "_reach_cache")

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.edges: set[tuple[int, int]] = set()
        self.block_of_stmt: dict[int, int] = {}
        self.adjacency: dict[int, list[int]] = {}
        self._reach_cache: dict[int, frozenset[int]] = {}

    def successors(self, block_id: int) -> list[int]:
        """Successor block ids in ascending order; callers must not mutate it."""
        return self.adjacency.get(block_id, [])

    def reachable(self, block_id: int) -> frozenset[int]:
        """Blocks reachable from `block_id` through one or more edges."""
        got = self._reach_cache.get(block_id)
        if got is None:
            got = self._reach_cache[block_id] = self.reachable_from((block_id,))
        return got

    def reachable_from(self, block_ids: Iterable[int]) -> frozenset[int]:
        """Blocks reachable from any of `block_ids` through one or more edges."""
        seen: set[int] = set()
        frontier = [succ for block_id in block_ids for succ in self.successors(block_id)]
        while frontier:
            nxt = frontier.pop()
            if nxt in seen:
                continue
            seen.add(nxt)
            frontier.extend(self.successors(nxt))
        return frozenset(seen)

    def in_cycle(self, block_id: int) -> bool:
        return block_id in self.reachable(block_id)


class _Builder:
    def __init__(self) -> None:
        self.cfg = Cfg()

    def new_block(self, scope: str) -> Block:
        block = Block(len(self.cfg.blocks), scope)
        self.cfg.blocks.append(block)
        return block

    def edge(self, src: Block, dst: Block) -> None:
        self.cfg.edges.add((src.id, dst.id))
        insort(self.cfg.adjacency.setdefault(src.id, []), dst.id)

    def build_scope(self, scope: str, stmts: list[Stmt]) -> None:
        self.chain(scope, stmts, self.new_block(scope))

    def chain(self, scope: str, stmts: list[Stmt], current: Block) -> Block:
        for stmt in stmts:
            self.cfg.block_of_stmt[stmt.uid] = current.id
            if isinstance(stmt, If):
                then_entry = self.new_block(scope)
                self.edge(current, then_entry)
                then_exit = self.chain(scope, stmt.body, then_entry)
                join = self.new_block(scope)
                self.edge(then_exit, join)
                if stmt.orelse:
                    else_entry = self.new_block(scope)
                    self.edge(current, else_entry)
                    else_exit = self.chain(scope, stmt.orelse, else_entry)
                    self.edge(else_exit, join)
                else:
                    self.edge(current, join)
                current = join
            elif isinstance(stmt, ForRange):
                body_entry = self.new_block(scope)
                self.edge(current, body_entry)
                body_exit = self.chain(scope, stmt.body, body_entry)
                self.edge(body_exit, body_entry)
                after = self.new_block(scope)
                self.edge(body_exit, after)
                self.edge(current, after)
                current = after
            elif isinstance(stmt, FunctionDef):
                inner = f"{scope}.{stmt.name}#{stmt.uid}"
                self.build_scope(inner, stmt.body)
        return current


def build_cfg(tree: ModuleAst) -> Cfg:
    """Build the control-flow graph for every scope of a file.

    `tree` is the output of `unroll_loops`, which numbers the statements
    that `block_of_stmt` and function scope names are keyed by.
    """
    builder = _Builder()
    builder.build_scope(MODULE_SCOPE, tree.statements)
    return builder.cfg
