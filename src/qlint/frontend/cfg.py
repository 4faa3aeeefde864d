"""Intra-procedural control-flow graph over the restricted AST.

Each scope (module top level, every function body) gets its own block graph;
the graphs share one block-id space so statements map to globally unique
blocks. Kept loops contribute a back edge; unrolled ones are plain chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constprop import MODULE_SCOPE
from .nodes import ForRange, FunctionDef, If, ModuleAst, Stmt


@dataclass
class Block:
    id: int
    scope: str
    stmts: list[int] = field(default_factory=list)


@dataclass
class Cfg:
    blocks: list[Block] = field(default_factory=list)
    edges: set[tuple[int, int]] = field(default_factory=set)
    entry: dict[str, int] = field(default_factory=dict)
    exit: dict[str, int] = field(default_factory=dict)
    block_of_stmt: dict[int, int] = field(default_factory=dict)
    _reach_cache: dict[int, frozenset[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def successors(self, block_id: int) -> list[int]:
        return sorted(b for (a, b) in self.edges if a == block_id)

    def reachable(self, block_id: int) -> frozenset[int]:
        """Blocks reachable from `block_id` through one or more edges."""
        got = self._reach_cache.get(block_id)
        if got is not None:
            return got
        seen: set[int] = set()
        frontier = list(self.successors(block_id))
        while frontier:
            nxt = frontier.pop()
            if nxt in seen:
                continue
            seen.add(nxt)
            frontier.extend(self.successors(nxt))
        result = frozenset(seen)
        self._reach_cache[block_id] = result
        return result

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

    def build_scope(self, scope: str, stmts: list[Stmt]) -> None:
        entry = self.new_block(scope)
        self.cfg.entry[scope] = entry.id
        exit_block = self.chain(scope, stmts, entry)
        self.cfg.exit[scope] = exit_block.id

    def chain(self, scope: str, stmts: list[Stmt], current: Block) -> Block:
        for stmt in stmts:
            current.stmts.append(stmt.uid)
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
    """Build the control-flow graph for every scope of a parsed file."""
    builder = _Builder()
    builder.build_scope(MODULE_SCOPE, tree.statements)
    return builder.cfg
