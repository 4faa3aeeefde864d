"""Intra-procedural control-flow graph, built by the extractor as it walks.

Each scope (module top level, every function body) gets its own block graph;
the graphs share one block-id space so every event has a globally unique
block. Kept loops contribute a back edge; unrolled ones are plain chains.
"""

from bisect import insort
from collections.abc import Iterable

from .nodes import Record


class Block(Record):
    __slots__ = ("id", "scope")

    def __init__(self, id: int, scope: str) -> None:
        self.id, self.scope = id, scope


class Cfg:
    """Blocks of every scope and their edges."""

    __slots__ = ("blocks", "edges", "adjacency")

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.edges: set[tuple[int, int]] = set()
        self.adjacency: dict[int, list[int]] = {}

    def __eq__(self, other: object) -> bool:
        """The same blocks and edges; like a record, a graph is unhashable."""
        return type(other) is Cfg and (self.blocks, self.edges) == (other.blocks, other.edges)

    def __repr__(self) -> str:
        return f"Cfg(blocks={self.blocks!r}, edges={sorted(self.edges)!r})"

    def new_block(self, scope: str) -> int:
        """Add an empty block to `scope`; returns its id, the next one up from 0."""
        block_id = len(self.blocks)
        self.blocks.append(Block(block_id, scope))
        return block_id

    def edge(self, src: int, dst: int) -> None:
        self.edges.add((src, dst))
        insort(self.adjacency.setdefault(src, []), dst)

    def successors(self, block_id: int) -> list[int]:
        """Successor block ids in ascending order; callers must not mutate it."""
        return self.adjacency.get(block_id, [])

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
