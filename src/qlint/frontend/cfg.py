"""Intra-procedural control-flow graph, built by the extractor as it walks.

Each scope (module top level, every function body) gets its own block graph;
the graphs share one block-id space so every event has a globally unique
block. A block is its index in `Cfg.blocks`, which holds its scope's name.
Kept loops contribute a back edge; unrolled ones are plain chains.
"""

from bisect import insort
from collections.abc import Iterable


class Cfg:
    """Blocks of every scope and their edges."""

    __slots__ = ("blocks", "edges", "adjacency")

    def __init__(self) -> None:
        self.blocks: list[str] = []  # each block's scope, by block id
        self.edges: set[tuple[int, int]] = set()
        self.adjacency: dict[int, list[int]] = {}

    def __eq__(self, other: object) -> bool:
        """The same blocks and edges; like a record, a graph is unhashable."""
        return type(other) is Cfg and (self.blocks, self.edges) == (other.blocks, other.edges)

    def __repr__(self) -> str:
        return f"Cfg(blocks={self.blocks!r}, edges={sorted(self.edges)!r})"

    def new_block(self, scope: str) -> int:
        """Add an empty block to `scope`; returns its id, the next one up from 0."""
        self.blocks.append(scope)
        return len(self.blocks) - 1

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
