"""Brute-force references for `FlowRelation.may_follow_pairs` and `directly_pairs`.

`before` orders two events by their blocks' reachability alone. For
`directly`, it takes every ordered pair the flow relation may order on a
qubit key and searches, pair by pair, for a control-flow path from the first
event to the second that crosses no blocker: no other event on the key and
no unknown operator of the key's circuit. The analyzer computes the same
relations with one reachability set per block and one forward pass per key;
tests compare the two.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from weakref import WeakKeyDictionary

from qlint.qflow import FlowRelation, QubitKey

Pair = tuple[int, int, QubitKey]

# Blocks reachable from each block, per flow: a memo, since `before` is
# asked about every two events of a timeline.
_REACHED: WeakKeyDictionary[FlowRelation, dict[int, frozenset[int]]] = WeakKeyDictionary()


def before(flow: FlowRelation, a: int, b: int) -> bool:
    """True when some control-flow path executes event a before event b."""
    ea, eb = flow.ir.events[a], flow.ir.events[b]
    if a == b or flow.cfg.blocks[ea.block] != flow.cfg.blocks[eb.block]:
        return False
    by_block = _REACHED.setdefault(flow, {})
    if ea.block not in by_block:
        by_block[ea.block] = flow.cfg.reachable_from((ea.block,))
    reached = by_block[ea.block]
    if ea.block == eb.block:
        return a < b or ea.block in reached
    return eb.block in reached


def reference_may_follow_pairs(flow: FlowRelation) -> tuple[Pair, ...]:
    """`may_follow_pairs` by `before` on every two events of a timeline, in its order."""
    pairs = set()
    for key, events in flow.timelines.items():
        for a in events:
            for b in events:
                if before(flow, a, b):
                    pairs.add((a, b, key))
    return tuple(sorted(pairs))


def reference_directly_pairs(flow: FlowRelation) -> tuple[Pair, ...]:
    """`directly_pairs` by pairwise path search, in the analyzer's order."""
    blockers: dict[QubitKey, dict[int, list[int]]] = {}
    for key, events in flow.timelines.items():
        by_block: dict[int, list[int]] = {}
        for event_id in set(events) | set(flow.unknown_blockers.get(key[0], ())):
            event = flow.ir.events[event_id]
            by_block.setdefault(event.block, []).append(event_id)
        for ids in by_block.values():
            ids.sort()
        blockers[key] = by_block
    return tuple(
        pair for pair in flow.may_follow_pairs if _directly(flow, blockers[pair[2]], *pair)
    )


def _directly(
    flow: FlowRelation, index: dict[int, list[int]], a: int, b: int, key: QubitKey
) -> bool:
    """True when some path runs a then b with no blocker in between.

    The endpoints themselves never block, which the arithmetic on ids below
    accounts for without filtering them out.
    """
    if not before(flow, a, b):
        return False
    ea, eb = flow.ir.events[a], flow.ir.events[b]

    def ids_of(block_id: int) -> list[int]:
        return index.get(block_id, [])

    if ea.block == eb.block and a < b:
        inner = ids_of(ea.block)
        between = bisect_left(inner, b) - bisect_right(inner, a)
        if between == 0:
            return True

    # Otherwise search for a block path that leaves a cleanly, avoids
    # blocker-carrying blocks, and enters b's block before any blocker.
    here = ids_of(ea.block)
    after_a = len(here) - bisect_right(here, a)
    if eb.block == ea.block and b > a:
        after_a -= 1
    if after_a > 0:
        return False
    there = ids_of(eb.block)
    before_b = bisect_left(there, b)
    if ea.block == eb.block and a < b:
        before_b -= 1
    if before_b > 0:
        return False
    frontier = list(flow.cfg.successors(ea.block))
    seen: set[int] = set()
    while frontier:
        block = frontier.pop()
        if block in seen:
            continue
        seen.add(block)
        if block == eb.block:
            return True
        occupied = len(ids_of(block)) - (1 if block == ea.block else 0)
        if occupied > 0:
            continue
        frontier.extend(flow.cfg.successors(block))
    return False
