"""Brute-force reference for `FlowRelation.directly_pairs`.

It takes every ordered pair the flow relation may order on a qubit key and
searches, pair by pair, for a control-flow path from the first event to the
second that crosses no blocker: no other event on the key and no unknown
operator of the key's circuit. The analyzer computes the same relation with
one forward pass per key; tests compare the two.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from qlint.qflow import FlowRelation, QubitKey

Pair = tuple[str, str, QubitKey]


def reference_directly_pairs(flow: FlowRelation) -> tuple[Pair, ...]:
    """`directly_pairs` by pairwise path search, in the analyzer's order."""
    blockers: dict[QubitKey, dict[int, list[int]]] = {}
    for key, events in flow.timelines.items():
        by_block: dict[int, list[int]] = {}
        for event_id in set(events) | set(flow.unknown_blockers.get(key[0], ())):
            event = flow.event(event_id)
            by_block.setdefault(event.block, []).append(event.seq)
        for seqs in by_block.values():
            seqs.sort()
        blockers[key] = by_block
    return tuple(
        pair for pair in flow.may_follow_pairs if _directly(flow, blockers[pair[2]], *pair)
    )


def _directly(
    flow: FlowRelation, index: dict[int, list[int]], a: str, b: str, key: QubitKey
) -> bool:
    """True when some path runs a then b with no blocker in between.

    The endpoints themselves never block, which the seq arithmetic below
    accounts for without id filtering.
    """
    if not flow.before(a, b):
        return False
    ea, eb = flow.event(a), flow.event(b)

    def seqs_of(block_id: int) -> list[int]:
        return index.get(block_id, [])

    if ea.block == eb.block and ea.seq < eb.seq:
        inner = seqs_of(ea.block)
        between = bisect_left(inner, eb.seq) - bisect_right(inner, ea.seq)
        if between == 0:
            return True

    # Otherwise search for a block path that leaves a cleanly, avoids
    # blocker-carrying blocks, and enters b's block before any blocker.
    here = seqs_of(ea.block)
    after_a = len(here) - bisect_right(here, ea.seq)
    if eb.block == ea.block and eb.seq > ea.seq:
        after_a -= 1
    if after_a > 0:
        return False
    there = seqs_of(eb.block)
    before_b = bisect_left(there, eb.seq)
    if ea.block == eb.block and ea.seq < eb.seq:
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
        occupied = len(seqs_of(block)) - (1 if block == ea.block else 0)
        if occupied > 0:
            continue
        frontier.extend(flow.cfg.successors(block))
    return False
