"""Quantum data flow: a per-qubit "may" partial order over operator events.

Two events are related only when they act on the same resolved qubit of the
same circuit and some control-flow path executes one before the other. Events
in mutually exclusive branches stay unordered; events inside a kept loop body
are related in both orders because the loop may iterate.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from .frontend.cfg import Cfg
from .qir.model import EventKind, OperatorEvent, QuantumIR

QubitKey = tuple[str, str, int]  # (circuit id, register id, index)

# Barriers move no quantum data; unknown events have no resolved operands but
# act as blockers for adjacency within their circuit.
_TIMELINE_KINDS = frozenset(
    {
        EventKind.GATE,
        EventKind.MEASUREMENT,
        EventKind.MEASURE_ALL,
        EventKind.RESET,
        EventKind.INITIALIZE,
    }
)


def build_flow(ir: QuantumIR, cfg: Cfg) -> "FlowRelation":
    """Derive the flow relation for one file's IR."""
    timelines: dict[QubitKey, list[str]] = {}
    blockers: dict[str, list[str]] = {}
    tainted: set[str] = set()
    for event in ir.events:
        if event.kind is EventKind.UNKNOWN:
            if event.circuit is not None:
                tainted.add(event.circuit)
                blockers.setdefault(event.circuit, []).append(event.id)
            continue
        if event.kind not in _TIMELINE_KINDS or event.circuit is None:
            continue
        for ref in event.qubits:
            if not ref.is_resolved:
                continue
            assert ref.register is not None and ref.index is not None
            key = (event.circuit, ref.register, ref.index)
            timelines.setdefault(key, []).append(event.id)
    return FlowRelation(ir, cfg, timelines, blockers, frozenset(tainted))


@dataclass
class FlowRelation:
    """Ordering facts over one file's operator events."""

    ir: QuantumIR
    cfg: Cfg
    timelines: dict[QubitKey, list[str]]
    unknown_blockers: dict[str, list[str]]
    unknown_taint: frozenset[str]
    _events: dict[str, OperatorEvent] = field(init=False)
    _blocker_cache: dict[QubitKey, dict[int, list[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._events = {e.id: e for e in self.ir.events}

    def event(self, event_id: str) -> OperatorEvent:
        return self._events[event_id]

    # --- ordering primitives ---

    def before(self, a: str, b: str) -> bool:
        """True when some control-flow path executes event a before event b."""
        ea, eb = self._events[a], self._events[b]
        if a == b or ea.scope != eb.scope:
            return False
        if ea.block == eb.block:
            return ea.seq < eb.seq or self.cfg.in_cycle(ea.block)
        return eb.block in self.cfg.reachable(ea.block)

    def may_follow(self, a: str, b: str) -> QubitKey | None:
        """Shared qubit key on which b may follow a, if any."""
        for key in self._shared_keys(a, b):
            if self.before(a, b):
                return key
        return None

    def may_follow_directly(self, a: str, b: str) -> QubitKey | None:
        """Shared qubit key on which b may follow a with nothing in between."""
        for key in self._shared_keys(a, b):
            if self._directly(a, b, key):
                return key
        return None

    def sorted_in_order(self, a: str, b: str, c: str) -> bool:
        """True when the three events may appear in the given order."""
        ea, eb, ec = self._events[a], self._events[b], self._events[c]
        if not (ea.circuit and ea.circuit == eb.circuit == ec.circuit):
            return False
        return self.may_follow(a, b) is not None and self.may_follow(b, c) is not None

    def _shared_keys(self, a: str, b: str) -> list[QubitKey]:
        out = []
        for key, events in self.timelines.items():
            if a in events and b in events:
                out.append(key)
        return out

    # --- materialized relations ---

    def _pair_order(self, pair: tuple[str, str, QubitKey]) -> tuple[int, int, QubitKey]:
        a, b, key = pair
        return (self._events[a].seq, self._events[b].seq, key)

    @cached_property
    def may_follow_pairs(self) -> tuple[tuple[str, str, QubitKey], ...]:
        pairs: set[tuple[str, str, QubitKey]] = set()
        for key, events in self.timelines.items():
            for i, a in enumerate(events):
                for b in events[i + 1 :]:
                    if self.before(a, b):
                        pairs.add((a, b, key))
                    if self.before(b, a):
                        pairs.add((b, a, key))
        return tuple(sorted(pairs, key=self._pair_order))

    @cached_property
    def directly_pairs(self) -> tuple[tuple[str, str, QubitKey], ...]:
        return tuple(
            pair for pair in self.may_follow_pairs if self._directly(*pair)
        )

    # --- adjacency with path semantics ---

    def _key_blockers(self, key: QubitKey) -> dict[int, list[int]]:
        """Sorted event seqs per block that can sit between a pair on this key.

        Events of one circuit always live in a single scope (bindings never
        cross scopes), so the index needs no scope filtering.
        """
        got = self._blocker_cache.get(key)
        if got is not None:
            return got
        blocker_ids = set(self.timelines.get(key, ())) | set(
            self.unknown_blockers.get(key[0], ())
        )
        by_block: dict[int, list[int]] = {}
        for event_id in blocker_ids:
            event = self._events[event_id]
            by_block.setdefault(event.block, []).append(event.seq)
        for seqs in by_block.values():
            seqs.sort()
        self._blocker_cache[key] = by_block
        return by_block

    def _directly(self, a: str, b: str, key: QubitKey) -> bool:
        """True when some path runs a then b with no blocker in between.

        Blockers are other events on the same qubit plus unknown operators of
        the same circuit. The endpoints themselves never block, which the
        seq arithmetic below accounts for without id filtering.
        """
        if not self.before(a, b):
            return False
        ea, eb = self._events[a], self._events[b]
        index = self._key_blockers(key)

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
        frontier = list(self.cfg.successors(ea.block))
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
            frontier.extend(self.cfg.successors(block))
        return False

    # --- debug dump ---

    def dump_timelines(self) -> str:
        """One line per qubit key: ordered event names with their lines."""
        lines = []
        for key in sorted(self.timelines):
            circuit_id, register_id, index = key
            register = self.ir.registers[register_id]
            circuit = self.ir.circuits[circuit_id]
            label = f"{circuit.name or circuit.id}:{register.display_name()}[{index}]"
            steps = " -> ".join(
                f"{self._events[i].gate_name or self._events[i].kind.value}"
                f"@{self._events[i].span.line}"
                for i in self.timelines[key]
            )
            lines.append(f"{label}: {steps}")
        return "\n".join(lines) + ("\n" if lines else "")
