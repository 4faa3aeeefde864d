"""Quantum data flow: a per-qubit "may" partial order over operator events.

Two events are related only when they act on the same resolved qubit of the
same circuit and some control-flow path executes one before the other. Events
in mutually exclusive branches stay unordered; events inside a kept loop body
are related in both orders because the loop may iterate.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

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


def build_flow(ir: QuantumIR) -> "FlowRelation":
    """Derive the flow relation for one file's IR, in one pass over its events."""
    events: dict[str, OperatorEvent] = {}
    by_circuit: dict[str, list[OperatorEvent]] = {}
    timelines: dict[QubitKey, list[str]] = {}
    blockers: dict[str, list[str]] = {}
    for event in ir.events:
        events[event.id] = event
        if event.circuit is None:
            continue
        by_circuit.setdefault(event.circuit, []).append(event)
        if event.kind is EventKind.UNKNOWN:
            blockers.setdefault(event.circuit, []).append(event.id)
            continue
        if event.kind not in _TIMELINE_KINDS:
            continue
        for ref in event.qubits:
            if not ref.is_resolved:
                continue
            assert ref.register is not None and ref.index is not None
            key = (event.circuit, ref.register, ref.index)
            timelines.setdefault(key, []).append(event.id)
    return FlowRelation(ir, events, by_circuit, timelines, blockers)


class FlowRelation:
    """Ordering facts over one file's operator events, and each circuit's events."""

    def __init__(
        self, ir: QuantumIR, events: dict[str, OperatorEvent],
        events_by_circuit: dict[str, list[OperatorEvent]], timelines: dict[QubitKey, list[str]],
        unknown_blockers: dict[str, list[str]],
    ) -> None:
        self.ir, self.cfg, self.timelines = ir, ir.cfg, timelines
        self._events, self.events_by_circuit = events, events_by_circuit  # in IR order
        self.unknown_blockers = unknown_blockers
        self.unknown_taint = frozenset(unknown_blockers)  # circuits with an unknown operator

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

    # --- materialized relations ---

    def _pair_order(self, pair: tuple[str, str, QubitKey]) -> tuple[int, int, QubitKey]:
        a, b, key = pair
        return (self._events[a].seq, self._events[b].seq, key)

    @cached_property
    def may_follow_pairs(self) -> tuple[tuple[str, str, QubitKey], ...]:
        """Every ordered pair on each timeline; quadratic, built only on demand.

        No rule reads it: the benchmark's oracle check and the tests do."""
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
        """Pairs (a, b, key) where some path runs b right after a on the key.

        One forward pass per key, as for reaching definitions. Blockers are
        the key's events plus its circuit's unknown operators. A block's last
        blocker kills every open event and stays open itself when it is on
        the timeline; open events flow along edges through blocker-free
        blocks. A block's first blocker follows every event open at its
        entry, and each later blocker follows the one before it. An event
        never pairs with itself.
        """
        pairs: set[tuple[str, str, QubitKey]] = set()
        for key, timeline in self.timelines.items():
            on_key = set(timeline)
            by_block: dict[int, list[OperatorEvent]] = {}
            for event_id in on_key.union(self.unknown_blockers.get(key[0], ())):
                event = self._events[event_id]
                by_block.setdefault(event.block, []).append(event)
            work: list[tuple[int, str]] = []
            for block, events in by_block.items():
                events.sort(key=attrgetter("seq"))
                for x, y in zip(events, events[1:]):
                    if x.id in on_key and y.id in on_key:
                        pairs.add((x.id, y.id, key))
                last = events[-1].id
                if last in on_key:
                    work += [(succ, last) for succ in self.cfg.successors(block)]
            reached: set[tuple[int, str]] = set()
            while work:
                block, a = item = work.pop()
                if item in reached:
                    continue
                reached.add(item)
                if block not in by_block:
                    work += [(succ, a) for succ in self.cfg.successors(block)]
                    continue
                first = by_block[block][0].id
                if first in on_key and first != a:
                    pairs.add((a, first, key))
        return tuple(sorted(pairs, key=self._pair_order))

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
