"""Quantum data flow: a per-qubit "may" partial order over operator events.

Two events are related only when they act on the same resolved qubit of the
same circuit and some control-flow path executes one before the other. Events
in mutually exclusive branches stay unordered; events inside a kept loop body
are related in both orders because the loop may iterate.
"""

from functools import cached_property

from .qir.model import EventKind, OperatorEvent, QuantumIR

QubitKey = tuple[str, str, int]  # (circuit id, register id, index)
Pair = tuple[int, int, QubitKey]  # (earlier event id, later event id, key)


def build_flow(ir: QuantumIR) -> "FlowRelation":
    """Derive the flow relation for one file's IR, in one pass over its events."""
    return FlowRelation(ir)


class FlowRelation:
    """Ordering facts over one file's operator events."""

    def __init__(self, ir: QuantumIR) -> None:
        """One pass over `ir.events`.

        Barriers move no quantum data; unknown events have no resolved
        operands but act as blockers for adjacency within their circuit.
        The same pass picks out the events the rules start from, so a rule
        whose list is empty does no work.
        """
        self.ir, self.cfg = ir, ir.cfg
        # Event ids, which are positions in `ir.events`, in ascending order.
        self.timelines: dict[QubitKey, list[int]] = {}
        self.unknown_blockers: dict[str, list[int]] = {}
        # The events of circuits, in IR order, that the rules start from.
        measurements: list[OperatorEvent] = []
        measure_alls: list[OperatorEvent] = []
        conditionals: list[OperatorEvent] = []  # conditional gates
        self.measurements, self.measure_alls = measurements, measure_alls
        self.conditionals = conditionals
        timelines = self.timelines
        blockers = self.unknown_blockers
        gate, measurement, unknown = EventKind.GATE, EventKind.MEASUREMENT, EventKind.UNKNOWN
        barrier, measure_all = EventKind.BARRIER, EventKind.MEASURE_ALL
        for event in ir.events:
            event_id, circuit, kind = event.id, event.circuit, event.kind
            if circuit is None:
                continue
            if kind is gate:
                if event.is_conditional:
                    conditionals.append(event)
            elif kind is measurement:
                measurements.append(event)
            elif kind is unknown:
                blockers.setdefault(circuit, []).append(event_id)
                continue
            elif kind is barrier:
                continue
            elif kind is measure_all:
                measure_alls.append(event)
            for register, index in event.qubits:
                if register is not None and index is not None:
                    timelines.setdefault((circuit, register, index), []).append(event_id)

    # --- materialized relations ---

    @cached_property
    def may_follow_pairs(self) -> tuple[Pair, ...]:
        """Every ordered pair on each timeline; quadratic, built only on demand.

        b may follow a when b is later in a's block, or its block is
        reachable from a's; no edge joins the blocks of two scopes. No rule
        reads it: the benchmark's oracle check and the tests do. Pairs are
        ordered by earlier id, then later id, then key, as `directly_pairs` are."""
        events, reachable_from = self.ir.events, self.cfg.reachable_from
        reach: dict[int, frozenset[int]] = {}  # block -> the blocks it reaches
        pairs: set[Pair] = set()
        for key, timeline in self.timelines.items():
            placed = [(event_id, events[event_id].block) for event_id in timeline]
            for _, block in placed:
                if block not in reach:
                    reach[block] = reachable_from((block,))
            for i, (a, block_a) in enumerate(placed):
                after_a = reach[block_a]
                for b, block_b in placed[i + 1 :]:
                    if a == b:
                        continue
                    if block_b == block_a or block_b in after_a:
                        pairs.add((a, b, key))
                    if block_a in reach[block_b]:
                        pairs.add((b, a, key))
        return tuple(sorted(pairs))

    @cached_property
    def directly_pairs(self) -> tuple[Pair, ...]:
        """Pairs (a, b, key) where some path runs b right after a on the key.

        One forward pass per key, as for reaching definitions. Blockers are
        the key's events plus its circuit's unknown operators. A block's last
        blocker kills every open event and stays open itself when it is on
        the timeline; open events flow along edges through blocker-free
        blocks. A block's first blocker follows every event open at its
        entry, and each later blocker follows the one before it. An event
        never pairs with itself.

        A timeline is in id order already, and names an event once per
        operand, so a repeat of the id before is skipped. Only a circuit
        with unknown operators has blockers off the timeline; they are
        merged in by id.
        """
        pairs: list[Pair] = []
        events, successors, unknown = self.ir.events, self.cfg.successors, self.unknown_blockers
        branches = bool(self.cfg.edges)  # else no block has a successor
        for key, timeline in self.timelines.items():
            on_key = None  # every blocker is on the key
            blockers = unknown.get(key[0])
            if blockers:
                on_key = set(timeline)
                timeline = sorted(on_key.union(blockers))
            by_block: dict[int, list[int]] = {}
            repeat = None
            for event_id in timeline:
                if event_id == repeat:
                    continue
                repeat = event_id
                block = events[event_id].block
                in_block = by_block.get(block)
                if in_block is None:
                    by_block[block] = [event_id]
                    continue
                x = in_block[-1]
                if on_key is None or (x in on_key and event_id in on_key):
                    pairs.append((x, event_id, key))
                in_block.append(event_id)
            if not branches:
                continue
            work: list[tuple[int, int]] = []
            for block, in_block in by_block.items():
                last = in_block[-1]
                if on_key is None or last in on_key:
                    for succ in successors(block):
                        work.append((succ, last))
            reached: set[tuple[int, int]] = set()
            while work:
                block, a = item = work.pop()
                if item in reached:
                    continue
                reached.add(item)
                in_block = by_block.get(block)
                if in_block is None:
                    for succ in successors(block):
                        work.append((succ, a))
                    continue
                first = in_block[0]
                if first != a and (on_key is None or first in on_key):
                    pairs.append((a, first, key))
        return tuple(sorted(pairs))

    # --- debug dump ---

    def dump_timelines(self) -> str:
        """One line per qubit key: ordered event names with their lines."""
        lines, events = [], self.ir.events
        for key in sorted(self.timelines):
            circuit_id, register_id, index = key
            register = self.ir.registers[register_id]
            circuit = self.ir.circuits[circuit_id]
            label = f"{circuit.name or circuit.id}:{register.display_name()}[{index}]"
            steps = " -> ".join(
                f"{events[i].gate_name or events[i].kind.value}@{events[i].span.line}"
                for i in self.timelines[key]
            )
            lines.append(f"{label}: {steps}")
        return "\n".join(lines) + ("\n" if lines else "")
