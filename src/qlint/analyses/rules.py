"""The ten rule implementations, each a pure function of (IR, flow relation)."""

from typing import NamedTuple

from ..frontend.nodes import SourceSpan
from ..qflow import FlowRelation, QubitKey
from ..qir.model import CircuitDecl, CircuitKind, EventKind, OperatorEvent, QuantumIR
from ..qir.model import UNRESOLVED_BIT, QubitRef


class Warning(NamedTuple):
    rule: str
    span: SourceSpan
    message: str
    circuit: str | None = None
    severity: str = "warning"

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.span.file, self.span.line, self.span.column, self.rule)


def _qubit_label(ir: QuantumIR, key: QubitKey) -> str:
    register = ir.registers[key[1]]
    return f"{register.display_name()}[{key[2]}]"


def _subcircuits(ir: QuantumIR) -> set[str]:
    """Children of append/compose edges, and circuits flagged as likely subcircuits."""
    out = {edge.child for edge in ir.edges}
    out.update(c.id for c in ir.circuits.values() if c.subcircuit_flags)
    return out


def run_double_meas(ir: QuantumIR, flow: FlowRelation) -> list[Warning]:
    """Two measurements read the same qubit with nothing in between."""
    if not flow.measurements:
        return []
    out, events = [], flow.events
    for a, b, key in flow.directly_pairs:
        first, second = events[a], events[b]
        if first.kind is EventKind.MEASUREMENT and second.kind is EventKind.MEASUREMENT:
            out.append(
                Warning(
                    "double-meas",
                    second.span,
                    f"Redundant measurement on qubit {_qubit_label(ir, key)}; "
                    "its state was already measured",
                    circuit=second.circuit,
                )
            )
    return out


def run_op_after_meas(ir: QuantumIR, flow: FlowRelation) -> list[Warning]:
    """A non-conditional gate acts on a qubit right after it was measured."""
    if not flow.measurements:
        return []
    out, events = [], flow.events
    for a, b, key in flow.directly_pairs:
        measurement, gate = events[a], events[b]
        if (
            measurement.kind is EventKind.MEASUREMENT
            and gate.kind is EventKind.GATE
            and not gate.is_conditional
        ):
            out.append(
                Warning(
                    "op-after-meas",
                    gate.span,
                    f"Gate after measurement on qubit {_qubit_label(ir, key)}; "
                    "the measured state has collapsed",
                    circuit=gate.circuit,
                )
            )
    return out


def run_meas_all_abuse(ir: QuantumIR, flow: FlowRelation) -> list[Warning]:
    """measure_all() adds a fresh register although classical bits exist."""
    out = []
    for event in flow.measure_alls:
        if not event.creates_new_register:
            continue
        # The bits its named classical registers are known to hold; a `*` value may add more.
        clbits = 0
        for reg_id in ir.circuits[event.circuit].layout.classical:
            clbits += ir.registers[reg_id].size or 0
        if clbits > 0:
            out.append(
                Warning(
                    "meas-all-abuse",
                    event.span,
                    f"measure_all() creates a new classical register although the "
                    f"circuit already has {clbits} classical bits",
                    circuit=event.circuit,
                )
            )
    return out


def run_cond_wo_meas(ir: QuantumIR, flow: FlowRelation) -> list[Warning]:
    """A conditional gate fires on classical bits nothing has measured yet."""
    if not flow.conditionals:
        return []
    out = []
    measure_kinds = (EventKind.MEASUREMENT, EventKind.MEASURE_ALL)
    # Circuits derived from others (copies, transpiled or externally built
    # ones) may already contain measurements we cannot see.
    visible_kinds = (CircuitKind.CONSTRUCTOR, CircuitKind.BUILTIN_PARAMETRIZED)
    composed = _subcircuits(ir).union(edge.parent for edge in ir.edges)
    first_measurement: dict[str | None, int] = {}
    for e in ir.events:
        if e.kind in measure_kinds:
            first_measurement.setdefault(e.circuit, e.seq)
    for event in flow.conditionals:
        circuit_id = event.circuit
        if circuit_id in composed:
            continue
        if ir.circuits[circuit_id].kind not in visible_kinds:
            continue
        if first_measurement.get(circuit_id, event.seq) >= event.seq:
            out.append(
                Warning(
                    "cond-wo-meas",
                    event.span,
                    "Conditional gate with no preceding measurement; "
                    "the condition is constant",
                    circuit=circuit_id,
                )
            )
    return out


def run_const_clas_bit(ir: QuantumIR, flow: FlowRelation) -> list[Warning]:
    """A qubit is measured although no operation ever transformed it."""
    if not flow.measurements:
        return []
    out = []
    transforming = (EventKind.GATE, EventKind.RESET, EventKind.INITIALIZE)
    # Circuits we cannot fully see: an unknown operator, a composed child or
    # an initialize with unresolved targets may touch any qubit.
    opaque = flow.unknown_taint
    if ir.edges or flow.initializations:
        opaque = opaque | {edge.parent for edge in ir.edges}
        opaque |= {e.circuit for e in flow.initializations if not e.qubits}
    # Per qubit key: first transforming seq per block, and the blocks it may reach.
    transformed: dict[QubitKey, tuple[dict[int, int], frozenset[int]]] = {}
    no_edges = not flow.cfg.edges  # then no block reaches another
    for event in flow.measurements:
        circuit_id = event.circuit
        if ir.circuits[circuit_id].kind is not CircuitKind.CONSTRUCTOR:
            # Derived or externally built circuits have content we cannot see.
            continue
        if circuit_id in opaque:
            continue
        register, index = event.qubits[0] if event.qubits else UNRESOLVED_BIT
        if register is None or index is None:
            continue
        key = (circuit_id, register, index)
        if key not in transformed:
            first: dict[int, int] = {}
            for other_id in flow.timelines.get(key, ()):
                other = flow.events[other_id]
                if other.kind in transforming:
                    first.setdefault(other.block, other.seq)
            reached = frozenset() if no_edges else flow.cfg.reachable_from(first)
            transformed[key] = (first, reached)
        first, reached = transformed[key]
        touched = event.block in reached or first.get(event.block, event.seq) < event.seq
        if not touched:
            out.append(
                Warning(
                    "const-clas-bit",
                    event.span,
                    f"Measurement of untransformed qubit {_qubit_label(ir, key)}; "
                    "the result is always 0",
                    circuit=circuit_id,
                )
            )
    return out


def _measured_qubit_demand(circuit: CircuitDecl, measures: list[OperatorEvent]) -> int | None:
    """Distinct qubits the circuit's measurements measure, or None when there are none."""
    measured: set[QubitRef] = set()
    for event in measures:
        if event.kind is EventKind.MEASURE_ALL and not event.qubits and circuit.layout.num_qubits:
            return circuit.layout.num_qubits  # every qubit of a layout it could not resolve
        measured.update(event.qubits)
    measured.discard(UNRESOLVED_BIT)
    return len(measured) if measures else None


def run_insuff_clas_reg(ir: QuantumIR, flow: FlowRelation) -> list[Warning]:
    """The classical register cannot hold results for the qubits measured."""
    out = []
    subcircuits = None  # built for the first circuit with fewer bits than qubits
    measures: dict[str, list[OperatorEvent]] = {}  # measurements and measure_alls by circuit
    for circuit in ir.circuits.values():
        if circuit.kind is not CircuitKind.CONSTRUCTOR:
            continue
        nq, nc = circuit.layout.num_qubits, circuit.layout.num_clbits
        if nq is None or nc is None or nq <= nc:
            continue
        if subcircuits is None:
            subcircuits = _subcircuits(ir)
            for event in flow.measurements + flow.measure_alls:
                measures.setdefault(event.circuit, []).append(event)
        if circuit.id in subcircuits:
            continue
        demand = _measured_qubit_demand(circuit, measures.get(circuit.id, []))
        if demand is None:
            demand = nq
        if demand > nc:
            out.append(
                Warning(
                    "insuff-clas-reg",
                    circuit.span,
                    f"Circuit has {nq} qubits but only {nc} classical "
                    "bits, not enough to measure them all",
                    circuit=circuit.id,
                )
            )
    return out


def run_oversized_circuit(ir: QuantumIR, flow: FlowRelation) -> list[Warning]:
    """Some qubit slot of the circuit is never used by any operator."""
    out = []
    # Circuits an unknown operator, an initialize or a composed child may act on anywhere.
    skipped = flow.unknown_taint
    if ir.edges or flow.initializations:
        skipped = skipped | {edge.parent for edge in ir.edges}
        skipped |= {e.circuit for e in flow.initializations}
    # The qubits each circuit's operators act on are the keys of its timelines.
    used: dict[str, list[tuple[str, int]]] = {}
    for circuit_id, register, index in flow.timelines:
        used.setdefault(circuit_id, []).append((register, index))
    for circuit in ir.circuits.values():
        if circuit.kind is not CircuitKind.CONSTRUCTOR:
            continue
        nq = circuit.layout.num_qubits  # None when a register or its size is unknown
        if not nq or circuit.id in skipped:
            continue
        # Keys on the circuit's own registers are distinct slots in range, so
        # some slot is unused exactly when they number fewer than nq.
        registers = circuit.layout.quantum
        own = [key for key in used.get(circuit.id, ()) if key[0] in registers]
        if len(own) == nq:
            continue
        offsets = dict(zip(registers, circuit.layout.offsets))
        unused = sorted(set(range(nq)).difference([offsets[r] + i for r, i in own]))
        listing = ", ".join(map(str, unused))
        noun = "position" if len(unused) == 1 else "positions"
        out.append(
            Warning(
                "oversized-circuit",
                circuit.span,
                f"Circuit has unused qubits ({noun} {listing})",
                circuit=circuit.id,
            )
        )
    return out


def run_ghost_compose(ir: QuantumIR, flow: FlowRelation) -> list[Warning]:
    """compose() result is dropped, so the composition never happens."""
    out = []
    for call in ir.compose_calls:
        if call.bare_statement and not call.inplace_true:
            out.append(
                Warning(
                    "ghost-compose",
                    call.span,
                    "Result of compose() is not used; assign it or pass "
                    "inplace=True",
                    circuit=call.circuit,
                )
            )
    return out


def run_op_after_transp(ir: QuantumIR, flow: FlowRelation) -> list[Warning]:
    """An operator is appended to a circuit transpiled at optimization level 3."""
    level_3 = {
        c.id for c in ir.circuits.values()
        if c.kind is CircuitKind.TRANSPILED and c.transpile_opt_level == 3
    }
    if not level_3:
        return []
    out = []
    acting = (EventKind.GATE, EventKind.MEASUREMENT, EventKind.MEASURE_ALL)
    for event in ir.events:
        if event.circuit in level_3 and event.kind in acting:
            out.append(
                Warning(
                    "op-after-transp",
                    event.span,
                    "Operator added to a circuit transpiled with "
                    "optimization_level=3; late additions defeat its passes",
                    circuit=event.circuit,
                )
            )
    return out


def run_old_iden_gate(ir: QuantumIR, flow: FlowRelation) -> list[Warning]:
    """The removed iden() identity-gate API is called on a circuit."""
    out = []
    for event in ir.events:
        if event.gate_name == "iden" and event.circuit is not None:
            out.append(
                Warning(
                    "old-iden-gate",
                    event.span,
                    "iden() was removed from the circuit API; use id() or i()",
                    circuit=event.circuit,
                )
            )
    return out
