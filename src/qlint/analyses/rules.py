"""The ten rule implementations, each a pure function of (IR, flow relation)."""

from __future__ import annotations

from typing import NamedTuple

from ..frontend.nodes import SourceSpan
from ..qflow import FlowRelation, QubitKey
from ..qir.model import CircuitDecl, CircuitKind, EventKind, OperatorEvent, QuantumIR
from ..qir.model import QubitRef, register_offsets


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
    out = []
    for a, b, key in flow.directly_pairs:
        first, second = flow.event(a), flow.event(b)
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
    out = []
    for a, b, key in flow.directly_pairs:
        measurement, gate = flow.event(a), flow.event(b)
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
    for event in ir.events:
        if event.kind is not EventKind.MEASURE_ALL or not event.creates_new_register:
            continue
        if event.circuit is None:
            continue
        clbits = ir.circuits[event.circuit].num_clbits
        if clbits is not None and clbits > 0:
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
    for event in ir.events:
        if event.kind is not EventKind.GATE or not event.is_conditional:
            continue
        circuit_id = event.circuit
        if circuit_id is None or circuit_id in composed:
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
    out = []
    transforming = (EventKind.GATE, EventKind.RESET, EventKind.INITIALIZE)
    # Circuits we cannot fully see: an unknown operator, a composed child or
    # an initialize with unresolved targets may touch any qubit.
    opaque = flow.unknown_taint | {edge.parent for edge in ir.edges}
    opaque |= {e.circuit for e in ir.events if e.kind is EventKind.INITIALIZE and not e.qubits}
    # Per qubit key: first transforming seq per block, and the blocks it may reach.
    transformed: dict[QubitKey, tuple[dict[int, int], frozenset[int]]] = {}
    for event in ir.events:
        if event.kind is not EventKind.MEASUREMENT or event.circuit is None:
            continue
        circuit_id = event.circuit
        if ir.circuits[circuit_id].kind is not CircuitKind.CONSTRUCTOR:
            # Derived or externally built circuits have content we cannot see.
            continue
        if circuit_id in opaque:
            continue
        ref = event.qubits[0] if event.qubits else None
        if ref is None or not ref.is_resolved:
            continue
        assert ref.register is not None and ref.index is not None
        key = (circuit_id, ref.register, ref.index)
        if key not in transformed:
            first: dict[int, int] = {}
            for other in map(flow.event, flow.timelines.get(key, ())):
                if other.kind in transforming:
                    first.setdefault(other.block, other.seq)
            transformed[key] = (first, flow.cfg.reachable_from(first))
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


def _measured_qubit_demand(circuit: CircuitDecl, events: list[OperatorEvent]) -> int | None:
    """Distinct qubits the circuit's events measure, or None when nothing is measured."""
    measured: set[QubitRef] = set()
    saw_measurement = False
    for event in events:
        if event.kind is EventKind.MEASURE_ALL and not event.qubits and circuit.num_qubits:
            return circuit.num_qubits  # every qubit of a layout it could not resolve
        if event.kind is EventKind.MEASUREMENT or event.kind is EventKind.MEASURE_ALL:
            saw_measurement = True
            measured.update(ref for ref in event.qubits if ref.is_resolved)
    return len(measured) if saw_measurement else None


def run_insuff_clas_reg(ir: QuantumIR, flow: FlowRelation) -> list[Warning]:
    """The classical register cannot hold results for the qubits measured."""
    out = []
    subcircuits = _subcircuits(ir)
    for circuit in ir.circuits.values():
        if circuit.kind is not CircuitKind.CONSTRUCTOR:
            continue
        nq, nc = circuit.num_qubits, circuit.num_clbits
        if nq is None or nc is None or nq <= nc:
            continue
        if circuit.id in subcircuits:
            continue
        demand = _measured_qubit_demand(circuit, flow.events_by_circuit.get(circuit.id, []))
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
    parents = {edge.parent for edge in ir.edges}
    for circuit in ir.circuits.values():
        if circuit.kind is not CircuitKind.CONSTRUCTOR:
            continue
        nq = circuit.num_qubits  # known only when every register size is
        if not nq:
            continue
        events = flow.events_by_circuit.get(circuit.id, [])
        if any(e.kind is EventKind.UNKNOWN or e.kind is EventKind.INITIALIZE for e in events):
            continue
        if circuit.id in parents:
            continue
        offsets = register_offsets(ir, circuit)
        touched: set[int] = set()
        for event in events:
            for ref in event.qubits:
                offset = offsets.get(ref.register)  # None: unresolved, or not this circuit's
                if offset is not None and ref.index is not None:
                    touched.add(offset + ref.index)
        unused = sorted(set(range(nq)) - touched)
        if unused:
            listing = ", ".join(str(i) for i in unused)
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
    out = []
    acting = (EventKind.GATE, EventKind.MEASUREMENT, EventKind.MEASURE_ALL)
    for event in ir.events:
        if event.kind not in acting or event.circuit is None:
            continue
        circuit = ir.circuits[event.circuit]
        if circuit.kind is not CircuitKind.TRANSPILED:
            continue
        if circuit.transpile_opt_level == 3:
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
