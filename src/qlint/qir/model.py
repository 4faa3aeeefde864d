"""Quantum IR: registers, circuits, operator events, composition facts."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..frontend.constprop import UNKNOWN, ConstValue
from ..frontend.nodes import SourceSpan


class CircuitKind(enum.Enum):
    CONSTRUCTOR = "constructor"
    USER_FUNCTION_RETURN = "user_function_return"
    BUILTIN_PARAMETRIZED = "builtin_parametrized"
    UNKNOWN_WITH_CIRCUIT_METHODS = "unknown_with_circuit_methods"
    COPY = "copy"
    TRANSPILED = "transpiled"


class EventKind(enum.Enum):
    GATE = "gate"
    MEASUREMENT = "measurement"
    MEASURE_ALL = "measure_all"
    RESET = "reset"
    INITIALIZE = "initialize"
    BARRIER = "barrier"
    UNKNOWN = "unknown"


class UnknownCause(enum.Enum):
    UNRESOLVED_QUBIT = "unresolved_qubit"
    UNKNOWN_CALLEE_WITH_CIRCUIT_ARG = "unknown_callee_with_circuit_arg"
    GLOBAL_CIRCUIT_MUTATION = "global_circuit_mutation"


@dataclass(frozen=True)
class QubitRef:
    """A qubit (or classical bit) operand: resolved (register, index) or unknown."""

    register: str | None
    index: int | None

    @property
    def is_resolved(self) -> bool:
        return self.register is not None and self.index is not None


UNRESOLVED_BIT = QubitRef(None, None)


@dataclass
class RegisterDecl:
    id: str
    kind: str  # "quantum" | "classical"
    size: ConstValue
    span: SourceSpan
    name: str | None = None
    owner_circuits: set[str] = field(default_factory=set)

    def display_name(self) -> str:
        return self.name if self.name is not None else self.id


@dataclass
class CircuitDecl:
    id: str
    kind: CircuitKind
    span: SourceSpan
    scope: str
    name: str | None = None
    num_qubits: ConstValue = UNKNOWN
    num_clbits: ConstValue = UNKNOWN
    quantum_registers: list[str] = field(default_factory=list)
    classical_registers: list[str] = field(default_factory=list)
    transpile_opt_level: ConstValue = UNKNOWN
    subcircuit_flags: set[str] = field(default_factory=set)


@dataclass
class CompositionEdge:
    parent: str
    child: str
    mechanism: str  # "append" | "compose"
    span: SourceSpan


@dataclass
class OperatorEvent:
    id: str
    circuit: str | None
    kind: EventKind
    seq: int
    block: int
    scope: str
    span: SourceSpan
    gate_name: str | None = None
    is_conditional: bool = False
    creates_new_register: bool = False
    unknown_cause: UnknownCause | None = None
    qubits: list[QubitRef] = field(default_factory=list)
    clbits: list[QubitRef] = field(default_factory=list)


@dataclass
class ComposeCall:
    """One compose() call site, with how its result is consumed."""

    circuit: str
    span: SourceSpan
    bare_statement: bool
    inplace_true: bool


@dataclass
class Diagnostic:
    """Extraction-level oddity (for example an out-of-range register index)."""

    message: str
    span: SourceSpan


@dataclass
class QuantumIR:
    """Everything extracted from one file."""

    file: str
    registers: dict[str, RegisterDecl] = field(default_factory=dict)
    circuits: dict[str, CircuitDecl] = field(default_factory=dict)
    events: list[OperatorEvent] = field(default_factory=list)
    edges: list[CompositionEdge] = field(default_factory=list)
    compose_calls: list[ComposeCall] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def events_of(self, circuit_id: str) -> list[OperatorEvent]:
        return [e for e in self.events if e.circuit == circuit_id]

    def has_unknown_operator(self, circuit_id: str) -> bool:
        return any(
            e.kind is EventKind.UNKNOWN and e.circuit == circuit_id for e in self.events
        )

    def is_composition_parent(self, circuit_id: str) -> bool:
        return any(edge.parent == circuit_id for edge in self.edges)

    def is_subcircuit(self, circuit_id: str) -> bool:
        """Child of an append/compose edge, or flagged as a likely subcircuit."""
        if any(edge.child == circuit_id for edge in self.edges):
            return True
        circuit = self.circuits.get(circuit_id)
        return bool(circuit and circuit.subcircuit_flags)

    def in_any_composition(self, circuit_id: str) -> bool:
        return (
            self.is_composition_parent(circuit_id)
            or self.is_subcircuit(circuit_id)
        )


def absolute_index(ir: QuantumIR, circuit_id: str, ref: QubitRef) -> ConstValue:
    """Position of a resolved qubit in the whole circuit.

    The register-local index is shifted by the sizes of quantum registers
    associated with the circuit before the qubit's own register; any unknown
    preceding size makes the result Unknown.
    """
    if not ref.is_resolved:
        return UNKNOWN
    circuit = ir.circuits[circuit_id]
    if ref.register not in circuit.quantum_registers:
        raise ValueError(
            f"register {ref.register} is not associated with circuit {circuit_id}"
        )
    offset = 0
    for reg_id in circuit.quantum_registers:
        if reg_id == ref.register:
            assert ref.index is not None
            return ConstValue(offset + ref.index)
        size = ir.registers[reg_id].size
        if not size.is_known:
            return UNKNOWN
        assert size.value is not None
        offset += size.value
    raise AssertionError("unreachable")
