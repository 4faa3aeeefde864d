"""Quantum IR: registers, circuits, operator events, composition facts."""

import enum
from typing import NamedTuple

from ..frontend.cfg import Cfg
from ..frontend.nodes import Record, SourceSpan


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


class QubitRef(NamedTuple):
    """A qubit (or classical bit) operand: resolved (register, index) or unknown."""

    register: str | None
    index: int | None


UNRESOLVED_BIT = QubitRef(None, None)


class RegisterDecl(Record):
    __slots__ = ("id", "kind", "size", "span", "name")

    def __init__(
        self, id: str, kind: str, size: int | None, span: SourceSpan, name: str | None = None
    ) -> None:
        self.id, self.size, self.span, self.name = id, size, span, name
        self.kind = kind  # "quantum" | "classical"

    def display_name(self) -> str:
        return self.name if self.name is not None else self.id


class CircuitDecl(Record):
    __slots__ = ("id", "kind", "span", "scope", "name", "num_qubits", "num_clbits",
                 "quantum_registers", "classical_registers", "transpile_opt_level",
                 "subcircuit_flags")

    def __init__(
        self, id: str, kind: CircuitKind, span: SourceSpan, scope: str, name: str | None = None
    ) -> None:
        self.id, self.kind, self.span, self.scope, self.name = id, kind, span, scope, name
        # Integers, each None while unknown.
        self.num_qubits = self.num_clbits = self.transpile_opt_level = None
        self.quantum_registers: list[str] = []
        self.classical_registers: list[str] = []
        self.subcircuit_flags: set[str] = set()


class CompositionEdge(NamedTuple):
    parent: str
    child: str
    mechanism: str  # "append" | "compose"
    span: SourceSpan


class OperatorEvent(Record):
    __slots__ = ("id", "circuit", "kind", "seq", "block", "scope", "span", "gate_name",
                 "is_conditional", "creates_new_register", "unknown_cause", "qubits", "clbits")

    def __init__(
        self, id: str, circuit: str | None, kind: EventKind, seq: int, block: int, scope: str,
        span: SourceSpan, gate_name: str | None = None, creates_new_register: bool = False,
        unknown_cause: UnknownCause | None = None, qubits: list[QubitRef] | None = None,
        clbits: list[QubitRef] | None = None,
    ) -> None:
        self.id, self.circuit, self.kind, self.seq, self.block = id, circuit, kind, seq, block
        self.scope, self.span, self.gate_name = scope, span, gate_name
        self.is_conditional = False  # set when a `.c_if(...)` follows
        self.creates_new_register, self.unknown_cause = creates_new_register, unknown_cause
        self.qubits = [] if qubits is None else qubits
        self.clbits = [] if clbits is None else clbits


class ComposeCall(NamedTuple):
    """One compose() call site, with how its result is consumed."""

    circuit: str
    span: SourceSpan
    bare_statement: bool
    inplace_true: bool


class Diagnostic(NamedTuple):
    """Extraction-level oddity (for example an out-of-range register index)."""

    message: str
    span: SourceSpan


class QuantumIR(Record):
    """Everything extracted from one file; each event's `block` is a block of `cfg`."""

    __slots__ = ("file", "registers", "circuits", "events", "edges", "compose_calls",
                 "diagnostics", "cfg")

    def __init__(self, file: str) -> None:
        self.file = file
        self.registers: dict[str, RegisterDecl] = {}
        self.circuits: dict[str, CircuitDecl] = {}
        self.events: list[OperatorEvent] = []
        self.edges: list[CompositionEdge] = []
        self.compose_calls: list[ComposeCall] = []
        self.diagnostics: list[Diagnostic] = []
        self.cfg = Cfg()


def register_offsets(ir: QuantumIR, circuit: CircuitDecl) -> dict[str, int]:
    """Position in the circuit of each quantum register's first qubit: the sum of the
    sizes of the registers before it. Registers after one of unknown size have none."""
    offsets: dict[str, int] = {}
    offset = 0
    for reg_id in circuit.quantum_registers:
        offsets[reg_id] = offset
        size = ir.registers[reg_id].size
        if size is None:
            break
        offset += size
    return offsets

