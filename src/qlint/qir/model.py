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


class Layout(NamedTuple):
    """A circuit's registers, in order, and what follows from them. A layout is
    `open` when a value qlint cannot see may hold more registers: its counts
    are then None, and a bare index names no known slot."""

    quantum: tuple[str, ...] = ()
    classical: tuple[str, ...] = ()
    open: bool = True
    num_qubits: int | None = None  # None while unknown
    num_clbits: int | None = None
    # Where each quantum register's qubits start, while `num_qubits` is known.
    offsets: tuple[int, ...] = ()

    def adding(
        self, registers: dict[str, RegisterDecl], reg_ids: list[str], open: bool = False
    ) -> "Layout":
        """This layout with the registers `reg_ids` appended, each once, and
        opened if `open`; its counts and offsets derived anew."""
        quantum, classical = list(self.quantum), list(self.classical)
        for reg_id in reg_ids:
            target = quantum if registers[reg_id].kind == "quantum" else classical
            if reg_id not in target:
                target.append(reg_id)
        if open or self.open:
            return Layout(tuple(quantum), tuple(classical))
        offsets, num_qubits, num_clbits = [], 0, 0
        for reg_id in quantum:
            offsets.append(num_qubits)
            size = registers[reg_id].size
            num_qubits = None if num_qubits is None or size is None else num_qubits + size
        for reg_id in classical:
            size = registers[reg_id].size
            num_clbits = None if num_clbits is None or size is None else num_clbits + size
        # `tuple.__new__` skips the Python-level `__new__` of a NamedTuple.
        return tuple.__new__(Layout, (tuple(quantum), tuple(classical), False, num_qubits,
                                      num_clbits, () if num_qubits is None else tuple(offsets)))


_OPEN = Layout()  # the layout of a circuit `QuantumCircuit(...)` did not build


class CircuitDecl(Record):
    __slots__ = ("id", "kind", "span", "scope", "name", "layout", "transpile_opt_level",
                 "subcircuit_flags")

    def __init__(
        self, id: str, kind: CircuitKind, span: SourceSpan, scope: str, name: str | None = None
    ) -> None:
        self.id, self.kind, self.span, self.scope, self.name = id, kind, span, scope, name
        self.layout = _OPEN  # immutable, so circuits share one
        self.transpile_opt_level: int | None = None
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

