"""Quantum IR: registers, circuits, operator events, compose calls."""

from collections.abc import Sequence

from ..frontend.cfg import Cfg
from ..frontend.nodes import Record, SourceSpan, TupleRecord


class Kind:
    """Base of qlint's kinds: a fixed set of named members, as `enum.Enum` gives.

    A subclass lists its members as upper-case class attributes holding their
    values; `__init_subclass__` replaces each by an instance of the subclass
    with that `name` and `value`. Members compare by identity, and a copy or
    a pickle round trip gives back the member itself. The kinds are written
    out rather than made by `enum`, so importing qlint does not load it; a
    kind class cannot be iterated, nor looked up by value.
    """

    __slots__ = ("name", "value")

    def __init_subclass__(cls) -> None:
        for name, value in list(vars(cls).items()):
            if name.isupper() and type(value) is str:
                member = object.__new__(cls)
                member.name, member.value = name, value
                setattr(cls, name, member)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}.{self.name}: {self.value!r}>"

    def __reduce__(self) -> tuple:  # what `copy` and `pickle` call: the member by name
        return getattr, (type(self), self.name)


class CircuitKind(Kind):
    __slots__ = ()
    CONSTRUCTOR = "constructor"
    USER_FUNCTION_RETURN = "user_function_return"
    BUILTIN_PARAMETRIZED = "builtin_parametrized"
    COPY = "copy"
    TRANSPILED = "transpiled"


class EventKind(Kind):
    __slots__ = ()
    GATE = "gate"
    MEASUREMENT = "measurement"
    MEASURE_ALL = "measure_all"
    RESET = "reset"
    INITIALIZE = "initialize"
    BARRIER = "barrier"
    UNKNOWN = "unknown"


class UnknownCause(Kind):
    __slots__ = ()
    UNRESOLVED_QUBIT = "unresolved_qubit"
    UNKNOWN_CALLEE_WITH_CIRCUIT_ARG = "unknown_callee_with_circuit_arg"
    GLOBAL_CIRCUIT_MUTATION = "global_circuit_mutation"


class QubitRef(TupleRecord):
    """A qubit (or classical bit) operand: resolved (register, index) or unknown."""

    __slots__ = ()
    _fields = ("register", "index")

    def __new__(cls, register: str | None, index: int | None):
        return tuple.__new__(cls, (register, index))


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


class Layout(TupleRecord):
    """A circuit's registers, in order, and what follows from them. A layout is
    `open` when a value qlint cannot see may hold more registers: its counts
    are then None, and a bare index names no known slot. `offsets` says where
    each quantum register's qubits start, while `num_qubits` is known."""

    __slots__ = ()
    _fields = ("quantum", "classical", "open", "num_qubits", "num_clbits", "offsets")

    def __new__(
        cls, quantum: tuple[str, ...] = (), classical: tuple[str, ...] = (), open: bool = True,
        num_qubits: int | None = None, num_clbits: int | None = None, offsets: tuple[int, ...] = (),
    ):
        return tuple.__new__(cls, (quantum, classical, open, num_qubits, num_clbits, offsets))

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
        # `tuple.__new__` skips the record's Python-level `__new__`.
        return tuple.__new__(Layout, (tuple(quantum), tuple(classical), False, num_qubits,
                                      num_clbits, () if num_qubits is None else tuple(offsets)))


_OPEN = Layout()  # the layout of a circuit `QuantumCircuit(...)` did not build

# Why qlint may not see all of a circuit, as `CircuitDecl.unseen` records them:
# an unknown event (unknown code, or operands qlint could not resolve); being
# composed into another circuit, or having one composed in; an `initialize` on
# resolved qubits, or on ones it could not list; being returned, or made a gate.
UNSEEN_REASONS = ("unknown_operator", "subcircuit", "has_subcircuit", "initialize",
                  "initialize_all", "returned_from_function", "to_gate_or_instruction")


class CircuitDecl(Record):
    __slots__ = ("id", "kind", "span", "name", "layout", "transpile_opt_level", "unseen")

    def __init__(
        self, id: str, kind: CircuitKind, span: SourceSpan, name: str | None = None
    ) -> None:
        self.id, self.kind, self.span, self.name = id, kind, span, name
        self.layout = _OPEN  # immutable, so circuits share one
        self.transpile_opt_level: int | None = None
        self.unseen: set[str] = set()  # of UNSEEN_REASONS


class OperatorEvent(TupleRecord):
    """One operator on a circuit. Its `id` is its position in `ir.events`,
    and its `block` a block of `ir.cfg`, which names its scope."""

    __slots__ = ()
    _fields = ("id", "circuit", "kind", "block", "span", "gate_name", "is_conditional",
               "creates_new_register", "unknown_cause", "qubits", "clbits")

    def __new__(
        cls, id: int, circuit: str | None, kind: EventKind, block: int, span: SourceSpan,
        gate_name: str | None = None, is_conditional: bool = False,
        creates_new_register: bool = False, unknown_cause: UnknownCause | None = None,
        qubits: Sequence[QubitRef] = (), clbits: Sequence[QubitRef] = (),
    ):
        return tuple.__new__(cls, (id, circuit, kind, block, span, gate_name, is_conditional,
                                   creates_new_register, unknown_cause, qubits, clbits))


class ComposeCall(TupleRecord):
    """One compose() call site, with how its result is consumed and whether
    the call may change its receiver in place."""

    __slots__ = ()
    _fields = ("circuit", "span", "bare_statement", "in_place")

    def __new__(cls, circuit: str, span: SourceSpan, bare_statement: bool, in_place: bool):
        return tuple.__new__(cls, (circuit, span, bare_statement, in_place))


class Diagnostic(TupleRecord):
    """Extraction-level oddity (for example an out-of-range register index)."""

    __slots__ = ()
    _fields = ("message", "span")

    def __new__(cls, message: str, span: SourceSpan):
        return tuple.__new__(cls, (message, span))


class QuantumIR(Record):
    """Everything extracted from one file; each event's `block` is a block of `cfg`."""

    __slots__ = ("registers", "circuits", "events", "compose_calls", "diagnostics", "cfg")

    def __init__(self) -> None:
        self.registers: dict[str, RegisterDecl] = {}
        self.circuits: dict[str, CircuitDecl] = {}
        self.events: list[OperatorEvent] = []
        self.compose_calls: list[ComposeCall] = []
        self.diagnostics: list[Diagnostic] = []
        self.cfg = Cfg()

