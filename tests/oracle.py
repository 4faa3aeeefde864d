"""Reference interpreter used as an independent oracle.

It concretely executes a program with stub quantum classes and records the
per-qubit sequence of operations. Nothing here touches the analyzer: Python's
own evaluator supplies loops, arithmetic, and variable semantics.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache


@dataclass(frozen=True)
class TraceEvent:
    line: int
    name: str
    kind: str  # "gate" | "measure" | "reset"
    qubits: tuple[tuple[str, int], ...]


@dataclass
class OracleTrace:
    events: list[TraceEvent] = field(default_factory=list)
    # Every circuit the program built, by constructor or `copy()`, in order.
    circuits: list["StubQuantumCircuit"] = field(default_factory=list)

    def timelines(self) -> dict[tuple[str, int], list[TraceEvent]]:
        out: dict[tuple[str, int], list[TraceEvent]] = {}
        for event in self.events:
            for qubit in event.qubits:
                out.setdefault(qubit, []).append(event)
        return out

    def may_follow(self) -> set[tuple[tuple[str, int], int, int]]:
        """(qubit, earlier line, later line) for every ordered timeline pair."""
        pairs = set()
        for qubit, events in self.timelines().items():
            for i, a in enumerate(events):
                for b in events[i + 1 :]:
                    pairs.add((qubit, a.line, b.line))
        return pairs

    def may_follow_directly(self) -> set[tuple[tuple[str, int], int, int]]:
        """(qubit, earlier line, later line) for adjacent timeline pairs."""
        pairs = set()
        for qubit, events in self.timelines().items():
            for a, b in zip(events, events[1:]):
                pairs.add((qubit, a.line, b.line))
        return pairs


def _program_line() -> int:
    """The line the traced program is running: that of the first frame outside this module."""
    frame = sys._getframe(1)
    while frame.f_code.co_filename == __file__:
        frame = frame.f_back
    return frame.f_lineno


class _Bit:
    def __init__(self, register: "_Register", index: int) -> None:
        self.register = register
        self.index = index

    def key(self) -> tuple[str, int]:
        return (self.register.name, self.index)


class _Register:
    _kind = "quantum"

    def __init__(self, size: int, name: str | None = None) -> None:
        self.size = size
        self.name = name if name is not None else ("q" if self._kind == "quantum" else "c")
        self.line = _program_line()  # where the program made it, perhaps implicitly

    def __getitem__(self, index: int) -> _Bit:
        if not 0 <= index < self.size:
            raise IndexError(f"register {self.name} has no slot {index}")
        return _Bit(self, index)

    def __iter__(self):
        return (self[i] for i in range(self.size))

    def __len__(self) -> int:
        return self.size


class StubQuantumRegister(_Register):
    _kind = "quantum"


class StubClassicalRegister(_Register):
    _kind = "classical"


# Gate arities known to the oracle: name -> (leading params, qubit operands).
_GATE_SHAPES: dict[str, tuple[int, int]] = {
    "h": (0, 1),
    "x": (0, 1),
    "y": (0, 1),
    "z": (0, 1),
    "s": (0, 1),
    "sdg": (0, 1),
    "t": (0, 1),
    "tdg": (0, 1),
    "sx": (0, 1),
    "id": (0, 1),
    "i": (0, 1),
    "rx": (1, 1),
    "ry": (1, 1),
    "rz": (1, 1),
    "p": (1, 1),
    "cx": (0, 2),
    "cy": (0, 2),
    "cz": (0, 2),
    "ch": (0, 2),
    "swap": (0, 2),
    "iswap": (0, 2),
    "crx": (1, 2),
    "cry": (1, 2),
    "crz": (1, 2),
    "cp": (1, 2),
    "ccx": (0, 3),
    "cswap": (0, 3),
}


class StubQuantumCircuit:
    def __init__(self, *args) -> None:
        self.qregs: list[StubQuantumRegister] = []
        self.cregs: list[StubClassicalRegister] = []
        self.line = _program_line()
        self._trace: OracleTrace | None = None
        self.add_register(*args)

    def _attach(self, trace: OracleTrace) -> None:
        self._trace = trace
        trace.circuits.append(self)

    def add_register(self, *regs) -> None:
        """Registers, or Qiskit's sizes: one int for a register `q`, two for
        `q` and `c`; a size 0 adds none. Mixed forms and a register the
        circuit already holds raise, as in Qiskit."""
        if any(isinstance(reg, int) for reg in regs):
            if len(regs) > 2 or not all(isinstance(reg, int) for reg in regs):
                raise TypeError(f"registers or up to two sizes, not {regs!r}")
            sizes = regs
            regs = [StubQuantumRegister(sizes[0], "q")] if sizes[0] else []
            if len(sizes) == 2 and sizes[1]:
                regs.append(StubClassicalRegister(sizes[1], "c"))
        for reg in regs:
            if not isinstance(reg, _Register):
                raise TypeError(f"unsupported circuit argument: {reg!r}")
            if any(reg is held for held in self.qregs + self.cregs):
                raise ValueError(f"register {reg.name} is already in the circuit")
            (self.qregs if isinstance(reg, StubQuantumRegister) else self.cregs).append(reg)

    def copy(self) -> "StubQuantumCircuit":
        twin = object.__new__(type(self))
        twin.qregs, twin.cregs, twin.line = list(self.qregs), list(self.cregs), _program_line()
        twin._trace = None
        if self._trace is not None:
            twin._attach(self._trace)
        return twin

    # --- qubit normalization ---

    def _absolute(self, index: int) -> _Bit:
        offset = 0
        for reg in self.qregs:
            if index < offset + reg.size:
                return reg[index - offset]
            offset += reg.size
        raise IndexError(f"qubit index {index} out of range")

    def _qubit(self, spec) -> _Bit:
        if isinstance(spec, _Bit):
            return spec
        if isinstance(spec, int):
            return self._absolute(spec)
        raise TypeError(f"unsupported qubit reference: {spec!r}")

    def _qubits(self, spec) -> list[_Bit]:
        if isinstance(spec, (list, tuple)):
            return [self._qubit(s) for s in spec]
        if isinstance(spec, _Register):
            return list(spec)
        return [self._qubit(spec)]

    def _record(self, name: str, kind: str, bits: list[_Bit], line: int) -> None:
        assert self._trace is not None, "circuit used before trace attachment"
        self._trace.events.append(
            TraceEvent(line, name, kind, tuple(b.key() for b in bits))
        )

    def __getattr__(self, name: str):
        shape = _GATE_SHAPES.get(name)
        if shape is None:
            raise AttributeError(name)
        params, qubits = shape

        def apply(*args):
            line = sys._getframe(1).f_lineno
            operands = args[params : params + qubits]
            bits = [self._qubit(q) for q in operands]
            self._record(name, "gate", bits, line)
            return self

        return apply

    def measure(self, qubits, clbits=None):
        line = sys._getframe(1).f_lineno
        for bit in self._qubits(qubits):
            self._record("measure", "measure", [bit], line)
        return self

    def reset(self, qubit):
        line = sys._getframe(1).f_lineno
        self._record("reset", "reset", [self._qubit(qubit)], line)
        return self

    def barrier(self, *args):
        return self


def trace_program(
    source: str, filename: str = "<oracle>", names: dict[str, object] | None = None
) -> OracleTrace:
    """Execute a program against the stubs and return its event trace.

    `names` pre-binds extra globals, such as branch flags or helper functions.
    """
    trace = OracleTrace()

    class TracedCircuit(StubQuantumCircuit):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            self._attach(trace)

    namespace = {
        "QuantumRegister": StubQuantumRegister,
        "ClassicalRegister": StubClassicalRegister,
        "QuantumCircuit": TracedCircuit,
        **(names or {}),
    }
    exec(_compiled(source, filename), namespace)
    return trace


@lru_cache(maxsize=8)
def _compiled(source: str, filename: str):
    # Runs that only rebind `names` reuse the code object.
    return compile(source, filename, "exec")


def capture_values(source: str, filename: str = "<oracle>") -> dict[int, int]:
    """Execute a program whose `use(x)` calls record concrete values per line."""
    seen: dict[int, int] = {}

    def use(value):
        line = sys._getframe(1).f_lineno
        seen[line] = value
        return value

    namespace = {"use": use}
    exec(compile(source, filename, "exec"), namespace)
    return seen
