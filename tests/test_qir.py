"""Quantum IR extraction tests: entities, operands, composition, gate table."""

from __future__ import annotations

import random
import subprocess
import sys
import time
import traceback
import zipfile
from pathlib import Path

import pytest
from conftest import pipeline, sample_source, warnings_for
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import trace_program

from qlint.frontend import SourceSpan
from qlint.qir import (
    UNRESOLVED_BIT,
    CircuitKind,
    EventKind,
    Layout,
    RegisterDecl,
    UnknownCause,
    load_gate_table,
    parse_gate_table,
)


def _ir(source: str):
    return pipeline(source).ir


def _events(ir, kind=None):
    return [e for e in ir.events if kind is None or e.kind is kind]


def _the_circuit(ir, kind=CircuitKind.CONSTRUCTOR):
    matches = [c for c in ir.circuits.values() if c.kind is kind]
    assert len(matches) == 1
    return matches[0]


class TestTwoBugDemo:
    def test_entity_counts(self):
        ir = _ir(sample_source("two_bugs"))
        quantum = [r for r in ir.registers.values() if r.kind == "quantum"]
        classical = [r for r in ir.registers.values() if r.kind == "classical"]
        assert len(quantum) == 1 and quantum[0].size == 4
        assert len(classical) == 1 and classical[0].size == 3
        constructor = _the_circuit(ir)
        assert constructor.layout.num_qubits == 4
        assert constructor.layout.num_clbits == 3
        transpiled = _the_circuit(ir, CircuitKind.TRANSPILED)
        assert transpiled.layout.num_qubits == 4

    def test_event_counts(self):
        ir = _ir(sample_source("two_bugs"))
        gates = _events(ir, EventKind.GATE)
        names = sorted(e.gate_name for e in gates)
        assert names == ["h", "h", "h", "ry"]
        measures = _events(ir, EventKind.MEASUREMENT)
        assert len(measures) == 4  # one single + a three-element list form
        unknowns = _events(ir, EventKind.UNKNOWN)
        assert len(unknowns) == 1
        assert unknowns[0].circuit == _the_circuit(ir, CircuitKind.TRANSPILED).id

    def test_constructor_circuit_has_no_unknown_operator(self):
        result = pipeline(sample_source("two_bugs"))
        assert _the_circuit(result.ir).id not in result.flow.unknown_taint


class TestCircuitConstruction:
    def test_implicit_registers(self):
        ir = _ir("qc = QuantumCircuit(2, 2)\n")
        circuit = _the_circuit(ir)
        assert circuit.layout.num_qubits == 2
        assert circuit.layout.num_clbits == 2
        assert len(ir.registers) == 2
        kinds = sorted(r.kind for r in ir.registers.values())
        assert kinds == ["classical", "quantum"]

    def test_quantum_only_constructor(self):
        ir = _ir("qc = QuantumCircuit(3)\n")
        circuit = _the_circuit(ir)
        assert circuit.layout.num_qubits == 3
        assert circuit.layout.num_clbits == 0

    @pytest.mark.parametrize(
        "call, sizes",
        [
            ("QuantumCircuit(-2)", [("quantum", None)]),
            ("QuantumCircuit(2, -1)", [("quantum", 2), ("classical", None)]),
            ("QuantumCircuit(-2, 3)", [("quantum", None), ("classical", 3)]),
            ("QuantumRegister(-2)", [("quantum", None)]),
        ],
    )
    def test_negative_size_is_reported_and_unknown(self, call, sizes):
        ir = _ir(f"qc = {call}\nqc.h(0)\n")
        assert [(r.kind, r.size) for r in ir.registers.values()] == sizes
        (diagnostic,) = ir.diagnostics
        assert diagnostic.message == "register declared with negative size"
        # At the argument of an implicit register, at the call of a declared one.
        column = 6 if call.startswith("QuantumRegister") else 6 + call.index("-")
        assert (diagnostic.span.line, diagnostic.span.column) == (1, column)

    @pytest.mark.parametrize(
        "call, sizes",
        [
            ("QuantumCircuit(200000)", [("quantum", None)]),
            ("QuantumCircuit(2, 10001)", [("quantum", 2), ("classical", None)]),
            ("QuantumRegister(200000)", [("quantum", None)]),
        ],
    )
    def test_size_above_the_cap_is_reported_and_unknown(self, call, sizes):
        ir = _ir(f"qc = {call}\nqc.h(0)\n")
        assert [(r.kind, r.size) for r in ir.registers.values()] == sizes
        (diagnostic,) = ir.diagnostics
        size = call.split(", ")[-1].split("(")[-1].rstrip(")")
        assert diagnostic.message == f"register size {size} is above 10000; treated as unknown"
        start = 6 if call.startswith("QuantumRegister") else 6 + call.index(size)
        assert (diagnostic.span.line, diagnostic.span.column) == (1, start)
        assert _ir("qc = QuantumCircuit(10000)\n").diagnostics == []

    def test_huge_size_is_never_enumerated(self):
        source = "qc = QuantumCircuit(1000000000)\nqc.h(0)\nqc.measure_all()\n"
        started = time.perf_counter()
        warnings = warnings_for(source)
        assert time.perf_counter() - started < 1.0
        assert warnings == []
        (event,) = _events(_ir(source), EventKind.MEASURE_ALL)
        assert event.qubits == []

    def test_listed_operands_are_bounded_per_file(self):
        # 1,000 expanded `measure_all()`s on 10,000 qubits would list ten
        # million operands; past MAX_LISTED_OPERANDS they are unresolved.
        source = (
            "qc = QuantumCircuit(10000)\n"
            "for i in range(10):\n"
            "    for j in range(10):\n"
            "        for k in range(10):\n"
            "            qc.measure_all()\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            f"import sys, resource, time; sys.path.insert(0, {str(src)!r})\n"
            "from qlint import analyze_pipeline\n"
            "started = time.perf_counter()\n"
            f"result = analyze_pipeline({source!r}, 't.py')\n"
            "print(time.perf_counter() - started)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n"
            "print(sum(1 for e in result.ir.events if e.qubits), len(result.ir.events))\n"
            "print([(d.span.line, d.message) for d in result.ir.diagnostics])\n"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60,
            check=True,
        )
        seconds, max_rss_mib, listed, diagnostics = done.stdout.splitlines()
        assert float(seconds) < 1.0
        assert float(max_rss_mib) < 100
        assert listed == "5 1000"
        assert diagnostics == repr(
            [(5, "whole-register operands above 50000; treated as unresolved")]
        )

    def test_register_operands_share_the_budget(self):
        # Two measures of whole registers list 40,000 operands and the
        # measure_all() 10,000 more: the budget is spent, so the last
        # measure is one unresolved event.
        source = (
            "qr = QuantumRegister(10000)\n"
            "cr = ClassicalRegister(10000)\n"
            "qc = QuantumCircuit(qr, cr)\n"
            "for i in range(2):\n"
            "    qc.measure(qr, cr)\n"
            "qc.measure_all()\n"
            "qc.measure(qr, cr)\n"
        )
        ir = _ir(source)
        measured = [e.span.line for e in _events(ir, EventKind.MEASUREMENT)]
        assert measured == [5] * 20000
        (measure_all,) = _events(ir, EventKind.MEASURE_ALL)
        assert len(measure_all.qubits) == 10000
        (unresolved,) = _events(ir, EventKind.UNKNOWN)
        assert (unresolved.span.line, unresolved.gate_name) == (7, "measure")
        assert [(d.span.line, d.span.column) for d in ir.diagnostics] == [(7, 12)]

    def test_unknown_size_argument(self):
        ir = _ir("qc = QuantumCircuit(n)\n")
        circuit = _the_circuit(ir)
        assert circuit.layout.num_qubits is None

    @pytest.mark.parametrize(
        "args, sizes",
        [
            ("n, 2", [("quantum", None), ("classical", 2)]),
            ("3, m", [("quantum", 3), ("classical", None)]),
            ("make_q(), make_c()", [("quantum", None), ("classical", None)]),
        ],
    )
    def test_unresolved_size_keeps_its_position(self, args, sizes):
        # The first size not known is the quantum register's, the second the classical one's.
        ir = _ir(f"qc = QuantumCircuit({args})\n")
        assert [(r.kind, r.size) for r in ir.registers.values()] == sizes
        assert _the_circuit(ir).layout.num_clbits == sizes[1][1]

    def test_register_association_order(self):
        source = (
            'qa = QuantumRegister(2, "qa")\n'
            'qb = QuantumRegister(2, "qb")\n'
            "qc = QuantumCircuit(qb, qa)\n"
        )
        ir = _ir(source)
        circuit = _the_circuit(ir)
        names = [ir.registers[r].display_name() for r in circuit.layout.quantum]
        assert names == ["qb", "qa"]

    def test_add_register_appends_in_order(self):
        source = (
            "qa = QuantumRegister(2)\n"
            "qc = QuantumCircuit(qa)\n"
            "qb = QuantumRegister(3)\n"
            "qc.add_register(qb)\n"
        )
        ir = _ir(source)
        circuit = _the_circuit(ir)
        assert circuit.layout.num_qubits == 5
        names = [ir.registers[r].display_name() for r in circuit.layout.quantum]
        assert names == ["qa", "qb"]

    def test_register_shared_across_circuits(self):
        source = (
            "qa = QuantumRegister(2)\n"
            "c1 = QuantumCircuit(qa)\n"
            "c2 = QuantumCircuit(qa)\n"
        )
        ir = _ir(source)
        (register,) = ir.registers.values()
        assert [c.layout.quantum for c in ir.circuits.values()] == [(register.id,)] * 2

    def test_builtin_parametrized_circuit(self):
        ir = _ir("ansatz = EfficientSU2(4)\nansatz.h(0)\n")
        circuit = _the_circuit(ir, CircuitKind.BUILTIN_PARAMETRIZED)
        assert circuit.name == "EfficientSU2"

    def test_copy_kind(self):
        ir = _ir("qc = QuantumCircuit(2, 2)\nqc2 = qc.copy()\nqc2.h(0)\n")
        copy = _the_circuit(ir, CircuitKind.COPY)
        assert copy.layout.num_qubits == 2
        gates = _events(ir, EventKind.GATE)
        assert gates and gates[0].circuit == copy.id

    def test_user_function_return_kind(self):
        source = (
            "def make():\n"
            "    qc = QuantumCircuit(2)\n"
            "    return qc\n"
            "main = make()\n"
            "main.h(0)\n"
        )
        ir = _ir(source)
        returned = [
            c
            for c in ir.circuits.values()
            if "returned_from_function" in c.subcircuit_flags
        ]
        assert len(returned) == 1
        call_site = _the_circuit(ir, CircuitKind.USER_FUNCTION_RETURN)
        assert call_site.layout.num_qubits is None

    def test_unknown_object_with_circuit_methods(self):
        source = "mystery = build()\ngate = mystery.to_gate()\n"
        ir = _ir(source)
        circuit = _the_circuit(ir, CircuitKind.UNKNOWN_WITH_CIRCUIT_METHODS)
        assert "to_gate_or_instruction" in circuit.subcircuit_flags

    def test_transpile_records_optimization_level(self):
        source = (
            "qc = QuantumCircuit(2, 2)\n"
            "t3 = transpile(qc, backend, optimization_level=3)\n"
            "t0 = transpile(qc, backend)\n"
        )
        ir = _ir(source)
        levels = sorted(
            (c.transpile_opt_level for c in ir.circuits.values()
             if c.kind is CircuitKind.TRANSPILED),
            key=repr,
        )
        assert levels == [3, None]


class TestQubitResolution:
    def test_register_subscript(self):
        source = (
            "qa = QuantumRegister(2)\n"
            "ca = ClassicalRegister(2)\n"
            "qc = QuantumCircuit(qa, ca)\n"
            "qc.measure(qa[0], ca[0])\n"
        )
        ir = _ir(source)
        (measure,) = _events(ir, EventKind.MEASUREMENT)
        assert measure.qubits[0] != UNRESOLVED_BIT
        assert measure.qubits[0].index == 0
        assert measure.clbits[0] != UNRESOLVED_BIT

    def test_unknown_index_degrades_event(self):
        ir = _ir("qc = QuantumCircuit(2, 2)\nqc.h(idx)\n")
        (event,) = _events(ir, EventKind.UNKNOWN)
        assert event.unknown_cause is UnknownCause.UNRESOLVED_QUBIT
        assert event.gate_name == "h"
        assert not _events(ir, EventKind.GATE)

    def test_list_pattern_target_forgets_constant(self):
        source = (
            "q = QuantumRegister(2)\n"
            "qc = QuantumCircuit(q)\n"
            "a = 0\n"
            "[a, b] = f()\n"
            "qc.h(q[a])\n"
        )
        ir = _ir(source)
        (event,) = _events(ir, EventKind.UNKNOWN)
        assert event.unknown_cause is UnknownCause.UNRESOLVED_QUBIT
        assert not _events(ir, EventKind.GATE)

    def test_loop_variable_reusing_register_name_is_an_index(self):
        source = (
            "q = QuantumRegister(3)\n"
            "qc = QuantumCircuit(q)\n"
            "for q in range(2):\n"
            "    qc.h(q)\n"
        )
        gates = _events(_ir(source), EventKind.GATE)
        assert [[r.index for r in g.qubits] for g in gates] == [[0], [1]]

    def test_partially_unknown_multi_qubit_gate(self):
        ir = _ir("qc = QuantumCircuit(2, 2)\nqc.cx(0, i)\n")
        (event,) = _events(ir, EventKind.UNKNOWN)
        assert event.unknown_cause is UnknownCause.UNRESOLVED_QUBIT
        assert event.gate_name == "cx"

    def test_bare_int_with_multiple_registers_is_unknown(self):
        source = (
            "qa = QuantumRegister(2)\n"
            "qb = QuantumRegister(2)\n"
            "qc = QuantumCircuit(qa, qb)\n"
            "qc.h(1)\n"
        )
        ir = _ir(source)
        assert _events(ir, EventKind.UNKNOWN)
        assert not _events(ir, EventKind.GATE)

    def test_out_of_range_index_is_a_diagnostic(self):
        ir = _ir("qa = QuantumRegister(2)\nqc = QuantumCircuit(qa)\nqc.h(qa[5])\n")
        assert ir.diagnostics
        assert "out of range" in ir.diagnostics[0].message
        assert _events(ir, EventKind.UNKNOWN)

    def test_whole_register_measure_expands(self):
        source = (
            "qa = QuantumRegister(3)\n"
            "ca = ClassicalRegister(3)\n"
            "qc = QuantumCircuit(qa, ca)\n"
            "qc.measure(qa, ca)\n"
        )
        ir = _ir(source)
        measures = _events(ir, EventKind.MEASUREMENT)
        assert [m.qubits[0].index for m in measures] == [0, 1, 2]
        assert [m.clbits[0].index for m in measures] == [0, 1, 2]

    def test_list_measure_expands_pairwise(self):
        ir = _ir("qc = QuantumCircuit(3, 3)\nqc.measure([0, 2], [1, 0])\n")
        measures = _events(ir, EventKind.MEASUREMENT)
        pairs = [(m.qubits[0].index, m.clbits[0].index) for m in measures]
        assert pairs == [(0, 1), (2, 0)]

    def test_unknown_operand_of_event_forces_unknown_kind(self):
        # Structural invariant over a mixed program.
        source = (
            "qc = QuantumCircuit(3, 3)\n"
            "qc.h(0)\n"
            "qc.cx(0, j)\n"
            "qc.measure(1, 1)\n"
            "helper(qc)\n"
        )
        ir = _ir(source)
        for event in ir.events:
            if event.kind is not EventKind.UNKNOWN:
                assert UNRESOLVED_BIT not in event.qubits

    def test_slot_of_unassociated_register_is_a_gate_and_a_diagnostic(self):
        source = (
            "qa = QuantumRegister(2)\n"
            "qb = QuantumRegister(2)\n"
            "qc = QuantumCircuit(qa)\n"
            "qc.h(qb[1])\n"
        )
        ir = _ir(source)
        (gate,) = _events(ir, EventKind.GATE)
        assert [(ir.registers[r.register].name, r.index) for r in gate.qubits] == [("qb", 1)]
        assert not _events(ir, EventKind.UNKNOWN)
        (diagnostic,) = ir.diagnostics
        assert diagnostic.message == "register qb is not associated with the circuit"
        assert (diagnostic.span.line, diagnostic.span.column) == (4, 6)

    def test_classical_slot_as_gate_qubit_is_unknown_without_diagnostic(self):
        source = (
            "qa = QuantumRegister(2)\n"
            "ca = ClassicalRegister(2)\n"
            "qc = QuantumCircuit(qa, ca)\n"
            "qc.h(ca[0])\n"
        )
        ir = _ir(source)
        (event,) = ir.events
        assert event.kind is EventKind.UNKNOWN
        assert event.unknown_cause is UnknownCause.UNRESOLVED_QUBIT
        assert event.gate_name == "h"
        assert ir.diagnostics == []

    def test_bare_int_past_the_only_register_is_out_of_range(self):
        ir = _ir("qc = QuantumCircuit(2)\nqc.h(5)\n")
        (event,) = ir.events
        assert event.kind is EventKind.UNKNOWN
        assert event.unknown_cause is UnknownCause.UNRESOLVED_QUBIT
        (diagnostic,) = ir.diagnostics
        assert diagnostic.message == "index 5 out of range for register q of size 2"
        assert (diagnostic.span.line, diagnostic.span.column) == (2, 6)


SPAN = SourceSpan("f.py", 1, 1, 1, 4)


_GATES = st.sampled_from(
    [("h", (i,)) for i in range(3)]
    + [(gate, (i, j)) for gate in ("cx", "measure") for i in range(3) for j in range(3)]
)


@st.composite
def _layout_programs(draw):
    """A straight-line program of register and circuit constructors,
    `add_register`, `copy()` and gates on bare indices; each circuit gets a
    name of its own. Returns the lines and, by line, each gate's indices."""
    lines: list[str] = []
    registers: list[str] = []
    circuits: list[str] = []
    gates: dict[int, tuple[int, ...]] = {}
    sizes = st.sampled_from([2, 1, 3, 0])

    def circuit() -> str:  # counted from the latest
        return circuits[-1 - draw(st.integers(0, len(circuits) - 1))]

    def args() -> str:
        """Registers, or up to two sizes, as Qiskit takes them; a `*` value
        may hold some of them, before or after the others."""
        if registers and draw(st.booleans()):
            values = draw(st.lists(st.sampled_from(registers), min_size=1, max_size=2))
        else:
            values = [str(size) for size in draw(st.lists(sizes, max_size=2))]
        split = draw(st.integers(-1, len(values)))  # -1: no `*` value
        if split < 0:
            return ", ".join(values)
        starred, plain = f"*[{', '.join(values[split:])}]", values[:split]
        return ", ".join([starred, *plain] if draw(st.booleans()) else [*plain, starred])

    steps = ["gate", "add", "register", "circuit", "gate", "add", "copy", "register", "gate"]
    for _ in range(draw(st.integers(4, 14))):
        step = draw(st.sampled_from(steps))
        if step == "register":
            kind = draw(st.sampled_from(["Quantum", "Classical"]))
            name = f"r{len(lines) + 1}"
            lines.append(f'{name} = {kind}Register({draw(sizes)}, "{name}")')
            registers.append(name)
            continue
        if step == "circuit" or not circuits:
            receiver = f"c{len(lines) + 1}"
            lines.append(f"{receiver} = QuantumCircuit({args()})")
            circuits.append(receiver)
        else:
            receiver = circuit()
        if step == "copy":
            lines.append(f"c{len(lines) + 1} = {receiver}.copy()")
            circuits.append(f"c{len(lines)}")
        elif step == "add":
            lines.append(f"{receiver}.add_register({args()})")
        if step == "gate" or step == "add" and draw(st.booleans()):
            gate, indices = draw(_GATES)
            lines.append(f"{receiver}.{gate}({', '.join(map(str, indices))})")
            gates[len(lines)] = indices
    return lines, gates


def _slot(registers, position):
    """The (register, index) at `position` of the registers' qubits, in order."""
    for reg in registers:
        if position < reg.size:
            return reg, position
        position -= reg.size


class TestAbsoluteIndex:
    """A closed layout's offsets: where each quantum register's qubits start."""

    def test_second_register_shifts(self):
        # Layout enumerated independently of the implementation under test.
        source = (
            'qa = QuantumRegister(2, "A")\n'
            'qb = QuantumRegister(2, "B")\n'
            "qc = QuantumCircuit(qa, qb)\n"
        )
        ir = _ir(source)
        layout = _the_circuit(ir).layout
        slots = []
        for reg_id in layout.quantum:
            size = ir.registers[reg_id].size
            slots.extend((reg_id, i) for i in range(size))
        assert slots.index((layout.quantum[1], 0)) == 2
        assert layout.offsets[1] == 2
        assert (layout.open, layout.num_qubits, layout.num_clbits) == (False, 4, 0)

    def test_first_register_identity(self):
        source = "qa = QuantumRegister(2)\nqb = QuantumRegister(2)\nqc = QuantumCircuit(qa, qb)\n"
        assert _the_circuit(_ir(source)).layout.offsets[0] == 0

    def test_unknown_preceding_size_propagates(self):
        source = (
            "qa = QuantumRegister(n)\n"
            "qb = QuantumRegister(2)\n"
            "qc = QuantumCircuit(qa, qb)\n"
        )
        layout = _the_circuit(_ir(source)).layout
        assert len(layout.quantum) == 2
        assert (layout.offsets, layout.num_qubits) == ((), None)

    def test_injective_over_resolved_refs(self):
        rng = random.Random(7)
        for _ in range(25):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
            decls = "\n".join(
                f'r{i} = QuantumRegister({size}, "r{i}")' for i, size in enumerate(sizes)
            )
            args = ", ".join(f"r{i}" for i in range(len(sizes)))
            ir = _ir(f"{decls}\nqc = QuantumCircuit({args})\n")
            layout = _the_circuit(ir).layout
            offsets = dict(zip(layout.quantum, layout.offsets))
            refs = [
                (reg_id, index)
                for reg_id in layout.quantum
                for index in range(ir.registers[reg_id].size)
            ]
            positions = [offsets[reg_id] + index for reg_id, index in refs]
            assert len(set(positions)) == len(refs)
            assert sorted(positions) == list(range(sum(sizes)))


class TestLayout:
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(_layout_programs())
    def test_agrees_with_the_oracle(self, drawn):
        lines, gates = drawn
        # Keep the statements the stubs run; one that raises, as in Qiskit, becomes `pass`.
        while True:
            program = "\n".join(lines) + "\n"
            try:
                trace = trace_program(program)
                break
            except (IndexError, TypeError, ValueError, NameError) as error:
                frames = traceback.extract_tb(error.__traceback__)
                (line,) = [frame.lineno for frame in frames if frame.filename == "<oracle>"]
                lines[line - 1] = "pass"
        stubs = {circuit.line: circuit for circuit in trace.circuits}
        ir = _ir(program)
        assert len(ir.circuits) == len(stubs)
        # A register is matched by the line that made it, and its kind.
        for circuit in ir.circuits.values():
            stub, layout = stubs[circuit.span.line], circuit.layout
            assert layout.num_qubits in (None, sum(reg.size for reg in stub.qregs)), program
            assert layout.num_clbits in (None, sum(reg.size for reg in stub.cregs)), program
            if not layout.open:  # then it names every register that holds a qubit
                held = [ir.registers[r] for r in layout.quantum]
                named = [(reg.span.line, reg.kind) for reg in held if reg.size != 0]
                assert named == [(reg.line, "quantum") for reg in stub.qregs if reg.size], program
        for event in ir.events:
            if event.span.line not in gates:
                continue
            stub = stubs[ir.circuits[event.circuit].span.line]
            for ref, index in zip(event.qubits, gates[event.span.line]):
                if ref == UNRESOLVED_BIT:
                    continue
                reg, slot = _slot(stub.qregs, index)
                decl = ir.registers[ref.register]
                got = (decl.span.line, decl.kind, ref.index)
                assert got == (reg.line, "quantum", slot), program

    def test_adding_derives_a_new_value(self):
        registers = {
            "r1": RegisterDecl("r1", "quantum", 2, SPAN),
            "r2": RegisterDecl("r2", "classical", 3, SPAN),
            "r3": RegisterDecl("r3", "quantum", 1, SPAN),
        }
        empty = Layout(open=False, num_qubits=0, num_clbits=0)
        first = empty.adding(registers, ["r1", "r2"])
        assert first == Layout(("r1",), ("r2",), False, 2, 3, (0,))
        # Each register is held once; the value added to is unchanged.
        second = first.adding(registers, ["r2", "r3", "r1"])
        assert second == Layout(("r1", "r3"), ("r2",), False, 3, 3, (0, 2))
        assert first == Layout(("r1",), ("r2",), False, 2, 3, (0,))
        # Once open, a layout stays open and its counts unknown.
        opened = second.adding(registers, [], open=True)
        assert opened == Layout(("r1", "r3"), ("r2",))
        assert (opened.open, opened.num_qubits, opened.num_clbits) == (True, None, None)
        assert opened.adding(registers, ["r3"]).open

    @pytest.mark.parametrize(
        "source, kind",
        [
            (
                "def mk():\n    return QuantumCircuit(2)\nc = mk()\n",
                CircuitKind.USER_FUNCTION_RETURN,
            ),
            ("c = EfficientSU2(2)\n", CircuitKind.BUILTIN_PARAMETRIZED),
            ("c = build()\nc.to_gate()\n", CircuitKind.UNKNOWN_WITH_CIRCUIT_METHODS),
            ("c = transpile(a, b)\n", CircuitKind.TRANSPILED),
        ],
    )
    def test_circuits_not_built_by_the_constructor_are_open(self, source, kind):
        assert _the_circuit(_ir(source), kind).layout == Layout()  # the open default

    @pytest.mark.parametrize("derive", ["qc.copy()", "qc.compose(sub)", "transpile(qc)"])
    def test_derived_circuits_share_the_source_value(self, derive):
        ir = _ir(f"qc = QuantumCircuit(2, 1)\nsub = QuantumCircuit(1)\nqd = {derive}\n")
        source, derived = (c for c in ir.circuits.values() if c.name in ("qc", "qd"))
        assert derived.layout is source.layout


class TestComposition:
    def test_append_edge(self):
        source = (
            "qc = QuantumCircuit(2)\n"
            "sub = QuantumCircuit(2)\n"
            "qc.append(sub, [0, 1])\n"
        )
        ir = _ir(source)
        (edge,) = ir.edges
        assert edge.mechanism == "append"
        assert ir.circuits[edge.parent].name == "qc"
        assert ir.circuits[edge.child].name == "sub"

    def test_compose_edge(self):
        source = "qc = QuantumCircuit(2)\nsub = QuantumCircuit(2)\nout = qc.compose(sub)\n"
        ir = _ir(source)
        assert any(e.mechanism == "compose" for e in ir.edges)

    def test_returned_circuit_flag(self):
        source = "def f():\n    circ = QuantumCircuit(2)\n    return circ\n"
        ir = _ir(source)
        (circuit,) = [c for c in ir.circuits.values() if c.name == "circ"]
        assert "returned_from_function" in circuit.subcircuit_flags

    def test_to_gate_flag(self):
        ir = _ir("circ = QuantumCircuit(2)\ngate = circ.to_gate()\n")
        (circuit,) = ir.circuits.values()
        assert "to_gate_or_instruction" in circuit.subcircuit_flags

    def test_append_of_to_gate_result_makes_edge(self):
        source = (
            "qc = QuantumCircuit(2)\n"
            "sub = QuantumCircuit(2)\n"
            "qc.append(sub.to_gate(), [0, 1])\n"
        )
        ir = _ir(source)
        (edge,) = ir.edges
        assert ir.circuits[edge.child].name == "sub"


class TestMeasureAll:
    def test_default_creates_register(self):
        ir = _ir("qc = QuantumCircuit(2, 2)\nqc.measure_all()\n")
        (event,) = _events(ir, EventKind.MEASURE_ALL)
        assert event.creates_new_register

    def test_add_bits_false(self):
        ir = _ir("qc = QuantumCircuit(2, 2)\nqc.measure_all(add_bits=False)\n")
        (event,) = _events(ir, EventKind.MEASURE_ALL)
        assert not event.creates_new_register

    def test_non_literal_flag_counts_as_creating(self):
        # Only the literal False disables the new register; anything else
        # keeps the conservative reading.
        ir = _ir("qc = QuantumCircuit(2, 2)\nqc.measure_all(add_bits=flag)\n")
        (event,) = _events(ir, EventKind.MEASURE_ALL)
        assert event.creates_new_register

    def test_operands_cover_known_layout(self):
        ir = _ir("qc = QuantumCircuit(3, 3)\nqc.measure_all()\n")
        (event,) = _events(ir, EventKind.MEASURE_ALL)
        assert [q.index for q in event.qubits] == [0, 1, 2]


class TestUnknownOperators:
    def test_unknown_callee_with_circuit_argument(self):
        ir = _ir("qc = QuantumCircuit(2)\nhelper(qc)\n")
        (event,) = _events(ir, EventKind.UNKNOWN)
        assert event.unknown_cause is UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG

    @pytest.mark.parametrize("call", ["helper(*[qc])", "helper(*(x, qc))", 'helper(**{"c": qc})'])
    def test_circuit_in_unpacked_argument_is_passed(self, call):
        ir = _ir(f"qc = QuantumCircuit(2)\n{call}\n")
        unknowns = _events(ir, EventKind.UNKNOWN)
        assert UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG in {e.unknown_cause for e in unknowns}

    def test_gate_with_unpacked_operands_stays_unresolved(self):
        ir = _ir("qc = QuantumCircuit(2)\nqc.h(*[0])\n")
        (event,) = _events(ir, EventKind.UNKNOWN)
        assert event.unknown_cause is UnknownCause.UNRESOLVED_QUBIT

    def test_nested_recognized_call_consumes_its_argument(self):
        source = (
            "qc = QuantumCircuit(2, 2)\n"
            "backend.run(transpile(qc, backend))\n"
        )
        result = pipeline(source)
        constructor = _the_circuit(result.ir)
        transpiled = _the_circuit(result.ir, CircuitKind.TRANSPILED)
        assert constructor.id not in result.flow.unknown_taint
        assert transpiled.id in result.flow.unknown_taint

    def test_global_mutation_through_function_call(self):
        source = (
            "qc = QuantumCircuit(2)\n"
            "def extend():\n"
            "    qc.h(0)\n"
            "extend()\n"
        )
        ir = _ir(source)
        (event,) = _events(ir, EventKind.UNKNOWN)
        assert event.unknown_cause is UnknownCause.GLOBAL_CIRCUIT_MUTATION

    def test_uncalled_function_does_not_taint(self):
        source = "qc = QuantumCircuit(2)\ndef extend():\n    qc.h(0)\n"
        ir = _ir(source)
        assert not _events(ir, EventKind.UNKNOWN)

    def test_unrecognized_circuit_method_taints(self):
        ir = _ir("qc = QuantumCircuit(2)\nqc.mystery(0)\n")
        (event,) = _events(ir, EventKind.UNKNOWN)
        assert event.gate_name == "mystery"

    def test_opaque_statement_mentioning_circuit_taints(self):
        ir = _ir("qc = QuantumCircuit(2)\nwhile cond:\n    qc.h(0)\n")
        (event,) = _events(ir, EventKind.UNKNOWN)
        assert event.unknown_cause is UnknownCause.GLOBAL_CIRCUIT_MUTATION

    def test_tuple_unpacking_binds_pairwise(self):
        source = (
            "qc, qd = QuantumCircuit(2), QuantumCircuit(3)\n"
            "qc.h(0)\n"
            "qd.h(2)\n"
        )
        ir = _ir(source)
        assert not _events(ir, EventKind.UNKNOWN)
        by_circuit = {
            ir.circuits[e.circuit].name: e.qubits[0].index
            for e in _events(ir, EventKind.GATE)
        }
        assert by_circuit == {"qc": 0, "qd": 2}

    def test_swap_rebinds_simultaneously(self):
        source = (
            "a = QuantumCircuit(2)\n"
            "b = QuantumCircuit(3)\n"
            "a, b = b, a\n"
            "a.h(2)\n"
        )
        ir = _ir(source)
        (gate,) = _events(ir, EventKind.GATE)
        assert ir.circuits[gate.circuit].layout.num_qubits == 3

    def test_circuit_stored_in_container_is_tainted(self):
        ir = _ir("qc = QuantumCircuit(2)\nbatch = [qc, other]\n")
        (event,) = _events(ir, EventKind.UNKNOWN)
        assert event.unknown_cause is UnknownCause.GLOBAL_CIRCUIT_MUTATION

    def test_conditional_marker_via_chaining(self):
        source = (
            "ca = ClassicalRegister(1)\n"
            "qc = QuantumCircuit(QuantumRegister(1), ca)\n"
            "qc.h(0).c_if(ca, 0)\n"
            "qc.x(0)\n"
        )
        ir = _ir(source)
        gates = {e.gate_name: e for e in _events(ir, EventKind.GATE)}
        assert gates["h"].is_conditional
        assert not gates["x"].is_conditional


class TestGateTable:
    def test_bundled_table_loads(self):
        table = load_gate_table()
        assert len(table.gates) >= 55
        assert "EfficientSU2" in table.builtin_circuits
        cu = table.gates["cu"]
        assert cu.qubit_args == (4, 5)
        assert cu.param_args == (0, 1, 2, 3)

    @pytest.mark.parametrize(
        "name", sorted(load_gate_table().gates)
    )
    def test_every_bundled_entry_extracts(self, name):
        """Each table row is exercised by synthesizing a call of that shape."""
        table = load_gate_table()
        spec = table.gates[name]
        positions = sorted(spec.qubit_args + spec.clbit_args + spec.param_args)
        n_args = (max(positions) + 1) if positions else 0
        args = []
        for i in range(n_args):
            if i in spec.param_args:
                args.append("0.5")
            elif i in spec.clbit_args:
                args.append("0")
            else:
                args.append(str(len([p for p in spec.qubit_args if p <= i]) - 1))
        if name == "c_if":
            source = "qc = QuantumCircuit(3, 3)\nqc.h(0).c_if(0, 1)\n"
        else:
            source = f"qc = QuantumCircuit(3, 3)\nqc.{name}({', '.join(args)})\n"
        ir = _ir(source)
        expected = {
            "reversible_gate": EventKind.GATE,
            "measurement": EventKind.MEASUREMENT,
            "measure_all": EventKind.MEASURE_ALL,
            "reset": EventKind.RESET,
            "initialize": EventKind.INITIALIZE,
            "barrier": EventKind.BARRIER,
        }.get(spec.category)
        if name == "c_if":
            (gate,) = _events(ir, EventKind.GATE)
            assert gate.is_conditional
        else:
            events = _events(ir, expected)
            assert events, f"no {expected} event for {name}"
            if spec.category == "reversible_gate":
                assert events[0].gate_name == name
                assert len(events[0].qubits) == len(spec.qubit_args)

    def test_override_table(self):
        custom = parse_gate_table("zap reversible_gate 0 - -\n")
        assert custom.gates["zap"].qubit_args == (0,)
        result = pipeline("qc = QuantumCircuit(1)\nqc.zap(0)\n", gate_table=custom)
        gates = _events(result.ir, EventKind.GATE)
        assert gates and gates[0].gate_name == "zap"

    def test_override_reset_row_follows_its_qubit_column(self):
        # A reset row is read like a gate row: its name and qubit positions.
        custom = parse_gate_table("wipe reset 1 - -\n")
        result = pipeline("qc = QuantumCircuit(2)\nqc.wipe(t, 1)\n", gate_table=custom)
        (event,) = _events(result.ir, EventKind.RESET)
        assert event.gate_name == "wipe"
        assert [q.index for q in event.qubits] == [1]

    def test_bundled_table_parsed_once_per_process(self):
        assert load_gate_table() is load_gate_table()

    def test_bundled_table_loads_from_a_zipped_package(self, tmp_path):
        # The table is read through the package's loader, so zipimport works.
        package = Path(__file__).resolve().parent.parent / "src" / "qlint"
        archive = tmp_path / "qlint.zip"
        with zipfile.ZipFile(archive, "w") as zipped:
            for path in sorted(package.rglob("*")):
                if path.is_file() and "__pycache__" not in path.parts:
                    zipped.write(path, path.relative_to(package.parent))
        code = (
            f"import sys; sys.path.insert(0, {str(archive)!r})\n"
            "import qlint.qir\n"
            "table = qlint.qir.load_gate_table()\n"
            "print(qlint.qir.__file__)\n"
            "print(repr((sorted(table.gates.items()), sorted(table.builtin_circuits))))\n"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code],
            capture_output=True, text=True, timeout=60, check=True,
        )
        origin, table = done.stdout.splitlines()
        assert origin.startswith(str(archive))
        expected = parse_gate_table((package / "qir" / "gate_table.txt").read_text("utf-8"))
        assert expected == load_gate_table()
        assert table == repr((sorted(expected.gates.items()), sorted(expected.builtin_circuits)))

    def test_override_file_is_reread(self, tmp_path):
        path = tmp_path / "gates.txt"
        path.write_text("zap reversible_gate 0 - -\n", "utf-8")
        first = load_gate_table(path)
        path.write_text("zip reversible_gate 0 - -\n", "utf-8")
        second = load_gate_table(path)
        assert set(first.gates) == {"zap"}
        assert set(second.gates) == {"zip"}

    def test_malformed_table_rejected(self):
        from qlint.qir import GateTableError

        with pytest.raises(GateTableError):
            parse_gate_table("h gate_of_sorts 0 - -\n")
        with pytest.raises(GateTableError):
            parse_gate_table("h reversible_gate 0 0 -\n")


class TestDeterminism:
    def test_ids_and_seq_are_stable(self):
        source = sample_source("multi_register")

        def snapshot():
            ir = _ir(source)
            return (
                sorted(ir.registers),
                sorted(ir.circuits),
                [(e.id, e.seq, e.kind.value, e.span.line) for e in ir.events],
            )

        assert snapshot() == snapshot()

    def test_sample_golden_counts(self):
        """Hand-derived entity counts for the multi-register example."""
        ir = _ir(sample_source("multi_register"))
        assert len([r for r in ir.registers.values() if r.kind == "quantum"]) == 3
        sizes = sorted(
            r.size for r in ir.registers.values() if r.kind == "classical"
        )
        assert sizes == [2, 3]
        main = [c for c in ir.circuits.values() if c.name == "circ"]
        assert len(main) == 1 and main[0].layout.num_qubits == 4
        assert len(ir.edges) == 1
