"""Quantum IR extraction tests: entities, operands, composition, gate table."""

from __future__ import annotations

import random

import pytest
from conftest import sample_source, pipeline

from qlint.frontend.constprop import UNKNOWN, known
from qlint.qir import (
    CircuitKind,
    EventKind,
    UnknownCause,
    absolute_index,
    load_gate_table,
    parse_gate_table,
)
from qlint.qir.model import QubitRef


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
        assert len(quantum) == 1 and quantum[0].size == known(4)
        assert len(classical) == 1 and classical[0].size == known(3)
        constructor = _the_circuit(ir)
        assert constructor.num_qubits == known(4)
        assert constructor.num_clbits == known(3)
        transpiled = _the_circuit(ir, CircuitKind.TRANSPILED)
        assert transpiled.num_qubits == known(4)

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
        ir = _ir(sample_source("two_bugs"))
        assert not ir.has_unknown_operator(_the_circuit(ir).id)


class TestCircuitConstruction:
    def test_implicit_registers(self):
        ir = _ir("qc = QuantumCircuit(2, 2)\n")
        circuit = _the_circuit(ir)
        assert circuit.num_qubits == known(2)
        assert circuit.num_clbits == known(2)
        assert len(ir.registers) == 2
        kinds = sorted(r.kind for r in ir.registers.values())
        assert kinds == ["classical", "quantum"]

    def test_quantum_only_constructor(self):
        ir = _ir("qc = QuantumCircuit(3)\n")
        circuit = _the_circuit(ir)
        assert circuit.num_qubits == known(3)
        assert circuit.num_clbits == known(0)

    def test_unknown_size_argument(self):
        ir = _ir("qc = QuantumCircuit(n)\n")
        circuit = _the_circuit(ir)
        assert circuit.num_qubits == UNKNOWN

    def test_register_association_order(self):
        source = (
            'qa = QuantumRegister(2, "qa")\n'
            'qb = QuantumRegister(2, "qb")\n'
            "qc = QuantumCircuit(qb, qa)\n"
        )
        ir = _ir(source)
        circuit = _the_circuit(ir)
        names = [ir.registers[r].display_name() for r in circuit.quantum_registers]
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
        assert circuit.num_qubits == known(5)
        names = [ir.registers[r].display_name() for r in circuit.quantum_registers]
        assert names == ["qa", "qb"]

    def test_register_shared_across_circuits(self):
        source = (
            "qa = QuantumRegister(2)\n"
            "c1 = QuantumCircuit(qa)\n"
            "c2 = QuantumCircuit(qa)\n"
        )
        ir = _ir(source)
        (register,) = ir.registers.values()
        assert len(register.owner_circuits) == 2

    def test_builtin_parametrized_circuit(self):
        ir = _ir("ansatz = EfficientSU2(4)\nansatz.h(0)\n")
        circuit = _the_circuit(ir, CircuitKind.BUILTIN_PARAMETRIZED)
        assert circuit.name == "EfficientSU2"

    def test_copy_kind(self):
        ir = _ir("qc = QuantumCircuit(2, 2)\nqc2 = qc.copy()\nqc2.h(0)\n")
        copy = _the_circuit(ir, CircuitKind.COPY)
        assert copy.num_qubits == known(2)
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
        assert call_site.num_qubits == UNKNOWN

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
        assert levels == [known(3), UNKNOWN]


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
        assert measure.qubits[0].is_resolved
        assert measure.qubits[0].index == 0
        assert measure.clbits[0].is_resolved

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
                assert all(q.is_resolved for q in event.qubits)


class TestAbsoluteIndex:
    def test_second_register_shifts(self):
        # Layout enumerated independently of the implementation under test.
        source = (
            'qa = QuantumRegister(2, "A")\n'
            'qb = QuantumRegister(2, "B")\n'
            "qc = QuantumCircuit(qa, qb)\n"
        )
        ir = _ir(source)
        circuit = _the_circuit(ir)
        layout = []
        for reg_id in circuit.quantum_registers:
            size = ir.registers[reg_id].size.value
            layout.extend((reg_id, i) for i in range(size))
        reg_b = circuit.quantum_registers[1]
        expected = layout.index((reg_b, 0))
        assert expected == 2
        assert absolute_index(ir, circuit.id, QubitRef(reg_b, 0)) == known(2)

    def test_first_register_identity(self):
        source = "qa = QuantumRegister(2)\nqb = QuantumRegister(2)\nqc = QuantumCircuit(qa, qb)\n"
        ir = _ir(source)
        circuit = _the_circuit(ir)
        reg_a = circuit.quantum_registers[0]
        assert absolute_index(ir, circuit.id, QubitRef(reg_a, 1)) == known(1)

    def test_unknown_preceding_size_propagates(self):
        source = (
            "qa = QuantumRegister(n)\n"
            "qb = QuantumRegister(2)\n"
            "qc = QuantumCircuit(qa, qb)\n"
        )
        ir = _ir(source)
        circuit = _the_circuit(ir)
        reg_b = circuit.quantum_registers[1]
        assert absolute_index(ir, circuit.id, QubitRef(reg_b, 0)) == UNKNOWN

    def test_foreign_register_is_an_error(self):
        source = "qa = QuantumRegister(2)\nqc = QuantumCircuit(qa)\nother = QuantumRegister(2)\n"
        ir = _ir(source)
        circuit = _the_circuit(ir)
        foreign = [r for r in ir.registers if r not in circuit.quantum_registers]
        with pytest.raises(ValueError):
            absolute_index(ir, circuit.id, QubitRef(foreign[0], 0))

    def test_injective_over_resolved_refs(self):
        rng = random.Random(7)
        for _ in range(25):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
            decls = "\n".join(
                f'r{i} = QuantumRegister({size}, "r{i}")' for i, size in enumerate(sizes)
            )
            args = ", ".join(f"r{i}" for i in range(len(sizes)))
            ir = _ir(f"{decls}\nqc = QuantumCircuit({args})\n")
            circuit = _the_circuit(ir)
            refs = [
                QubitRef(reg_id, index)
                for reg_id in circuit.quantum_registers
                for index in range(ir.registers[reg_id].size.value)
            ]
            positions = [absolute_index(ir, circuit.id, r).value for r in refs]
            assert len(set(positions)) == len(refs)
            assert sorted(positions) == list(range(sum(sizes)))


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

    def test_nested_recognized_call_consumes_its_argument(self):
        source = (
            "qc = QuantumCircuit(2, 2)\n"
            "backend.run(transpile(qc, backend))\n"
        )
        ir = _ir(source)
        constructor = _the_circuit(ir)
        transpiled = _the_circuit(ir, CircuitKind.TRANSPILED)
        assert not ir.has_unknown_operator(constructor.id)
        assert ir.has_unknown_operator(transpiled.id)

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
        assert ir.circuits[gate.circuit].num_qubits == known(3)

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
        cu = table.spec("cu")
        assert cu.qubit_args == (4, 5)
        assert cu.param_args == (0, 1, 2, 3)

    @pytest.mark.parametrize(
        "name", sorted(load_gate_table().gates)
    )
    def test_every_bundled_entry_extracts(self, name):
        """Each table row is exercised by synthesizing a call of that shape."""
        table = load_gate_table()
        spec = table.spec(name)
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
        assert custom.spec("zap").qubit_args == (0,)
        result = pipeline("qc = QuantumCircuit(1)\nqc.zap(0)\n", gate_table=custom)
        gates = _events(result.ir, EventKind.GATE)
        assert gates and gates[0].gate_name == "zap"

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
            r.size.value for r in ir.registers.values() if r.kind == "classical"
        )
        assert sizes == [2, 3]
        main = [c for c in ir.circuits.values() if c.name == "circ"]
        assert len(main) == 1 and main[0].num_qubits == known(4)
        assert len(ir.edges) == 1
