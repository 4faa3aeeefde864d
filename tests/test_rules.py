"""Per-rule behavior: trigger cases, exclusion clauses, and profile wiring."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import elif_chain, parses_in_this_python, sample_source, warnings_for

from qlint.analyses import ALL_RULES, DEFAULT_PROFILE, RULE_IDS, run_all
from qlint import analyze_pipeline
from qlint.qflow import build_flow


def _rules_fired(source: str, rules=ALL_RULES):
    return sorted({w.rule for w in warnings_for(source, rules=rules)})


def _lines_of(source: str, rule: str, rules=ALL_RULES):
    return [w.span.line for w in warnings_for(source, rules=rules) if w.rule == rule]


# Expressions outside the subset that name the circuit `e` stands for.
_ESCAPES = {
    "dict": "{{1: {e}}}",
    "lambda": "(lambda: {e})",
    "conditional": "({e} if flag else None)",
    "fstring": "f{q}{{ {e} }}{q}",
    "comprehension": "[c for c in [{e}]]",
    "boolop": "(flag and {e})",
    "walrus": "(w := {e})",
    "await": "(await {e})",
    "call_in_sum": "(f({e}) + 1)",
    "negated_call": "(-f({e}))",
}


class TestDoubleMeas:
    def test_sample_program(self):
        lines = _lines_of(sample_source("redundant_measure"), "double-meas")
        assert lines == [6]

    def test_distinct_registers_same_index(self):
        source = (
            "qa = QuantumRegister(1)\n"
            "qb = QuantumRegister(1)\n"
            "ca = ClassicalRegister(2)\n"
            "qc = QuantumCircuit(qa, qb, ca)\n"
            "qc.x(qa[0])\n"
            "qc.x(qb[0])\n"
            "qc.measure(qa[0], ca[0])\n"
            "qc.measure(qb[0], ca[1])\n"
        )
        assert _lines_of(source, "double-meas") == []

    def test_interposed_gate(self):
        source = (
            "qc = QuantumCircuit(1, 1)\n"
            "qc.h(0)\n"
            "qc.measure(0, 0)\n"
            "qc.h(0)\n"
            "qc.measure(0, 0)\n"
        )
        assert _lines_of(source, "double-meas") == []

    @pytest.mark.parametrize(
        "exit_first_pass",
        [
            "    with lock:\n        break\n",
            "    try:\n        continue\n    finally:\n        pass\n",
            "    try:\n        raise E\n    except E:\n        break\n",
            "    match i:\n        case 0:\n            break\n",
            "    for j in x:\n        pass\n    else:\n        break\n",
            "    raise E\n",
        ],
        ids=["with", "try-finally", "except", "match", "inner-loop-else", "raise"],
    )
    def test_loop_left_from_inside_a_compound_statement(self, exit_first_pass):
        # The first pass leaves the loop before the measurement: it never runs.
        source = (
            "qc = QuantumCircuit(1, 1)\nqc.h(0)\nfor i in range(2):\n"
            + exit_first_pass
            + "    qc.measure(0, 0)\n"
        )
        assert _lines_of(source, "double-meas") == []

    @pytest.mark.parametrize(
        "leave",
        [
            "return qc\n",
            "raise E\n",
            "with lock:\n            return\n",
            "for j in range(1):\n            return qc\n",
        ],
        ids=["return", "raise", "return-in-with", "return-in-inner-loop"],
    )
    def test_loop_left_after_the_measurement(self, leave):
        # The first pass leaves the function after the measurement: it runs once.
        source = (
            "def f():\n    qc = QuantumCircuit(1, 1)\n    qc.h(0)\n    for i in range(2):\n"
            "        qc.measure(0, 0)\n        " + leave
        )
        assert _lines_of(source, "double-meas") == []

    @pytest.mark.parametrize("branches", [300, 1000, 2000])
    def test_after_a_long_elif_chain(self, branches):
        tail = "qc = QuantumCircuit(1, 1)\nqc.measure(0, 0)\nqc.measure(0, 0)\n"
        source = elif_chain(branches) + tail
        if not parses_in_this_python(source):
            pytest.skip("ast.parse itself runs out of stack on this chain")
        assert _lines_of(source, "double-meas") == [2 * branches + 4]


class TestOpAfterMeas:
    def test_sample_program(self):
        assert _lines_of(sample_source("gate_after_measure"), "op-after-meas") == [6]

    def test_two_bug_demo(self):
        assert _lines_of(sample_source("two_bugs"), "op-after-meas") == [10]

    def test_conditional_gate_excluded(self):
        source = (
            "ca = ClassicalRegister(1)\n"
            "qc = QuantumCircuit(QuantumRegister(1), ca)\n"
            "qc.h(0)\n"
            "qc.measure(0, 0)\n"
            "qc.x(0).c_if(ca, 1)\n"
        )
        assert _lines_of(source, "op-after-meas") == []

    def test_add_register_on_a_circuit_built_elsewhere_leaves_bare_indices_unresolved(self):
        # `mk()` returns a circuit qlint did not construct, whose registers it
        # cannot see: bare index 0 need not be `qr[0]`.
        source = (
            "def mk():\n"
            "    q = QuantumCircuit(2)\n"
            "    return q\n"
            "qr = QuantumRegister(2)\n"
            "cr = ClassicalRegister(2)\n"
            "c = mk()\n"
            "c.add_register(qr)\n"
            "c.add_register(cr)\n"
            "c.measure(0, 0)\n"
            "c.h(qr[0])\n"
        )
        assert _lines_of(source, "op-after-meas") == []
        ir = analyze_pipeline(source, "t.py").ir
        (returned,) = [c for c in ir.circuits.values() if c.name == "c"]
        assert (returned.layout.num_qubits, returned.layout.num_clbits) == (None, None)


class TestMeasAllAbuse:
    @pytest.mark.parametrize(
        "args, lines", [("n, 2", [3]), ("make_q(), make_c()", [])], ids=["size", "registers"]
    )
    def test_unresolved_quantum_size_keeps_the_classical_bits(self, args, lines):
        source = f"qc = QuantumCircuit({args})\nqc.h(0)\nqc.measure_all()\n"
        assert _lines_of(source, "meas-all-abuse") == lines

    def test_sample_program(self):
        assert _lines_of(sample_source("measure_all_extra"), "meas-all-abuse") == [5]

    def test_no_classical_bits(self):
        assert _lines_of("qc = QuantumCircuit(2)\nqc.measure_all()\n", "meas-all-abuse") == []

    def test_add_bits_false(self):
        source = "qc = QuantumCircuit(2, 2)\nqc.measure_all(add_bits=False)\n"
        assert _lines_of(source, "meas-all-abuse") == []

    @pytest.mark.parametrize("circuit", ["EfficientSU2(2)", "QuantumCircuit(*regs)"])
    def test_open_layout_with_named_classical_bits(self, circuit):
        # A `*` value or unseen code may have given the circuit more bits,
        # but the named register's two already make the new register needless.
        source = (
            "from qiskit import ClassicalRegister\n"
            "from qiskit.circuit.library import EfficientSU2\n\n"
            f"c = {circuit}\n"
            "c.add_register(ClassicalRegister(2))\n"
            "c.measure_all()\n"
        )
        assert _lines_of(source, "meas-all-abuse") == [6]

    @pytest.mark.parametrize("added", ["", "qc.add_register(ClassicalRegister(n))\n"])
    def test_open_layout_without_known_classical_bits(self, added):
        source = f"qc = QuantumCircuit(*regs)\n{added}qc.measure_all()\n"
        assert _lines_of(source, "meas-all-abuse") == []


class TestCondWoMeas:
    def test_no_prior_measure(self):
        source = (
            "creg = ClassicalRegister(1)\n"
            "qc = QuantumCircuit(QuantumRegister(1), creg)\n"
            "qc.h(0).c_if(creg, 0)\n"
        )
        assert _lines_of(source, "cond-wo-meas") == [3]

    def test_prior_measure(self):
        source = (
            "creg = ClassicalRegister(1)\n"
            "qc = QuantumCircuit(QuantumRegister(1), creg)\n"
            "qc.measure(0, 0)\n"
            "qc.h(0).c_if(creg, 0)\n"
        )
        assert _lines_of(source, "cond-wo-meas") == []

    def test_composed_circuit_suppressed(self):
        source = (
            "creg = ClassicalRegister(1)\n"
            "qc = QuantumCircuit(QuantumRegister(1), creg)\n"
            "qc.h(0).c_if(creg, 0)\n"
            "parent = QuantumCircuit(1)\n"
            "parent.append(qc, [0])\n"
        )
        assert _lines_of(source, "cond-wo-meas") == []


class TestConstClasBit:
    def test_untouched_qubit(self):
        source = (
            "qc = QuantumCircuit(2, 2)\n"
            "qc.h(0)\n"
            "qc.measure(0, 0)\n"
            "qc.measure(1, 1)\n"
        )
        assert _lines_of(source, "const-clas-bit") == [4]

    def test_all_qubits_gated(self):
        source = (
            "qc = QuantumCircuit(2, 2)\n"
            "qc.h(0)\n"
            "qc.x(1)\n"
            "qc.measure(0, 0)\n"
            "qc.measure(1, 1)\n"
        )
        assert _lines_of(source, "const-clas-bit") == []

    def test_unknown_operator_suppresses(self):
        source = "qc = QuantumCircuit(1, 1)\nhelper(qc)\nqc.measure(0, 0)\n"
        assert _lines_of(source, "const-clas-bit") == []

    def test_circuit_stored_in_an_attribute_suppresses(self):
        # Whatever holds `obj` may change qubit 1 before the measurement runs.
        source = (
            "qc = QuantumCircuit(2, 2)\n"
            "qc.h(0)\n"
            "qc.measure(0, 0)\n"
            "qc.measure(1, 1)\n"
            "obj.c = qc\n"
        )
        assert _lines_of(source, "const-clas-bit") == []


class TestInsuffClasReg:
    def test_bare_constructor(self):
        assert _lines_of("qc = QuantumCircuit(3, 2)\n", "insuff-clas-reg") == [1]

    def test_equal_sizes(self):
        assert _lines_of("qc = QuantumCircuit(3, 3)\n", "insuff-clas-reg") == []

    def test_negative_classical_size_is_unknown(self):
        assert _lines_of("qc = QuantumCircuit(2, -1)\n", "insuff-clas-reg") == []

    def test_classical_size_a_star_value_may_supply_is_unknown(self):
        source = (
            "rest = [3]\n"
            "qc = QuantumCircuit(3, *rest)\n"
            "qc.h(0)\n"
            "qc.h(1)\n"
            "qc.h(2)\n"
            "qc.measure([0, 1, 2], [0, 1, 2])\n"
        )
        assert _lines_of(source, "insuff-clas-reg") == []
        (circuit,) = analyze_pipeline(source, "t.py").ir.circuits.values()
        assert (circuit.layout.num_qubits, circuit.layout.num_clbits) == (3, None)

    def test_sizes_of_a_star_only_constructor_are_unknown(self):
        ir = analyze_pipeline("qc = QuantumCircuit(*regs)\nqc.measure_all()\n", "t.py").ir
        (circuit,) = ir.circuits.values()
        assert (circuit.layout.num_qubits, circuit.layout.num_clbits) == (None, None)
        # The `*` value may hold registers, so a bare index names no known slot:
        # `qr[0]` may be qubit 0, and no measurement is taken as repeated.
        source = (
            "qr = QuantumRegister(1)\n"
            "cr = ClassicalRegister(1)\n"
            "qc = QuantumCircuit(*[qr, cr])\n"
            "qc.h(0)\n"
            "qc.measure(0, 0)\n"
            "qc.h(qr[0])\n"
            "qc.measure(0, 0)\n"
        )
        assert _rules_fired(source) == []

    @pytest.mark.parametrize("target", ["qc", "qd"])
    def test_registers_added_to_a_star_layout_leave_its_sizes_unknown(self, target):
        # The `*` value may hold classical registers, so the added one does
        # not tell the circuit's sizes; nor does it for a copy.
        source = (
            "qr = QuantumRegister(3)\n"
            "qc = QuantumCircuit(*regs)\n"
            "qd = qc.copy()\n"
            f"{target}.add_register(qr)\n"
            f"{target}.h(qr[0])\n"
            f"{target}.h(qr[1])\n"
            f"{target}.h(qr[2])\n"
            f"{target}.measure_all()\n"
        )
        assert _lines_of(source, "insuff-clas-reg") == []
        ir = analyze_pipeline(source, "t.py").ir
        for circuit in ir.circuits.values():
            assert (circuit.layout.num_qubits, circuit.layout.num_clbits) == (None, None)
        (measure_all,) = [e for e in ir.events if e.gate_name == "measure_all"]
        assert measure_all.qubits == []

    def test_bare_index_into_a_star_layout_stays_unresolved_after_add_register(self):
        source = (
            "qr = QuantumRegister(3)\n"
            "qc = QuantumCircuit(*regs)\n"
            "qc.add_register(qr)\n"
            "qc.h(0)\n"
            "qc.h(qr[0])\n"
        )
        first, second = analyze_pipeline(source, "t.py").ir.events
        assert (first.kind.value, first.qubits) == ("unknown", [])
        assert (second.kind.value, len(second.qubits)) == ("gate", 1)

    @pytest.mark.parametrize(
        "source",
        [
            "def build(cr):\n"
            "    qc = QuantumCircuit(2)\n"
            "    qc.add_register(cr)\n"
            "    qc.h(0)\n"
            "    qc.h(1)\n"
            "    qc.measure([0, 1], [0, 1])\n",
            "qc = QuantumCircuit(2)\n"
            "qc.add_register(*cregs)\n"
            "qc.h(0)\n"
            "qc.h(1)\n"
            "qc.measure([0, 1], [0, 1])\n",
            # Qiskit adds a register `q` of size 2 here, a form qlint does not model.
            "qr = QuantumRegister(2)\n"
            "qc = QuantumCircuit(qr)\n"
            "qc.add_register(2)\n"
            "qc.h(0)\n"
            "qc.h(1)\n"
            "qc.measure_all()\n",
        ],
        ids=["parameter", "star", "int"],
    )
    def test_add_register_of_a_value_that_is_no_known_register(self, source):
        # The value may hold classical bits, so the circuit's count is unknown.
        assert _lines_of(source, "insuff-clas-reg") == []

    def test_subcircuit_excluded(self):
        source = (
            "sub = QuantumCircuit(3)\n"
            "parent = QuantumCircuit(3, 3)\n"
            "parent.append(sub, [0, 1, 2])\n"
        )
        assert _lines_of(source, "insuff-clas-reg") == []

    def test_measured_demand_that_fits_is_accepted(self):
        # Mirrors the two-bug demo: three of four qubits are measured
        # into three classical bits, so the register suffices in practice.
        assert _lines_of(sample_source("two_bugs"), "insuff-clas-reg") == []


class TestOversizedCircuit:
    def test_loop_variable_no_longer_holds_its_earlier_circuit(self):
        # `for k in range(2)` rebinds `k` to integers, so the opaque argument
        # passes no circuit and qubit 1 stays unused.
        source = (
            "qc = QuantumCircuit(2)\nk = qc\nfor k in range(2):\n"
            "    log(k if flag else 0)\nqc.h(0)\n"
        )
        assert _lines_of(source, "oversized-circuit") == [1]

    def test_two_bug_demo(self):
        assert _lines_of(sample_source("two_bugs"), "oversized-circuit") == [5]

    def test_all_touched(self):
        source = "qc = QuantumCircuit(3)\nqc.h(0)\nqc.cx(1, 2)\n"
        assert _lines_of(source, "oversized-circuit") == []

    def test_subcircuit_composition_excluded(self):
        source = "qc = QuantumCircuit(4)\nqc.append(QFT(3), [0, 1, 2])\n"
        assert _lines_of(source, "oversized-circuit") == []

    def test_unknown_operator_excluded(self):
        source = "qc = QuantumCircuit(4)\nqc.h(0)\nhelper(qc)\n"
        assert _lines_of(source, "oversized-circuit") == []

    def test_initialize_excluded(self):
        source = "qc = QuantumCircuit(4)\nqc.initialize(vec)\nqc.h(0)\n"
        assert _lines_of(source, "oversized-circuit") == []

    @pytest.mark.parametrize(
        "call",
        [
            "helper(qc)",
            "helper(*[qc])",
            'helper(**{"c": qc})',
            "x = helper(qc) + 1",
            "x = -helper(qc)",
            "n = 0\nn += helper(qc)",
            "helper(qc) * 2",
            "if helper(qc) + 1:\n    pass",
            "for i in range(helper(qc) + 1):\n    pass",
            "qc.rx(helper(qc) * 2, 0)",
            "c = qc.copy(name=helper(qc))",
            "g = qc.to_gate(label=helper(qc))",
            "r = QuantumRegister(2, name=helper(qc))",
            "qc.add_register(QuantumRegister(1), x=helper(qc))",
        ],
    )
    def test_circuit_passed_to_unknown_code_is_excluded(self, call):
        # However qc is passed, helper() may use the qubits qc.h() leaves alone.
        source = f"qc = QuantumCircuit(3)\nqc.h(0)\n{call}\n"
        assert _lines_of(source, "oversized-circuit") == []

    @pytest.mark.parametrize(
        "call",
        [
            "helper((w := 2), qc.h(w))",
            "helper([(w := 2)], qc.h(w))",
            "helper(((w := 2), 0), qc.h(w))",
            "helper(k=(w := 2), j=qc.h(w))",
            "def helper(*a):\n    pass\nhelper((w := 2), qc.h(w))",
        ],
    )
    def test_walrus_in_call_argument_rebinds_later_arguments(self, call):
        # Python runs qc.h(2), not qc.h(0): the walrus in an earlier argument
        # of an unknown or local function rebinds w, so qubit 2 is used.
        source = f"qc = QuantumCircuit(3)\nqc.h(0)\nqc.h(1)\nw = 0\n{call}\n"
        assert _lines_of(source, "oversized-circuit") == []

    @pytest.mark.parametrize(
        "call",
        [
            "helper(*[(w := 2)], qc.h(w))",
            "def helper(*a):\n    pass\nhelper(*[(w := 2)], qc.h(w))",
            "transpile(*[(w := 2)], qc.h(w))",
            "QuantumCircuit(*[(w := 2)], qc.h(w))",
            "QuantumRegister(*[(w := 2)], qc.h(w))",
        ],
    )
    def test_star_value_is_evaluated_in_source_order(self, call):
        # Python evaluates a `*` value in its place among the positional
        # arguments, so the walrus rebinds w before qc.h(w) runs h(2).
        source = f"qc = QuantumCircuit(3)\nqc.h(0)\nqc.h(1)\nw = 0\n{call}\n"
        assert _lines_of(source, "oversized-circuit") == []

    @pytest.mark.parametrize(
        "call",
        [
            'helper({"c": qc})',
            "helper(lambda: qc)",
            "helper(qc if f else None)",
            'helper(f"{qc}")',
            "helper([c for c in [qc]])",
            "helper((q := qc))",
            "helper(flag and qc)",
            'helper(k={"c": qc})',
            'helper([{"c": qc}])',
        ],
    )
    def test_circuit_named_in_opaque_argument_escapes(self, call):
        # An argument outside the modelled subset still hands qc to helper():
        # the same findings as `helper(qc)`, and no unused-qubit claim.
        source = f"qc = QuantumCircuit(3)\nqc.h(0)\n{call}\n"
        baseline = _rules_fired("qc = QuantumCircuit(3)\nqc.h(0)\nhelper(qc)\n")
        assert baseline == ["insuff-clas-reg"]
        assert _rules_fired(source) == baseline

    @pytest.mark.parametrize(
        "statement",
        [
            "obj.c = qc",
            'd["k"] = qc',
            'x = {"c": qc}',
            "x = lambda: qc",
            "x = qc if f else None",
            "await run(qc)",
            "yield qc",
        ],
    )
    def test_circuit_stored_or_named_outside_a_call_escapes(self, statement):
        # Stored into an object or container, or named by an expression
        # outside the subset, qc reaches code that may use its other qubits.
        source = f"qc = QuantumCircuit(3)\nqc.h(0)\n{statement}\n"
        assert _rules_fired(source) == ["insuff-clas-reg"]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.sampled_from(sorted(_ESCAPES)), min_size=1, max_size=3))
    def test_circuit_wrapped_in_escapes_at_module_level(self, wraps):
        # However it is wrapped, qc escapes before its qubits are used, so no
        # rule may claim them unused or still |0>; bare, both rules fire.
        expr, quotes = "qc", iter(['"', "'", "'''"])  # f-strings nest (3.10, 3.11)
        for wrap in wraps:
            expr = _ESCAPES[wrap].format(e=expr, q=next(quotes) if wrap == "fstring" else "")
        program = "qc = QuantumCircuit(3, 3)\nx = {}\nqc.measure(0, 0)\n"
        quiet = {"oversized-circuit", "const-clas-bit"}
        assert quiet <= set(_rules_fired(program.format("qc")))
        assert not quiet & set(_rules_fired(program.format(expr))), expr

    @pytest.mark.parametrize("params",["qc", "*qc", "**qc", "*, qc"])
    def test_parameter_shadows_module_circuit(self, params):
        # Every parameter kind binds `qc` locally, so helper() does not touch
        # the module's circuit and cannot hide its unused qubits.
        source = (
            f"def helper({params}):\n"
            "    qc.draw()\n"
            "qc = QuantumCircuit(3, 3)\n"
            "qc.h(0)\n"
            "qc.measure(0, 0)\n"
            "helper()\n"
        )
        assert _lines_of(source, "oversized-circuit") == [3]

    @pytest.mark.parametrize("use", ["if sub.to_gate():\n    pass\n", "gate = sub.to_gate()\n"])
    def test_call_result_used_as_a_circuit_is_a_subcircuit(self, use):
        # `sub` receives `to_gate`, so it is a circuit of unknown shape that
        # may use both of qc's qubits once appended.
        source = "sub = make_block()\n" + use + "qc = QuantumCircuit(2)\nqc.append(sub, [0, 1])\n"
        assert _lines_of(source, "oversized-circuit") == []

    @pytest.mark.parametrize(
        "rebind",
        [
            "f((n := 5))\n", "f(*(n := [5]))\n", "f(**(n := {}))\n",
            "def g() -> (n := 5):\n    pass\n",
            # A module-level annotation runs, after the assignment if there is one.
            "x: (n := 5) = 0\n", "y[(n := 5)]: int\n", "n: (n := 5) = 2\n",
        ],
    )
    def test_walrus_anywhere_in_a_call_or_def_forgets_the_size(self, rebind):
        # `n` is no longer 2 once the line ran, so the circuit's size is unknown.
        source = (
            "n = 2\n" + rebind + "qr = QuantumRegister(n)\nqc = QuantumCircuit(qr)\nqc.h(qr[0])\n"
        )
        assert _rules_fired(source) == []

    @pytest.mark.parametrize("condition", ["cr, fn(qc)", "cr, val=fn(qc)"])
    def test_circuit_passed_into_c_if_is_an_unknown_operator(self, condition):
        source = (
            "cr = ClassicalRegister(1)\n"
            "qr = QuantumRegister(2)\n"
            "qc = QuantumCircuit(qr, cr)\n"
            "qc.h(0)\n"
            "qc.measure(0, 0)\n"
            f"qc.x(0).c_if({condition})\n"
        )
        assert _lines_of(source, "oversized-circuit") == []

    @pytest.mark.xfail(
        strict=True,
        reason="open in ROADMAP.md: a kept loop's body is walked once, without a loop join",
    )
    def test_circuit_rebound_in_kept_loop(self):
        # From the second iteration on, `qc` is `b`, which is measured and gated.
        source = (
            "a = QuantumCircuit(1, 1)\n"
            "b = QuantumCircuit(1, 1)\n"
            "qc = a\n"
            "for i in range(n):\n"
            "    qc.measure(0, 0)\n"
            "    qc.x(0)\n"
            "    qc = b\n"
        )
        assert _lines_of(source, "oversized-circuit") == []


class TestGhostCompose:
    def test_sample_program(self):
        assert _lines_of(sample_source("dropped_compose"), "ghost-compose") == [10]

    def test_assigned_result(self):
        source = (
            "qc2 = QuantumCircuit(2)\n"
            "circ = QuantumCircuit(2)\n"
            "qc3 = qc2.compose(circ)\n"
        )
        assert _lines_of(source, "ghost-compose") == []

    def test_inplace_true(self):
        source = (
            "qc2 = QuantumCircuit(2)\n"
            "circ = QuantumCircuit(2)\n"
            "qc2.compose(circ, inplace=True)\n"
        )
        assert _lines_of(source, "ghost-compose") == []


class TestOpAfterTransp:
    def test_level_three(self):
        source = (
            "qc = QuantumCircuit(2, 2)\n"
            "qc.h(0)\n"
            "tc = transpile(qc, be, optimization_level=3)\n"
            "tc.measure(0, 0)\n"
        )
        assert _lines_of(source, "op-after-transp") == [4]

    def test_level_one(self):
        source = (
            "qc = QuantumCircuit(2, 2)\n"
            "qc.h(0)\n"
            "tc = transpile(qc, be, optimization_level=1)\n"
            "tc.measure(0, 0)\n"
        )
        assert _lines_of(source, "op-after-transp") == []

    def test_no_ops_after(self):
        source = (
            "qc = QuantumCircuit(2, 2)\n"
            "qc.h(0)\n"
            "qc.measure(0, 0)\n"
            "tc = transpile(qc, be, optimization_level=3)\n"
        )
        assert _lines_of(source, "op-after-transp") == []


class TestOldIdenGate:
    def test_deprecated_call(self):
        assert _lines_of("qc = QuantumCircuit(1)\nqc.iden(0)\n", "old-iden-gate") == [2]

    def test_new_apis(self):
        assert _lines_of("qc = QuantumCircuit(1)\nqc.id(0)\nqc.i(0)\n", "old-iden-gate") == []

    def test_unrelated_object_method(self):
        assert _lines_of("obj = Thing()\nobj.identify(0)\n", "old-iden-gate") == []

    def test_unresolved_index_still_flagged(self):
        assert _lines_of("qc = QuantumCircuit(2)\nqc.iden(k)\n", "old-iden-gate") == [2]


class TestRunAll:
    def test_two_bug_demo_full_profile(self):
        assert _rules_fired(sample_source("two_bugs")) == [
            "op-after-meas",
            "oversized-circuit",
        ]

    def test_empty_file(self):
        assert warnings_for("") == []

    def test_rule_filtering(self):
        assert _rules_fired(sample_source("two_bugs"), rules={"double-meas"}) == []

    def test_unknown_rule_id_rejected(self):
        result = analyze_pipeline(sample_source("two_bugs"), "two_bugs.py")
        try:
            run_all(result.ir, result.flow, {"not-a-rule"})
        except ValueError as exc:
            assert "not-a-rule" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_default_profile_is_the_six_precise_rules(self):
        assert DEFAULT_PROFILE == {
            "double-meas",
            "op-after-meas",
            "meas-all-abuse",
            "cond-wo-meas",
            "ghost-compose",
            "op-after-transp",
        }
        assert len(RULE_IDS) == 10

    def test_warnings_sorted_and_deduplicated(self):
        source = (
            "qc = QuantumCircuit(1, 1)\n"
            "qc.h(0)\n"
            "for i in range(3):\n"
            "    qc.measure(0, 0)\n"
        )
        warnings = warnings_for(source)
        keys = [(w.span.file, w.span.line, w.span.column, w.rule, w.message) for w in warnings]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    @staticmethod
    def _event_scans(circuits: int) -> int:
        """Passes over `ir.events` that build_flow and run_all make on one file."""

        class CountingList(list):
            scans = 0

            def __iter__(self):
                CountingList.scans += 1
                return super().__iter__()

        ops = ["h(0)", "x(1)", "cx(0, 1)", "h(2)", "cx(1, 2)", "s(1)"]
        ops += ["measure(0, 0)", "measure(1, 1)", "measure(2, 0)", "h(0)"]
        lines = []
        for c in range(circuits):
            lines.append(f"qc{c} = QuantumCircuit(3, 2)")
            lines += [f"qc{c}.{op}" for op in ops]
        result = analyze_pipeline("\n".join(lines) + "\n", "many.py")
        ir = result.ir
        assert len(ir.circuits) == circuits and len(ir.events) == 10 * circuits
        ir.events = CountingList(ir.events)
        warnings = run_all(ir, build_flow(ir))
        assert len(warnings) == 2 * circuits  # insuff-clas-reg and op-after-meas each
        return CountingList.scans

    def test_event_scans_do_not_grow_with_circuits(self):
        """Complexity guard: the rules stage reads a per-file index, not a scan per circuit."""
        assert self._event_scans(1000) == self._event_scans(10)

    def test_purity_identical_runs(self):
        source = sample_source("repeated_not")
        first = [(w.rule, w.span.line, w.message) for w in warnings_for(source)]
        second = [(w.rule, w.span.line, w.message) for w in warnings_for(source)]
        assert first == second


class TestSampleWarningSets:
    """Exact per-sample expectations under the full profile."""

    def test_multi_register_clean(self):
        assert warnings_for(sample_source("multi_register")) == []

    def test_redundant_measure_exact(self):
        warnings = warnings_for(sample_source("redundant_measure"))
        assert [(w.rule, w.span.line) for w in warnings] == [("double-meas", 6)]

    def test_gate_after_measure_exact(self):
        warnings = warnings_for(sample_source("gate_after_measure"))
        assert [(w.rule, w.span.line) for w in warnings] == [("op-after-meas", 6)]

    def test_measure_all_extra_exact(self):
        warnings = warnings_for(sample_source("measure_all_extra"))
        assert [(w.rule, w.span.line) for w in warnings] == [("meas-all-abuse", 5)]

    def test_repeated_not_exact(self):
        warnings = warnings_for(sample_source("repeated_not"))
        assert [(w.rule, w.span.line) for w in warnings] == [("double-meas", 12)]

    def test_dropped_compose_rules(self):
        # The unassigned compose plus the 4-qubit/0-clbit constructors.
        warnings = warnings_for(sample_source("dropped_compose"))
        assert [(w.rule, w.span.line) for w in warnings] == [
            ("insuff-clas-reg", 3),
            ("ghost-compose", 10),
        ]
