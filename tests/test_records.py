"""qlint's hand-written record classes: import cost, repr, equality, copies."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from qlint import Config
from qlint.frontend.nodes import ModuleAst, NoOp, Opaque, SourceSpan
from qlint.qir.model import CircuitDecl, CircuitKind, EventKind, OperatorEvent, QubitRef

SRC = Path(__file__).resolve().parent.parent / "src"
SPAN = SourceSpan("f.py", 1, 1, 1, 4)
SPAN_TEXT = "SourceSpan(file='f.py', line=1, column=1, end_line=1, end_column=4)"


def _event(**fields) -> OperatorEvent:
    return OperatorEvent("e1", "c1", EventKind.GATE, 0, 0, "<module>", SPAN, **fields)


def test_importing_qlint_does_not_import_dataclasses():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import qlint\n"
        "from qlint.qir import load_gate_table\n"
        "load_gate_table()\n"
        "print('dataclasses' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout == "False\n"


class TestRepr:
    """The text `@dataclass` printed, which callers of analyze_pipeline see."""

    def test_node(self):
        stmt = Opaque(frozenset({"x"}), "while", span=SPAN, uid=2)
        assert repr(stmt) == (
            f"Opaque(span={SPAN_TEXT}, uid=2, names=frozenset({{'x'}}), label='while')"
        )

    def test_operator_event(self):
        event = _event(gate_name="h", qubits=[QubitRef("r1", 0)])
        assert repr(event) == (
            "OperatorEvent(id='e1', circuit='c1', kind=<EventKind.GATE: 'gate'>, seq=0, "
            f"block=0, scope='<module>', span={SPAN_TEXT}, gate_name='h', "
            "is_conditional=False, creates_new_register=False, unknown_cause=None, "
            "qubits=[QubitRef(register='r1', index=0)], clbits=[])"
        )

    def test_circuit_decl(self):
        decl = CircuitDecl("c1", CircuitKind.CONSTRUCTOR, SPAN, "<module>")
        assert repr(decl) == (
            "CircuitDecl(id='c1', kind=<CircuitKind.CONSTRUCTOR: 'constructor'>, "
            f"span={SPAN_TEXT}, scope='<module>', name=None, num_qubits=Unknown, "
            "num_clbits=Unknown, quantum_registers=[], classical_registers=[], "
            "transpile_opt_level=Unknown, subcircuit_flags=set())"
        )

    def test_qubit_ref(self):
        assert repr(QubitRef("r1", 0)) == "QubitRef(register='r1', index=0)"


class TestMutableRecords:
    def test_equality_is_field_wise_and_per_class(self):
        assert NoOp("pass", span=SPAN, uid=1) == NoOp("pass", span=SPAN, uid=1)
        assert NoOp("pass", span=SPAN, uid=1) != NoOp("break", span=SPAN, uid=1)
        assert Opaque(label="pass", span=SPAN, uid=1) != NoOp("pass", span=SPAN, uid=1)

    def test_records_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(NoOp(span=SPAN, uid=1))

    def test_each_instance_gets_its_own_containers(self):
        first, second = _event(), _event()
        first.qubits.append(QubitRef("r1", 0))
        assert second.qubits == []
        assert ModuleAst("a.py", []).non_unrollable is not ModuleAst("b.py", []).non_unrollable

    def test_replace_copies_and_changes_fields(self):
        tree = ModuleAst("a.py", [], non_unrollable=[3])
        copy = tree._replace(non_unrollable=[7])
        assert (copy.file, copy.non_unrollable, tree.non_unrollable) == ("a.py", [7], [3])
        with pytest.raises(TypeError):
            tree._replace(no_such_field=1)


def test_value_records_are_named_tuples():
    config = Config()._replace(max_unroll=3)
    assert config.max_unroll == 3
    assert config._asdict()["jobs"] == 1
