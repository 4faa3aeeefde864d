"""qlint's hand-written record classes: import cost, repr, equality, copies."""

from __future__ import annotations

import ast
import concurrent.futures
import subprocess
import sys
from pathlib import Path

import pytest

from qlint import Config, analyze_source, driver, format_report, report_of
from qlint.frontend.cfg import Block, Cfg
from qlint.frontend.nodes import ModuleAst, SourceSpan
from qlint.qir.model import CircuitDecl, CircuitKind, EventKind, OperatorEvent, QubitRef

SRC = Path(__file__).resolve().parent.parent / "src"
SPAN = SourceSpan("f.py", 1, 1, 1, 4)
SPAN_TEXT = "SourceSpan(file='f.py', line=1, column=1, end_line=1, end_column=4)"


def _graph() -> Cfg:
    cfg = Cfg()
    cfg.edge(cfg.new_block("<module>"), cfg.new_block("<module>"))
    return cfg


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


# `__future__` too: postponed annotations would make each record field a
# `ForwardRef` built by `compile()` when its class is made.
_NOT_AT_IMPORT = (
    "__future__", "concurrent.futures", "importlib.resources", "json", "logging", "tempfile",
)
_REPORTED = "from qiskit import QuantumCircuit\nqc = QuantumCircuit(2, 2)\nqc.h(0)\n"


def test_importing_qlint_loads_only_what_analysis_runs():
    # No site, so no `.pth` file preloads a module; JSON and SARIF output
    # still work afterwards, and give the bytes they give in this process.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import qlint, qlint.cli\n"
        "from qlint.qir import load_gate_table\n"
        "load_gate_table()\n"
        f"loaded = [name for name in {_NOT_AT_IMPORT!r} if name in sys.modules]\n"
        "import re\n"
        "compiled = [k for k, v in vars(qlint.driver).items() if isinstance(v, re.Pattern)]\n"
        f"report = qlint.report_of([qlint.analyze_source({_REPORTED!r}, 'f.py')])\n"
        "styles = [qlint.format_report(report, style) for style in ('json', 'sarif')]\n"
        "print(repr([loaded, compiled, *styles]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded, compiled, as_json, as_sarif = ast.literal_eval(done.stdout)
    assert loaded == []
    assert compiled == []  # the driver compiles its patterns on first use
    report = report_of([analyze_source(_REPORTED, "f.py")])
    assert report.warnings
    assert as_json == format_report(report, "json")
    assert as_sarif == format_report(report, "sarif")


def test_driver_thread_pool_executor_resolves_on_access():
    # bench/tracing.py subclasses this name, then restores it from vars(driver).
    assert driver.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor
    assert vars(driver)["ThreadPoolExecutor"] is concurrent.futures.ThreadPoolExecutor
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(driver, "no_such_name")


class TestRepr:
    """The text `@dataclass` printed, which callers of analyze_pipeline see."""

    def test_node(self):
        assert repr(Block(2, "<module>")) == "Block(id=2, scope='<module>')"

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
            f"span={SPAN_TEXT}, scope='<module>', name=None, layout=Layout(quantum=(), "
            "classical=(), open=True, num_qubits=None, num_clbits=None, offsets=()), "
            "transpile_opt_level=None, subcircuit_flags=set())"
        )

    def test_cfg(self):
        assert repr(_graph()) == (
            "Cfg(blocks=[Block(id=0, scope='<module>'), Block(id=1, scope='<module>')], "
            "edges=[(0, 1)])"
        )

    def test_qubit_ref(self):
        assert repr(QubitRef("r1", 0)) == "QubitRef(register='r1', index=0)"


class TestMutableRecords:
    def test_equality_is_field_wise_and_per_class(self):
        assert Block(1, "<module>") == Block(1, "<module>")
        assert Block(1, "<module>") != Block(2, "<module>")
        assert ModuleAst("a.py", []) != Block(1, "<module>")
        assert _graph() == _graph() and _graph() != Cfg()

    def test_records_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Block(1, "<module>"))
        with pytest.raises(TypeError):
            hash(Cfg())

    def test_each_instance_gets_its_own_containers(self):
        first, second = _event(), _event()
        first.qubits.append(QubitRef("r1", 0))
        assert second.qubits == []
        assert ModuleAst("a.py", []).wide_lines is not ModuleAst("b.py", []).wide_lines

    def test_replace_copies_and_changes_fields(self):
        tree = ModuleAst("a.py", [], rebound_names=frozenset("x"))
        copy = tree._replace(rebound_names=frozenset("y"))
        assert (copy.file, copy.rebound_names, tree.rebound_names) == ("a.py", {"y"}, {"x"})
        with pytest.raises(TypeError):
            tree._replace(no_such_field=1)


def test_value_records_are_named_tuples():
    config = Config()._replace(max_unroll=3)
    assert config.max_unroll == 3
    assert config._asdict()["jobs"] == 1
