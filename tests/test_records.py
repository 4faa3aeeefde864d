"""qlint's hand-written record classes: import cost, repr, equality, copies."""

from __future__ import annotations

import ast
import concurrent.futures
import copy
import inspect
import json
import pickle
import subprocess
import sys
import types
from pathlib import Path
from typing import NamedTuple

import pytest

from qlint import Config, analyze_pipeline, analyze_source, driver, format_report, report_of
from qlint.cli import run
from qlint.analyses import Rule
from qlint.analyses.rules import Warning
from qlint.driver import PipelineResult
from qlint.frontend.cfg import Cfg
from qlint.frontend.nodes import ModuleAst, SourceSpan
from qlint.qir.extract import _Binding
from qlint.qir.gates import GateSpec, GateTable
from qlint.qir.model import CircuitDecl, CircuitKind, ComposeCall, Diagnostic
from qlint.qir.model import EventKind, Layout, OperatorEvent, QubitRef, UnknownCause
from qlint.report import SkippedFile

SRC = Path(__file__).resolve().parent.parent / "src"
SPAN = SourceSpan("f.py", 1, 1, 1, 4)
SPAN_TEXT = "SourceSpan(file='f.py', line=1, column=1, end_line=1, end_column=4)"


def _graph() -> Cfg:
    cfg = Cfg()
    cfg.edge(cfg.new_block("<module>"), cfg.new_block("<module>"))
    return cfg


def _event(**fields) -> OperatorEvent:
    return OperatorEvent(0, "c1", EventKind.GATE, 0, SPAN, **fields)


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


# `ast` and `typing` too: the parser reads node classes from `_ast`, and the
# records are written out rather than made by `typing.NamedTuple`.
_NOT_AT_IMPORT = (
    "__future__", "ast", "concurrent.futures", "importlib.resources", "json", "logging",
    "pathlib", "tempfile", "typing",
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


def test_library_start_loads_no_enum_re_or_pathlib():
    # The kinds are written out, and the driver and the gate table import
    # `re` and `pathlib` where they use them; `qlint.cli`'s `argparse` loads
    # `enum` and `re`, so this start leaves the CLI out.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import qlint\n"
        "from qlint.qir import load_gate_table\n"
        "load_gate_table()\n"
        "print([name for name in ('enum', 're', 'pathlib') if name in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "[]\n"


def test_cli_in_a_fresh_interpreter_gives_the_in_process_output(tmp_path, capsys):
    # A coding cookie, an ignore comment and undecodable bytes run the
    # driver's three patterns and `expand_paths`, each imported on first use.
    (tmp_path / "cookie.py").write_bytes(
        b"# -*- coding: latin-1 -*-\nqc = QuantumCircuit(2, 2)  # caf\xe9\nqc.h(0)\n"
    )
    (tmp_path / "ignored.py").write_text(
        "qc = QuantumCircuit(2, 2)\nqc.measure(0, 0)\nqc.measure(1, 1)\n"
        "qc.h(0)  # qlint: ignore\nqc.h(1)\n"
    )
    (tmp_path / "undecodable.py").write_bytes(b"x = 1\ny = '\xff'\n")
    argv = ["check", "--format", "json", str(tmp_path)]
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import qlint.cli\n"
        f"sys.argv[1:] = {argv!r}\n"
        "qlint.cli.main()\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert run(argv) == done.returncode == 1
    captured = capsys.readouterr()
    assert (done.stdout, done.stderr) == (captured.out, captured.err)
    report = json.loads(done.stdout)
    assert report["files_analyzed"] == [str(tmp_path / "cookie.py"), str(tmp_path / "ignored.py")]
    assert [(s["file"], s["line"]) for s in report["files_skipped"]] == [
        (str(tmp_path / "undecodable.py"), 2)
    ]
    assert [(w["rule"], w["line"]) for w in report["warnings"]] == [("op-after-meas", 5)]


@pytest.mark.parametrize("kind", [CircuitKind, EventKind, UnknownCause], ids=lambda k: k.__name__)
class TestKinds:
    """The kind classes keep what callers read of their `enum.Enum` forms."""

    def test_members(self, kind):
        members = {n: v for n, v in vars(kind).items() if n.isupper()}
        assert members
        for name, member in members.items():
            assert type(member) is kind and member.name == name
            assert member.value == name.lower()
            assert repr(member) == f"<{kind.__name__}.{name}: {member.value!r}>"
            assert member == member and member is getattr(kind, name)
            assert not hasattr(member, "__dict__")
        assert len({m.value for m in members.values()}) == len(members)

    def test_copies_are_the_member(self, kind):
        for member in (v for n, v in vars(kind).items() if n.isupper()):
            for twin in (copy.copy(member), copy.deepcopy(member),
                         pickle.loads(pickle.dumps(member))):
                assert twin is member


def test_driver_thread_pool_executor_resolves_on_access():
    # bench/tracing.py subclasses this name, then restores it from vars(driver).
    assert driver.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor
    assert vars(driver)["ThreadPoolExecutor"] is concurrent.futures.ThreadPoolExecutor
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(driver, "no_such_name")


class TestRepr:
    """The text `@dataclass` printed, which callers of analyze_pipeline see."""

    def test_operator_event(self):
        event = _event(gate_name="h", qubits=[QubitRef("r1", 0)])
        assert repr(event) == (
            "OperatorEvent(id=0, circuit='c1', kind=<EventKind.GATE: 'gate'>, "
            f"block=0, span={SPAN_TEXT}, gate_name='h', "
            "is_conditional=False, creates_new_register=False, unknown_cause=None, "
            "qubits=[QubitRef(register='r1', index=0)], clbits=())"
        )

    def test_circuit_decl(self):
        decl = CircuitDecl("c1", CircuitKind.CONSTRUCTOR, SPAN)
        assert repr(decl) == (
            "CircuitDecl(id='c1', kind=<CircuitKind.CONSTRUCTOR: 'constructor'>, "
            f"span={SPAN_TEXT}, name=None, layout=Layout(quantum=(), "
            "classical=(), open=True, num_qubits=None, num_clbits=None, offsets=()), "
            "transpile_opt_level=None, unseen=set())"
        )

    def test_cfg(self):
        assert repr(_graph()) == (
            "Cfg(blocks=['<module>', '<module>'], edges=[(0, 1)])"
        )

    def test_qubit_ref(self):
        assert repr(QubitRef("r1", 0)) == "QubitRef(register='r1', index=0)"


class TestMutableRecords:
    def test_equality_is_field_wise_and_per_class(self):
        assert _circuit("c1") == _circuit("c1")
        assert _circuit("c1") != _circuit("c2")
        assert ModuleAst("a.py", []) != _circuit("c1")
        assert _graph() == _graph() and _graph() != Cfg()

    def test_records_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(_circuit("c1"))
        with pytest.raises(TypeError):
            hash(Cfg())

    def test_each_instance_gets_its_own_containers(self):
        first, second = _circuit("c1"), _circuit("c1")
        first.unseen.add("subcircuit")
        assert second.unseen == set()
        assert ModuleAst("a.py", []).wide_lines is not ModuleAst("b.py", []).wide_lines


def _circuit(circuit_id: str) -> CircuitDecl:
    return CircuitDecl(circuit_id, CircuitKind.CONSTRUCTOR, SPAN)


class TestOperatorEvent:
    """Events are value records: an event's id is its position in `ir.events`."""

    SOURCE = (
        "cr = ClassicalRegister(1)\nqc = QuantumCircuit(QuantumRegister(2), cr)\n"
        "qc.h(0)\nqc.measure(0, cr[0])\nqc.x(1).c_if(cr, 1)\nqc.barrier()\n"
    )

    def test_copies_and_pickles_are_equal(self):
        events = analyze_pipeline(self.SOURCE, "t.py").ir.events
        assert len(events) == 4 and events[1].clbits and events[2].is_conditional
        for event in events:
            for twin in (copy.copy(event), copy.deepcopy(event),
                         pickle.loads(pickle.dumps(event))):
                assert type(twin) is OperatorEvent and twin == event
                assert twin._asdict() == event._asdict()

    def test_defaults_share_no_mutable_container(self):
        assert _event().qubits == () and _event().clbits == ()
        assert not _event().is_conditional
        assert not hasattr(_event(), "__dict__")


def test_value_records_are_named_tuples():
    config = Config()._replace(max_unroll=3)
    assert config.max_unroll == 3
    assert config._asdict()["jobs"] == 1


VALUE_RECORDS = (
    SourceSpan, QubitRef, Layout, OperatorEvent, ComposeCall, Diagnostic, GateSpec, GateTable,
    _Binding, SkippedFile, Config, PipelineResult, Rule, Warning,
)


def _reference(record: type) -> type:
    """A `typing.NamedTuple` of the record's name, fields and defaults."""
    parameters = list(inspect.signature(record.__new__).parameters.values())[1:]
    namespace = {"__module__": __name__, "__annotations__": {p.name: object for p in parameters}}
    namespace.update({p.name: p.default for p in parameters if p.default is not p.empty})
    return types.new_class(record.__name__, (NamedTuple,), {}, lambda ns: ns.update(namespace))


@pytest.mark.parametrize("record", VALUE_RECORDS, ids=lambda r: r.__name__)
class TestValueRecordMatchesNamedTuple:
    def _values(self, record: type) -> tuple[str, ...]:
        return tuple(f"{name}-value" for name in record._fields)

    def test_fields_and_match_args(self, record):
        reference = _reference(record)
        assert record._fields == reference._fields
        assert record.__match_args__ == reference.__match_args__
        assert not hasattr(record(*self._values(record)), "__dict__")

    def test_construction_repr_eq_and_hash(self, record):
        reference, values = _reference(record), self._values(record)
        by_keyword = dict(zip(record._fields, values))
        for got, expected in [
            (record(*values), reference(*values)),
            (record(**by_keyword), reference(**by_keyword)),
        ]:
            assert type(got) is record
            assert repr(got) == repr(expected)
            assert got == expected and got == values and tuple(got) == values
            assert hash(got) == hash(expected)
            assert [getattr(got, name) for name in record._fields] == list(values)
        required = len(record._fields) - len(reference._field_defaults)
        assert repr(record(*values[:required])) == repr(reference(*values[:required]))
        too_few = [values[: required - 1]] if required else []
        for wrong in [*too_few, (*values, "extra")]:
            with pytest.raises(TypeError):
                record(*wrong)

    def test_replace_and_asdict(self, record):
        reference, values = _reference(record), self._values(record)
        got, expected = record(*values), reference(*values)
        last = record._fields[-1]
        changed = got._replace(**{last: "changed"})
        assert type(changed) is record
        assert repr(changed) == repr(expected._replace(**{last: "changed"}))
        assert got._asdict() == expected._asdict()
        with pytest.raises(ValueError, match="no_such_field"):
            got._replace(no_such_field=1)

    def test_copy_and_pickle(self, record):
        got = record(*self._values(record))
        for twin in (copy.copy(got), pickle.loads(pickle.dumps(got))):
            assert type(twin) is record and twin == got and repr(twin) == repr(got)
