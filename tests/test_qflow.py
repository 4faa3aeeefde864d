"""Flow relation tests: ordering, adjacency, branch and loop semantics."""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest
from conftest import sample_source, pipeline
from flow_reference import reference_directly_pairs, reference_may_follow_pairs
from genprog import branch_free, branchy, wide_branchy, with_trip_count
from oracle import trace_program

from qlint import analyze_source
from qlint.frontend import ParseError
from qlint.qir import EventKind
from test_behaviour import inputs as lock_inputs

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


def _flow(source: str):
    result = pipeline(source)
    return result.ir, result.flow


def _event_at(ir, line: int, name: str | None = None):
    matches = [
        e
        for e in ir.events
        if e.span.line == line and (name is None or e.gate_name == name)
    ]
    assert len(matches) == 1, f"want one event at line {line}, got {matches}"
    return matches[0]


def _follows(flow, a, b) -> list:
    """Qubit keys on which event b may follow event a, from `may_follow_pairs`."""
    return [key for x, y, key in flow.may_follow_pairs if x == a.id and y == b.id]


def _directly(flow, a, b) -> list:
    """Qubit keys on which b may follow a with nothing in between, from `directly_pairs`."""
    return [key for x, y, key in flow.directly_pairs if x == a.id and y == b.id]


def _named_relations(result):
    """Relations keyed by (register name, index) and source line."""
    ir, flow = result.ir, result.flow
    reg_name = {rid: r.display_name() for rid, r in ir.registers.items()}
    line = {e.id: e.span.line for e in ir.events}

    def named(pairs):
        return {
            ((reg_name[k[1]], k[2]), line[a], line[b]) for a, b, k in pairs
        }

    return named(flow.may_follow_pairs), named(flow.directly_pairs)


class TestStraightLine:
    def test_single_operator_circuit_has_empty_relations(self):
        ir, flow = _flow("qc = QuantumCircuit(1, 1)\nqc.h(0)\n")
        assert flow.may_follow_pairs == ()
        assert flow.directly_pairs == ()

    def test_adjacent_measurements(self):
        ir, flow = _flow(
            "qc = QuantumCircuit(1, 1)\nqc.measure(0, 0)\nqc.measure(0, 0)\n"
        )
        a, b = ir.events
        assert _directly(flow, a, b)
        assert not _directly(flow, b, a)

    def test_intervening_gate_breaks_adjacency_not_order(self):
        source = (
            "qc = QuantumCircuit(1, 1)\n"
            "qc.measure(0, 0)\n"
            "qc.h(0)\n"
            "qc.measure(0, 0)\n"
        )
        ir, flow = _flow(source)
        first = _event_at(ir, 2)
        last = _event_at(ir, 4)
        # Adjacency expectations derived by replaying the event timeline.
        trace = trace_program(source)
        direct = trace.may_follow_directly()
        assert (("q", 0), 2, 4) not in direct
        assert (("q", 0), 2, 4) in trace.may_follow()
        assert _follows(flow, first, last)
        assert not _directly(flow, first, last)

    def test_equal_index_different_registers_are_unrelated(self):
        source = (
            'qa = QuantumRegister(1, "qa")\n'
            'qb = QuantumRegister(1, "qb")\n'
            "ca = ClassicalRegister(2)\n"
            "qc = QuantumCircuit(qa, qb, ca)\n"
            "qc.measure(qa[0], ca[0])\n"
            "qc.measure(qb[0], ca[1])\n"
        )
        ir, flow = _flow(source)
        a = _event_at(ir, 5)
        b = _event_at(ir, 6)
        assert not _follows(flow, a, b)
        assert not _directly(flow, a, b)

    def test_two_bug_demo_measure_then_rotation(self):
        ir, flow = _flow(sample_source("two_bugs"))
        measure = _event_at(ir, 9)
        rotation = _event_at(ir, 10, "ry")
        assert [key[2] for key in _directly(flow, measure, rotation)] == [0]


class TestMultiRegisterSample:
    def test_shared_qubit_orders_across_statements(self):
        ir, flow = _flow(sample_source("multi_register"))
        cx = _event_at(ir, 12, "cx")
        measure_b0 = _event_at(ir, 15)
        [key] = _follows(flow, cx, measure_b0)
        register = ir.registers[key[1]]
        assert register.display_name() == "qregB"
        assert key[2] == 0

    def test_different_registers_stay_unordered(self):
        ir, flow = _flow(sample_source("multi_register"))
        x_gate = _event_at(ir, 13, "x")
        z_gate = _event_at(ir, 14, "z")
        assert not _follows(flow, x_gate, z_gate)
        assert not _follows(flow, z_gate, x_gate)


class TestBranches:
    DIAMOND = (
        "qc = QuantumCircuit(1, 1)\n"
        "qc.measure(0, 0)\n"
        "if cond:\n"
        "    qc.x(0)\n"
        "else:\n"
        "    qc.z(0)\n"
        "qc.measure(0, 0)\n"
    )

    def test_union_of_branch_executions(self):
        # The oracle runs each branch by substituting the condition.
        union_follow = set()
        union_direct = set()
        for value in ("True", "False"):
            trace = trace_program(self.DIAMOND.replace("cond", value))
            union_follow |= trace.may_follow()
            union_direct |= trace.may_follow_directly()
        got_follow, got_direct = _named_relations(pipeline(self.DIAMOND))
        assert got_follow == union_follow
        assert got_direct == union_direct

    def test_sibling_branches_unordered(self):
        ir, flow = _flow(self.DIAMOND)
        x_gate = _event_at(ir, 4)
        z_gate = _event_at(ir, 6)
        assert not _follows(flow, x_gate, z_gate)
        assert not _follows(flow, z_gate, x_gate)

    def test_two_direct_successors_implies_branching(self):
        ir, flow = _flow(self.DIAMOND)
        measure = _event_at(ir, 2)
        successors = {
            b for a, b, _ in flow.directly_pairs if a == measure.id
        }
        assert len(successors) == 2
        blocks = {ir.events[e].block for e in successors}
        assert len(blocks) == 2

    def test_empty_else_keeps_skip_path_adjacency(self):
        source = (
            "qc = QuantumCircuit(1, 1)\n"
            "qc.measure(0, 0)\n"
            "if cond:\n"
            "    qc.x(0)\n"
            "qc.measure(0, 0)\n"
        )
        union_direct = set()
        for value in ("True", "False"):
            trace = trace_program(source.replace("cond", value))
            union_direct |= trace.may_follow_directly()
        _, got_direct = _named_relations(pipeline(source))
        assert got_direct == union_direct
        # In particular the two measurements stay adjacent on the skip path.
        assert (("q", 0), 2, 5) in got_direct


class TestKeptLoops:
    SOURCE = (
        "qc = QuantumCircuit(1, 1)\n"
        "qc.h(0)\n"
        "for i in range(n):\n"
        "    qc.x(0)\n"
        "    qc.z(0)\n"
        "qc.measure(0, 0)\n"
    )

    def test_body_relates_to_pre_and_post(self):
        ir, flow = _flow(self.SOURCE)
        h = _event_at(ir, 2)
        x = _event_at(ir, 4)
        measure = _event_at(ir, 6)
        assert _follows(flow, h, x)
        assert _follows(flow, x, measure)
        assert not _follows(flow, x, h)
        assert not _follows(flow, measure, x)

    def test_body_pairs_relate_both_ways(self):
        ir, flow = _flow(self.SOURCE)
        x = _event_at(ir, 4)
        z = _event_at(ir, 5)
        assert _follows(flow, x, z)
        assert _follows(flow, z, x)


class TestUnknownTaint:
    def test_unknown_operator_taints_circuit(self):
        ir, flow = _flow("qc = QuantumCircuit(1)\nhelper(qc)\n")
        assert [c.unseen for c in ir.circuits.values()] == [{"unknown_operator"}]
        assert list(flow.unknown_blockers) == list(ir.circuits)

    def test_loop_indexed_by_unknown_taints_via_unknown_event(self):
        source = "qc = QuantumCircuit(2, 2)\nfor i in range(n):\n    qc.h(i)\n"
        ir, flow = _flow(source)
        assert flow.unknown_blockers
        assert [c.unseen for c in ir.circuits.values()] == [{"unknown_operator"}]

    def test_unknown_event_blocks_adjacency(self):
        source = (
            "qc = QuantumCircuit(1, 1)\n"
            "qc.measure(0, 0)\n"
            "helper(qc)\n"
            "qc.measure(0, 0)\n"
        )
        ir, flow = _flow(source)
        first = _event_at(ir, 2)
        last = _event_at(ir, 4)
        assert _follows(flow, first, last)
        assert not _directly(flow, first, last)

    def test_barrier_is_not_an_event_for_adjacency(self):
        source = (
            "qc = QuantumCircuit(1, 1)\n"
            "qc.measure(0, 0)\n"
            "qc.barrier()\n"
            "qc.measure(0, 0)\n"
        )
        ir, flow = _flow(source)
        first = _event_at(ir, 2)
        last = _event_at(ir, 4)
        assert _directly(flow, first, last)


class TestScopeSeparation:
    def test_cross_scope_events_unrelated(self):
        source = (
            "qa = QuantumRegister(1, 'qa')\n"
            "ca = ClassicalRegister(1)\n"
            "qc = QuantumCircuit(qa, ca)\n"
            "qc.h(qa[0])\n"
            "def later():\n"
            "    qc2 = QuantumCircuit(1, 1)\n"
            "    qc2.h(0)\n"
            "    qc2.x(0)\n"
        )
        ir, flow = _flow(source)
        outer = _event_at(ir, 4)
        inner = _event_at(ir, 7)
        assert not _follows(flow, outer, inner)


class TestProperties:
    def test_straight_line_totality_and_oracle_equivalence(self):
        for seed in range(40):
            prog = branch_free(seed)
            trace = trace_program(prog.source)
            got_follow, got_direct = _named_relations(pipeline(prog.source))
            assert got_follow == trace.may_follow(), prog.source
            assert got_direct == trace.may_follow_directly(), prog.source

    def test_irreflexive_and_transitive_on_branch_free(self):
        for seed in range(25):
            prog = branch_free(seed)
            result = pipeline(prog.source)
            flow = result.flow
            pairs_by_key: dict = {}
            for a, b, key in flow.may_follow_pairs:
                assert a != b
                pairs_by_key.setdefault(key, set()).add((a, b))
            for key, pairs in pairs_by_key.items():
                for (a, b), (c, d) in itertools.product(pairs, pairs):
                    if b == c:
                        assert (a, d) in pairs


def _touch_all(circuit) -> None:
    """Oracle stand-in for `helper(qc)`: it may act on every qubit."""
    line = sys._getframe(1).f_lineno
    circuit._record("helper", "gate", [bit for reg in circuit.qregs for bit in reg], line)


class TestBranchyPrograms:
    """If/else on unknown flags, kept loops and unknown operators."""

    PROGRAMS = 300

    def test_directly_pairs_match_pairwise_path_search(self):
        for seed in range(self.PROGRAMS):
            flow = pipeline(branchy(seed).source).flow
            assert flow.directly_pairs == reference_directly_pairs(flow), seed

    def test_oracle_pairs_are_included(self):
        # May semantics: the union over every flag assignment and trip counts
        # 0, 1 and 2. Pairs touching a helper line have no analyzer event, and
        # an event following itself in a kept loop is a known gap.
        for seed in range(self.PROGRAMS):
            program = branchy(seed)
            got_follow, got_direct = _named_relations(pipeline(program.source))
            helper_lines = {
                number
                for number, line in enumerate(program.source.splitlines(), start=1)
                if "helper(" in line
            }
            union_follow: set = set()
            union_direct: set = set()
            for trips in (0, 1, 2):
                source = with_trip_count(program.source, trips)
                for values in itertools.product((False, True), repeat=program.flags):
                    names = {f"flag{i}": value for i, value in enumerate(values)}
                    trace = trace_program(source, names={**names, "helper": _touch_all})
                    union_follow |= trace.may_follow()
                    union_direct |= trace.may_follow_directly()
            for ours, traced in ((got_follow, union_follow), (got_direct, union_direct)):
                missed = {
                    (qubit, a, b)
                    for qubit, a, b in traced - ours
                    if a != b and not {a, b} & helper_lines
                }
                assert not missed, (seed, sorted(missed))


class TestTimelineEdges:
    """Timelines that name one event twice, and circuits with unknown operators."""

    @pytest.mark.parametrize(
        "source",
        [
            "qc = QuantumCircuit(2)\nqc.h(0)\nqc.ccx(0, 1, 0)\nqc.h(0)\nqc.ccx(0, 1, 0)\n",
            "qa = QuantumRegister(2)\nqc = QuantumCircuit(qa)\nqc.x(qa[0])\n"
            "qc.cx(qa[0], qa[0])\nqc.x(qa[1])\nqc.cx(qa[0], qa[0])\n",
            "qc = QuantumCircuit(2)\nqc.h(0)\nif flag:\n    qc.ccx(0, 1, 0)\nelse:\n"
            "    qc.cx(1, 1)\nfor i in range(n):\n    qc.ccx(0, 1, 0)\nqc.h(0)\n",
            "qc = QuantumCircuit(2)\nqc.h(0)\nhelper(qc)\nqc.ccx(0, 1, 0)\nqc.h(1)\n",
            "qc = QuantumCircuit(2)\nqd = QuantumCircuit(2)\nqc.h(0)\nqd.h(0)\n"
            "if flag:\n    helper(qc)\n    qc.cx(0, 0)\nqc.h(0)\nqd.h(0)\n"
            "for i in range(n):\n    qc.h(1)\n    helper(qc)\n    qc.ccx(1, 0, 1)\nqc.h(1)\n",
        ],
    )
    def test_directly_pairs_match_pairwise_path_search(self, source):
        flow = pipeline(source).flow
        assert any(len(set(t)) < len(t) for t in flow.timelines.values())
        assert flow.directly_pairs  # compared in order, as tuples
        assert flow.directly_pairs == reference_directly_pairs(flow)


class TestMayFollowReference:
    def test_pairs_match_pairwise_before_on_every_lock_input(self):
        # Compared as tuples, so in the analyzer's order too.
        for name, source in lock_inputs():
            try:
                flow = pipeline(source, name).flow
            except ParseError:
                continue
            assert flow.may_follow_pairs == reference_may_follow_pairs(flow), name


class TestEventIdentity:
    def test_ids_are_positions_and_blocks_name_their_scope(self):
        # On the inputs tests/test_behaviour.py locks.
        for name, source in lock_inputs():
            try:
                ir = pipeline(source, name).ir
            except ParseError:
                continue
            assert [e.id for e in ir.events] == list(range(len(ir.events))), name
            assert all(0 <= e.block < len(ir.cfg.blocks) for e in ir.events), name

    @pytest.mark.parametrize(
        "condition", ["qc.x(0).c_if(cr, 1)\n", "g = qc.x(0)\ng.c_if(cr, 1)\n"]
    )
    def test_c_if_marks_the_event_in_the_ir(self, condition):
        declared = "cr = ClassicalRegister(1)\nqc = QuantumCircuit(QuantumRegister(1), cr)\n"
        source = declared + condition
        result = pipeline(source)
        (event,) = result.ir.events
        assert event.is_conditional and result.ir.events[event.id] is event
        assert result.flow.conditionals == [event]


class TestCandidateLists:
    def test_each_list_is_a_filter_of_the_events(self):
        # On the inputs tests/test_behaviour.py locks.
        for name, source in lock_inputs():
            try:
                result = pipeline(source, name)
            except ParseError:
                continue
            events = [e for e in result.ir.events if e.circuit is not None]
            flow = result.flow
            assert flow.measurements == [e for e in events if e.kind is EventKind.MEASUREMENT]
            assert flow.measure_alls == [e for e in events if e.kind is EventKind.MEASURE_ALL]
            assert flow.conditionals == [
                e for e in events if e.kind is EventKind.GATE and e.is_conditional
            ], name


class TestComplexityGuard:
    def test_pairs_stay_linear_in_events_on_the_analysis_path(self):
        result = pipeline(wide_branchy(seed=7, n_ops=3200))
        flow = result.flow
        assert "may_follow_pairs" not in flow.__dict__
        assert len(flow.directly_pairs) <= 4 * len(result.ir.events)


def python_calls(files) -> int:
    """Python-level calls (`sys.setprofile` "call" events) that `analyze_source`
    makes over `files`, once the gate table is loaded."""
    analyze_source(files[0].source, files[0].name)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        for f in files:
            analyze_source(f.source, f.name)
    finally:
        sys.setprofile(None)
    return calls


def loops_calls_per_event() -> float:
    """Python-level calls over the seed-1 `loops` benchmark workload, per operator event."""
    files = workloads.loops(1)
    events = sum(len(pipeline(f.source, f.name).ir.events) for f in files)
    return python_calls(files) / events


def corpus_calls_per_file() -> float:
    """Python-level calls over the seed-1 `corpus` benchmark workload, per file."""
    files = workloads.corpus(1)
    return python_calls(files) / len(files)


class TestHotPathGuard:
    # 26.0 on CPython 3.11 (27.2 while events were mutable records with a
    # string id, 23.3 while `_eval` inlined reads of names and int
    # constants), and 51.2 before the per-event path was flattened; the
    # bound is about 15% above. Python 3.12 and later inline
    # comprehensions and count fewer calls; 3.10 counts as 3.11 does.
    CALLS_PER_EVENT_BOUND = 30

    def test_calls_per_event_stay_bounded(self):
        per_event, bound = loops_calls_per_event(), self.CALLS_PER_EVENT_BOUND
        assert per_event < bound, f"{per_event:.1f} Python-level calls per event; bound {bound}"


class TestPerFileGuard:
    # 148.0 on CPython 3.11 (156.2 while events were mutable records with a
    # string id), and 208.5 before each rule started from its candidate
    # events; the bound is about 16% above. Python 3.12 and later inline
    # comprehensions and count fewer calls; 3.10 counts as 3.11 does.
    CALLS_PER_FILE_BOUND = 172

    def test_calls_per_file_stay_bounded(self):
        per_file, bound = corpus_calls_per_file(), self.CALLS_PER_FILE_BOUND
        assert per_file < bound, f"{per_file:.1f} Python-level calls per file; bound {bound}"


class TestDump:
    def test_timeline_dump_shape(self):
        source = (
            "qc = QuantumCircuit(2, 2)\n"
            "qc.h(0)\n"
            "qc.cx(0, 1)\n"
            "qc.measure(0, 0)\n"
        )
        ir, flow = _flow(source)
        dump = flow.dump_timelines()
        assert "qc:q[0]: h@2 -> cx@3 -> measure@4" in dump
        assert "qc:q[1]: cx@3" in dump
