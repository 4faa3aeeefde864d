"""Flow relation tests: ordering, adjacency, branch and loop semantics."""

from __future__ import annotations

import itertools
import sys

from conftest import sample_source, pipeline
from flow_reference import reference_directly_pairs
from genprog import branch_free, branchy, wide_branchy, with_trip_count
from oracle import trace_program

from qlint.qir import EventKind


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
        assert flow.may_follow_directly(a.id, b.id) is not None
        assert flow.may_follow_directly(b.id, a.id) is None

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
        assert flow.may_follow(first.id, last.id) is not None
        assert flow.may_follow_directly(first.id, last.id) is None

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
        assert flow.may_follow(a.id, b.id) is None
        assert flow.may_follow_directly(a.id, b.id) is None

    def test_two_bug_demo_measure_then_rotation(self):
        ir, flow = _flow(sample_source("two_bugs"))
        measure = _event_at(ir, 9)
        rotation = _event_at(ir, 10, "ry")
        key = flow.may_follow_directly(measure.id, rotation.id)
        assert key is not None and key[2] == 0


class TestSortedInOrder:
    SOURCE = (
        "qc = QuantumCircuit(1, 1)\n"
        "qc.h(0)\n"
        "qc.measure(0, 0)\n"
        "qc.z(0)\n"
    )

    def test_timeline_order_holds(self):
        # Expected truth derived from the concrete event replay.
        trace = trace_program(self.SOURCE)
        lines = [e.line for e in trace.timelines()[("q", 0)]]
        assert lines == [2, 3, 4]
        ir, flow = _flow(self.SOURCE)
        h, m, z = (_event_at(ir, n) for n in (2, 3, 4))
        assert flow.sorted_in_order(h.id, m.id, z.id)

    def test_permutations_fail(self):
        ir, flow = _flow(self.SOURCE)
        h, m, z = (_event_at(ir, n) for n in (2, 3, 4))
        for a, b, c in itertools.permutations((h, m, z)):
            if (a, b, c) != (h, m, z):
                assert not flow.sorted_in_order(a.id, b.id, c.id)

    def test_unknown_operand_event_never_sorts(self):
        source = self.SOURCE + "qc.x(i)\n"
        ir, flow = _flow(source)
        h, m = _event_at(ir, 2), _event_at(ir, 3)
        unknown = _event_at(ir, 5)
        assert unknown.kind is EventKind.UNKNOWN
        assert not flow.sorted_in_order(h.id, m.id, unknown.id)
        assert not flow.sorted_in_order(unknown.id, h.id, m.id)


class TestMultiRegisterSample:
    def test_shared_qubit_orders_across_statements(self):
        ir, flow = _flow(sample_source("multi_register"))
        cx = _event_at(ir, 12, "cx")
        measure_b0 = _event_at(ir, 15)
        key = flow.may_follow(cx.id, measure_b0.id)
        assert key is not None
        register = ir.registers[key[1]]
        assert register.display_name() == "qregB"
        assert key[2] == 0

    def test_different_registers_stay_unordered(self):
        ir, flow = _flow(sample_source("multi_register"))
        x_gate = _event_at(ir, 13, "x")
        z_gate = _event_at(ir, 14, "z")
        assert flow.may_follow(x_gate.id, z_gate.id) is None
        assert flow.may_follow(z_gate.id, x_gate.id) is None


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
        assert flow.may_follow(x_gate.id, z_gate.id) is None
        assert flow.may_follow(z_gate.id, x_gate.id) is None

    def test_two_direct_successors_implies_branching(self):
        ir, flow = _flow(self.DIAMOND)
        measure = _event_at(ir, 2)
        successors = {
            b for a, b, _ in flow.directly_pairs if a == measure.id
        }
        assert len(successors) == 2
        blocks = {flow.event(e).block for e in successors}
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
        assert flow.may_follow(h.id, x.id) is not None
        assert flow.may_follow(x.id, measure.id) is not None
        assert flow.may_follow(x.id, h.id) is None
        assert flow.may_follow(measure.id, x.id) is None

    def test_body_pairs_relate_both_ways(self):
        ir, flow = _flow(self.SOURCE)
        x = _event_at(ir, 4)
        z = _event_at(ir, 5)
        assert flow.may_follow(x.id, z.id) is not None
        assert flow.may_follow(z.id, x.id) is not None


class TestUnknownTaint:
    def test_unknown_operator_taints_circuit(self):
        ir, flow = _flow("qc = QuantumCircuit(1)\nhelper(qc)\n")
        assert flow.unknown_taint == frozenset(ir.circuits)

    def test_loop_indexed_by_unknown_taints_via_unknown_event(self):
        source = "qc = QuantumCircuit(2, 2)\nfor i in range(n):\n    qc.h(i)\n"
        ir, flow = _flow(source)
        assert flow.unknown_taint

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
        assert flow.may_follow(first.id, last.id) is not None
        assert flow.may_follow_directly(first.id, last.id) is None

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
        assert flow.may_follow_directly(first.id, last.id) is not None


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
        assert flow.may_follow(outer.id, inner.id) is None


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


class TestComplexityGuard:
    def test_pairs_stay_linear_in_events_on_the_analysis_path(self):
        result = pipeline(wide_branchy(seed=7, n_ops=3200))
        flow = result.flow
        assert "may_follow_pairs" not in flow.__dict__
        assert len(flow.directly_pairs) <= 4 * len(result.ir.events)


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
