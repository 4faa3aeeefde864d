"""Frontend tests: parsing, constant propagation, unrolling, CFG shape."""

from __future__ import annotations

import pytest
from conftest import sample_source
from oracle import capture_values

from qlint.frontend import (
    MODULE_SCOPE,
    ParseError,
    build_cfg,
    parse_file,
    propagate_constants,
    unroll_loops,
)
from qlint.frontend.constprop import UNKNOWN, known
from qlint.frontend.nodes import (
    Assign,
    Call,
    ExprStmt,
    ForRange,
    If,
    IntLit,
    Name,
    Opaque,
)


def _parse(source: str):
    return parse_file(source, "test.py")


def _unrolled(source: str):
    return unroll_loops(_parse(source))


def _resolved_calls(tree, env):
    """(callee name, resolved args) for every top-level call statement."""
    out = []
    for stmt in tree.statements:
        value = None
        if isinstance(stmt, ExprStmt) and isinstance(stmt.value, Call):
            value = stmt.value
        elif isinstance(stmt, Assign) and isinstance(stmt.value, Call):
            value = stmt.value
        if value is not None:
            out.append([env.resolve(a) for a in value.args])
    return out


class TestParse:
    def test_register_assignment_shape(self):
        tree = _parse("qreg = QuantumRegister(4)\n")
        assert len(tree.statements) == 1
        stmt = tree.statements[0]
        assert isinstance(stmt, Assign)
        assert isinstance(stmt.value, Call)
        assert isinstance(stmt.value.func, Name)
        assert stmt.value.func.ident == "QuantumRegister"
        assert isinstance(stmt.value.args[0], IntLit)
        assert stmt.value.args[0].value == 4

    def test_two_bug_demo_statement_shape(self):
        source = sample_source("two_bugs")
        assert len(source.splitlines()) == 14
        tree = _parse(source)
        # Comments are not statements and the loop body is nested, so the
        # 14-line program yields 9 top-level statements, one of them a loop.
        assert len(tree.statements) == 9
        loops = [s for s in tree.statements if isinstance(s, ForRange)]
        assert len(loops) == 1

    def test_syntax_error_raises_parse_error(self):
        with pytest.raises(ParseError) as info:
            _parse("def f(:\n")
        assert info.value.line == 1

    def test_unsupported_statement_becomes_opaque_with_names(self):
        tree = _parse("while cond:\n    qc.h(0)\n")
        stmt = tree.statements[0]
        assert isinstance(stmt, Opaque)
        assert {"cond", "qc"} <= set(stmt.names)

    def test_every_statement_carries_a_span(self):
        tree = _parse("a = 1\nif a:\n    b = 2\nelse:\n    b = 3\n")

        def spans(stmts):
            for s in stmts:
                assert s.span.line >= 1
                assert s.span.line <= s.span.end_line
                if isinstance(s, If):
                    spans(s.body)
                    spans(s.orelse)

        spans(tree.statements)


class TestConstants:
    def test_register_size_through_variable(self):
        tree = _unrolled("n = 3\ncreg = ClassicalRegister(n)\n")
        env = propagate_constants(tree)
        (args,) = _resolved_calls(tree, env)
        assert args == [known(3)]

    def test_dynamic_input_is_unknown(self):
        tree = _unrolled("n = input()\nuse(n)\n")
        env = propagate_constants(tree)
        (args,) = _resolved_calls(tree, env)[-1:]
        assert args == [UNKNOWN]

    def test_reassignment_chain(self):
        # Expected value computed by concretely executing the snippet.
        source = "a = 2\na = a + 1\nuse(a)\n"
        assert capture_values(source) == {3: 3}
        tree = _unrolled(source)
        env = propagate_constants(tree)
        (args,) = _resolved_calls(tree, env)[-1:]
        assert args == [known(3)]

    def test_arithmetic_folding(self):
        source = "a = 2 * 3 + 4 - 1\nb = a // 2\nuse(b)\n"
        assert capture_values(source)[3] == 4
        tree = _unrolled(source)
        env = propagate_constants(tree)
        assert _resolved_calls(tree, env)[-1] == [known(4)]

    def test_branch_join_agreeing_values(self):
        source = "a = 1\nif cond:\n    a = 1\nuse(a)\n"
        tree = _unrolled(source)
        env = propagate_constants(tree)
        assert _resolved_calls(tree, env)[-1] == [known(1)]

    def test_branch_join_conflicting_values(self):
        source = "a = 1\nif cond:\n    a = 2\nuse(a)\n"
        tree = _unrolled(source)
        env = propagate_constants(tree)
        assert _resolved_calls(tree, env)[-1] == [UNKNOWN]

    def test_variable_assigned_in_one_branch_only(self):
        source = "if cond:\n    a = 2\nuse(a)\n"
        tree = _unrolled(source)
        env = propagate_constants(tree)
        assert _resolved_calls(tree, env)[-1] == [UNKNOWN]

    def test_function_scopes_are_independent(self):
        source = "n = 3\ndef f(n):\n    use(n)\nuse(n)\n"
        tree = _unrolled(source)
        env = propagate_constants(tree)
        inner_use = tree.statements[1].body[0].value
        assert env.resolve(inner_use.args[0]) == UNKNOWN
        outer_use = tree.statements[2].value
        assert env.resolve(outer_use.args[0]) == known(3)

    def test_soundness_against_concrete_execution(self):
        # Wherever the analysis claims Known(v), running the program must
        # observe exactly v at the same use site.
        snippets = [
            "a = 1\nb = a + a\nuse(b)\n",
            "a = 7\nb = a // 2\nc = b * 3\nuse(c)\n",
            "a = -4\nb = 0 - a\nuse(b)\n",
            "x = 2\nfor i in range(3):\n    x = x + i\nuse(x)\n",
            "n = 10\nuse(n - 1)\n",
            "x = 0\nfor k in range(20):\n    [x, y] = [k, 1]\nuse(x)\n",
            "for i in range(2):\n    for k in range(20):\n        use(i)\n        i = 5\n",
        ]
        for source in snippets:
            observed = capture_values(source)
            tree = unroll_loops(_parse(source))
            env = propagate_constants(tree)

            def check(stmts):
                for stmt in stmts:
                    if isinstance(stmt, ExprStmt) and isinstance(stmt.value, Call):
                        callee = stmt.value.func
                        if isinstance(callee, Name) and callee.ident == "use":
                            value = env.resolve(stmt.value.args[0])
                            if value.is_known:
                                assert observed[stmt.span.line] == value.value
                    if isinstance(stmt, If):
                        check(stmt.body)
                        check(stmt.orelse)
                    if isinstance(stmt, ForRange):
                        check(stmt.body)

            check(tree.statements)

    def test_tree_must_come_from_unroll_loops(self):
        with pytest.raises(ValueError):
            propagate_constants(_parse("a = 1\n"))


class TestUnroll:
    def test_small_known_loop_expands(self):
        tree = unroll_loops(_parse("for i in range(3):\n    circ.h(i)\n"))
        assert len(tree.statements) == 3
        env = propagate_constants(tree)
        values = [env.resolve(s.value.args[0]) for s in tree.statements]
        assert values == [known(0), known(1), known(2)]
        assert tree.non_unrollable == []

    def test_loop_over_limit_is_kept(self):
        tree = unroll_loops(_parse("for i in range(20):\n    circ.h(i)\n"))
        assert len(tree.statements) == 1
        assert isinstance(tree.statements[0], ForRange)
        assert len(tree.non_unrollable) == 1

    def test_limit_boundary(self):
        ten = unroll_loops(_parse("for i in range(10):\n    circ.h(i)\n"))
        assert len(ten.statements) == 10
        eleven = unroll_loops(_parse("for i in range(11):\n    circ.h(i)\n"))
        assert isinstance(eleven.statements[0], ForRange)

    def test_unknown_bound_is_kept(self):
        tree = unroll_loops(_parse("for i in range(n):\n    circ.h(i)\n"))
        assert isinstance(tree.statements[0], ForRange)
        assert len(tree.non_unrollable) == 1

    def test_custom_limit(self):
        source = "for i in range(3):\n    circ.h(i)\n"
        assert len(unroll_loops(_parse(source), 2).statements) == 1
        assert len(unroll_loops(_parse(source), 3).statements) == 3

    def test_range_start_stop_step(self):
        tree = unroll_loops(_parse("for i in range(1, 7, 2):\n    circ.h(i)\n"))
        env = propagate_constants(tree)
        values = [env.resolve(s.value.args[0]).value for s in tree.statements]
        assert values == [1, 3, 5]

    def test_nested_loops_expand(self):
        source = "for i in range(2):\n    for j in range(2):\n        circ.cx(i, j)\n"
        tree = unroll_loops(_parse(source))
        assert len(tree.statements) == 4
        env = propagate_constants(tree)
        pairs = [
            (env.resolve(s.value.args[0]).value, env.resolve(s.value.args[1]).value)
            for s in tree.statements
        ]
        assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_bound_from_constant_variable(self):
        tree = unroll_loops(_parse("k = 2\nfor i in range(k):\n    circ.h(i)\n"))
        assert len(tree.statements) == 3  # assignment + two copies

    def test_break_disables_unrolling(self):
        source = "for i in range(3):\n    circ.h(i)\n    break\n"
        tree = unroll_loops(_parse(source))
        assert isinstance(tree.statements[0], ForRange)

    def test_loop_variable_reassigned_in_body(self):
        source = "for i in range(3):\n    i = i + 1\n    use(i)\n"
        observed = capture_values(source)
        tree = unroll_loops(_parse(source))
        env = propagate_constants(tree)
        uses = [
            env.resolve(s.value.args[0]).value
            for s in tree.statements
            if isinstance(s, ExprStmt)
        ]
        assert uses == [1, 2, 3]
        assert observed[3] == 3  # last concrete value matches the final copy

    def test_loop_variable_keeps_its_last_value(self):
        source = "for i in range(3):\n    x = i\nuse(i)\n"
        assert capture_values(source) == {3: 2}
        tree = unroll_loops(_parse(source))
        env = propagate_constants(tree)
        assert _resolved_calls(tree, env)[-1] == [known(2)]

    def test_zero_iterations(self):
        tree = unroll_loops(_parse("for i in range(0):\n    circ.h(i)\nuse(1)\n"))
        assert len(tree.statements) == 1

    def test_max_iterations_must_be_positive(self):
        with pytest.raises(ValueError):
            unroll_loops(_parse("a = 1\n"), 0)

    def test_unrolling_preserves_concrete_semantics(self):
        """The unrolled event stream matches a faithful textual expansion,
        which in turn executes identically on the reference interpreter."""
        from conftest import pipeline
        from genprog import loop_pair
        from oracle import trace_program

        def stream(result):
            out = []
            for event in result.ir.events:
                keys = tuple(
                    (result.ir.registers[q.register].display_name(), q.index)
                    for q in event.qubits
                )
                out.append((event.gate_name, keys))
            return out

        for seed in range(2000, 2040):
            looped, expanded = loop_pair(seed)
            oracle_looped = [(e.name, e.qubits) for e in trace_program(looped).events]
            oracle_expanded = [
                (e.name, e.qubits) for e in trace_program(expanded).events
            ]
            assert oracle_looped == oracle_expanded
            analyzed_looped = stream(pipeline(looped))
            assert analyzed_looped == stream(pipeline(expanded))
            assert analyzed_looped == oracle_looped


class TestCfg:
    def test_straight_line_single_block(self):
        tree = unroll_loops(_parse("a = 1\nb = 2\nc = 3\n"))
        cfg = build_cfg(tree)
        assert len(cfg.blocks) == 1
        assert cfg.edges == set()

    def test_if_else_diamond(self):
        tree = unroll_loops(_parse("a = 1\nif a:\n    b = 2\nelse:\n    b = 3\n"))
        cfg = build_cfg(tree)
        assert len(cfg.blocks) == 4  # pre, then, else, join
        assert len(cfg.edges) == 4

    def test_two_bug_demo_is_a_chain_after_unroll(self):
        tree = unroll_loops(_parse(sample_source("two_bugs")))
        cfg = build_cfg(tree)
        assert len(cfg.blocks) == 1

    def test_kept_loop_has_back_edge(self):
        tree = unroll_loops(_parse("for i in range(n):\n    circ.h(i)\n"))
        cfg = build_cfg(tree)
        assert any(cfg.in_cycle(b.id) for b in cfg.blocks)

    def test_every_statement_in_exactly_one_block(self):
        tree = unroll_loops(
            _parse("a = 1\nif a:\n    b = 2\nfor i in range(9):\n    use(i)\n")
        )
        cfg = build_cfg(tree)
        seen: list[int] = []
        for block in cfg.blocks:
            seen.extend(block.stmts)
        assert len(seen) == len(set(seen))

        def all_uids(stmts):
            for s in stmts:
                yield s.uid
                if isinstance(s, If):
                    yield from all_uids(s.body)
                    yield from all_uids(s.orelse)
                if isinstance(s, ForRange):
                    yield from all_uids(s.body)

        assert set(seen) == set(all_uids(tree.statements))

    def test_function_bodies_get_their_own_scope(self):
        tree = unroll_loops(_parse("def f():\n    a = 1\nb = 2\n"))
        cfg = build_cfg(tree)
        scopes = {b.scope for b in cfg.blocks}
        assert MODULE_SCOPE in scopes
        assert len(scopes) == 2


class TestDeterminism:
    def test_pipeline_is_a_pure_function_of_source(self):
        source = sample_source("two_bugs")

        def fingerprint():
            tree = unroll_loops(parse_file(source, "two_bugs.py"))
            env = propagate_constants(tree)
            cfg = build_cfg(tree)
            return (
                [type(s).__name__ for s in tree.statements],
                sorted(cfg.edges),
                len(cfg.blocks),
                repr([env.resolve(s.value) for s in tree.statements if isinstance(s, Assign)]),
            )

        assert fingerprint() == fingerprint()

    def test_sample_corpus_parses_totally(self, samples):
        for name, source in samples.items():
            tree = parse_file(source, f"{name}.py")
            assert tree.statements
