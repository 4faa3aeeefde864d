"""Frontend tests: parsing, and the extractor's walk: integers, loops, CFG shape."""

from __future__ import annotations

import ast
import importlib
import re
import textwrap
import time
from unittest import mock

import pytest
from conftest import elif_chain, parses_in_this_python, sample_source
from hypothesis import given, settings
from hypothesis import strategies as st
from genprog import loop_pair, wide_branchy
from oracle import capture_values

from qlint import analyze_source
from qlint.frontend import MODULE_SCOPE, ParseError, parse_file, source_lines
from qlint.frontend.nodes import form, walk
from qlint.qir import CircuitKind, EventKind, UnknownCause, extract
from qlint.qir.extract import MAX_IF_DEPTH, MAX_UNROLLED_STMTS
from test_behaviour import inputs as lock_inputs

# The module, which `qlint.qir.extract` (the function) shadows.
extract_module = importlib.import_module("qlint.qir.extract")


def _parse(source: str):
    return parse_file(source, "test.py")


def _ir(source: str, **options):
    return extract(_parse(source), **options)


_INDEX = re.compile(r"index (-?\d+)")


def _used(source: str) -> list[tuple[int, int | None]]:
    """(line, integer) of each `use(...)` call the walk reaches, in walk order.

    Each `use(e)` is read as a gate on qubit `e` of a 10,000-qubit circuit
    declared on an extra first line, so the integer the walk knows for `e`
    is the gate's operand, or is named by the diagnostic of a negative or
    out-of-range index; None where it is unknown. That diagnostic is
    reported just before the gate's unresolved event, so it is kept by the
    number of events emitted before it.
    """
    probe = "qp = QuantumCircuit(10000)\n" + source.replace("use(", "qp.h(")
    told: dict[int, int] = {}
    report = extract_module._Extractor._diagnostic

    def diagnostic(self, message, node):
        told[len(self.ir.events)] = int(_INDEX.search(message).group(1))
        report(self, message, node)

    with mock.patch.object(extract_module._Extractor, "_diagnostic", diagnostic):
        ir = _ir(probe)
    out = []
    for i, event in enumerate(ir.events):
        if event.gate_name == "h":
            value = event.qubits[0].index if event.qubits else told.get(i)
            out.append((event.span.line - 1, value))
    return out


def _gates(ir) -> list[tuple[int | None, ...]]:
    """The qubit indices of each gate or unresolved event, in walk order."""
    return [
        tuple(q.index for q in e.qubits) or (None,)
        for e in ir.events
        if e.kind is EventKind.GATE or e.unknown_cause is UnknownCause.UNRESOLVED_QUBIT
    ]


def _stream(ir) -> list[tuple]:
    """Events and diagnostics without ids, blocks or positions."""
    names = {rid: r.display_name() for rid, r in ir.registers.items()}
    events = [
        (e.kind, e.gate_name, e.unknown_cause, [(names.get(q.register), q.index) for q in e.qubits])
        for e in ir.events
    ]
    return events + [d.message for d in ir.diagnostics]


def _kept(ir) -> bool:
    """True when some block lies on a cycle: a loop was kept, not expanded."""
    return any(b in ir.cfg.reachable_from((b,)) for b in range(len(ir.cfg.blocks)))


# Leaves of the fold property's programs. Only `w` is bound by a walrus, so
# `a` and `b` stay known where they can; names are listed twice to draw them
# more often.
_NAMES = ("a", "b", "w")
_LEAVES = ("0", "1", "2", "3", "(-1)", "(-2)", "(-3)", *_NAMES, *_NAMES, "True", "False", "None")


@st.composite
def _fold_programs(draw) -> str:
    """Straight-line or if/else code over a, b and w that ends in `use(expr)`.

    `use` calls also nest inside arithmetic, walrus values and assignments.
    """

    def expr(depth: int) -> str:
        kind = draw(st.integers(0, 11)) if depth else 11
        if kind < 5:
            op = draw(st.sampled_from(["+", "-", "*", "//"]))
            return f"({expr(depth - 1)} {op} {expr(depth - 1)})"
        if kind == 5:
            return f"(-{expr(depth - 1)})"
        if kind == 6:
            return f"(w := {expr(depth - 1)})"
        if kind == 7:
            return f"use({expr(depth - 1)})"
        if kind == 8:  # a walrus in an earlier argument of an unknown callee
            return f"max((w := {expr(depth - 1)}), use(w))"
        return draw(st.sampled_from(_LEAVES))

    def simple(indent: str) -> str:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return f"{indent}{draw(st.sampled_from(_NAMES))} = {expr(2)}\n"
        return f"{indent}use({expr(kind - 1)})\n"

    lines = ["flag = True\n", "a = 1\n", "b = 2\n", "w = 3\n"]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 3)):
            lines.append(simple(""))
            continue
        lines.append("if flag:\n")
        lines += [simple("    ") for _ in range(draw(st.integers(1, 3)))]
        orelse = [simple("    ") for _ in range(draw(st.integers(0, 3)))]
        lines += ["else:\n", *orelse] if orelse else []
    return "".join(lines) + f"use({expr(2)})\n"


def _last_uses(source: str) -> dict[int, ast.expr]:
    """The argument of the `use` call that completes last on each line.

    A post-order walk visits calls in the order Python completes them; it
    does not enter an expression outside the subset, which the extractor
    does not evaluate either.
    """
    out = {}

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.expr) or form(child) is not None:
                visit(child)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "use":
            out[node.lineno] = node.args[0]

    visit(ast.parse(source))
    return out


def _cannot_fold(expr: ast.expr) -> bool:
    """A bool or None operand, or a literal 0 divisor, inside `expr`."""
    return any(
        isinstance(node, ast.Constant) and type(node.value) is not int
        or isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
        and isinstance(node.right, ast.Constant) and node.right.value == 0
        for node in ast.walk(expr)
    )


class TestParse:
    def test_register_assignment_shape(self):
        (stmt,) = _parse("qreg = QuantumRegister(4)\n").statements
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.value, ast.Call)
        assert stmt.value.func.id == "QuantumRegister"
        (register,) = _ir("qreg = QuantumRegister(4)\n").registers.values()
        assert (register.kind, register.size, register.name) == ("quantum", 4, "qreg")

    def test_two_bug_demo_statement_shape(self):
        source = sample_source("two_bugs")
        assert len(source.splitlines()) == 14
        tree = _parse(source)
        # Comments are not statements and the loop body is nested, so the
        # 14-line program yields 9 top-level statements, one of them a loop.
        assert len(tree.statements) == 9
        loops = [s for s in tree.statements if isinstance(s, ast.For)]
        assert len(loops) == 1

    def test_span_is_an_immutable_value(self):
        tree = _parse("x = 1\n")
        span = tree.span(tree.statements[0])
        assert repr(span) == (
            "SourceSpan(file='test.py', line=1, column=1, end_line=1, end_column=6)"
        )
        assert hash(span) == hash(("test.py", 1, 1, 1, 6))
        with pytest.raises(AttributeError):
            span.line = 2

    def test_walk_visits_what_ast_walk_visits_on_every_lock_input(self):
        walked = 0
        for name, source in lock_inputs():
            tree = ast.parse(source)
            assert walk(tree) == list(ast.walk(tree)), name
            walked += 1
        assert walked > 1000

    def test_parse_file_gives_the_statements_ast_parse_gives(self):
        source = sample_source("two_bugs")
        got, expected = _parse(source).statements, ast.parse(source).body
        assert list(map(ast.dump, got)) == list(map(ast.dump, expected))

    def test_source_lines_number_lines_like_ast(self):
        # Form feed, vertical tab, \x1c, \x85 and \u2028 end a line for
        # `str.splitlines` but not for `ast`; \r\n and a lone \r end one for both.
        source = "a = 1\r\nb = 2\rc = 3  # \x0c\x0b\x1c\x85\u2028 \nd = 4\n"
        lines = source_lines(source)
        assert len(lines) == 4
        for stmt in ast.parse(source).body:
            assert lines[stmt.lineno - 1].startswith(ast.unparse(stmt))

    def test_columns_count_characters_not_bytes(self):
        # `ast` counts UTF-8 bytes: ψ, θ and é take two bytes but one column.
        def spans(source, rule):
            warnings = analyze_source(source, "t.py").warnings
            return [(w.span.line, w.span.column, w.span.end_column) for w in warnings
                    if w.rule == rule]

        assert spans("ψ = QuantumCircuit(3)\n", "oversized-circuit") == [(1, 5, 22)]
        source = "qc = QuantumCircuit(2, 2)\nθθ = 1; qc.measure(1, 1); qc.measure(1, 1)\n"
        assert spans(source, "double-meas") == [(2, 27, 43)]
        tree = _parse('s = "é"; t = 1\n')
        span = tree.span(tree.statements[1])
        assert (span.column, span.end_column) == (10, 15)

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("x", ast.Name), ("a.b", ast.Attribute), ("f(*a, k=1)", ast.Call),
            ("[a, b]", ast.Tuple), ("(a, b)", ast.Tuple), ("a[1]", ast.Subscript),
            ("a[1, 2]", ast.Subscript), ("1", ast.Constant), ("1.5", ast.Constant),
            ("'s'", ast.Constant), ("True", ast.Constant), ("None", ast.Constant),
            *((f"a {op} b", ast.BinOp) for op in ["+", "-", "*", "//", "/", "%", "**"]),
            ("-a", ast.UnaryOp),
            ("a[1:2]", None), ("1j", None), ("b''", None), ("...", None),
            *((f"a {op} b", None) for op in ["@", "<<", ">>", "|", "&", "^"]),
            ("+a", None), ("~a", None), ("not a", None), ("a == b", None),
            ("a and b", None), ("{1: a}", None), ("{a}", None), ("lambda: a", None),
            ("a if b else c", None), ("f'{a}'", None), ("[a for a in b]", None),
            ("(x := 1)", None),
        ],
    )
    def test_form_is_the_modelled_subset(self, source, expected):
        assert form(ast.parse(source, mode="eval").body) is expected

    def test_starred_outside_a_call_is_opaque(self):
        assert form(ast.parse("[*a]", mode="eval").body.elts[0]) is None

    def test_syntax_error_raises_parse_error(self):
        with pytest.raises(ParseError) as info:
            _parse("def f(:\n")
        assert info.value.line == 1

    def test_unsupported_statement_becomes_opaque_with_names(self):
        # The loop may change the circuit and rebind `n` in any way.
        ir = _ir("n = 1\nqc = QuantumCircuit(1)\nwhile n:\n    qc.h(0)\nQuantumRegister(n)\n")
        (event,) = ir.events
        assert (event.span.line, event.unknown_cause) == (3, UnknownCause.GLOBAL_CIRCUIT_MUTATION)
        assert [r.size for r in ir.registers.values()] == [1, None]

    @pytest.mark.parametrize("branches", [300, 1000])
    def test_long_elif_chain_is_opaque_past_the_depth_cap(self, branches):
        source = elif_chain(branches) + "use(x)\n"
        if not parses_in_this_python(source):
            pytest.skip("ast.parse itself runs out of stack on this chain")
        ir = _ir(source)
        # Each modelled `if` adds a then, a join and an else block; the one
        # at the cap is opaque and adds none.
        assert len(ir.cfg.blocks) == 1 + 3 * MAX_IF_DEPTH
        assert _used(source) == [(2 * branches + 2, None)]  # the opaque `if` may rebind x

    def test_every_statement_carries_a_span(self):
        ir = _ir("qc = QuantumCircuit(2)\nif a:\n    qc.h(0)\nelse:\n    qc.x(b)\n")
        assert [(e.span.line, e.span.end_line) for e in ir.events] == [(3, 3), (5, 5)]


class TestConstants:
    """Integers as the walk evaluates them, observed through `_used`."""

    def test_register_size_through_variable(self):
        ir = _ir("n = 3\ncreg = ClassicalRegister(n)\n")
        assert [r.size for r in ir.registers.values()] == [3]

    def test_dynamic_input_is_unknown(self):
        assert _used("n = input()\nuse(n)\n") == [(2, None)]

    def test_reassignment_chain(self):
        # Expected value computed by concretely executing the snippet.
        source = "a = 2\na = a + 1\nuse(a)\n"
        assert capture_values(source) == {3: 3}
        assert _used(source) == [(3, 3)]

    def test_arithmetic_folding(self):
        source = "a = 2 * 3 + 4 - 1\nb = a // 2\nuse(b)\n"
        assert capture_values(source)[3] == 4
        assert _used(source) == [(3, 4)]

    def test_branch_join_agreeing_values(self):
        assert _used("a = 1\nif cond:\n    a = 1\nuse(a)\n") == [(4, 1)]

    def test_branch_join_conflicting_values(self):
        assert _used("a = 1\nif cond:\n    a = 2\nuse(a)\n") == [(4, None)]

    def test_variable_assigned_in_one_branch_only(self):
        assert _used("if cond:\n    a = 2\nuse(a)\n") == [(3, None)]

    def test_function_scopes_are_independent(self):
        ir = _ir("n = 3\ndef f(n):\n    QuantumRegister(n)\nQuantumRegister(n)\n")
        assert [r.size for r in ir.registers.values()] == [None, 3]

    def test_probe_reads_negative_and_out_of_range_integers(self):
        source = "use(-1)\nuse(20000)\nfor i in range(3):\n    use(i - 1)\nuse(n)\n"
        assert _used(source) == [(1, -1), (2, 20000), (4, -1), (4, 0), (4, 1), (5, None)]

    def test_soundness_against_concrete_execution(self):
        # Wherever the walk knows a value v, running the program must
        # observe exactly v at the same use site.
        snippets = [
            "a = 1\nb = a + a\nuse(b)\n",
            "a = 7\nb = a // 2\nc = b * 3\nuse(c)\n",
            "a = -4\nb = 0 - a\nuse(b)\n",
            "x = 2\nfor i in range(3):\n    x = x + i\nuse(x)\n",
            "n = 10\nuse(n - 1)\n",
            "x = 0\nfor k in range(20):\n    [x, y] = [k, 1]\nuse(x)\n",
            "for i in range(2):\n    for k in range(20):\n        use(i)\n        i = 5\n",
            "x = 0\nuse((x := 5))\nuse(x)\n",
            "x = 0\ndef f():\n    global x\n    x = 5\nf()\nuse(x)\n",
            "x = 0\ndef f(a=(x := 5)):\n    pass\nuse(x)\n",
            "x = 0\nb = [0]\nb[(x := 5) - 5] = 1\nuse(x)\n",
            "a = -4\nuse(a + 1)\nuse(a // 3)\nuse(-a % -3)\n",
            "w = 0\nmax((w := 2), use(w))\n",
        ]
        for source in snippets:
            observed = capture_values(source)
            used = _used(source)
            assert used, source
            for line, value in used:
                if value is not None:
                    assert observed[line] == value, source

    def test_walrus_and_global_rebinding_forget_constant(self):
        # Running each snippet, its `use(x)` observes 5 at least once.
        snippets = [
            "x = 0\nuse((x := 5))\nuse(x)\n",
            "x = 0\ndef f():\n    global x\n    x = 5\nf()\nuse(x)\n",
            "x = 0\nfor k in range(20):\n    use(x)\n    use((x := 5))\n",
            "x = 0\ndef f():\n    global x\n    x = 5\nfor k in range(20):\n    use(x)\n    f()\n",
        ]
        for source in snippets:
            assert 5 in capture_values(source).values(), source
            (line,) = [
                n.lineno for n in ast.walk(ast.parse(source))
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "use"
                and isinstance(n.args[0], ast.Name)
            ]
            assert [v for at, v in _used(source) if at == line] == [None], source

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_fold_programs())
    def test_fold_agrees_with_execution(self, source):
        """A known `use` argument is the value the program passes, whichever
        branches run; an operand that cannot fold keeps its expression from
        folding."""
        arguments = _last_uses(source)
        used = dict(_used(source))
        assert used.keys() == arguments.keys()
        for line, argument in arguments.items():
            if _cannot_fold(argument):
                assert used[line] is None
        for run in (source, source.replace("flag = True", "flag = False", 1)):
            try:
                observed = capture_values(run)
            except (TypeError, ZeroDivisionError):
                continue  # `None + 1` or `// 0` stopped the run
            for line, value in used.items():
                if value is not None and line in observed:  # else not run
                    seen = observed[line]
                    assert type(seen) is int and seen == value


class TestUnroll:
    def test_small_known_loop_expands(self):
        ir = _ir("qc = QuantumCircuit(5)\nfor i in range(3):\n    qc.h(i)\n")
        assert _gates(ir) == [(0,), (1,), (2,)]
        assert ir.cfg.edges == set()

    def test_loop_over_limit_is_kept(self):
        ir = _ir("qc = QuantumCircuit(5)\nfor i in range(20):\n    qc.h(i)\n")
        assert _gates(ir) == [(None,)]
        assert _kept(ir)

    def test_limit_boundary(self):
        ten = _ir("qc = QuantumCircuit(5)\nfor i in range(10):\n    qc.h(0)\n")
        assert len(ten.events) == 10 and not _kept(ten)
        eleven = _ir("qc = QuantumCircuit(5)\nfor i in range(11):\n    qc.h(0)\n")
        assert len(eleven.events) == 1 and _kept(eleven)

    def test_bound_past_the_largest_length_is_kept(self):
        # `len` of this range raises OverflowError.
        assert _kept(_ir("for i in range(10000000000 * 10000000000 * 10):\n    circ.h(i)\n"))

    def test_unknown_bound_is_kept(self):
        ir = _ir("qc = QuantumCircuit(5)\nfor i in range(n):\n    qc.h(i)\n")
        assert _gates(ir) == [(None,)]
        assert _kept(ir)

    def test_custom_limit(self):
        source = "qc = QuantumCircuit(5)\nfor i in range(3):\n    qc.h(i)\n"
        assert _gates(_ir(source, max_unroll=2)) == [(None,)]
        assert _gates(_ir(source, max_unroll=3)) == [(0,), (1,), (2,)]

    def test_range_start_stop_step(self):
        ir = _ir("qc = QuantumCircuit(9)\nfor i in range(1, 7, 2):\n    qc.h(i)\n")
        assert _gates(ir) == [(1,), (3,), (5,)]

    def test_nested_loops_expand(self):
        source = (
            "qc = QuantumCircuit(4)\n"
            "for i in range(2):\n    for j in range(2):\n        qc.cx(i, j + 2)\n"
        )
        assert _gates(_ir(source)) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_bound_from_constant_variable(self):
        ir = _ir("qc = QuantumCircuit(5)\nk = 2\nfor i in range(k):\n    qc.h(i)\n")
        assert _gates(ir) == [(0,), (1,)]

    def test_break_disables_unrolling(self):
        ir = _ir("qc = QuantumCircuit(5)\nfor i in range(3):\n    qc.h(i)\n    break\n")
        assert _kept(ir)

    @pytest.mark.parametrize("bound, kept", [("n", 1), ("2", 0)])
    def test_long_elif_chain_inside_a_loop(self, bound, kept):
        # Reading a loop body stops at MAX_IF_DEPTH, as its walk does.
        source = f"for i in range({bound}):\n" + textwrap.indent(elif_chain(1500), "    ")
        if not parses_in_this_python(source):
            pytest.skip("ast.parse itself runs out of stack on this chain")
        assert _kept(_ir(source)) == bool(kept)
        assert analyze_source(source, "t.py").warnings == []

    def test_loop_variable_reassigned_in_body(self):
        source = "for i in range(3):\n    i = i + 1\n    use(i)\n"
        observed = capture_values(source)
        assert _used(source) == [(3, 1), (3, 2), (3, 3)]
        assert observed[3] == 3  # last concrete value matches the final copy

    def test_loop_variable_keeps_its_last_value(self):
        source = "for i in range(3):\n    x = i\nuse(i)\n"
        assert capture_values(source) == {3: 2}
        assert _used(source) == [(3, 2)]

    def test_zero_iterations(self):
        assert _used("for i in range(0):\n    use(i)\nuse(1)\n") == [(3, 1)]

    def test_max_iterations_must_be_positive(self):
        with pytest.raises(ValueError):
            _ir("a = 1\n", max_unroll=0)

    def test_six_nested_loops_stay_within_the_budget(self):
        source = "qc = QuantumCircuit(1)\n" + "".join(
            "    " * k + f"for i{k} in range(10):\n" for k in range(6)
        ) + "    " * 6 + "qc.h(0)\n"
        started = time.perf_counter()
        analyze_source(source, "t.py")
        assert time.perf_counter() - started < 1.0
        ir = _ir(source)
        assert len(ir.events) <= MAX_UNROLLED_STMTS + 1
        assert _kept(ir)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(1, 3)), min_size=1, max_size=5))
    def test_expanded_statements_never_pass_the_budget(self, loops):
        """Nested loops of `(trips, gates)`: gates walked inside expanded
        bodies stay within the budget, and every loop expands when the whole
        nest fits."""
        lines, indent = ["qc = QuantumCircuit(1)"], ""
        for k, (trips, gates) in enumerate(loops):
            lines.append(f"{indent}for i{k} in range({trips}):")
            indent += "    "
            lines += [f"{indent}qc.h(0)"] * gates
        budget = 40
        with mock.patch.object(extract_module, "MAX_UNROLLED_STMTS", budget):
            ir = _ir("\n".join(lines) + "\n")
        static = sum(gates for _, gates in loops)
        assert len(ir.events) <= budget + static
        # Walking every expansion: each body once per run of its loop.
        runs = walked = full = body = 0
        for k in reversed(range(len(loops))):
            body = loops[k][1] + (1 + body if k + 1 < len(loops) else 0)
        runs, below = 1, body
        for k, (trips, gates) in enumerate(loops):
            runs *= trips
            walked += runs * gates
            full += runs * below
            below -= gates + 1
        if full <= budget:
            assert len(ir.events) == walked and not _kept(ir)

    def test_unrolling_preserves_concrete_semantics(self):
        """The unrolled event stream matches a faithful textual expansion,
        which in turn executes identically on the reference interpreter."""
        from conftest import pipeline
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


class TestUnrollSharing:
    """Expanded loops are walked again; the parsed tree is never changed."""

    # A loop that always expands sits inside an `if`, a `def` and a kept loop.
    NESTED = (
        "qa = QuantumRegister(4)\n"
        "qc = QuantumCircuit(qa)\n"
        "if flag:\n"
        "    for i in range(3):\n"
        "        qc.h(qa[i])\n"
        "def f():\n"
        "    qb = QuantumRegister(4)\n"
        "    qd = QuantumCircuit(qb)\n"
        "    for i in range(3):\n"
        "        qd.h(qb[i])\n"
        "for j in range(n):\n"
        "    for i in range(2):\n"
        "        qc.h(qa[i + j])\n"
    )

    def test_unrolling_never_mutates_its_input(self):
        def dump(tree):
            return [ast.dump(s, include_attributes=True) for s in tree.statements]

        parsed = _parse(self.NESTED)
        before = dump(parsed)
        kept = extract(parsed, max_unroll=2)
        expanded = extract(parsed, max_unroll=10)
        assert dump(parsed) == before
        assert _gates(kept) == [(None,)] * 4
        assert _gates(expanded) == [(0,), (1,), (2,)] * 2 + [(None,)] * 2

    def test_every_uid_is_unique(self):
        """Function scopes are numbered by statement, loop copies included."""
        ir = _ir("for i in range(3):\n    def f():\n        pass\n    use(i)\ndef g():\n    pass\n")
        scopes = ir.cfg.blocks[1:]
        uids = [int(scope.split("#")[1]) for scope in scopes]
        assert len(scopes) == 4 and sorted(uids) == uids and len(set(uids)) == 4

    def test_unrolled_index_resolves_inside_if_and_def(self):
        ir = _ir(self.NESTED)
        scopes = ir.cfg.blocks
        branch = [e for e in ir.events if scopes[e.block] == MODULE_SCOPE][:3]
        function = [e for e in ir.events if scopes[e.block] != MODULE_SCOPE]
        for events in (branch, function):
            assert [e.qubits[0].index for e in events] == [0, 1, 2]

    def test_loop_free_file_shares_parsed_expressions(self):
        """Complexity guard: a 3,200-op file without loops walks each statement once."""
        source = wide_branchy(seed=7, n_ops=3200)
        calls = sum(isinstance(n, ast.Expr) for n in ast.walk(ast.parse(source)))
        assert len(_ir(source).events) <= calls


class TestUnrolledCopiesResolve:
    """Copies made by unrolling resolve like the same statements written out by hand."""

    # Nested loops, `qa[j + 2]` indices, keyword arguments and nested calls.
    NESTED_LOOPED = (
        "qa = QuantumRegister(6)\n"
        "qc = QuantumCircuit(qa)\n"
        "for i in range(2):\n"
        "    for j in range(i, 3):\n"
        "        qc.cx(qa[j + 2], qa[i * 2 - j + 2])\n"
        "        qc.rz(f(g(j), k=h(i + 1)), qubit=qa[-j + 3])\n"
        "        a, b = j, j // 2\n"
        "        qc.h(qa[a + b])\n"
    )
    NESTED_BY_HAND = (
        "qa = QuantumRegister(6)\n"
        "qc = QuantumCircuit(qa)\n"
        "qc.cx(qa[0 + 2], qa[0 * 2 - 0 + 2])\n"
        "qc.rz(f(g(0), k=h(0 + 1)), qubit=qa[-0 + 3])\n"
        "a, b = 0, 0 // 2\n"
        "qc.h(qa[a + b])\n"
        "qc.cx(qa[1 + 2], qa[0 * 2 - 1 + 2])\n"
        "qc.rz(f(g(1), k=h(0 + 1)), qubit=qa[-1 + 3])\n"
        "a, b = 1, 1 // 2\n"
        "qc.h(qa[a + b])\n"
        "qc.cx(qa[2 + 2], qa[0 * 2 - 2 + 2])\n"
        "qc.rz(f(g(2), k=h(0 + 1)), qubit=qa[-2 + 3])\n"
        "a, b = 2, 2 // 2\n"
        "qc.h(qa[a + b])\n"
        "qc.cx(qa[1 + 2], qa[1 * 2 - 1 + 2])\n"
        "qc.rz(f(g(1), k=h(1 + 1)), qubit=qa[-1 + 3])\n"
        "a, b = 1, 1 // 2\n"
        "qc.h(qa[a + b])\n"
        "qc.cx(qa[2 + 2], qa[1 * 2 - 2 + 2])\n"
        "qc.rz(f(g(2), k=h(1 + 1)), qubit=qa[-2 + 3])\n"
        "a, b = 2, 2 // 2\n"
        "qc.h(qa[a + b])\n"
    )
    # A walrus in the body rebinds `k`, and calling `bump` rebinds the global
    # `m`: each is known until the expression that may rebind it, unknown after.
    REBOUND_LOOPED = (
        "qa = QuantumRegister(4)\n"
        "qc = QuantumCircuit(qa)\n"
        "def bump():\n"
        "    global m\n"
        "    m = 0\n"
        "m = 2\n"
        "for j in range(2):\n"
        "    qc.h(qa[m + j])\n"
        "    bump()\n"
        "    qc.x(qa[m])\n"
        "    k = 1\n"
        "    qc.cx(qa[k + j], g((k := j)), qa[k])\n"
    )
    REBOUND_BY_HAND = (
        "qa = QuantumRegister(4)\n"
        "qc = QuantumCircuit(qa)\n"
        "def bump():\n"
        "    global m\n"
        "    m = 0\n"
        "m = 2\n"
        "qc.h(qa[m + 0])\n"
        "bump()\n"
        "qc.x(qa[m])\n"
        "k = 1\n"
        "qc.cx(qa[k + 0], g((k := 0)), qa[k])\n"
        "qc.h(qa[m + 1])\n"
        "bump()\n"
        "qc.x(qa[m])\n"
        "k = 1\n"
        "qc.cx(qa[k + 1], g((k := 1)), qa[k])\n"
    )

    @pytest.mark.parametrize(
        "looped, by_hand",
        [(NESTED_LOOPED, NESTED_BY_HAND), (REBOUND_LOOPED, REBOUND_BY_HAND)],
        ids=["nested", "rebound"],
    )
    def test_hand_written_cases(self, looped, by_hand):
        ir = _ir(looped)
        assert _stream(ir) == _stream(_ir(by_hand))
        indices = {i for gate in _gates(ir) for i in gate}
        assert None in indices and len(indices) > 1  # both known and unknown operands

    @pytest.mark.parametrize("seed", range(40))
    def test_generated_loop_pairs(self, seed):
        looped, expanded = loop_pair(seed)
        assert _stream(_ir(looped)) == _stream(_ir(expanded))


class TestCfg:
    def test_straight_line_single_block(self):
        cfg = _ir("a = 1\nb = 2\nc = 3\n").cfg
        assert len(cfg.blocks) == 1
        assert cfg.edges == set()

    def test_if_else_diamond(self):
        cfg = _ir("a = 1\nif a:\n    b = 2\nelse:\n    b = 3\n").cfg
        assert len(cfg.blocks) == 4  # pre, then, else, join
        assert len(cfg.edges) == 4

    def test_else_of_no_ops_adds_no_block(self):
        cfg = _ir("if a:\n    b = 2\nelse:\n    pass\nc = 1\n").cfg
        assert len(cfg.blocks) == 3  # pre, then, join
        assert cfg.edges == {(0, 1), (1, 2), (0, 2)}

    def test_two_bug_demo_is_a_chain_after_unroll(self):
        assert len(_ir(sample_source("two_bugs")).cfg.blocks) == 1

    def test_kept_loop_has_back_edge(self):
        assert _kept(_ir("for i in range(n):\n    circ.h(i)\n"))

    def test_every_statement_in_exactly_one_block(self):
        source = (
            "qc = QuantumCircuit(2)\nqc.h(0)\nif a:\n    qc.x(0)\n"
            "for i in range(n):\n    qc.h(1)\ndef f():\n    helper(qc)\nqc.z(0)\n"
        )
        ir = _ir(source)
        scopes = ir.cfg.blocks
        assert len({e.id for e in ir.events}) == len(ir.events) == 4
        assert [scopes[e.block] for e in ir.events] == [MODULE_SCOPE] * 4
        assert [e.block for e in ir.events] == [0, 1, 3, 4]

    def test_function_bodies_get_their_own_scope(self):
        scopes = set(_ir("def f():\n    a = 1\nb = 2\n").cfg.blocks)
        assert MODULE_SCOPE in scopes
        assert len(scopes) == 2


class TestDeterminism:
    def test_pipeline_is_a_pure_function_of_source(self):
        source = sample_source("two_bugs")

        def fingerprint():
            ir = extract(parse_file(source, "two_bugs.py"))
            return repr(ir.events), sorted(ir.cfg.edges), len(ir.cfg.blocks)

        assert fingerprint() == fingerprint()

    def test_sample_corpus_parses_totally(self, samples):
        for name, source in samples.items():
            tree = parse_file(source, f"{name}.py")
            assert tree.statements
