"""Frontend tests: parsing, constant propagation, unrolling, CFG shape."""

from __future__ import annotations

import ast
import textwrap

import pytest
from conftest import elif_chain, parses_in_this_python, sample_source
from hypothesis import given, settings
from hypothesis import strategies as st
from genprog import loop_pair, wide_branchy
from oracle import capture_values

from qlint import analyze_source
from qlint.frontend import (
    MODULE_SCOPE,
    ParseError,
    build_cfg,
    int_value,
    parse_file,
    source_lines,
    unroll_loops,
)
from qlint.frontend.unroll import MAX_IF_DEPTH
from qlint.frontend.nodes import (
    Assign,
    ExprStmt,
    ForRange,
    FunctionDef,
    If,
    Node,
    Opaque,
    children,
    form,
)


def _parse(source: str):
    return parse_file(source, "test.py")


def _unrolled(source: str):
    return unroll_loops(_parse(source))


def _all_stmts(stmts):
    for stmt in stmts:
        yield stmt
        yield from _all_stmts(getattr(stmt, "body", ()))
        yield from _all_stmts(getattr(stmt, "orelse", ()))


def _all_nodes(value):
    """Every statement and modelled expression below a statement or a list of them."""
    if isinstance(value, list):
        for item in value:
            yield from _all_nodes(item)
    elif isinstance(value, ast.expr):
        yield value
        yield from _all_nodes(children(value))
    elif isinstance(value, Node):
        yield value
        for name in value._fields:
            if name != "span":
                yield from _all_nodes(getattr(value, name))


# Leaves of the fold property's programs. Only `w` is bound by a walrus, so
# `a` and `b` stay known where they can; names are listed twice to draw them
# more often.
_NAMES = ("a", "b", "w")
_LEAVES = ("0", "1", "2", "3", "(-1)", "(-2)", "(-3)", *_NAMES, *_NAMES, "True", "False", "None")


@st.composite
def _fold_programs(draw) -> str:
    """Straight-line or if/else code over a, b and w that ends in `use(expr)`."""

    def expr(depth: int) -> str:
        kind = draw(st.integers(0, 9)) if depth else 9
        if kind < 5:
            op = draw(st.sampled_from(["+", "-", "*", "//"]))
            return f"({expr(depth - 1)} {op} {expr(depth - 1)})"
        if kind == 5:
            return f"(-{expr(depth - 1)})"
        if kind == 6:
            return f"(w := {expr(depth - 1)})"
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


def _cannot_fold(expr: ast.expr) -> bool:
    """A bool or None operand, or a literal 0 divisor, inside `expr`."""
    return any(
        isinstance(node, ast.Constant) and type(node.value) is not int
        or isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
        and isinstance(node.right, ast.Constant) and node.right.value == 0
        for node in ast.walk(expr)
    )


def _resolved_calls(tree):
    """(callee name, resolved args) for every top-level call statement."""
    out = []
    for stmt in tree.statements:
        value = None
        if isinstance(stmt, ExprStmt) and isinstance(stmt.value, ast.Call):
            value = stmt.value
        elif isinstance(stmt, Assign) and isinstance(stmt.value, ast.Call):
            value = stmt.value
        if value is not None:
            out.append([int_value(a) for a in value.args])
    return out


class TestParse:
    def test_register_assignment_shape(self):
        tree = _unrolled("qreg = QuantumRegister(4)\n")
        assert len(tree.statements) == 1
        stmt = tree.statements[0]
        assert isinstance(stmt, Assign)
        assert isinstance(stmt.value, ast.Call)
        assert isinstance(stmt.value.func, ast.Name)
        assert stmt.value.func.id == "QuantumRegister"
        assert int_value(stmt.value.args[0]) == 4

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
        span = _unrolled("x = 1\n").statements[0].span
        assert repr(span) == (
            "SourceSpan(file='test.py', line=1, column=1, end_line=1, end_column=6)"
        )
        assert hash(span) == hash(("test.py", 1, 1, 1, 6))
        with pytest.raises(AttributeError):
            span.line = 2

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
        stmt = _unrolled('s = "é"; t = 1\n').statements[1]
        assert (stmt.span.column, stmt.span.end_column) == (10, 15)

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
        tree = _unrolled("while cond:\n    qc.h(0)\n")
        stmt = tree.statements[0]
        assert isinstance(stmt, Opaque)
        assert {"cond", "qc"} <= set(stmt.names)

    @pytest.mark.parametrize("branches", [300, 1000])
    def test_long_elif_chain_is_opaque_past_the_depth_cap(self, branches):
        source = elif_chain(branches)
        if not parses_in_this_python(source):
            pytest.skip("ast.parse itself runs out of stack on this chain")
        node, depth = _unrolled(source).statements[1], 0
        while isinstance(node, If):
            node, depth = node.orelse[0], depth + 1
        assert depth == MAX_IF_DEPTH
        assert isinstance(node, Opaque)
        assert node.names == {"x"}

    def test_method_receivers_are_recorded_per_scope(self):
        source = (
            "sub = make()\n"
            "def f():\n"
            "    sub.to_gate()\n"
            "    def g():\n"
            "        inner.to_instruction()\n"
            "other.assign_parameters(p)\n"
            "deep.attr.to_gate()\n"
        )
        tree = _unrolled(source)
        f = tree.statements[1]
        assert tree.method_receivers == {"other"}
        assert f.method_receivers == {"sub"}
        assert f.body[1].method_receivers == {"inner"}

    def test_method_receivers_cover_every_lowered_expression(self):
        # `if` tests, range arguments, assignment targets and operands.
        source = (
            "if a.to_gate():\n"
            "    pass\n"
            "for i in range(b.to_instruction()):\n"
            "    pass\n"
            "x[c.to_gate()] = -d.to_gate() + e.assign_parameters(p)\n"
            "y += f.to_gate()\n"
            "while g.to_gate():\n"
            "    pass\n"
            "z[h.to_gate()] += 1\n"
        )
        # Statements lowered to Opaque (the last two) record nothing.
        assert _unrolled(source).method_receivers == set("abcdef")

    def test_every_statement_carries_a_span(self):
        tree = _unrolled("a = 1\nif a:\n    b = 2\nelse:\n    b = 3\n")

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
        (args,) = _resolved_calls(tree)
        assert args == [3]

    def test_dynamic_input_is_unknown(self):
        tree = _unrolled("n = input()\nuse(n)\n")
        (args,) = _resolved_calls(tree)[-1:]
        assert args == [None]

    def test_reassignment_chain(self):
        # Expected value computed by concretely executing the snippet.
        source = "a = 2\na = a + 1\nuse(a)\n"
        assert capture_values(source) == {3: 3}
        tree = _unrolled(source)
        (args,) = _resolved_calls(tree)[-1:]
        assert args == [3]

    def test_arithmetic_folding(self):
        source = "a = 2 * 3 + 4 - 1\nb = a // 2\nuse(b)\n"
        assert capture_values(source)[3] == 4
        tree = _unrolled(source)
        assert _resolved_calls(tree)[-1] == [4]

    def test_branch_join_agreeing_values(self):
        source = "a = 1\nif cond:\n    a = 1\nuse(a)\n"
        tree = _unrolled(source)
        assert _resolved_calls(tree)[-1] == [1]

    def test_branch_join_conflicting_values(self):
        source = "a = 1\nif cond:\n    a = 2\nuse(a)\n"
        tree = _unrolled(source)
        assert _resolved_calls(tree)[-1] == [None]

    def test_variable_assigned_in_one_branch_only(self):
        source = "if cond:\n    a = 2\nuse(a)\n"
        tree = _unrolled(source)
        assert _resolved_calls(tree)[-1] == [None]

    def test_function_scopes_are_independent(self):
        source = "n = 3\ndef f(n):\n    use(n)\nuse(n)\n"
        tree = _unrolled(source)
        inner_use = tree.statements[1].body[0].value
        assert int_value(inner_use.args[0]) is None
        outer_use = tree.statements[2].value
        assert int_value(outer_use.args[0]) == 3

    def test_soundness_against_concrete_execution(self):
        # Wherever the analysis folds a value v, running the program must
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
        ]
        for source in snippets:
            observed = capture_values(source)
            tree = unroll_loops(_parse(source))

            def check(stmts):
                for stmt in stmts:
                    if isinstance(stmt, ExprStmt) and isinstance(stmt.value, ast.Call):
                        callee = stmt.value.func
                        if isinstance(callee, ast.Name) and callee.id == "use":
                            value = int_value(stmt.value.args[0])
                            if value is not None:
                                assert observed[stmt.span.line] == value
                    if isinstance(stmt, If):
                        check(stmt.body)
                        check(stmt.orelse)
                    if isinstance(stmt, ForRange):
                        check(stmt.body)

            check(tree.statements)

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
            tree = _unrolled(source)
            uses = [
                s.value.args[0]
                for s in _all_stmts(tree.statements)
                if isinstance(s, ExprStmt)
                and s.value.args
                and isinstance(s.value.args[0], ast.Name)
            ]
            assert [int_value(u) for u in uses] == [None], source

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_fold_programs())
    def test_fold_agrees_with_execution(self, source):
        """A folded `use` argument is the value the program passes, whichever
        branches run; an operand that cannot fold keeps its expression from
        folding."""
        uses = [
            (stmt, parsed.value.args[0])
            for stmt, parsed in zip(
                _all_stmts(_unrolled(source).statements),
                _all_stmts(ast.parse(source).body),
            )
            if isinstance(stmt, ExprStmt)
        ]
        for stmt, parsed_arg in uses:
            if _cannot_fold(parsed_arg):
                assert int_value(stmt.value.args[0]) is None
        for run in (source, source.replace("flag = True", "flag = False", 1)):
            try:
                observed = capture_values(run)
            except (TypeError, ZeroDivisionError):
                continue  # `None + 1` or `// 0` stopped the run
            for stmt, _ in uses:
                value = int_value(stmt.value.args[0])
                if value is not None and stmt.span.line in observed:  # else not run
                    seen = observed[stmt.span.line]
                    assert type(seen) is int and seen == value


class TestUnroll:
    def test_small_known_loop_expands(self):
        tree = unroll_loops(_parse("for i in range(3):\n    circ.h(i)\n"))
        assert len(tree.statements) == 3
        values = [int_value(s.value.args[0]) for s in tree.statements]
        assert values == [0, 1, 2]
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

    def test_bound_past_the_largest_length_is_kept(self):
        # `len` of this range raises OverflowError.
        tree = _unrolled("for i in range(10000000000 * 10000000000 * 10):\n    circ.h(i)\n")
        assert isinstance(tree.statements[0], ForRange)

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
        values = [int_value(s.value.args[0]) for s in tree.statements]
        assert values == [1, 3, 5]

    def test_nested_loops_expand(self):
        source = "for i in range(2):\n    for j in range(2):\n        circ.cx(i, j)\n"
        tree = unroll_loops(_parse(source))
        assert len(tree.statements) == 4
        pairs = [
            (int_value(s.value.args[0]), int_value(s.value.args[1]))
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

    @pytest.mark.parametrize("bound, kept", [("n", 1), ("2", 0)])
    def test_long_elif_chain_inside_a_loop(self, bound, kept):
        # Reading a loop body stops at MAX_IF_DEPTH, as its walk does.
        source = f"for i in range({bound}):\n" + textwrap.indent(elif_chain(1500), "    ")
        if not parses_in_this_python(source):
            pytest.skip("ast.parse itself runs out of stack on this chain")
        assert len(_unrolled(source).non_unrollable) == kept
        assert analyze_source(source, "t.py").warnings == []

    def test_loop_variable_reassigned_in_body(self):
        source = "for i in range(3):\n    i = i + 1\n    use(i)\n"
        observed = capture_values(source)
        tree = unroll_loops(_parse(source))
        uses = [
            int_value(s.value.args[0])
            for s in tree.statements
            if isinstance(s, ExprStmt)
        ]
        assert uses == [1, 2, 3]
        assert observed[3] == 3  # last concrete value matches the final copy

    def test_loop_variable_keeps_its_last_value(self):
        source = "for i in range(3):\n    x = i\nuse(i)\n"
        assert capture_values(source) == {3: 2}
        tree = unroll_loops(_parse(source))
        assert _resolved_calls(tree)[-1] == [2]

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


class TestUnrollSharing:
    """Unrolling keeps parsed nodes and copies only expanded loop bodies."""

    # A loop that always expands sits inside an `if`, a `def` and a kept loop.
    NESTED = (
        "qa = QuantumRegister(4)\n"
        "qc = QuantumCircuit(qa)\n"
        "if flag:\n"
        "    for i in range(3):\n"
        "        qc.h(qa[i])\n"
        "def f():\n"
        "    for i in range(3):\n"
        "        qc.h(qa[i])\n"
        "for j in range(n):\n"
        "    for i in range(2):\n"
        "        qc.h(qa[i + j])\n"
    )

    def test_unrolling_never_mutates_its_input(self):
        def dump(tree):
            return [ast.dump(s, include_attributes=True) for s in tree.statements]

        parsed = _parse(self.NESTED)
        before = dump(parsed)
        kept = unroll_loops(parsed, max_iterations=2)
        expanded = unroll_loops(parsed, max_iterations=10)
        assert dump(parsed) == before
        assert len(kept.non_unrollable) == 3
        assert len(expanded.non_unrollable) == 1

    def test_every_uid_is_unique(self):
        """The result's statements are numbered 1..n, each once, copies included."""
        parsed = _parse(self.NESTED)
        tree = unroll_loops(parsed)
        uids = [stmt.uid for stmt in _all_stmts(tree.statements)]
        assert sorted(uids) == list(range(1, len(uids) + 1))
        assert len(uids) > len(list(_all_stmts(parsed.statements)))  # the copies

    def test_unrolled_index_resolves_inside_if_and_def(self):
        tree = _unrolled(self.NESTED)
        branch, function = tree.statements[2], tree.statements[3]
        assert isinstance(branch, If)
        for body in (branch.body, function.body):
            indices = [int_value(s.value.args[0].slice) for s in body]
            assert indices == [0, 1, 2]

    def test_unrolled_function_copies_keep_method_receivers(self):
        tree = _unrolled("mod.to_gate()\nfor i in range(2):\n    def f():\n        sub.to_gate()\n")
        copies = [s for s in tree.statements if isinstance(s, FunctionDef)]
        assert len(copies) == 2 and copies[0] is not copies[1]
        assert [c.method_receivers for c in copies] == [{"sub"}, {"sub"}]
        assert tree.method_receivers == {"mod"}

    def test_loop_free_file_shares_parsed_expressions(self):
        """Complexity guard: on a 3,200-op file with nothing to fold, statements
        are new but every expression is the parsed object itself."""
        parsed = _parse(wide_branchy(seed=7, n_ops=3200))
        tree = unroll_loops(parsed)
        pairs = zip(_all_stmts(tree.statements), _all_stmts(parsed.statements), strict=True)
        for out, parsed_stmt in pairs:
            for name in ("value", "targets", "test"):
                if name in out._fields:
                    assert getattr(out, name) is getattr(parsed_stmt, name)


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

    @staticmethod
    def _values(source: str) -> list:
        tree = _unrolled(source)
        return [int_value(node) for node in _all_nodes(tree.statements)]

    @pytest.mark.parametrize(
        "looped, by_hand",
        [(NESTED_LOOPED, NESTED_BY_HAND), (REBOUND_LOOPED, REBOUND_BY_HAND)],
        ids=["nested", "rebound"],
    )
    def test_hand_written_cases(self, looped, by_hand):
        values = self._values(looped)
        assert values == self._values(by_hand)
        assert 1 in values and None in values

    @pytest.mark.parametrize("seed", range(40))
    def test_generated_loop_pairs(self, seed):
        looped, expanded = loop_pair(seed)
        assert self._values(looped) == self._values(expanded)


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

        def all_uids(stmts):
            for s in stmts:
                yield s.uid
                if isinstance(s, If):
                    yield from all_uids(s.body)
                    yield from all_uids(s.orelse)
                if isinstance(s, ForRange):
                    yield from all_uids(s.body)

        uids = list(all_uids(tree.statements))
        assert len(uids) == len(set(uids))
        assert set(cfg.block_of_stmt) == set(uids)
        assert set(cfg.block_of_stmt.values()) <= {block.id for block in cfg.blocks}

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
            cfg = build_cfg(tree)
            return (
                [type(s).__name__ for s in tree.statements],
                sorted(cfg.edges),
                len(cfg.blocks),
                repr([int_value(s.value) for s in tree.statements if isinstance(s, Assign)]),
            )

        assert fingerprint() == fingerprint()

    def test_sample_corpus_parses_totally(self, samples):
        for name, source in samples.items():
            tree = parse_file(source, f"{name}.py")
            assert tree.statements
