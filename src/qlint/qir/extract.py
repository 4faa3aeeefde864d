"""Lifting of parsed Python into the quantum IR, in one walk over the `ast`.

The extractor walks each scope's `ast.stmt`s once, tracking what every
variable holds: a known integer, or a register, circuit, instruction or
anything else. The same walk expands a `for ... in range(...)` loop whose
trip count it knows and that is small, by walking the body again with the
loop variable bound; every other loop is kept, its body walked once under a
back edge, and whatever integer it binds is unknown. The walk also builds
each scope's control-flow graph, so every event is emitted with its block.
One evaluator, `_Extractor._eval`, reads every expression once, in Python's
order: a callee and its receiver, then each argument (an unknown callee's
too), the operands of arithmetic, each element of a display. It yields the
expression's integer, binding, register slot or tuple of element values, so
a call nested anywhere (in arithmetic, a `range` bound, an `if` test, a gate
parameter, a keyword argument) has its effect. Recognized constructors and circuit
methods produce IR entities; everything it cannot resolve becomes an
explicit unknown operator so later analyses can stay on the safe side.
Expressions are `ast` nodes, read through `nodes.form`; statements and
expressions outside the subset are opaque, and any name they mention may be
rebound. A source span is made only for what the IR keeps.
"""

import _ast

from ..frontend.nodes import (
    MODULE_SCOPE,
    ModuleAst,
    SourceSpan,
    TupleRecord,
    arguments,
    form,
    has_star_args,
    names,
    positional_args,
    tuple_assign_pairs,
)
from .gates import GateSpec, GateTable, load_gate_table
from .model import (
    CircuitDecl,
    CircuitKind,
    ComposeCall,
    Diagnostic,
    EventKind,
    Layout,
    OperatorEvent,
    QuantumIR,
    QubitRef,
    RegisterDecl,
    UNRESOLVED_BIT,
    UnknownCause,
)

DEFAULT_MAX_UNROLL = 10
# Statements a file may walk inside expanded loop bodies: a loop whose
# expansion would pass this is kept, as one longer than `max_unroll` is.
MAX_UNROLLED_STMTS = 20_000
# `if` statements nested deeper than this (an `elif` counts as one more level)
# are kept opaque, so a long `elif` chain cannot exhaust the Python stack.
MAX_IF_DEPTH = 100
# Register sizes above this are unknown, so no stage enumerates their bits.
MAX_REGISTER_SIZE = 10_000
# Operands a file may list for whole registers (`measure_all()`, a register
# name as an operand); past it such an operand is unresolved, so expanded
# loops cannot multiply register sizes.
MAX_LISTED_OPERANDS = 50_000
# Statements with no analysis effect: they are not opaque, and not counted.
_NO_OPS = (_ast.Import, _ast.ImportFrom, _ast.Pass, _ast.Break, _ast.Continue)
_REGISTER_CONSTRUCTORS = {"QuantumRegister": "quantum", "ClassicalRegister": "classical"}
_CONSTRUCTORS = {*_REGISTER_CONSTRUCTORS, "QuantumCircuit", "transpile"}
_CLOSED = Layout(open=False, num_qubits=0, num_clbits=0)  # no register, and nothing unseen


class _Binding(TupleRecord):
    __slots__ = ()
    _fields = ("kind", "ids", "event")

    def __new__(cls, kind: str, ids: tuple[str, ...] = (), event: OperatorEvent | None = None):
        # kind: "register" | "circuit" | "circuit_gate" | "instruction" | "other"
        return tuple.__new__(cls, (kind, ids, event))


_new = tuple.__new__  # a value record, built without its Python-level `__new__`
_OTHER = _Binding("other")
# What a name holds: a known integer or a binding. A missing name holds
# `_OTHER`, and so does an integer for every question but its value.
_Value = int | _Binding
# What `_eval` yields: also a register slot `name[k]`, and the element values
# of a tuple or list display. Names never hold these two.
_Eval = int | _Binding | QubitRef | tuple


def _binding(value: _Eval) -> _Binding:
    return value if type(value) is _Binding else _OTHER


def _join(left: _Value, right: _Value) -> _Value:
    """What a name holds after an `if`: the integer both branches agree on,
    else either side's circuits, else nothing known."""
    if type(left) is int or type(right) is int:
        if left == right:
            return left
        left, right = _binding(left), _binding(right)
    if left is right or (left.kind == right.kind and left.ids == right.ids):
        return left
    if left.kind == "circuit" or right.kind == "circuit":
        ids = set(left.ids if left.kind == "circuit" else ())
        ids.update(right.ids if right.kind == "circuit" else ())
        return _new(_Binding, ("circuit", tuple(sorted(ids)), None))
    return _OTHER


def _circuits(value: _Eval | None) -> tuple[str, ...]:
    """The circuits `value` may be."""
    if type(value) is _Binding and value.kind == "circuit":
        return value.ids
    return ()


class _FuncInfo:
    __slots__ = ("params", "returns_circuit", "free_names", "adds_registers")

    def __init__(self, params: list[str]) -> None:
        self.params, self.returns_circuit = frozenset(params), False
        self.free_names: set[str] = set()  # names the body reads but does not bind
        self.adds_registers = False  # the body calls `add_register` on a parameter


class _Scope:
    __slots__ = ("name", "vars", "funcs", "func_info")

    def __init__(
        self, name: str, vars: dict[str, _Value], funcs: dict[str, _FuncInfo],
        func_info: _FuncInfo | None = None,
    ) -> None:
        self.name, self.vars, self.funcs, self.func_info = name, vars, funcs, func_info


def extract(
    tree: ModuleAst, gate_table: GateTable | None = None, max_unroll: int = DEFAULT_MAX_UNROLL
) -> QuantumIR:
    """Extract the quantum IR of one file from `parse_file`'s tree, in one walk.

    A `range` loop is expanded when its trip count is known and at most
    `max_unroll`, no `break`, `continue`, `return` or `raise` can end an
    iteration early, and the file stays within MAX_UNROLLED_STMTS expanded
    statements; every other loop is kept. `ir.cfg` is the block graph the
    events' `block` ids index into. The parsed tree is never mutated.
    """
    if max_unroll < 1:
        raise ValueError("max_unroll must be >= 1")
    table = gate_table if gate_table is not None else load_gate_table()
    return _Extractor(tree, table, max_unroll).run(tree.statements)


class _Extractor:
    def __init__(self, tree: ModuleAst, table: GateTable, max_unroll: int) -> None:
        self.table = table
        self.ir = QuantumIR()
        self.cfg = self.ir.cfg
        self.span = tree.span
        self.rebound_names = tree.rebound_names
        self.max_unroll = max_unroll
        self._ids = {"r": 0, "c": 0}
        self._scope_name = MODULE_SCOPE
        self._block = self.cfg.new_block(MODULE_SCOPE)
        self.if_depth = 0
        self.stmts = 0  # statements walked, loop copies included; numbers function scopes
        self.unrolled = 0  # statements counted against MAX_UNROLLED_STMTS
        self.expanding = 0  # expanded loops the walk is inside
        self.listed = 0  # operands whole registers listed, against MAX_LISTED_OPERANDS
        self.passed: set[str] | None = None  # circuits an opaque argument of a call names

    def run(self, statements: list[_ast.stmt]) -> QuantumIR:
        self._walk(statements, _Scope(MODULE_SCOPE, {}, {}))
        return self.ir

    # --- id and event plumbing ---

    def _new_id(self, prefix: str) -> str:
        self._ids[prefix] += 1
        return f"{prefix}{self._ids[prefix]}"

    def _emit(
        self, kind: EventKind, circuit: str | None, span: SourceSpan,
        gate_name: str | None = None, creates_new_register: bool = False,
        unknown_cause: UnknownCause | None = None, qubits: list[QubitRef] | tuple = (),
        clbits: list[QubitRef] | tuple = (),
    ) -> OperatorEvent:
        """Append an event; its id is its position in `ir.events`."""
        events = self.ir.events
        event = _new(OperatorEvent, (len(events), circuit, kind, self._block, span, gate_name,
                                     False, creates_new_register, unknown_cause, qubits, clbits))
        events.append(event)
        return event

    def _emit_unknown(
        self, circuit_ids: list[str] | tuple[str, ...], cause: UnknownCause, span: SourceSpan,
        gate_name: str | None = None,
    ) -> OperatorEvent | None:
        """Append an unknown operator on each of `circuit_ids`; return the last."""
        event = None
        for cid in circuit_ids:
            self.ir.circuits[cid].unseen.add("unknown_operator")
            event = self._emit(EventKind.UNKNOWN, cid, span, gate_name, False, cause)
        return event

    def _diagnostic(self, message: str, node: _ast.expr) -> None:
        self.ir.diagnostics.append(Diagnostic(message, self.span(node)))

    # --- statements ---

    def _walk(self, stmts: list[_ast.stmt], scope: _Scope) -> None:
        for node in stmts:
            lower = _STATEMENTS.get(type(node), _Extractor._opaque)
            if lower is not None:  # None: a statement with no analysis effect
                lower(self, node, scope)

    def _assign(self, node: _ast.Assign, scope: _Scope) -> None:
        self._bind(node, node.targets, node.value, scope)

    def _ann_assign(self, node: _ast.AnnAssign, scope: _Scope) -> None:
        if node.value is not None:
            self._bind(node, [node.target], node.value, scope)
        # A module-level annotation runs after the assignment and may hold a walrus.
        self._forget_rebound(scope)

    def _aug_assign(self, node: _ast.AugAssign, scope: _Scope) -> None:
        """`x += e` as `x = x + e`, whose value has no effect but its integer."""
        if not _aug_modelled(node):
            self._opaque(node, scope)
            return
        self.stmts += 1
        name = node.target.id
        held = scope.vars.get(name)  # read before the value is evaluated
        value = binop_value(type(node.op), held, self._eval(node.value, scope))
        scope.vars[name] = _OTHER if value is None else value

    def _bind(
        self, node: _ast.stmt, targets: list[_ast.expr], value: _ast.expr, scope: _Scope
    ) -> None:
        """Assign `value` to `targets`, left to right after `value` is evaluated."""
        self.stmts += 1
        pairs = None
        if type(targets[0]) is _ast.Tuple or type(targets[0]) is _ast.List:
            pairs = tuple_assign_pairs(targets, value)
        if pairs is not None:
            # The whole right side evaluates before any name is rebound; its
            # elements are read one by one, so no circuit escapes into a tuple.
            values = [self._eval(v, scope) for _, v in pairs]
            for (name, _), v in zip(pairs, values):
                v = v if type(v) is int else _binding(v)  # a name holds no bits or tuples
                scope.vars[name] = v
                self._name_decls(v, name)
            self._forget_rebound(scope)
            return
        got = self._eval(value, scope)
        known = got if type(got) is int else None
        binding = got if type(got) is _Binding else _OTHER
        vars = scope.vars
        # Every target's integer is bound before any target is evaluated.
        for target in targets:
            if type(target) is _ast.Name:
                if known is not None:
                    vars[target.id] = known
                elif type(vars.get(target.id)) is int:
                    vars[target.id] = _OTHER
            elif form(target) is _ast.Tuple:
                self._forget(names(target), scope)
        for target in targets:
            if type(target) is _ast.Name:
                if known is None:
                    vars[target.id] = binding
                    self._name_decls(binding, target.id)
                continue
            self._eval(target, scope)
            if binding.kind == "circuit" and form(target) in (_ast.Attribute, _ast.Subscript):
                # Stored into an object or container the analysis does not track.
                cause = UnknownCause.GLOBAL_CIRCUIT_MUTATION
                self._emit_unknown(binding.ids, cause, self.span(node))
            self._forget_rebound(scope)  # a walrus, or a setter that rebinds

    def _name_decls(self, value: _Value, name: str) -> None:
        """Give the registers or circuits a name first holds that name."""
        if type(value) is int or value.kind not in ("register", "circuit"):
            return
        decls = self.ir.registers if value.kind == "register" else self.ir.circuits
        for entity_id in value.ids:
            entity = decls[entity_id]
            if entity.name is None:
                entity.name = name

    def _expr(self, node: _ast.Expr, scope: _Scope) -> None:
        self.stmts += 1
        value = node.value
        if type(value) is not _ast.Call:
            self._eval(value, scope)
            return
        # As `_eval` reads a call, telling `_call` that its value is dropped.
        self._call(value, scope, True)
        if self.rebound_names:
            self._forget_rebound(scope)

    def _return(self, node: _ast.Return, scope: _Scope) -> None:
        self.stmts += 1
        if node.value is None:
            return
        binding = _binding(self._eval(node.value, scope))
        if scope.func_info is not None and binding.kind == "circuit":
            scope.func_info.returns_circuit = True
            for cid in binding.ids:
                self.ir.circuits[cid].unseen.add("returned_from_function")

    def _for(self, node: _ast.For, scope: _Scope) -> None:
        range_args = _range_args(node)
        if range_args is None:
            self._opaque(node, scope)
            return
        values = range_values([self._eval(a, scope) for a in range_args], self.max_unroll)
        body = node.body
        if values is None or _has_loop_escape(body) or not self._budget(len(values), body):
            self._kept_loop(node, scope)
            return
        var = node.target.id
        self.expanding += 1
        for value in values:
            scope.vars[var] = value
            self._walk(body, scope)
        self.expanding -= 1

    def _budget(self, trips: int, body: list[_ast.stmt]) -> bool:
        """Count the statements expanding a loop walks; False when that would
        pass MAX_UNROLLED_STMTS. Inside another expansion, the body's first
        walk was counted there."""
        more = max(trips - 1 if self.expanding else trips, 0) * _stmt_count(body)
        if self.unrolled + more > MAX_UNROLLED_STMTS:
            return False
        self.unrolled += more
        return True

    def _kept_loop(self, node: _ast.For, scope: _Scope) -> None:
        """Walk the body once under a back edge; its bindings stay, its integers do not."""
        self.stmts += 1
        # The body may run any number of times: whatever integer it binds is
        # unknown inside it and after it.
        assigned = _assigned_names(node.body, self.if_depth) | {node.target.id}
        self._forget(assigned, scope)
        self._forget_rebound(scope)
        cfg, entry = self.cfg, self._block
        body = self._block = cfg.new_block(self._scope_name)
        cfg.edge(entry, body)
        self._walk(node.body, scope)
        after = cfg.new_block(self._scope_name)
        cfg.edge(self._block, body)
        cfg.edge(self._block, after)
        cfg.edge(entry, after)
        self._block = after
        self._forget(assigned, scope)

    def _if(self, node: _ast.If, scope: _Scope) -> None:
        if self.if_depth >= MAX_IF_DEPTH:
            self._opaque(node, scope)
            return
        self.stmts += 1
        self._eval(node.test, scope)
        cfg, entry, saved = self.cfg, self._block, dict(scope.vars)
        self.if_depth += 1
        self._block = cfg.new_block(self._scope_name)
        cfg.edge(entry, self._block)
        self._walk(node.body, scope)
        then_vars, scope.vars = scope.vars, saved
        join = cfg.new_block(self._scope_name)
        cfg.edge(self._block, join)
        else_entry = None
        if node.orelse:
            walked = self.stmts
            self._block = else_entry = cfg.new_block(self._scope_name)
            self._walk(node.orelse, scope)
            if self.stmts == walked:  # only no-ops: as if there were no `else`
                cfg.blocks.pop()
                else_entry = None
        if else_entry is None:
            cfg.edge(entry, join)
        else:
            cfg.edge(entry, else_entry)
            cfg.edge(self._block, join)
        self.if_depth -= 1
        else_vars = scope.vars
        scope.vars = {
            name: _join(then_vars.get(name, _OTHER), else_vars.get(name, _OTHER))
            for name in {**then_vars, **else_vars}
        }
        self._block = join

    def _function_def(self, node: _ast.FunctionDef | _ast.AsyncFunctionDef, scope: _Scope) -> None:
        self.stmts += 1
        name = f"{scope.name}.{node.name}#{self.stmts}"
        self._forget_rebound(scope)  # defaults and decorators may hold a walrus
        a = node.args
        params = [p.arg for p in [*a.args, *a.posonlyargs, *a.kwonlyargs, a.vararg, a.kwarg] if p]
        info = scope.funcs[node.name] = _FuncInfo(params)
        inner = _Scope(name, dict.fromkeys(params, _OTHER), dict(scope.funcs), info)
        outer = self._scope_name, self._block
        self._scope_name, self._block = name, self.cfg.new_block(name)
        self._walk(node.body, inner)
        self._scope_name, self._block = outer

    def _opaque(self, node: _ast.stmt, scope: _Scope) -> None:
        """A statement outside the subset: it may rebind or change any name it mentions."""
        self.stmts += 1
        mentioned = names(node)
        self._forget(mentioned, scope)
        self._touch(mentioned, scope, node)

    def _touch(self, names: set[str] | frozenset[str], scope: _Scope, node: _ast.AST) -> set[str]:
        """Code at `node` that names `names` (opaque code, or a local function's
        body) may change their circuits in any way; return those circuits. A
        function body records the names it does not bind as free."""
        vars, info, touched = scope.vars, scope.func_info, set()
        for name in names:
            if name in vars:
                touched.update(_circuits(vars[name]))
            elif info is not None:
                info.free_names.add(name)
        if touched:
            cause = UnknownCause.GLOBAL_CIRCUIT_MUTATION
            self._emit_unknown(sorted(touched), cause, self.span(node))
        return touched

    # --- integers ---

    def _forget(self, names: set[str] | frozenset[str], scope: _Scope) -> None:
        """Make unknown the integers `names` hold; their bindings stay."""
        vars = scope.vars
        for name in names:
            if type(vars.get(name)) is int:
                vars[name] = _OTHER

    def _forget_rebound(self, scope: _Scope) -> None:
        """Make unknown the integers a walrus or a function's `global` may rebind."""
        if self.rebound_names:
            self._forget(self.rebound_names & scope.vars.keys(), scope)

    # --- expression evaluation ---

    def _eval(self, expr: _ast.expr, scope: _Scope) -> _Eval:
        """Evaluate `expr` once, its sub-expressions in Python's order.

        The value is a known integer, a binding, the `QubitRef` of
        `name[k]` where the name holds a register and `k` is known, or the
        tuple of a display's element values. A name a walrus or a `global`
        may rebind loses its integer after every call and opaque expression.
        """
        cls = type(expr)
        if cls is _ast.Name:
            name, vars = expr.id, scope.vars
            if name in vars:
                return vars[name]
            if name in scope.funcs:  # a local function, which may run from here on
                self._touch(scope.funcs[name].free_names, scope, expr)
            if scope.func_info is not None:
                scope.func_info.free_names.add(name)
            return _OTHER
        if cls is _ast.Constant and type(expr.value) is int:
            return expr.value
        if cls is _ast.Call:
            got = self._call(expr, scope)
            if self.rebound_names:
                self._forget_rebound(scope)
            return got
        f = form(expr)
        if f is _ast.Subscript:
            held, index = self._eval(expr.value, scope), self._eval(expr.slice, scope)
            if type(index) is int and type(held) is _Binding and held.kind == "register":
                return _new(QubitRef, (held.ids[0], index))
            return _OTHER
        if f is _ast.BinOp:
            left, right = self._eval(expr.left, scope), self._eval(expr.right, scope)
            value = binop_value(type(expr.op), left, right)
            return _OTHER if value is None else value
        if f is _ast.UnaryOp:  # `-x`
            value = self._eval(expr.operand, scope)
            return -value if type(value) is int else _OTHER
        if f is _ast.Attribute:
            self._eval(expr.value, scope)
            return _OTHER
        if f is _ast.Tuple:
            values = tuple([self._eval(element, scope) for element in expr.elts])
            escaped = {cid for value in values for cid in _circuits(value)}
            if escaped:
                # A circuit stored in a container can be mutated through
                # aliases this analysis does not track.
                cause = UnknownCause.GLOBAL_CIRCUIT_MUTATION
                self._emit_unknown(sorted(escaped), cause, self.span(expr))
            return values
        if f is None:
            touched = self._touch(names(expr), scope, expr)
            if touched and self.passed is not None:  # a call's argument may hold them
                self.passed.update(touched)
            if self.rebound_names:
                self._forget_rebound(scope)  # it may hold a walrus
        return _OTHER

    def _call(self, call: _ast.Call, scope: _Scope, bare: bool = False) -> _Binding:
        callee = call.func
        if type(callee) is _ast.Attribute:
            value, method = callee.value, callee.attr
            if type(value) is _ast.Name:
                receiver = scope.vars.get(value.id, _OTHER)
            else:
                receiver = self._eval(value, scope)
            if type(receiver) is not _Binding:
                receiver = _OTHER
            if receiver.kind == "circuit":
                return self._circuit_method(receiver, method, call, scope, bare)
            if receiver.kind == "instruction" and method == "c_if":
                self._eval_args(call, scope)
                event = receiver.event
                if event is not None:  # events are values: the IR's copy is replaced
                    self.ir.events[event.id] = event._replace(is_conditional=True)
                return _OTHER
            info = scope.func_info
            if info is not None and type(value) is _ast.Name:
                if value.id not in scope.vars:
                    info.free_names.add(value.id)
                elif method == "add_register" and value.id in info.params:
                    info.adds_registers = True
            if self._is_constructor_name(method):
                return self._constructor(method, call, scope)
            return self._unknown_call(call, scope)
        if type(callee) is _ast.Name and type(scope.vars.get(callee.id)) is not int:
            name = callee.id
            if self._is_constructor_name(name):
                return self._constructor(name, call, scope)
            if name in scope.funcs:
                return self._local_function_call(scope.funcs[name], call, scope)
            return self._unknown_call(call, scope)
        self._eval(callee, scope)
        return self._unknown_call(call, scope)

    def _is_constructor_name(self, name: str) -> bool:
        return name in _CONSTRUCTORS or name in self.table.builtin_circuits

    def _constructor(self, name: str, call: _ast.Call, scope: _Scope) -> _Binding:
        if name in _REGISTER_CONSTRUCTORS:
            return self._register_constructor(_REGISTER_CONSTRUCTORS[name], call, scope)
        if name == "QuantumCircuit":
            return self._circuit_constructor(call, scope)
        if name == "transpile":
            return self._transpile(call, scope)
        decl = self._new_circuit(CircuitKind.BUILTIN_PARAMETRIZED, self.span(call), name=name)
        self._eval_args(call, scope)
        return _new(_Binding, ("circuit", (decl.id,), None))

    def _register_constructor(self, kind: str, call: _ast.Call, scope: _Scope) -> _Binding:
        values, _ = self._eval_args(call, scope)
        args = call.args if len(values) == len(call.args) else positional_args(call)
        size = self._register_size(values[0], call) if values else None
        label = args[1] if len(args) >= 2 else None
        name = label.value if type(label) is _ast.Constant and type(label.value) is str else None
        decl = RegisterDecl(self._new_id("r"), kind, size, self.span(call), name=name)
        self.ir.registers[decl.id] = decl
        return _new(_Binding, ("register", (decl.id,), None))

    def _register_size(self, size: _Eval, node: _ast.expr) -> int | None:
        """A register size, if `size` is a known integer; a negative one, or
        one above MAX_REGISTER_SIZE, is reported at `node` and made unknown."""
        if type(size) is not int:
            return None
        if size < 0:
            self._diagnostic("register declared with negative size", node)
            return None
        if size > MAX_REGISTER_SIZE:
            message = f"register size {size} is above {MAX_REGISTER_SIZE}; treated as unknown"
            self._diagnostic(message, node)
            return None
        return size

    def _new_circuit(
        self, kind: CircuitKind, span: SourceSpan, name: str | None = None
    ) -> CircuitDecl:
        decl = CircuitDecl(self._new_id("c"), kind, span, name=name)
        self.ir.circuits[decl.id] = decl
        return decl

    def _implicit_register(self, kind: str, size: int | None, span: SourceSpan) -> str:
        name = "q" if kind == "quantum" else "c"
        decl = RegisterDecl(self._new_id("r"), kind, size, span, name=name)
        self.ir.registers[decl.id] = decl
        return decl.id

    def _circuit_constructor(self, call: _ast.Call, scope: _Scope) -> _Binding:
        span = self.span(call)
        decl = self._new_circuit(CircuitKind.CONSTRUCTOR, span)
        reg_ids: list[str] = []
        implicit_seen, open = 0, False
        # Each size argument's register is made before the next argument is
        # evaluated, so an inline register is numbered after the sizes before it.
        for arg in call.args:
            if type(arg) is _ast.Starred:
                self._eval(arg.value, scope)
                # A `*` value supplies the sizes not given before it, or any registers.
                if implicit_seen == 0:
                    open = True
                elif implicit_seen == 1:
                    reg_ids.append(self._implicit_register("classical", None, span))
                implicit_seen = 2
                continue
            value = self._eval(arg, scope)
            if type(value) is _Binding and value.kind == "register":
                reg_ids.append(value.ids[0])
                continue
            # A size, known or not: the first is the quantum register's, the
            # second the classical one's.
            kind = "quantum" if implicit_seen == 0 else "classical"
            implicit_seen += 1
            reg_ids.append(self._implicit_register(kind, self._register_size(value, arg), span))
        for kw in call.keywords:
            self._eval(kw.value, scope)
        decl.layout = _CLOSED.adding(self.ir.registers, reg_ids, open)
        return _new(_Binding, ("circuit", (decl.id,), None))

    def _transpile(self, call: _ast.Call, scope: _Scope) -> _Binding:
        values, keywords = self._eval_args(call, scope)
        sources = [v.ids[0] for v in values if len(_circuits(v)) == 1]
        decl = self._new_circuit(CircuitKind.TRANSPILED, self.span(call))
        level = keywords.get("optimization_level")
        decl.transpile_opt_level = level if type(level) is int else None
        if sources:
            decl.layout = self.ir.circuits[sources[0]].layout
        return _new(_Binding, ("circuit", (decl.id,), None))

    def _local_function_call(self, info: _FuncInfo, call: _ast.Call, scope: _Scope) -> _Binding:
        circuit_args = self._circuit_args(call, scope)
        if circuit_args:
            cause = UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG
            self._emit_unknown(circuit_args, cause, self.span(call))
        if info.adds_registers:  # any circuit passed may gain registers
            for cid in circuit_args:
                circuit = self.ir.circuits[cid]
                circuit.layout = circuit.layout.adding(self.ir.registers, [], True)
        self._touch(info.free_names, scope, call)  # a caller's body reads them too
        if info.returns_circuit:
            decl = self._new_circuit(CircuitKind.USER_FUNCTION_RETURN, self.span(call))
            return _new(_Binding, ("circuit", (decl.id,), None))
        return _OTHER

    def _unknown_call(
        self, call: _ast.Call, scope: _Scope, receivers: tuple[str, ...] = (),
        gate_name: str | None = None,
    ) -> _Binding:
        """A call qlint does not model, a method `gate_name` of the circuits
        `receivers` if any: they and the circuits it receives may change in any way."""
        escaped = self._circuit_args(call, scope)
        if receivers:
            escaped = [*receivers, *[c for c in escaped if c not in receivers]]
        if escaped:
            cause = UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG
            self._emit_unknown(escaped, cause, self.span(call), gate_name)
        return _OTHER

    def _eval_args(
        self, call: _ast.Call, scope: _Scope
    ) -> tuple[list[_Eval], dict[str | None, _Eval]]:
        """Evaluate each of `arguments(call)` once, in order; return the
        positional values without the `*` ones, and the keyword values by name."""
        values = []
        for arg in call.args:
            if type(arg) is _ast.Starred:
                self._eval(arg.value, scope)
            else:
                values.append(self._eval(arg, scope))
        if not call.keywords:
            return values, {}
        return values, {kw.arg: self._eval(kw.value, scope) for kw in call.keywords}

    def _circuit_args(self, call: _ast.Call, scope: _Scope) -> list[str]:
        """Evaluate each of `arguments(call)` once, in order; return the circuits
        a value, an element of a display, or an opaque expression in them may
        be. `_eval` itself makes the circuits a display holds, or an opaque
        expression names, escape."""
        found: set[str] = set()
        outer, self.passed = self.passed, found
        for arg in arguments(call):
            value = self._eval(arg, scope)
            for element in value if type(value) is tuple else (value,):
                found.update(_circuits(element))
        self.passed = outer
        return sorted(found)

    # --- circuit methods ---

    def _circuit_method(
        self, receiver: _Binding, method: str, call: _ast.Call, scope: _Scope, bare: bool
    ) -> _Binding:
        """`method` called on a receiver that may be any of the circuits
        `receiver.ids`: it does to each what it does to one circuit."""
        ids = receiver.ids
        circuits = list(map(self.ir.circuits.__getitem__, ids))
        circuit = circuits[0]
        # With several candidates, an event on the receiver is an unknown
        # operator on each, and a layout that may gain registers is open.
        several = len(circuits) != 1
        spec = None if several else self.table.gates.get(method)
        if spec is not None:
            values, _ = self._eval_args(call, scope)
            category = spec.category
            if category == "reversible_gate" or category == "reset":
                return self._gate_event(circuit, spec, call, values)
            if category == "measurement":
                return self._measure_event(circuit, spec, call, values)
            if category == "measure_all":
                return self._measure_all_event(circuit, call)
            if category == "initialize":
                return self._initialize_event(circuit, spec, call, values)
            if category == "barrier":
                event = self._emit(EventKind.BARRIER, circuit.id, self.span(call), "barrier")
                return _new(_Binding, ("instruction", (circuit.id,), event))
            # conditional_marker applied directly to a circuit is not a gate add.
            cause = UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG
            self._emit_unknown([circuit.id], cause, self.span(call), method)
            return _OTHER
        if method == "append":
            self._composition(circuits, call, scope, "append")
            return _OTHER
        if method == "compose":
            return self._compose(circuits, call, scope, bare)
        if method == "add_register":
            values, _ = self._eval_args(call, scope)
            reg_ids = [v.ids[0] for v in values if type(v) is _Binding and v.kind == "register"]
            # A `*` value, or an argument that is no known register, may add any registers.
            open = several or len(reg_ids) != len(call.args)
            for circuit in circuits:
                circuit.layout = circuit.layout.adding(self.ir.registers, reg_ids, open)
            return _OTHER
        if method in ("to_gate", "to_instruction"):
            self._eval_args(call, scope)
            for circuit in circuits:
                circuit.unseen.add("to_gate_or_instruction")
            return _new(_Binding, ("circuit_gate", ids, None))
        if method == "copy":
            self._eval_args(call, scope)
            return self._derived(circuits, self.span(call))
        if method == "assign_parameters":
            self._eval_args(call, scope)
            return receiver
        # Unrecognized circuit method: the circuits may change in any way.
        return self._unknown_call(call, scope, ids, method)

    def _unresolved_event(self, circuit: CircuitDecl, span: SourceSpan, gate_name: str) -> _Binding:
        event = self._emit_unknown((circuit.id,), UnknownCause.UNRESOLVED_QUBIT, span, gate_name)
        return _new(_Binding, ("instruction", (circuit.id,), event))

    def _gate_event(
        self, circuit: CircuitDecl, spec: GateSpec, call: _ast.Call, values: list[_Eval]
    ) -> _Binding:
        span, args = self.span(call), call.args
        # `values` leaves out the `*` values of `args`.
        star = len(values) != len(args) or call.keywords and has_star_args(call)
        if star or not spec.qubit_args:
            return self._unresolved_event(circuit, span, spec.method_name)
        refs: list[QubitRef] = []
        for pos in spec.qubit_args:
            if pos >= len(args):
                return self._unresolved_event(circuit, span, spec.method_name)
            ref = self._bit(values[pos], args[pos], circuit, False)
            if ref is UNRESOLVED_BIT:
                return self._unresolved_event(circuit, span, spec.method_name)
            refs.append(ref)
        kind = EventKind.RESET if spec.category == "reset" else EventKind.GATE
        event = self._emit(kind, circuit.id, span, spec.method_name, False, None, refs)
        return _new(_Binding, ("instruction", (circuit.id,), event))

    def _measure_event(
        self, circuit: CircuitDecl, spec: GateSpec, call: _ast.Call, values: list[_Eval]
    ) -> _Binding:
        """Measure the row's first qubit column into its first clbit column."""
        span, args, positions = self.span(call), call.args, spec.qubit_args
        star = len(values) != len(args) or call.keywords and has_star_args(call)
        if star or not positions or positions[0] >= len(args):
            return self._unresolved_event(circuit, span, "measure")
        pos = positions[0]
        qubits = self._bits(values[pos], args[pos], circuit, False)
        clbits, positions = None, spec.clbit_args
        if positions and positions[0] < len(args):
            pos = positions[0]
            clbits = self._bits(values[pos], args[pos], circuit, True)
        if qubits is None:
            return self._unresolved_event(circuit, span, "measure")
        if clbits is not None and len(clbits) != len(qubits):
            clbits = None
        last: _Binding = _OTHER
        for i, qref in enumerate(qubits):
            cref = clbits[i] if clbits is not None else UNRESOLVED_BIT
            if qref is UNRESOLVED_BIT:
                last = self._unresolved_event(circuit, span, "measure")
            else:
                kind = EventKind.MEASUREMENT
                event = self._emit(kind, circuit.id, span, "measure", False, None, [qref], [cref])
                last = _new(_Binding, ("instruction", (circuit.id,), event))
        return last

    def _measure_all_event(self, circuit: CircuitDecl, call: _ast.Call) -> _Binding:
        creates = True
        for kw in call.keywords:
            if kw.arg == "add_bits" and type(kw.value) is _ast.Constant and kw.value.value is False:
                creates = False
        kind, qubits = EventKind.MEASURE_ALL, self._full_layout(circuit, call)
        event = self._emit(kind, circuit.id, self.span(call), "measure_all", creates, None, qubits)
        return _new(_Binding, ("instruction", (circuit.id,), event))

    def _full_layout(self, circuit: CircuitDecl, node: _ast.expr) -> list[QubitRef]:
        """Every qubit of the circuit; none when its layout is unknown or the
        listing would pass MAX_LISTED_OPERANDS."""
        if circuit.layout.num_qubits is None or not self._may_list(circuit.layout.num_qubits, node):
            return []
        operands: list[QubitRef] = []
        for reg_id in circuit.layout.quantum:
            operands += [_new(QubitRef, (reg_id, i)) for i in range(self.ir.registers[reg_id].size)]
        return operands

    def _may_list(self, operands: int, node: _ast.expr) -> bool:
        """Count `operands` against MAX_LISTED_OPERANDS; False once the file
        has passed it, which is reported at `node` the first time."""
        listed = self.listed + operands
        if listed <= MAX_LISTED_OPERANDS:
            self.listed = listed
            return True
        if self.listed <= MAX_LISTED_OPERANDS:
            self.listed = listed
            message = f"whole-register operands above {MAX_LISTED_OPERANDS}; treated as unresolved"
            self._diagnostic(message, node)
        return False

    def _initialize_event(
        self, circuit: CircuitDecl, spec: GateSpec, call: _ast.Call, values: list[_Eval]
    ) -> _Binding:
        """Initialize the row's first qubit column, or every qubit when the call has none."""
        if not spec.qubit_args:
            return self._unresolved_event(circuit, self.span(call), "initialize")
        pos, operands = spec.qubit_args[0], []
        if len(values) > pos:
            group = self._bits(values[pos], positional_args(call)[pos], circuit, False)
            if group is not None and UNRESOLVED_BIT not in group:
                operands = group
        else:
            operands = self._full_layout(circuit, call)
        circuit.unseen.add("initialize" if operands else "initialize_all")
        kind, span = EventKind.INITIALIZE, self.span(call)
        event = self._emit(kind, circuit.id, span, "initialize", False, None, operands)
        return _new(_Binding, ("instruction", (circuit.id,), event))

    # --- operand resolution ---

    def _bits(
        self, value: _Eval, expr: _ast.expr, circuit: CircuitDecl, classical: bool
    ) -> list[QubitRef] | None:
        """The operands `expr`, of value `value`, names: one per element of a
        display, one per slot of a register name, else one; None for a
        register of unknown size, or past MAX_LISTED_OPERANDS."""
        if type(value) is tuple:
            return [self._bit(v, e, circuit, classical) for v, e in zip(value, expr.elts)]
        if type(expr) is _ast.Name and type(value) is _Binding and value.kind == "register":
            reg = self.ir.registers[value.ids[0]]
            if reg.kind == ("classical" if classical else "quantum"):
                if reg.size is None or not self._may_list(reg.size, expr):
                    return None
                return [_new(QubitRef, (reg.id, i)) for i in range(reg.size)]
        return [self._bit(value, expr, circuit, classical)]

    def _bit(
        self, value: _Eval, expr: _ast.expr, circuit: CircuitDecl, classical: bool
    ) -> QubitRef:
        """The one operand `expr`, of value `value`, names: a register slot, or
        a known index into the circuit's only register of its kind."""
        layout = circuit.layout
        registers = layout.classical if classical else layout.quantum
        if type(value) is QubitRef:
            ref = value
        elif type(value) is int and len(registers) == 1 and not layout.open:
            ref = _new(QubitRef, (registers[0], value))
        else:
            return UNRESOLVED_BIT
        reg = self.ir.registers[ref.register]
        if ref.register in registers:  # associated, so of the right kind
            size, index = reg.size, ref.index
            if index >= 0 and (size is None or index < size):
                return ref
        elif reg.kind != ("classical" if classical else "quantum"):
            return UNRESOLVED_BIT
        return self._checked_ref(reg, ref, circuit, expr)

    def _checked_ref(
        self, reg: RegisterDecl, ref: QubitRef, circuit: CircuitDecl, node: _ast.expr
    ) -> QubitRef:
        """`ref`, a slot of `reg`; unresolved, and reported, when out of range.
        A register the circuit does not hold is reported too."""
        index = ref.index
        if index < 0:
            self._diagnostic(f"negative index {index} into register {reg.display_name()}", node)
            return UNRESOLVED_BIT
        if reg.size is not None and index >= reg.size:
            name, size = reg.display_name(), reg.size
            self._diagnostic(f"index {index} out of range for register {name} of size {size}", node)
            return UNRESOLVED_BIT
        if reg.id not in circuit.layout.quantum and reg.id not in circuit.layout.classical:
            message = f"register {reg.display_name()} is not associated with the circuit"
            self._diagnostic(message, node)
        return ref

    # --- composition ---

    def _compose(
        self, circuits: list[CircuitDecl], call: _ast.Call, scope: _Scope, bare: bool
    ) -> _Binding:
        # `inplace` is the fifth positional argument or a keyword, and a `*` or
        # `**` value may hold it; the call changes no circuit only when each is
        # absent or a false constant.
        flags = call.args[4:5] + [kw.value for kw in call.keywords if kw.arg == "inplace"]
        in_place = has_star_args(call) or not all(
            type(f) is _ast.Constant and not f.value for f in flags
        )
        self._composition(circuits, call, scope, "compose" if in_place else None)
        span = self.span(call)
        self.ir.compose_calls.append(ComposeCall(circuits[0].id, span, bare, in_place))
        return self._derived(circuits, span)

    def _derived(self, circuits: list[CircuitDecl], span: SourceSpan) -> _Binding:
        """A new circuit made from the receiver, one of `circuits`: it shares
        the receiver's layout when that is one circuit, else its layout is open."""
        decl = self._new_circuit(CircuitKind.COPY, span)
        if len(circuits) == 1:
            decl.layout = circuits[0].layout
        return _new(_Binding, ("circuit", (decl.id,), None))

    def _composition(
        self, circuits: list[CircuitDecl], call: _ast.Call, scope: _Scope, in_place: str | None
    ) -> None:
        """Evaluate the arguments; mark the circuits the first one holds as
        composed into each of `circuits`. What the method `in_place` adds to
        them is an unknown operator of that name, a circuit's operators
        included; a method that changes no circuit in place is None."""
        values, _ = self._eval_args(call, scope)
        first = _binding(values[0]) if values else _OTHER
        if first.kind in ("circuit", "circuit_gate"):
            for circuit in circuits:
                for child in first.ids:
                    if child != circuit.id:
                        circuit.unseen.add("has_subcircuit")
                        self.ir.circuits[child].unseen.add("subcircuit")
        if in_place is not None:
            cause = UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG
            self._emit_unknown([c.id for c in circuits], cause, self.span(call), in_place)


_STATEMENTS = {
    _ast.Assign: _Extractor._assign,
    _ast.AnnAssign: _Extractor._ann_assign,
    _ast.AugAssign: _Extractor._aug_assign,
    _ast.Expr: _Extractor._expr,
    _ast.For: _Extractor._for,
    _ast.If: _Extractor._if,
    _ast.FunctionDef: _Extractor._function_def,
    _ast.AsyncFunctionDef: _Extractor._function_def,
    _ast.Return: _Extractor._return,
    **dict.fromkeys(_NO_OPS),
}


# --- loops ---


def _range_args(node: _ast.For) -> list[_ast.expr] | None:
    """The arguments of `for name in range(...)` with no `else`; None for another loop."""
    it = node.iter
    if type(it) is not _ast.Call or type(it.func) is not _ast.Name or it.func.id != "range":
        return None
    if it.keywords or not 1 <= len(it.args) <= 3 or node.orelse:
        return None
    return it.args if type(node.target) is _ast.Name else None


_INT_OPS = {_ast.Add: int.__add__, _ast.Sub: int.__sub__, _ast.Mult: int.__mul__,
            _ast.FloorDiv: int.__floordiv__}


def binop_value(op: type[_ast.operator], a: object, b: object) -> int | None:
    """`a op b` for +, -, * and //; None for another operator, an operand
    that is not an `int` (such as None, unknown), or `// 0`."""
    fn = _INT_OPS.get(op)
    if fn is None or type(a) is not int or type(b) is not int or (b == 0 and op is _ast.FloorDiv):
        return None
    return fn(a, b)


def range_values(args: list[object], limit: int) -> range | None:
    """The values of range(*args), or None when an argument is not an `int`
    (such as None, unknown), the call would raise, or the range is longer than `limit`."""
    if any(type(a) is not int for a in args):
        return None
    try:
        rng = range(*args)
        return rng if len(rng) <= limit else None
    except (ValueError, OverflowError):  # a zero step, or a length past sys.maxsize
        return None


def _aug_modelled(node: _ast.AugAssign) -> bool:
    """True when `x op= e` is in the subset: a name target, an operator `form` models."""
    binop = _ast.BinOp(node.target, node.op, node.value)
    return type(node.target) is _ast.Name and form(binop) is not None


def _stmt_count(stmts: list[_ast.stmt]) -> int:
    """Statements in `stmts` and in every body nested in them, each counted once."""
    count, stack = 0, list(stmts)
    while stack:
        node = stack.pop()
        count += 1
        stack += getattr(node, "body", ())
        stack += getattr(node, "orelse", ())
    return count


def _assigned_names(stmts: list[_ast.stmt], if_depth: int) -> set[str]:
    """Names the walk of `stmts` at `if` depth `if_depth` may bind, same scope only.

    An opaque statement may bind any name it mentions.
    """
    out: set[str] = set()
    for node in stmts:
        cls = type(node)
        if cls is _ast.For and _range_args(node) is not None:
            out.add(node.target.id)
            out |= _assigned_names(node.body, if_depth)
        elif cls is _ast.If and if_depth < MAX_IF_DEPTH:
            out |= _assigned_names(node.body, if_depth + 1)
            out |= _assigned_names(node.orelse, if_depth + 1)
        elif cls is _ast.Assign or cls is _ast.AnnAssign and node.value is not None:
            for target in node.targets if cls is _ast.Assign else [node.target]:
                if form(target) in (_ast.Name, _ast.Tuple):
                    out |= names(target)
        elif cls is _ast.AugAssign and _aug_modelled(node):
            out.add(node.target.id)
        elif cls not in _STATEMENTS or cls in (_ast.For, _ast.If, _ast.AugAssign):
            out |= names(node)  # kept opaque
    return out


_TRY_FIELDS = ("body", "handlers", "orelse", "finalbody")
# Where a `break`/`continue` of the enclosing loop can sit, by statement
# class. A nested loop's body holds its own, but a `return` or `raise` there
# leaves the enclosing loop too; a `def` and a `class` hold their own of all four.
_ESCAPE_FIELDS = {
    _ast.If: ("body", "orelse"),
    _ast.For: ("orelse",),
    _ast.AsyncFor: ("orelse",),
    _ast.While: ("orelse",),
    _ast.With: ("body",),
    _ast.AsyncWith: ("body",),
    _ast.Try: _TRY_FIELDS,
    getattr(_ast, "TryStar", _ast.Try): _TRY_FIELDS,  # Python 3.11+
    _ast.ExceptHandler: ("body",),
    _ast.Match: ("cases",),
    _ast.match_case: ("body",),
}
_LOOPS = (_ast.For, _ast.AsyncFor, _ast.While)


def _has_loop_escape(body: list[_ast.stmt]) -> bool:
    """True when a loop with this body may stop an iteration early: by a
    `break` or `continue` of its own, or by a `return` or `raise`."""
    stack = [(node, False) for node in body]
    while stack:
        node, nested = stack.pop()  # nested: inside a loop within the body
        cls = type(node)
        if cls is _ast.Return or cls is _ast.Raise:
            return True
        if not nested and (cls is _ast.Break or cls is _ast.Continue):
            return True
        for field in _ESCAPE_FIELDS.get(cls, ()):
            stack.extend((child, nested) for child in getattr(node, field))
        if cls in _LOOPS:
            stack.extend((child, True) for child in node.body)
    return False
