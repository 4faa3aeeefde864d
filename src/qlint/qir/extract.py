"""Lifting of the restricted AST into the quantum IR.

The extractor walks each scope once, tracking what every variable holds
(register, circuit, instruction, anything else). Recognized constructors and
circuit methods produce IR entities; everything it cannot resolve becomes an
explicit unknown operator so later analyses can stay on the safe side.
Expressions are `ast` nodes, read through `nodes.form`; a source span is
made only for what the IR keeps.
"""

from __future__ import annotations

import ast
from typing import NamedTuple

from ..frontend.cfg import Cfg
from ..frontend.nodes import (
    MODULE_SCOPE,
    Assign,
    ExprStmt,
    ForRange,
    FunctionDef,
    If,
    ModuleAst,
    Opaque,
    Return,
    SourceSpan,
    Stmt,
    arguments,
    form,
    has_star_args,
    int_value,
    join_envs,
    keyword_values,
    names,
    positional_args,
    tuple_assign_pairs,
)
from .gates import GateSpec, GateTable, load_gate_table
from .model import (
    CircuitDecl,
    CircuitKind,
    ComposeCall,
    CompositionEdge,
    Diagnostic,
    EventKind,
    OperatorEvent,
    QuantumIR,
    QubitRef,
    RegisterDecl,
    UNRESOLVED_BIT,
    UnknownCause,
)

_REGISTER_CONSTRUCTORS = {"QuantumRegister": "quantum", "ClassicalRegister": "classical"}


class _Binding(NamedTuple):
    kind: str  # "register" | "circuit" | "circuit_gate" | "instruction" | "other"
    ids: tuple[str, ...] = ()
    event: OperatorEvent | None = None


_OTHER = _Binding("other")


def _join_bindings(left: _Binding, right: _Binding) -> _Binding:
    """What a name holds after a branch: either side's circuits, else nothing known."""
    if left is right or (left.kind == right.kind and left.ids == right.ids):
        return left
    if left.kind == "circuit" or right.kind == "circuit":
        ids = set(left.ids if left.kind == "circuit" else ())
        ids.update(right.ids if right.kind == "circuit" else ())
        return _Binding("circuit", tuple(sorted(ids)))
    return _OTHER


_LEAVES = (ast.Name, ast.Constant)


def _is_inert(expr: ast.expr) -> bool:
    """A literal, a name or `name[literal or name]`: only calls and displays have effects."""
    f = form(expr)
    if f is ast.Subscript:
        return type(expr.value) is ast.Name and form(expr.slice) in _LEAVES
    return f in _LEAVES


class _FuncInfo:
    __slots__ = ("name", "returns_circuit", "global_method_receivers")

    def __init__(self, name: str) -> None:
        self.name = name
        self.returns_circuit = False
        self.global_method_receivers: set[str] = set()


class _Scope:
    __slots__ = ("name", "vars", "funcs", "method_receivers", "func_info")

    def __init__(
        self,
        name: str,
        vars: dict[str, _Binding] | None = None,
        funcs: dict[str, _FuncInfo] | None = None,
        method_receivers: frozenset[str] = frozenset(),
        func_info: _FuncInfo | None = None,
    ) -> None:
        self.name = name
        self.vars = {} if vars is None else vars
        self.funcs = {} if funcs is None else funcs
        self.method_receivers, self.func_info = method_receivers, func_info


def extract(tree: ModuleAst, cfg: Cfg, gate_table: GateTable | None = None) -> QuantumIR:
    """Extract the quantum IR of one file from the output of `unroll_loops`.

    Known integers must already be folded into `ast.Constant`s and statements
    numbered, as `unroll_loops` leaves them; `cfg` is `build_cfg` of the
    same tree.
    """
    table = gate_table if gate_table is not None else load_gate_table()
    return _Extractor(tree, cfg, table).run()


class _Extractor:
    def __init__(self, tree: ModuleAst, cfg: Cfg, table: GateTable) -> None:
        self.tree = tree
        self.cfg = cfg
        self.table = table
        self.ir = QuantumIR(tree.file)
        self.span = tree.span
        self._seq = 0
        self._ids = {"r": 0, "c": 0, "e": 0}
        self._block = 0
        self._scope_name = MODULE_SCOPE

    def run(self) -> QuantumIR:
        scope = _Scope(MODULE_SCOPE, method_receivers=self.tree.method_receivers)
        self._walk(self.tree.statements, scope)
        return self.ir

    # --- id and event plumbing ---

    def _new_id(self, prefix: str) -> str:
        self._ids[prefix] += 1
        return f"{prefix}{self._ids[prefix]}"

    def _emit(
        self,
        kind: EventKind,
        circuit: str | None,
        span: SourceSpan,
        *,
        gate_name: str | None = None,
        creates_new_register: bool = False,
        unknown_cause: UnknownCause | None = None,
        qubits: list[QubitRef] | None = None,
        clbits: list[QubitRef] | None = None,
    ) -> OperatorEvent:
        event = OperatorEvent(
            id=self._new_id("e"),
            circuit=circuit,
            kind=kind,
            seq=self._seq,
            block=self._block,
            scope=self._scope_name,
            span=span,
            gate_name=gate_name,
            creates_new_register=creates_new_register,
            unknown_cause=unknown_cause,
            qubits=qubits or [],
            clbits=clbits or [],
        )
        self._seq += 1
        self.ir.events.append(event)
        return event

    def _emit_unknown(
        self,
        circuit_ids: list[str] | tuple[str, ...],
        cause: UnknownCause,
        span: SourceSpan,
        gate_name: str | None = None,
    ) -> None:
        for cid in circuit_ids:
            self._emit(
                EventKind.UNKNOWN, cid, span, unknown_cause=cause, gate_name=gate_name
            )

    def _diagnostic(self, message: str, node: ast.expr) -> None:
        self.ir.diagnostics.append(Diagnostic(message, self.span(node)))

    # --- scope walking ---

    def _walk(self, stmts: list[Stmt], scope: _Scope) -> None:
        for stmt in stmts:
            self._block = self.cfg.block_of_stmt[stmt.uid]
            if isinstance(stmt, Assign):
                self._assign(stmt, scope)
            elif isinstance(stmt, ExprStmt):
                self._eval(stmt.value, scope, bare=True)
            elif isinstance(stmt, If):
                self._eval(stmt.test, scope)
                saved = dict(scope.vars)
                self._walk(stmt.body, scope)
                then_vars, scope.vars = scope.vars, saved
                self._walk(stmt.orelse, scope)
                scope.vars = join_envs(then_vars, scope.vars, _join_bindings, _OTHER)
            elif isinstance(stmt, ForRange):
                for arg in stmt.range_args:
                    self._eval(arg, scope)
                self._walk(stmt.body, scope)
            elif isinstance(stmt, FunctionDef):
                self._function_def(stmt, scope)
            elif isinstance(stmt, Return):
                self._return(stmt, scope)
            elif isinstance(stmt, Opaque):
                touched = self._touched(stmt.names, scope)
                if touched:
                    self._emit_unknown(touched, UnknownCause.GLOBAL_CIRCUIT_MUTATION, stmt.span)

    def _assign(self, stmt: Assign, scope: _Scope) -> None:
        if self._tuple_assign(stmt, scope):
            return
        binding = self._eval(stmt.value, scope)
        for target in stmt.targets:
            if type(target) is ast.Name:
                bound = binding
                if (
                    bound.kind == "other"
                    and type(stmt.value) is ast.Call
                    and target.id in scope.method_receivers
                ):
                    # An opaque call result later used with circuit-specific
                    # methods is modeled as a circuit of unknown shape.
                    decl = self._new_circuit(
                        CircuitKind.UNKNOWN_WITH_CIRCUIT_METHODS, self.span(stmt.value)
                    )
                    bound = _Binding("circuit", (decl.id,))
                scope.vars[target.id] = bound
                for entity in self._named_decls(bound):
                    if entity.name is None:
                        entity.name = target.id
            else:
                self._eval(target, scope)
                if binding.kind == "circuit" and form(target) in (ast.Attribute, ast.Subscript):
                    # Stored into an object or container the analysis does not track.
                    self._emit_unknown(
                        binding.ids, UnknownCause.GLOBAL_CIRCUIT_MUTATION, stmt.span
                    )

    def _tuple_assign(self, stmt: Assign, scope: _Scope) -> bool:
        """Bind `a, b = x, y` pairwise so circuits do not escape tracking."""
        pairs = tuple_assign_pairs(stmt)
        if pairs is None:
            return False
        # The whole right side evaluates before any name is rebound.
        bindings = [self._eval(v, scope) for _, v in pairs]
        for (name, _), binding in zip(pairs, bindings):
            scope.vars[name] = binding
            for entity in self._named_decls(binding):
                if entity.name is None:
                    entity.name = name
        return True

    def _named_decls(self, binding: _Binding) -> list[RegisterDecl | CircuitDecl]:
        if binding.kind == "register":
            return [self.ir.registers[i] for i in binding.ids]
        if binding.kind == "circuit":
            return [self.ir.circuits[i] for i in binding.ids]
        return []

    def _function_def(self, stmt: FunctionDef, scope: _Scope) -> None:
        info = _FuncInfo(stmt.name)
        scope.funcs[stmt.name] = info
        inner = _Scope(
            name=f"{scope.name}.{stmt.name}#{stmt.uid}",
            vars={p: _OTHER for p in stmt.params},
            funcs=dict(scope.funcs),
            method_receivers=stmt.method_receivers,
            func_info=info,
        )
        outer_scope_name = self._scope_name
        self._scope_name = inner.name
        self._walk(stmt.body, inner)
        self._scope_name = outer_scope_name

    def _return(self, stmt: Return, scope: _Scope) -> None:
        if stmt.value is None:
            return
        binding = self._eval(stmt.value, scope)
        if scope.func_info is not None and binding.kind == "circuit":
            scope.func_info.returns_circuit = True
            for cid in binding.ids:
                self.ir.circuits[cid].subcircuit_flags.add("returned_from_function")

    def _touched(self, names: frozenset[str], scope: _Scope) -> list[str]:
        """Circuits that opaque code naming `names` may change in any way."""
        touched: set[str] = set()
        for name in names:
            binding = scope.vars.get(name)
            if binding is not None and binding.kind == "circuit":
                touched.update(binding.ids)
        return sorted(touched)

    # --- expression evaluation ---

    def _eval(self, expr: ast.expr, scope: _Scope, bare: bool = False) -> _Binding:
        f = form(expr)
        if f is ast.Name:
            return scope.vars.get(expr.id, _OTHER)
        if f is ast.Call:
            return self._call(expr, scope, bare)
        if f is ast.Attribute:
            self._eval(expr.value, scope)
            return _OTHER
        if f is ast.Subscript:
            self._eval(expr.value, scope)
            self._eval(expr.slice, scope)
            return _OTHER
        if f is ast.Tuple:
            escaped: set[str] = set()
            for element in expr.elts:
                binding = self._eval(element, scope)
                if binding.kind == "circuit":
                    escaped.update(binding.ids)
            if escaped:
                # A circuit stored in a container can be mutated through
                # aliases this analysis does not track.
                self._emit_unknown(
                    sorted(escaped), UnknownCause.GLOBAL_CIRCUIT_MUTATION, self.span(expr)
                )
        elif f is None:
            touched = self._touched(names(expr), scope)
            if touched:
                self._emit_unknown(touched, UnknownCause.GLOBAL_CIRCUIT_MUTATION, self.span(expr))
        return _OTHER

    def _call(self, call: ast.Call, scope: _Scope, bare: bool = False) -> _Binding:
        callee = call.func
        if type(callee) is ast.Attribute:
            value, method = callee.value, callee.attr
            receiver = self._eval(value, scope)
            if receiver.kind == "circuit":
                return self._circuit_method(receiver, method, call, scope, bare)
            if receiver.kind == "instruction" and method == "c_if":
                self._eval_args(call, scope)
                if receiver.event is not None:
                    receiver.event.is_conditional = True
                return _OTHER
            if (
                scope.func_info is not None
                and type(value) is ast.Name
                and value.id not in scope.vars
            ):
                scope.func_info.global_method_receivers.add(value.id)
            if self._is_constructor_name(method):
                return self._constructor(method, call, scope)
            return self._unknown_call(call, scope)
        if type(callee) is ast.Name:
            name = callee.id
            if self._is_constructor_name(name):
                return self._constructor(name, call, scope)
            if name in scope.funcs:
                return self._local_function_call(scope.funcs[name], call, scope)
            return self._unknown_call(call, scope)
        self._eval(callee, scope)
        return self._unknown_call(call, scope)

    def _is_constructor_name(self, name: str) -> bool:
        return (
            name in _REGISTER_CONSTRUCTORS
            or name == "QuantumCircuit"
            or name == "transpile"
            or name in self.table.builtin_circuits
        )

    def _constructor(self, name: str, call: ast.Call, scope: _Scope) -> _Binding:
        if name in _REGISTER_CONSTRUCTORS:
            return self._register_constructor(_REGISTER_CONSTRUCTORS[name], call, scope)
        if name == "QuantumCircuit":
            return self._circuit_constructor(call, scope)
        if name == "transpile":
            return self._transpile(call, scope)
        decl = self._new_circuit(CircuitKind.BUILTIN_PARAMETRIZED, self.span(call), name=name)
        self._eval_args(call, scope)
        return _Binding("circuit", (decl.id,))

    def _register_constructor(self, kind: str, call: ast.Call, scope: _Scope) -> _Binding:
        args = positional_args(call)
        for arg in args:
            self._eval(arg, scope)
        size = self._nonnegative(int_value(args[0]), call) if args else None
        name = None
        label = args[1] if len(args) >= 2 else None
        if type(label) is ast.Constant and type(label.value) is str:
            name = label.value
        decl = RegisterDecl(self._new_id("r"), kind, size, self.span(call), name=name)
        self.ir.registers[decl.id] = decl
        return _Binding("register", (decl.id,))

    def _nonnegative(self, size: int | None, node: ast.expr) -> int | None:
        """A register size; a negative one is reported at `node` and made unknown."""
        if size is not None and size < 0:
            self._diagnostic("register declared with negative size", node)
            return None
        return size

    def _new_circuit(
        self, kind: CircuitKind, span: SourceSpan, name: str | None = None
    ) -> CircuitDecl:
        decl = CircuitDecl(self._new_id("c"), kind, span, self._scope_name, name=name)
        self.ir.circuits[decl.id] = decl
        return decl

    def _implicit_register(self, kind: str, size: int | None, span: SourceSpan) -> RegisterDecl:
        default_name = "q" if kind == "quantum" else "c"
        decl = RegisterDecl(self._new_id("r"), kind, size, span, name=default_name)
        self.ir.registers[decl.id] = decl
        return decl

    def _associate(self, circuit: CircuitDecl, register: RegisterDecl) -> None:
        target = (
            circuit.quantum_registers
            if register.kind == "quantum"
            else circuit.classical_registers
        )
        if register.id not in target:
            target.append(register.id)
        self._recompute_counts(circuit)

    def _recompute_counts(self, circuit: CircuitDecl) -> None:
        circuit.num_qubits = self._registers_total(circuit.quantum_registers)
        circuit.num_clbits = self._registers_total(circuit.classical_registers)

    def _registers_total(self, register_ids: list[str]) -> int | None:
        total = 0
        for reg_id in register_ids:
            size = self.ir.registers[reg_id].size
            if size is None:
                return None
            total += size
        return total

    def _circuit_constructor(self, call: ast.Call, scope: _Scope) -> _Binding:
        span = self.span(call)
        decl = self._new_circuit(CircuitKind.CONSTRUCTOR, span)
        implicit_seen = 0
        for arg in positional_args(call):
            binding = self._eval(arg, scope)
            if binding.kind == "register":
                self._associate(decl, self.ir.registers[binding.ids[0]])
                continue
            size = int_value(arg)
            if size is not None:
                kind = "quantum" if implicit_seen == 0 else "classical"
                implicit_seen += 1
                reg = self._implicit_register(kind, self._nonnegative(size, arg), span)
            else:
                # Could be a register object we cannot see or a dynamic size.
                reg = self._implicit_register("quantum", None, span)
            self._associate(decl, reg)
        for value in keyword_values(call):
            self._eval(value, scope)
        self._recompute_counts(decl)
        return _Binding("circuit", (decl.id,))

    def _inherit_layout(self, target: CircuitDecl, source: CircuitDecl) -> None:
        for reg_id in source.quantum_registers + source.classical_registers:
            self._associate(target, self.ir.registers[reg_id])
        target.num_qubits = source.num_qubits
        target.num_clbits = source.num_clbits

    def _transpile(self, call: ast.Call, scope: _Scope) -> _Binding:
        bindings = self._eval_args(call, scope)
        sources = [b.ids[0] for b in bindings if b.kind == "circuit" and len(b.ids) == 1]
        decl = self._new_circuit(CircuitKind.TRANSPILED, self.span(call))
        for kw in call.keywords:
            if kw.arg == "optimization_level":
                decl.transpile_opt_level = int_value(kw.value)
        if sources:
            self._inherit_layout(decl, self.ir.circuits[sources[0]])
        return _Binding("circuit", (decl.id,))

    def _local_function_call(self, info: _FuncInfo, call: ast.Call, scope: _Scope) -> _Binding:
        circuit_args = self._circuit_args(call, scope)
        if circuit_args:
            self._emit_unknown(
                circuit_args, UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG, self.span(call)
            )
        mutated: set[str] = set()
        for receiver in sorted(info.global_method_receivers):
            binding = scope.vars.get(receiver)
            if binding is not None and binding.kind == "circuit":
                mutated.update(binding.ids)
        if mutated:
            self._emit_unknown(
                sorted(mutated), UnknownCause.GLOBAL_CIRCUIT_MUTATION, self.span(call)
            )
        if info.returns_circuit:
            decl = self._new_circuit(CircuitKind.USER_FUNCTION_RETURN, self.span(call))
            return _Binding("circuit", (decl.id,))
        return _OTHER

    def _unknown_call(self, call: ast.Call, scope: _Scope) -> _Binding:
        circuit_args = self._circuit_args(call, scope)
        if circuit_args:
            self._emit_unknown(
                circuit_args, UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG, self.span(call)
            )
        return _OTHER

    def _eval_args(self, call: ast.Call, scope: _Scope) -> list[_Binding]:
        """Evaluate positional, then keyword arguments; return the positional bindings."""
        bindings = [self._eval(arg, scope) for arg in positional_args(call)]
        for value in keyword_values(call):
            self._eval(value, scope)
        return bindings

    def _circuit_args(self, call: ast.Call, scope: _Scope) -> list[str]:
        """Circuits a call receives: as args, in one-level containers, or named in an
        opaque argument (a dict, lambda, comprehension, ...) or a `*`/`**` value."""
        found: set[str] = set()
        unpacked = [a.value for a in call.args if type(a) is ast.Starred]
        unpacked += [k.value for k in call.keywords if k.arg is None]
        named = [n for value in unpacked for n in names(value)]
        for arg in arguments(call):
            elements = arg.elts if form(arg) is ast.Tuple else [arg]
            for element in elements:
                if form(element) is None:
                    named += names(element)
                    continue
                binding = self._eval(element, scope)
                if binding.kind == "circuit":
                    found.update(binding.ids)
        for name in named:
            binding = scope.vars.get(name, _OTHER)
            if binding.kind == "circuit":
                found.update(binding.ids)
        return sorted(found)

    # --- circuit methods ---

    def _circuit_method(
        self, receiver: _Binding, method: str, call: ast.Call, scope: _Scope, bare: bool
    ) -> _Binding:
        if len(receiver.ids) != 1:
            # Receiver may be one of several circuits; taint them all.
            self._eval_args(call, scope)
            self._emit_unknown(
                receiver.ids, UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG, self.span(call)
            )
            return _OTHER
        circuit = self.ir.circuits[receiver.ids[0]]
        spec = self.table.spec(method)
        if spec is not None:
            return self._table_method(circuit, spec, call, scope)
        if method == "append":
            return self._append(circuit, call, scope)
        if method == "compose":
            return self._compose(circuit, call, scope, bare)
        if method == "add_register":
            for arg in positional_args(call):
                binding = self._eval(arg, scope)
                if binding.kind == "register":
                    self._associate(circuit, self.ir.registers[binding.ids[0]])
            return _OTHER
        if method in ("to_gate", "to_instruction"):
            circuit.subcircuit_flags.add("to_gate_or_instruction")
            return _Binding("circuit_gate", (circuit.id,))
        if method == "copy":
            decl = self._new_circuit(CircuitKind.COPY, self.span(call))
            self._inherit_layout(decl, circuit)
            return _Binding("circuit", (decl.id,))
        if method == "assign_parameters":
            self._eval_args(call, scope)
            return _Binding("circuit", (circuit.id,))
        # Unrecognized circuit method: the circuit may change in any way.
        others = [c for c in self._circuit_args(call, scope) if c != circuit.id]
        self._emit_unknown(
            [circuit.id] + others,
            UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG,
            self.span(call),
            gate_name=method,
        )
        return _OTHER

    def _table_method(
        self, circuit: CircuitDecl, spec: GateSpec, call: ast.Call, scope: _Scope
    ) -> _Binding:
        # Operands are resolved below; evaluate only arguments that may have effects.
        for arg in arguments(call):
            if not _is_inert(arg):
                self._eval(arg, scope)
        if spec.category in ("reversible_gate", "reset"):
            return self._gate_event(circuit, spec, call, scope)
        if spec.category == "measurement":
            return self._measure_event(circuit, call, scope)
        if spec.category == "measure_all":
            return self._measure_all_event(circuit, call)
        if spec.category == "initialize":
            return self._initialize_event(circuit, call, scope)
        if spec.category == "barrier":
            event = self._emit(
                EventKind.BARRIER, circuit.id, self.span(call), gate_name="barrier"
            )
            return _Binding("instruction", (circuit.id,), event)
        # conditional_marker applied directly to a circuit is not a gate add.
        self._emit_unknown(
            [circuit.id],
            UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG,
            self.span(call),
            gate_name=spec.method_name,
        )
        return _OTHER

    def _unresolved_event(
        self, circuit: CircuitDecl, span: SourceSpan, gate_name: str
    ) -> _Binding:
        event = self._emit(
            EventKind.UNKNOWN,
            circuit.id,
            span,
            gate_name=gate_name,
            unknown_cause=UnknownCause.UNRESOLVED_QUBIT,
        )
        return _Binding("instruction", (circuit.id,), event)

    def _gate_event(
        self, circuit: CircuitDecl, spec: GateSpec, call: ast.Call, scope: _Scope
    ) -> _Binding:
        span, args = self.span(call), call.args
        if has_star_args(call) or not spec.qubit_args:
            return self._unresolved_event(circuit, span, spec.method_name)
        refs: list[QubitRef] = []
        for pos in spec.qubit_args:
            if pos >= len(args):
                return self._unresolved_event(circuit, span, spec.method_name)
            ref = self._resolve_single_bit(args[pos], circuit, scope, classical=False)
            if not ref.is_resolved:
                return self._unresolved_event(circuit, span, spec.method_name)
            refs.append(ref)
        event = self._emit(
            EventKind.RESET if spec.category == "reset" else EventKind.GATE,
            circuit.id,
            span,
            gate_name=spec.method_name,
            qubits=refs,
        )
        return _Binding("instruction", (circuit.id,), event)

    def _measure_event(self, circuit: CircuitDecl, call: ast.Call, scope: _Scope) -> _Binding:
        span, args = self.span(call), call.args
        if has_star_args(call) or len(args) < 1:
            return self._unresolved_event(circuit, span, "measure")
        qubits = self._resolve_bit_group(args[0], circuit, scope, classical=False)
        clbits = (
            self._resolve_bit_group(args[1], circuit, scope, classical=True)
            if len(args) >= 2
            else None
        )
        if qubits is None:
            return self._unresolved_event(circuit, span, "measure")
        if clbits is not None and len(clbits) != len(qubits):
            clbits = None
        last: _Binding = _OTHER
        for i, qref in enumerate(qubits):
            cref = clbits[i] if clbits is not None else UNRESOLVED_BIT
            if not qref.is_resolved:
                last = self._unresolved_event(circuit, span, "measure")
            else:
                event = self._emit(
                    EventKind.MEASUREMENT,
                    circuit.id,
                    span,
                    gate_name="measure",
                    qubits=[qref],
                    clbits=[cref],
                )
                last = _Binding("instruction", (circuit.id,), event)
        return last

    def _measure_all_event(self, circuit: CircuitDecl, call: ast.Call) -> _Binding:
        creates = True
        for kw in call.keywords:
            if kw.arg == "add_bits" and type(kw.value) is ast.Constant and kw.value.value is False:
                creates = False
        event = self._emit(
            EventKind.MEASURE_ALL,
            circuit.id,
            self.span(call),
            gate_name="measure_all",
            creates_new_register=creates,
            qubits=self._full_layout(circuit),
        )
        return _Binding("instruction", (circuit.id,), event)

    def _full_layout(self, circuit: CircuitDecl) -> list[QubitRef]:
        operands: list[QubitRef] = []
        for reg_id in circuit.quantum_registers:
            size = self.ir.registers[reg_id].size
            if size is None:
                return []
            operands.extend(QubitRef(reg_id, i) for i in range(size))
        return operands

    def _initialize_event(self, circuit: CircuitDecl, call: ast.Call, scope: _Scope) -> _Binding:
        operands: list[QubitRef] = []
        args = positional_args(call)
        if len(args) >= 2:
            group = self._resolve_bit_group(args[1], circuit, scope, classical=False)
            if group is not None and all(r.is_resolved for r in group):
                operands = group
        else:
            operands = self._full_layout(circuit)
        event = self._emit(
            EventKind.INITIALIZE,
            circuit.id,
            self.span(call),
            gate_name="initialize",
            qubits=operands,
        )
        return _Binding("instruction", (circuit.id,), event)

    # --- operand resolution ---

    def _resolve_bit_group(
        self, expr: ast.expr, circuit: CircuitDecl, scope: _Scope, classical: bool
    ) -> list[QubitRef] | None:
        if form(expr) is ast.Tuple:
            return [self._resolve_single_bit(e, circuit, scope, classical) for e in expr.elts]
        if type(expr) is ast.Name:
            # A whole register expands into one reference per slot.
            reg = self._register_of_name(expr, scope, classical)
            if reg is not None:
                if reg.size is None:
                    return None
                return [QubitRef(reg.id, i) for i in range(reg.size)]
        return [self._resolve_single_bit(expr, circuit, scope, classical)]

    def _register_of_name(
        self, name: ast.Name, scope: _Scope, classical: bool
    ) -> RegisterDecl | None:
        binding = scope.vars.get(name.id, _OTHER)
        if binding.kind != "register":
            return None
        reg = self.ir.registers[binding.ids[0]]
        wanted = "classical" if classical else "quantum"
        return reg if reg.kind == wanted else None

    def _resolve_single_bit(
        self, expr: ast.expr, circuit: CircuitDecl, scope: _Scope, classical: bool
    ) -> QubitRef:
        if form(expr) is ast.Subscript and type(value := expr.value) is ast.Name:
            reg = self._register_of_name(value, scope, classical)
            if reg is None:
                return UNRESOLVED_BIT
            index = int_value(expr.slice)
            if index is None:
                return UNRESOLVED_BIT
            return self._checked_ref(reg, index, circuit, expr)
        index = int_value(expr)
        if index is not None:
            registers = (
                circuit.classical_registers if classical else circuit.quantum_registers
            )
            if len(registers) == 1:
                reg = self.ir.registers[registers[0]]
                return self._checked_ref(reg, index, circuit, expr)
        return UNRESOLVED_BIT

    def _checked_ref(
        self, reg: RegisterDecl, index: int, circuit: CircuitDecl, node: ast.expr
    ) -> QubitRef:
        if index < 0:
            self._diagnostic(
                f"negative index {index} into register {reg.display_name()}", node
            )
            return UNRESOLVED_BIT
        if reg.size is not None and index >= reg.size:
            self._diagnostic(
                f"index {index} out of range for register "
                f"{reg.display_name()} of size {reg.size}",
                node,
            )
            return UNRESOLVED_BIT
        if reg.id not in circuit.quantum_registers and reg.id not in circuit.classical_registers:
            self._diagnostic(
                f"register {reg.display_name()} is not associated with the circuit",
                node,
            )
        return QubitRef(reg.id, index)

    # --- composition ---

    def _append(self, circuit: CircuitDecl, call: ast.Call, scope: _Scope) -> _Binding:
        self._composition_edges(circuit, call, scope, "append")
        return _OTHER

    def _compose(
        self, circuit: CircuitDecl, call: ast.Call, scope: _Scope, bare: bool
    ) -> _Binding:
        self._composition_edges(circuit, call, scope, "compose")
        inplace_true = False
        for kw in call.keywords:
            if kw.arg == "inplace" and type(kw.value) is ast.Constant and kw.value.value is True:
                inplace_true = True
        span = self.span(call)
        self.ir.compose_calls.append(ComposeCall(circuit.id, span, bare, inplace_true))
        decl = self._new_circuit(CircuitKind.COPY, span)
        self._inherit_layout(decl, circuit)
        return _Binding("circuit", (decl.id,))

    def _composition_edges(
        self, circuit: CircuitDecl, call: ast.Call, scope: _Scope, how: str
    ) -> None:
        """Evaluate the arguments; link the circuits the first one holds as children."""
        bindings = self._eval_args(call, scope)
        if bindings and bindings[0].kind in ("circuit", "circuit_gate"):
            for child in bindings[0].ids:
                if child != circuit.id:
                    self.ir.edges.append(
                        CompositionEdge(circuit.id, child, how, self.span(call))
                    )
