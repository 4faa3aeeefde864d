"""Lifting of the restricted AST into the quantum IR.

The extractor walks each scope once, tracking what every variable holds
(register, circuit, instruction, anything else). Recognized constructors and
circuit methods produce IR entities; everything it cannot resolve becomes an
explicit unknown operator so later analyses can stay on the safe side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.cfg import Cfg
from ..frontend.constprop import (
    MODULE_SCOPE,
    UNKNOWN,
    ConstEnv,
    ConstValue,
    known,
    tuple_assign_pairs,
)
from ..frontend.nodes import (
    Assign,
    Attribute,
    BoolLit,
    Call,
    Expr,
    ExprStmt,
    ForRange,
    FunctionDef,
    If,
    ListExpr,
    ModuleAst,
    Name,
    NoOp,
    Opaque,
    Return,
    SourceSpan,
    Stmt,
    StrLit,
    Subscript,
    TupleExpr,
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
_CIRCUIT_METHOD_MARKERS = frozenset({"to_gate", "to_instruction", "assign_parameters"})


@dataclass
class _Binding:
    kind: str  # "register" | "circuit" | "circuit_gate" | "instruction" | "other"
    ids: tuple[str, ...] = ()
    event: OperatorEvent | None = None


_OTHER = _Binding("other")


@dataclass
class _FuncInfo:
    name: str
    returns_circuit: bool = False
    global_method_receivers: set[str] = field(default_factory=set)


@dataclass
class _Scope:
    name: str
    vars: dict[str, _Binding] = field(default_factory=dict)
    funcs: dict[str, _FuncInfo] = field(default_factory=dict)
    circuit_method_users: frozenset[str] = frozenset()
    func_info: _FuncInfo | None = None


def extract(
    tree: ModuleAst,
    env: ConstEnv,
    cfg: Cfg,
    gate_table: GateTable | None = None,
) -> QuantumIR:
    """Extract the quantum IR of one file from its post-unroll AST."""
    table = gate_table if gate_table is not None else load_gate_table()
    return _Extractor(tree, env, cfg, table).run()


class _Extractor:
    def __init__(self, tree: ModuleAst, env: ConstEnv, cfg: Cfg, table: GateTable) -> None:
        self.tree = tree
        self.env = env
        self.cfg = cfg
        self.table = table
        self.ir = QuantumIR(tree.file)
        self._seq = 0
        self._ids = {"r": 0, "c": 0, "e": 0}
        self._block = 0
        self._scope_name = MODULE_SCOPE

    def run(self) -> QuantumIR:
        scope = _Scope(MODULE_SCOPE)
        scope.circuit_method_users = _scan_circuit_method_users(self.tree.statements)
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

    def _diagnostic(self, message: str, span: SourceSpan) -> None:
        self.ir.diagnostics.append(Diagnostic(message, span))

    # --- scope walking ---

    def _walk(self, stmts: list[Stmt], scope: _Scope) -> None:
        for stmt in stmts:
            self._block = self.cfg.block_of_stmt.get(stmt.uid, self._block)
            if isinstance(stmt, Assign):
                self._assign(stmt, scope)
            elif isinstance(stmt, ExprStmt):
                self._eval(stmt.value, scope, bare=True)
            elif isinstance(stmt, If):
                self._eval(stmt.test, scope)
                saved = dict(scope.vars)
                self._walk(stmt.body, scope)
                then_vars = scope.vars
                scope.vars = dict(saved)
                self._walk(stmt.orelse, scope)
                else_vars = scope.vars
                scope.vars = _join_vars(then_vars, else_vars)
            elif isinstance(stmt, ForRange):
                for arg in stmt.range_args:
                    self._eval(arg, scope)
                self._walk(stmt.body, scope)
            elif isinstance(stmt, FunctionDef):
                self._function_def(stmt, scope)
            elif isinstance(stmt, Return):
                self._return(stmt, scope)
            elif isinstance(stmt, Opaque):
                self._opaque(stmt, scope)
            elif isinstance(stmt, NoOp):
                pass

    def _assign(self, stmt: Assign, scope: _Scope) -> None:
        if self._tuple_assign(stmt, scope):
            return
        binding = self._eval(stmt.value, scope)
        for target in stmt.targets:
            if isinstance(target, Name):
                bound = binding
                if (
                    bound.kind == "other"
                    and isinstance(stmt.value, Call)
                    and target.ident in scope.circuit_method_users
                ):
                    # An opaque call result later used with circuit-specific
                    # methods is modeled as a circuit of unknown shape.
                    decl = self._new_circuit(
                        CircuitKind.UNKNOWN_WITH_CIRCUIT_METHODS, stmt.value.span
                    )
                    bound = _Binding("circuit", (decl.id,))
                scope.vars[target.ident] = bound
                for entity in self._named_decls(bound):
                    if entity.name is None:
                        entity.name = target.ident
            else:
                self._eval(target, scope)

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
            circuit_method_users=_scan_circuit_method_users(stmt.body),
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

    def _opaque(self, stmt: Opaque, scope: _Scope) -> None:
        touched: set[str] = set()
        for name in stmt.names:
            binding = scope.vars.get(name)
            if binding is not None and binding.kind == "circuit":
                touched.update(binding.ids)
        if touched:
            self._emit_unknown(
                sorted(touched), UnknownCause.GLOBAL_CIRCUIT_MUTATION, stmt.span
            )

    # --- expression evaluation ---

    def _lookup(self, name: Name, scope: _Scope) -> _Binding:
        if self.env.resolve(name).is_known:
            # An integer, such as a loop variable reusing a register's name.
            return _OTHER
        return scope.vars.get(name.ident, _OTHER)

    def _eval(self, expr: Expr, scope: _Scope, bare: bool = False) -> _Binding:
        if isinstance(expr, Name):
            return self._lookup(expr, scope)
        if isinstance(expr, Call):
            return self._call(expr, scope, bare)
        if isinstance(expr, Attribute):
            self._eval(expr.value, scope)
            return _OTHER
        if isinstance(expr, Subscript):
            self._eval(expr.value, scope)
            self._eval(expr.index, scope)
            return _OTHER
        if isinstance(expr, (ListExpr, TupleExpr)):
            escaped: set[str] = set()
            for element in expr.elements:
                binding = self._eval(element, scope)
                if binding.kind == "circuit":
                    escaped.update(binding.ids)
            if escaped:
                # A circuit stored in a container can be mutated through
                # aliases this analysis does not track.
                self._emit_unknown(
                    sorted(escaped), UnknownCause.GLOBAL_CIRCUIT_MUTATION, expr.span
                )
            return _OTHER
        return _OTHER

    def _call(self, call: Call, scope: _Scope, bare: bool = False) -> _Binding:
        callee = call.func
        if isinstance(callee, Attribute):
            receiver = self._eval(callee.value, scope)
            method = callee.attr
            if receiver.kind == "circuit":
                return self._circuit_method(receiver, method, call, scope, bare)
            if receiver.kind == "instruction" and method == "c_if":
                for arg in call.args:
                    self._eval(arg, scope)
                if receiver.event is not None:
                    receiver.event.is_conditional = True
                return _OTHER
            if (
                scope.func_info is not None
                and isinstance(callee.value, Name)
                and callee.value.ident not in scope.vars
            ):
                scope.func_info.global_method_receivers.add(callee.value.ident)
            if self._is_constructor_name(method):
                return self._constructor(method, call, scope)
            return self._unknown_call(call, scope)
        if isinstance(callee, Name):
            name = callee.ident
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

    def _constructor(self, name: str, call: Call, scope: _Scope) -> _Binding:
        if name in _REGISTER_CONSTRUCTORS:
            return self._register_constructor(_REGISTER_CONSTRUCTORS[name], call, scope)
        if name == "QuantumCircuit":
            return self._circuit_constructor(call, scope)
        if name == "transpile":
            return self._transpile(call, scope)
        decl = self._new_circuit(CircuitKind.BUILTIN_PARAMETRIZED, call.span, name=name)
        for arg in call.args:
            self._eval(arg, scope)
        for kw in call.keywords:
            self._eval(kw.value, scope)
        return _Binding("circuit", (decl.id,))

    def _register_constructor(self, kind: str, call: Call, scope: _Scope) -> _Binding:
        for arg in call.args:
            self._eval(arg, scope)
        size = self.env.resolve(call.args[0]) if call.args else UNKNOWN
        if size.is_known and size.value is not None and size.value < 0:
            self._diagnostic("register declared with negative size", call.span)
            size = UNKNOWN
        name = None
        if len(call.args) >= 2 and isinstance(call.args[1], StrLit):
            name = call.args[1].value
        decl = RegisterDecl(self._new_id("r"), kind, size, call.span, name=name)
        self.ir.registers[decl.id] = decl
        return _Binding("register", (decl.id,))

    def _new_circuit(
        self, kind: CircuitKind, span: SourceSpan, name: str | None = None
    ) -> CircuitDecl:
        decl = CircuitDecl(self._new_id("c"), kind, span, self._scope_name, name=name)
        self.ir.circuits[decl.id] = decl
        return decl

    def _implicit_register(
        self, kind: str, size: ConstValue, span: SourceSpan
    ) -> RegisterDecl:
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
        register.owner_circuits.add(circuit.id)
        self._recompute_counts(circuit)

    def _recompute_counts(self, circuit: CircuitDecl) -> None:
        circuit.num_qubits = self._registers_total(circuit.quantum_registers)
        circuit.num_clbits = self._registers_total(circuit.classical_registers)

    def _registers_total(self, register_ids: list[str]) -> ConstValue:
        total = 0
        for reg_id in register_ids:
            size = self.ir.registers[reg_id].size
            if not size.is_known:
                return UNKNOWN
            assert size.value is not None
            total += size.value
        return known(total)

    def _circuit_constructor(self, call: Call, scope: _Scope) -> _Binding:
        decl = self._new_circuit(CircuitKind.CONSTRUCTOR, call.span)
        implicit_seen = 0
        for arg in call.args:
            binding = self._eval(arg, scope)
            if binding.kind == "register":
                self._associate(decl, self.ir.registers[binding.ids[0]])
                continue
            size = self.env.resolve(arg)
            if size.is_known:
                kind = "quantum" if implicit_seen == 0 else "classical"
                implicit_seen += 1
                reg = self._implicit_register(kind, size, call.span)
            else:
                # Could be a register object we cannot see or a dynamic size.
                reg = self._implicit_register("quantum", UNKNOWN, call.span)
            self._associate(decl, reg)
        for kw in call.keywords:
            self._eval(kw.value, scope)
        self._recompute_counts(decl)
        return _Binding("circuit", (decl.id,))

    def _inherit_layout(self, target: CircuitDecl, source: CircuitDecl) -> None:
        for reg_id in source.quantum_registers + source.classical_registers:
            self._associate(target, self.ir.registers[reg_id])
        target.num_qubits = source.num_qubits
        target.num_clbits = source.num_clbits

    def _transpile(self, call: Call, scope: _Scope) -> _Binding:
        source: CircuitDecl | None = None
        for arg in call.args:
            binding = self._eval(arg, scope)
            if binding.kind == "circuit" and source is None and len(binding.ids) == 1:
                source = self.ir.circuits[binding.ids[0]]
        opt_level = UNKNOWN
        for kw in call.keywords:
            self._eval(kw.value, scope)
            if kw.name == "optimization_level":
                opt_level = self.env.resolve(kw.value)
        decl = self._new_circuit(CircuitKind.TRANSPILED, call.span)
        decl.transpile_opt_level = opt_level
        if source is not None:
            self._inherit_layout(decl, source)
        return _Binding("circuit", (decl.id,))

    def _local_function_call(self, info: _FuncInfo, call: Call, scope: _Scope) -> _Binding:
        circuit_args = self._circuit_args(call, scope)
        if circuit_args:
            self._emit_unknown(
                circuit_args, UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG, call.span
            )
        mutated: set[str] = set()
        for receiver in sorted(info.global_method_receivers):
            binding = scope.vars.get(receiver)
            if binding is not None and binding.kind == "circuit":
                mutated.update(binding.ids)
        if mutated:
            self._emit_unknown(
                sorted(mutated), UnknownCause.GLOBAL_CIRCUIT_MUTATION, call.span
            )
        if info.returns_circuit:
            decl = self._new_circuit(CircuitKind.USER_FUNCTION_RETURN, call.span)
            return _Binding("circuit", (decl.id,))
        return _OTHER

    def _unknown_call(self, call: Call, scope: _Scope) -> _Binding:
        circuit_args = self._circuit_args(call, scope)
        if circuit_args:
            self._emit_unknown(
                circuit_args, UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG, call.span
            )
        return _OTHER

    def _circuit_args(self, call: Call, scope: _Scope) -> list[str]:
        """Circuits flowing into a call as direct or one-level-container args."""
        found: set[str] = set()

        def visit(expr: Expr, top_level: bool) -> None:
            if isinstance(expr, (ListExpr, TupleExpr)) and top_level:
                for element in expr.elements:
                    visit(element, False)
                return
            binding = self._eval(expr, scope)
            if binding.kind == "circuit":
                found.update(binding.ids)

        for arg in call.args:
            visit(arg, True)
        for kw in call.keywords:
            visit(kw.value, True)
        return sorted(found)

    # --- circuit methods ---

    def _circuit_method(
        self, receiver: _Binding, method: str, call: Call, scope: _Scope, bare: bool
    ) -> _Binding:
        if len(receiver.ids) != 1:
            # Receiver may be one of several circuits; taint them all.
            for arg in call.args:
                self._eval(arg, scope)
            for kw in call.keywords:
                self._eval(kw.value, scope)
            self._emit_unknown(
                receiver.ids, UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG, call.span
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
            for arg in call.args:
                binding = self._eval(arg, scope)
                if binding.kind == "register":
                    self._associate(circuit, self.ir.registers[binding.ids[0]])
            return _OTHER
        if method in ("to_gate", "to_instruction"):
            circuit.subcircuit_flags.add("to_gate_or_instruction")
            return _Binding("circuit_gate", (circuit.id,))
        if method == "copy":
            decl = self._new_circuit(CircuitKind.COPY, call.span)
            self._inherit_layout(decl, circuit)
            return _Binding("circuit", (decl.id,))
        if method == "assign_parameters":
            for arg in call.args:
                self._eval(arg, scope)
            for kw in call.keywords:
                self._eval(kw.value, scope)
            return _Binding("circuit", (circuit.id,))
        # Unrecognized circuit method: the circuit may change in any way.
        others = [c for c in self._circuit_args(call, scope) if c != circuit.id]
        self._emit_unknown(
            [circuit.id] + others,
            UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG,
            call.span,
            gate_name=method,
        )
        return _OTHER

    def _table_method(
        self, circuit: CircuitDecl, spec: GateSpec, call: Call, scope: _Scope
    ) -> _Binding:
        for arg in call.args:
            self._eval(arg, scope)
        for kw in call.keywords:
            self._eval(kw.value, scope)
        if spec.category == "reversible_gate":
            return self._gate_event(circuit, spec, call, scope)
        if spec.category == "measurement":
            return self._measure_event(circuit, call, scope)
        if spec.category == "measure_all":
            return self._measure_all_event(circuit, call)
        if spec.category == "reset":
            return self._reset_event(circuit, call, scope)
        if spec.category == "initialize":
            return self._initialize_event(circuit, call, scope)
        if spec.category == "barrier":
            event = self._emit(EventKind.BARRIER, circuit.id, call.span, gate_name="barrier")
            return _Binding("instruction", (circuit.id,), event)
        # conditional_marker applied directly to a circuit is not a gate add.
        self._emit_unknown(
            [circuit.id],
            UnknownCause.UNKNOWN_CALLEE_WITH_CIRCUIT_ARG,
            call.span,
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
        self, circuit: CircuitDecl, spec: GateSpec, call: Call, scope: _Scope
    ) -> _Binding:
        if call.has_star_args or not spec.qubit_args:
            return self._unresolved_event(circuit, call.span, spec.method_name)
        refs: list[QubitRef] = []
        for pos in spec.qubit_args:
            if pos >= len(call.args):
                return self._unresolved_event(circuit, call.span, spec.method_name)
            ref = self._resolve_single_bit(call.args[pos], circuit, scope, classical=False)
            if not ref.is_resolved:
                return self._unresolved_event(circuit, call.span, spec.method_name)
            refs.append(ref)
        event = self._emit(
            EventKind.GATE,
            circuit.id,
            call.span,
            gate_name=spec.method_name,
            qubits=refs,
        )
        return _Binding("instruction", (circuit.id,), event)

    def _measure_event(self, circuit: CircuitDecl, call: Call, scope: _Scope) -> _Binding:
        span = call.span
        if call.has_star_args or len(call.args) < 1:
            return self._unresolved_event(circuit, span, "measure")
        qubits = self._resolve_bit_group(call.args[0], circuit, scope, classical=False)
        clbits = (
            self._resolve_bit_group(call.args[1], circuit, scope, classical=True)
            if len(call.args) >= 2
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

    def _measure_all_event(self, circuit: CircuitDecl, call: Call) -> _Binding:
        creates = True
        for kw in call.keywords:
            if kw.name == "add_bits" and isinstance(kw.value, BoolLit) and not kw.value.value:
                creates = False
        event = self._emit(
            EventKind.MEASURE_ALL,
            circuit.id,
            call.span,
            gate_name="measure_all",
            creates_new_register=creates,
            qubits=self._full_layout(circuit),
        )
        return _Binding("instruction", (circuit.id,), event)

    def _full_layout(self, circuit: CircuitDecl) -> list[QubitRef]:
        operands: list[QubitRef] = []
        for reg_id in circuit.quantum_registers:
            size = self.ir.registers[reg_id].size
            if not size.is_known:
                return []
            assert size.value is not None
            operands.extend(QubitRef(reg_id, i) for i in range(size.value))
        return operands

    def _reset_event(self, circuit: CircuitDecl, call: Call, scope: _Scope) -> _Binding:
        if call.has_star_args or not call.args:
            return self._unresolved_event(circuit, call.span, "reset")
        ref = self._resolve_single_bit(call.args[0], circuit, scope, classical=False)
        if not ref.is_resolved:
            return self._unresolved_event(circuit, call.span, "reset")
        event = self._emit(
            EventKind.RESET, circuit.id, call.span, gate_name="reset", qubits=[ref]
        )
        return _Binding("instruction", (circuit.id,), event)

    def _initialize_event(self, circuit: CircuitDecl, call: Call, scope: _Scope) -> _Binding:
        operands: list[QubitRef] = []
        if len(call.args) >= 2:
            group = self._resolve_bit_group(call.args[1], circuit, scope, classical=False)
            if group is not None and all(r.is_resolved for r in group):
                operands = group
        else:
            operands = self._full_layout(circuit)
        event = self._emit(
            EventKind.INITIALIZE,
            circuit.id,
            call.span,
            gate_name="initialize",
            qubits=operands,
        )
        return _Binding("instruction", (circuit.id,), event)

    # --- operand resolution ---

    def _resolve_bit_group(
        self, expr: Expr, circuit: CircuitDecl, scope: _Scope, classical: bool
    ) -> list[QubitRef] | None:
        if isinstance(expr, (ListExpr, TupleExpr)):
            return [
                self._resolve_single_bit(e, circuit, scope, classical)
                for e in expr.elements
            ]
        if isinstance(expr, Name):
            # A whole register expands into one reference per slot.
            reg = self._register_of_name(expr, scope, classical)
            if reg is not None:
                if not reg.size.is_known:
                    return None
                assert reg.size.value is not None
                return [QubitRef(reg.id, i) for i in range(reg.size.value)]
        return [self._resolve_single_bit(expr, circuit, scope, classical)]

    def _register_of_name(
        self, name: Name, scope: _Scope, classical: bool
    ) -> RegisterDecl | None:
        binding = self._lookup(name, scope)
        if binding.kind != "register":
            return None
        reg = self.ir.registers[binding.ids[0]]
        wanted = "classical" if classical else "quantum"
        return reg if reg.kind == wanted else None

    def _resolve_single_bit(
        self, expr: Expr, circuit: CircuitDecl, scope: _Scope, classical: bool
    ) -> QubitRef:
        if isinstance(expr, Subscript) and isinstance(expr.value, Name):
            reg = self._register_of_name(expr.value, scope, classical)
            if reg is None:
                return UNRESOLVED_BIT
            index = self.env.resolve(expr.index)
            if not index.is_known:
                return UNRESOLVED_BIT
            assert index.value is not None
            return self._checked_ref(reg, index.value, circuit, expr.span)
        value = self.env.resolve(expr)
        if value.is_known:
            registers = (
                circuit.classical_registers if classical else circuit.quantum_registers
            )
            if len(registers) == 1:
                reg = self.ir.registers[registers[0]]
                assert value.value is not None
                return self._checked_ref(reg, value.value, circuit, expr.span)
        return UNRESOLVED_BIT

    def _checked_ref(
        self, reg: RegisterDecl, index: int, circuit: CircuitDecl, span: SourceSpan
    ) -> QubitRef:
        if index < 0:
            self._diagnostic(
                f"negative index {index} into register {reg.display_name()}", span
            )
            return UNRESOLVED_BIT
        if reg.size.is_known and reg.size.value is not None and index >= reg.size.value:
            self._diagnostic(
                f"index {index} out of range for register "
                f"{reg.display_name()} of size {reg.size.value}",
                span,
            )
            return UNRESOLVED_BIT
        if reg.id not in circuit.quantum_registers + circuit.classical_registers:
            self._diagnostic(
                f"register {reg.display_name()} is not associated with the circuit",
                span,
            )
        return QubitRef(reg.id, index)

    # --- composition ---

    def _append(self, circuit: CircuitDecl, call: Call, scope: _Scope) -> _Binding:
        children: list[str] = []
        for i, arg in enumerate(call.args):
            binding = self._eval(arg, scope)
            if i == 0 and binding.kind in ("circuit", "circuit_gate"):
                children.extend(binding.ids)
        for kw in call.keywords:
            self._eval(kw.value, scope)
        for child in children:
            if child != circuit.id:
                self.ir.edges.append(
                    CompositionEdge(circuit.id, child, "append", call.span)
                )
        return _OTHER

    def _compose(
        self, circuit: CircuitDecl, call: Call, scope: _Scope, bare: bool
    ) -> _Binding:
        children: list[str] = []
        for i, arg in enumerate(call.args):
            binding = self._eval(arg, scope)
            if i == 0 and binding.kind in ("circuit", "circuit_gate"):
                children.extend(binding.ids)
        inplace_true = False
        for kw in call.keywords:
            self._eval(kw.value, scope)
            if kw.name == "inplace" and isinstance(kw.value, BoolLit) and kw.value.value:
                inplace_true = True
        for child in children:
            if child != circuit.id:
                self.ir.edges.append(
                    CompositionEdge(circuit.id, child, "compose", call.span)
                )
        self.ir.compose_calls.append(
            ComposeCall(circuit.id, call.span, bare, inplace_true)
        )
        decl = self._new_circuit(CircuitKind.COPY, call.span)
        self._inherit_layout(decl, circuit)
        return _Binding("circuit", (decl.id,))


def _join_vars(a: dict[str, _Binding], b: dict[str, _Binding]) -> dict[str, _Binding]:
    out: dict[str, _Binding] = {}
    for name in set(a) | set(b):
        left = a.get(name, _OTHER)
        right = b.get(name, _OTHER)
        if left is right or (left.kind == right.kind and left.ids == right.ids):
            out[name] = left
        elif left.kind == "circuit" or right.kind == "circuit":
            ids = tuple(
                sorted(
                    set(left.ids if left.kind == "circuit" else ())
                    | set(right.ids if right.kind == "circuit" else ())
                )
            )
            out[name] = _Binding("circuit", ids)
        else:
            out[name] = _OTHER
    return out


def _scan_circuit_method_users(stmts: list[Stmt]) -> frozenset[str]:
    """Names that receive circuit-specific method calls somewhere in this scope."""
    found: set[str] = set()

    def visit_expr(expr: Expr) -> None:
        if isinstance(expr, Call):
            f = expr.func
            if (
                isinstance(f, Attribute)
                and isinstance(f.value, Name)
                and f.attr in _CIRCUIT_METHOD_MARKERS
            ):
                found.add(f.value.ident)
            visit_expr(expr.func)
            for a in expr.args:
                visit_expr(a)
            for k in expr.keywords:
                visit_expr(k.value)
        elif isinstance(expr, Attribute):
            visit_expr(expr.value)
        elif isinstance(expr, Subscript):
            visit_expr(expr.value)
            visit_expr(expr.index)
        elif isinstance(expr, (ListExpr, TupleExpr)):
            for e in expr.elements:
                visit_expr(e)

    def visit(stmts_: list[Stmt]) -> None:
        for stmt in stmts_:
            if isinstance(stmt, Assign):
                visit_expr(stmt.value)
            elif isinstance(stmt, ExprStmt):
                visit_expr(stmt.value)
            elif isinstance(stmt, Return) and stmt.value is not None:
                visit_expr(stmt.value)
            elif isinstance(stmt, If):
                visit(stmt.body)
                visit(stmt.orelse)
            elif isinstance(stmt, ForRange):
                visit(stmt.body)

    visit(stmts)
    return frozenset(found)
