"""Rule catalog and the merged runner."""

from collections.abc import Callable, Iterable
from operator import attrgetter

from ..frontend.nodes import TupleRecord
from ..qflow import FlowRelation
from ..qir.model import QuantumIR
from .rules import (
    Warning,
    run_cond_wo_meas,
    run_const_clas_bit,
    run_double_meas,
    run_ghost_compose,
    run_insuff_clas_reg,
    run_meas_all_abuse,
    run_old_iden_gate,
    run_op_after_meas,
    run_op_after_transp,
    run_oversized_circuit,
)

RuleFn = Callable[[QuantumIR, FlowRelation], list[Warning]]


class Rule(TupleRecord):
    __slots__ = ()
    _fields = ("id", "summary", "run", "default")

    def __new__(cls, id: str, summary: str, run: RuleFn, default: bool):
        return tuple.__new__(cls, (id, summary, run, default))


RULES: tuple[Rule, ...] = (
    Rule("double-meas", "Two measurements read the same qubit one after the other",
         run_double_meas, default=True),
    Rule("op-after-meas", "A gate operates on a qubit after it has been measured",
         run_op_after_meas, default=True),
    Rule("meas-all-abuse", "measure_all() adds a new register although classical bits exist",
         run_meas_all_abuse, default=True),
    Rule("cond-wo-meas", "Conditional gate without a measurement feeding its condition",
         run_cond_wo_meas, default=True),
    Rule("const-clas-bit", "A qubit is measured but was never transformed",
         run_const_clas_bit, default=False),
    Rule("insuff-clas-reg", "Classical bits do not suffice to measure the qubits used",
         run_insuff_clas_reg, default=False),
    Rule("oversized-circuit", "The circuit allocates qubits it never uses",
         run_oversized_circuit, default=False),
    Rule("ghost-compose", "compose() result is dropped, so nothing is composed",
         run_ghost_compose, default=True),
    Rule("op-after-transp", "An operator is added after transpilation at optimization level 3",
         run_op_after_transp, default=True),
    Rule("old-iden-gate", "The removed iden() identity-gate API is used",
         run_old_iden_gate, default=False),
)

RULE_IDS: tuple[str, ...] = tuple(rule.id for rule in RULES)
DEFAULT_PROFILE: frozenset[str] = frozenset(r.id for r in RULES if r.default)
ALL_RULES: frozenset[str] = frozenset(RULE_IDS)
# `Warning.sort_key` without the file, which is the same for every warning of one IR.
_position = attrgetter("span.line", "span.column", "rule")


def run_all(
    ir: QuantumIR, flow: FlowRelation, enabled: Iterable[str] | None = None
) -> list[Warning]:
    """Run the enabled rules, deduplicate by (rule, span), sort by position."""
    rule_ids = ALL_RULES if enabled is None else frozenset(enabled)
    if not rule_ids <= ALL_RULES:
        raise ValueError(f"unknown rule ids: {sorted(rule_ids - ALL_RULES)}")
    merged: list[Warning] = []
    seen: set[tuple[str, int, int, str]] = set()
    for rule in RULES:
        if rule.id not in rule_ids:
            continue
        for warning in rule.run(ir, flow):
            # Dedup collapses repeats of one finding (for example from loop
            # iterations); distinct messages at one span are distinct findings.
            # Every span is in the file of `ir`, so the key leaves the file out.
            span = warning.span
            dedup_key = (warning.rule, span.line, span.column, warning.message)
            if dedup_key in seen:
                continue
            seen.add(dedup_key)
            merged.append(warning)
    merged.sort(key=_position)
    return merged


__all__ = [
    "ALL_RULES",
    "DEFAULT_PROFILE",
    "RULES",
    "RULE_IDS",
    "Rule",
    "Warning",
    "run_all",
]
