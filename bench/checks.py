"""Correctness pass: every workload's outputs against independent references.

Labeled cases are checked against their labels, flow facts against the
reference interpreter in `tests/oracle.py`. A failing file is recorded with
its first reason and the pass moves on to the next file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from oracle import trace_program
from workloads import InputFile, assign_flags, flag_assignments

from qlint import Config, analyze_pipeline

Pair = tuple[tuple[str, int], int, int]  # ((register name, index), earlier line, later line)


@dataclass
class Verdicts:
    failures: dict[str, str] = field(default_factory=dict)
    # (file, relation, qubit, line): an event in a kept loop that the oracle
    # saw follow itself and the analyzer did not (a known defect).
    self_pairs_missed: set[tuple[str, str, tuple[str, int], int]] = field(default_factory=set)

    def fail(self, path: str, reason: str) -> None:
        self.failures.setdefault(path, reason)


def raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"[:200]


def check_outcomes(outcomes, inputs: dict[str, InputFile], verdicts: Verdicts) -> None:
    """Skipped files fail; labeled cases must match their labels."""
    for outcome in outcomes:
        if outcome.skipped is not None:
            verdicts.fail(outcome.path, f"skipped: {outcome.skipped.message}")
            continue
        case = inputs[outcome.path].case
        if case is None:
            continue
        lines = {w.span.line for w in outcome.warnings if w.rule == case.rule}
        if case.buggy and case.line not in lines:
            verdicts.fail(outcome.path, f"{case.rule} missed at line {case.line}")
        if not case.buggy and lines:
            verdicts.fail(outcome.path, f"{case.rule} fired on a clean twin")


def _named_pairs(source: str, path: str, config: Config) -> tuple[set[Pair], set[Pair]]:
    result = analyze_pipeline(source, path, config)
    names = {rid: r.display_name() for rid, r in result.ir.registers.items()}
    lines = {e.id: e.span.line for e in result.ir.events}

    def named(pairs) -> set[Pair]:
        return {((names[k[1]], k[2]), lines[a], lines[b]) for a, b, k in pairs}

    return named(result.flow.may_follow_pairs), named(result.flow.directly_pairs)


def check_flow(path: str, item: InputFile, config: Config, seed: int, verdicts: Verdicts) -> None:
    """Branch-free files: pairs equal the oracle's. Others: pairs include them."""
    if item.kind == "case":
        return
    try:
        may_follow, directly = _named_pairs(item.source, path, config)
    except Exception as exc:  # a crash fails this file only
        verdicts.fail(path, raised(exc))
        return
    if item.kind == "straight":
        trace = trace_program(item.source)
        if may_follow != trace.may_follow():
            verdicts.fail(path, "may_follow pairs differ from the oracle")
        elif directly != trace.may_follow_directly():
            verdicts.fail(path, "directly pairs differ from the oracle")
        return
    for values in flag_assignments(item, seed):
        trace = trace_program(assign_flags(item.source, values))
        for relation, ours, traced in (
            ("may_follow", may_follow, trace.may_follow()),
            ("directly", directly, trace.may_follow_directly()),
        ):
            for qubit, earlier, later in sorted(traced - ours):
                if earlier == later:
                    verdicts.self_pairs_missed.add((path, relation, qubit, earlier))
                else:
                    verdicts.fail(
                        path, f"{relation} misses {qubit} {earlier}->{later} under flags {values}"
                    )
