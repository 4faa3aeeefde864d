"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion verdicts;
add `-s` to also see the printed summaries.
"""

from __future__ import annotations

import json
import time

from conftest import sample_path, sample_source, warnings_for
from corpus_defs import CASES
from genprog import branch_free, loop_pair
from oracle import trace_program

from qlint import Config, analyze_paths, analyze_pipeline
from qlint.analyses import DEFAULT_PROFILE, RULE_IDS
from qlint.cli import run
from qlint.driver import report_of
from qlint.report import format_report

_ALL = Config(rules=frozenset(RULE_IDS))

N_GENERATED = 220  # criterion asks for at least 200


def _passed(label: str) -> None:
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_sample_regression():
    """Sample corpus yields exactly the documented warnings; fixes are clean."""
    started = time.perf_counter()

    two_bugs = warnings_for(sample_source("two_bugs"), "two_bugs.py")
    assert {(w.rule, w.span.line) for w in two_bugs} == {
        ("oversized-circuit", 5),
        ("op-after-meas", 10),
    }

    def only(rule: str, source: str):
        hits = [w for w in warnings_for(source) if w.rule == rule]
        assert len(hits) == 1
        return hits[0]

    assert only("double-meas", sample_source("redundant_measure")).span.line == 6
    assert only("op-after-meas", sample_source("gate_after_measure")).span.line == 6
    assert only("meas-all-abuse", sample_source("measure_all_extra")).span.line == 5
    assert only("ghost-compose", sample_source("dropped_compose")).span.line == 10
    assert only("double-meas", sample_source("repeated_not")).span.line == 12

    fixed_twins = {
        "two_bugs_fixed": ("oversized-circuit", "op-after-meas"),
        "redundant_measure_fixed": ("double-meas",),
        "gate_after_measure_fixed": ("op-after-meas",),
        "measure_all_extra_fixed": ("meas-all-abuse",),
        "repeated_not_fixed": ("double-meas",),
        "dropped_compose_fixed": ("ghost-compose",),
    }
    for name, rules in fixed_twins.items():
        warnings = warnings_for(sample_source(name), f"{name}.py")
        for rule in rules:
            assert all(w.rule != rule for w in warnings), (name, rule)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"sample regression took {elapsed:.2f}s"
    _passed("1 sample-regression")


def test_criterion_2_default_profile(capsys):
    """With no flags exactly the six precise rules are active."""
    expected = {
        "double-meas",
        "op-after-meas",
        "meas-all-abuse",
        "cond-wo-meas",
        "ghost-compose",
        "op-after-transp",
    }
    assert DEFAULT_PROFILE == expected

    assert run(["rules"]) == 0
    out = capsys.readouterr().out
    marked = {line.split()[0] for line in out.splitlines() if "[default]" in line}
    assert marked == expected

    code = run(["check", sample_path("two_bugs")])
    out = capsys.readouterr().out
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 1 and "op-after-meas" in lines[0]
    _passed("2 default-profile")


def test_criterion_3_oracle_equivalence():
    """Flow relations equal the reference interpreter's on generated programs."""
    started = time.perf_counter()
    mismatches = 0
    for seed in range(N_GENERATED):
        program = branch_free(seed)
        trace = trace_program(program.source)
        result = analyze_pipeline(program.source, f"gen{seed}.py", _ALL)
        names = {rid: r.display_name() for rid, r in result.ir.registers.items()}
        lines = {e.id: e.span.line for e in result.ir.events}

        def named(pairs):
            return {((names[k[1]], k[2]), lines[a], lines[b]) for a, b, k in pairs}

        if named(result.flow.may_follow_pairs) != trace.may_follow():
            mismatches += 1
        if named(result.flow.directly_pairs) != trace.may_follow_directly():
            mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.2f}s"
    _passed(f"3 oracle-equivalence ({N_GENERATED} programs, {elapsed:.2f}s)")


def test_criterion_4_loop_unrolling_soundness():
    """Loop-wrapped programs warn exactly like their manual expansions."""
    mismatches = 0
    for seed in range(1000, 1000 + N_GENERATED):
        looped, expanded = loop_pair(seed)
        looped_warnings = {
            (w.rule, w.message) for w in warnings_for(looped, "looped.py")
        }
        expanded_warnings = {
            (w.rule, w.message) for w in warnings_for(expanded, "expanded.py")
        }
        if looped_warnings != expanded_warnings:
            mismatches += 1
    assert mismatches == 0
    _passed(f"4 loop-unrolling-soundness ({N_GENERATED} pairs)")


def test_criterion_5_determinism_and_parallel_equivalence(
    synthetic_corpus_dir, capsysbinary
):
    """Repeated runs, and runs over the files in reverse order, produce
    byte-identical JSON reports."""
    argv = ["check", str(synthetic_corpus_dir), "--profile", "all", "--format", "json"]
    run(argv)
    first = capsysbinary.readouterr().out
    run(argv)
    second = capsysbinary.readouterr().out
    files = sorted(str(path) for path in synthetic_corpus_dir.rglob("*.py"))
    run(["check", *reversed(files), "--profile", "all", "--format", "json"])
    reordered = capsysbinary.readouterr().out
    assert first == second
    assert first == reordered
    assert json.loads(first.decode("utf-8"))["files_analyzed"]
    _passed("5 determinism-and-parallel-equivalence")


def test_criterion_6_throughput(synthetic_corpus_dir):
    """The full pipeline clears the 200-file corpus well under the bound."""
    paths = sorted(str(p) for p in synthetic_corpus_dir.glob("*.py"))
    assert len(paths) >= 200
    started = time.perf_counter()
    outcomes = analyze_paths(paths, _ALL)
    report = report_of(outcomes)
    format_report(report, "json")
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"200-file corpus took {elapsed:.2f}s"
    _passed(f"6 throughput ({len(paths)} files in {elapsed:.2f}s)")


def test_criterion_7_labeled_corpus_substitute():
    """Every rule catches all its seeded bugs and stays quiet on clean twins."""
    per_rule = {rule: {"bug": 0, "clean": 0} for rule in RULE_IDS}
    for case in CASES:
        warnings = warnings_for(case.source, "case.py")
        hits = [w for w in warnings if w.rule == case.rule]
        if case.buggy:
            assert hits, f"{case.rule}/{case.name} not detected"
            per_rule[case.rule]["bug"] += 1
        else:
            assert not hits, f"{case.rule}/{case.name} got a false warning"
            per_rule[case.rule]["clean"] += 1
    for rule, counts in per_rule.items():
        assert counts["bug"] >= 6 and counts["clean"] >= 6, rule
    assert len(CASES) >= 120
    _passed(f"7 labeled-corpus ({len(CASES)} files, 100% detection, 0 false)")
