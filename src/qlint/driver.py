"""Per-file analysis pipeline and multi-file orchestration."""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .analyses import ALL_RULES, Warning, run_all
from .frontend import (
    DEFAULT_MAX_UNROLL,
    ParseError,
    build_cfg,
    parse_file,
    propagate_constants,
    unroll_loops,
)
from .qflow import FlowRelation, build_flow
from .qir import GateTable, QuantumIR, extract, load_gate_table
from .report import Report, SkippedFile, build_report

_SUPPRESS_RE = re.compile(r"#\s*qlint:\s*ignore(?:\[([a-z0-9\-, ]*)\])?\s*$")


@dataclass(frozen=True)
class Config:
    """Per-run analysis settings; read-only once the run starts."""

    rules: frozenset[str] = ALL_RULES
    max_unroll: int = DEFAULT_MAX_UNROLL
    gate_table: GateTable | None = None
    jobs: int = 1
    dump_timelines: bool = False


@dataclass
class FileOutcome:
    """Result of analyzing (or skipping) one file."""

    path: str
    warnings: list[Warning] = field(default_factory=list)
    skipped: SkippedFile | None = None
    timeline_dump: str | None = None


@dataclass
class PipelineResult:
    """Intermediate products of the per-file pipeline, for library callers."""

    ir: QuantumIR
    flow: FlowRelation
    warnings: list[Warning]


def analyze_pipeline(source: str, path: str, config: Config | None = None) -> PipelineResult:
    """Run parse -> unroll (with constants) -> cfg -> extract -> flow -> rules."""
    cfg_options = config or Config()
    tree = parse_file(source, path)
    tree = unroll_loops(tree, cfg_options.max_unroll)
    env = propagate_constants(tree)
    graph = build_cfg(tree)
    table = cfg_options.gate_table or load_gate_table()
    ir = extract(tree, env, graph, table)
    flow = build_flow(ir, graph)
    warnings = run_all(ir, flow, cfg_options.rules)
    return PipelineResult(ir, flow, warnings)


def suppress(warnings: list[Warning], source: str) -> list[Warning]:
    """Drop warnings whose line carries a matching trailing ignore comment."""
    lines = source.splitlines()
    kept = []
    for warning in warnings:
        if 1 <= warning.span.line <= len(lines):
            match = _SUPPRESS_RE.search(lines[warning.span.line - 1])
            if match is not None:
                listed = match.group(1)
                if listed is None:
                    continue
                rules = {r.strip() for r in listed.split(",") if r.strip()}
                if warning.rule in rules:
                    continue
        kept.append(warning)
    return kept


def analyze_source(source: str, path: str, config: Config | None = None) -> FileOutcome:
    """Analyze one file's text, honoring suppression comments."""
    cfg_options = config or Config()
    try:
        result = analyze_pipeline(source, path, cfg_options)
    except ParseError as exc:
        return FileOutcome(path, skipped=SkippedFile(path, exc.line, exc.message))
    outcome = FileOutcome(path, suppress(result.warnings, source))
    if cfg_options.dump_timelines:
        outcome.timeline_dump = result.flow.dump_timelines()
    return outcome


def _analyze_path(path: str, config: Config) -> FileOutcome:
    try:
        source = Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FileNotFoundError(f"cannot read {path}: {exc}") from exc
    return analyze_source(source, path, config)


def expand_paths(paths: list[str]) -> list[str]:
    """Expand files and directories into a sorted list of .py files."""
    out: set[str] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.update(str(f) for f in p.rglob("*.py"))
        elif p.exists():
            out.add(str(p))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(out)


def analyze_paths(paths: list[str], config: Config | None = None) -> list[FileOutcome]:
    """Analyze files (in sorted path order), optionally concurrently."""
    cfg_options = config or Config()
    ordered = sorted(paths)
    if cfg_options.jobs > 1 and len(ordered) > 1:
        with ThreadPoolExecutor(max_workers=cfg_options.jobs) as pool:
            outcomes = list(pool.map(lambda p: _analyze_path(p, cfg_options), ordered))
        return outcomes
    return [_analyze_path(p, cfg_options) for p in ordered]


def report_of(outcomes: list[FileOutcome]) -> Report:
    """Merge per-file outcomes into one deterministic report."""
    analyzed = [o.path for o in outcomes if o.skipped is None]
    skipped = [o.skipped for o in outcomes if o.skipped is not None]
    warnings: list[Warning] = []
    for outcome in outcomes:
        warnings.extend(outcome.warnings)
    return build_report(analyzed, skipped, warnings)
