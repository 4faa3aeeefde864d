"""Deterministic serialization of analysis results: text, JSON, and SARIF."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .analyses import RULE_IDS, RULES, Warning

TOOL_NAME = "qlint"
TOOL_VERSION = "0.1.0"
JSON_SCHEMA_VERSION = 1
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

STYLES = ("text", "json", "sarif")


@dataclass(frozen=True)
class SkippedFile:
    file: str
    line: int
    message: str


@dataclass
class Report:
    """Merged result of analyzing a set of files."""

    files_analyzed: list[str] = field(default_factory=list)
    files_skipped: list[SkippedFile] = field(default_factory=list)
    warnings: list[Warning] = field(default_factory=list)
    tool_name: str = TOOL_NAME
    tool_version: str = TOOL_VERSION

    def counts(self) -> dict[str, int]:
        """Warnings per rule id, always covering every rule."""
        out = {rule_id: 0 for rule_id in RULE_IDS}
        for warning in self.warnings:
            out[warning.rule] += 1
        return out


def build_report(
    files_analyzed: list[str],
    files_skipped: list[SkippedFile],
    warnings: list[Warning],
) -> Report:
    ordered = sorted(warnings, key=Warning.sort_key)
    return Report(list(files_analyzed), list(files_skipped), ordered)


def format_report(report: Report, style: str = "text") -> bytes:
    """Serialize a report; identical reports yield byte-identical output."""
    if style == "text":
        return _format_text(report)
    if style == "json":
        return _format_json(report)
    if style == "sarif":
        return _format_sarif(report)
    raise ValueError(f"unknown format style: {style!r}")


def _format_text(report: Report) -> bytes:
    lines = [
        f"{w.span.file}:{w.span.line}:{w.span.column} {w.rule} {w.message}"
        for w in report.warnings
    ]
    text = "\n".join(lines) + ("\n" if lines else "")
    return text.encode("utf-8")


def _warning_dict(w: Warning) -> dict:
    return {
        "file": w.span.file,
        "line": w.span.line,
        "column": w.span.column,
        "end_line": w.span.end_line,
        "end_column": w.span.end_column,
        "rule": w.rule,
        "message": w.message,
        "severity": w.severity,
        "circuit": w.circuit,
    }


def _format_json(report: Report) -> bytes:
    doc = {
        "schema_version": JSON_SCHEMA_VERSION,
        "tool": {"name": report.tool_name, "version": report.tool_version},
        "files_analyzed": list(report.files_analyzed),
        "files_skipped": [
            {"file": s.file, "line": s.line, "message": s.message}
            for s in report.files_skipped
        ],
        "summary": report.counts(),
        "warnings": [_warning_dict(w) for w in report.warnings],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode("utf-8")


def _format_sarif(report: Report) -> bytes:
    results = [
        {
            "ruleId": w.rule,
            "level": w.severity,
            "message": {"text": w.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": w.span.file},
                        "region": {
                            "startLine": w.span.line,
                            "startColumn": w.span.column,
                            "endLine": w.span.end_line,
                            "endColumn": w.span.end_column,
                        },
                    }
                }
            ],
        }
        for w in report.warnings
    ]
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": report.tool_name,
                        "version": report.tool_version,
                        "informationUri": "https://example.invalid/qlint",
                        "rules": [
                            {
                                "id": rule.id,
                                "shortDescription": {"text": rule.summary},
                            }
                            for rule in RULES
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode("utf-8")


def parse_json_report(data: bytes) -> dict:
    """Parse the JSON format back into a plain dictionary."""
    return json.loads(data.decode("utf-8"))


def corpus_stats(reports: list[Report]) -> str:
    """Per-rule totals and the share of analyzed files with at least one hit.

    Returns CSV text with one row per rule; an empty corpus is an error.
    """
    files: set[str] = set()
    for report in reports:
        files.update(report.files_analyzed)
    if not files:
        raise ValueError("corpus_stats requires at least one analyzed file")
    totals = {rule_id: 0 for rule_id in RULE_IDS}
    files_hit: dict[str, set[str]] = {rule_id: set() for rule_id in RULE_IDS}
    for report in reports:
        for warning in report.warnings:
            totals[warning.rule] += 1
            files_hit[warning.rule].add(warning.span.file)
    lines = ["analysis,total_warnings,pct_files"]
    for rule_id in RULE_IDS:
        pct = 100.0 * len(files_hit[rule_id]) / len(files)
        lines.append(f"{rule_id},{totals[rule_id]},{pct:.1f}")
    return "\n".join(lines) + "\n"
