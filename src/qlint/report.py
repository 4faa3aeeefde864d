"""Deterministic serialization of analysis results: text, JSON, and SARIF."""

from .analyses import RULE_IDS, RULES, Warning
from .frontend.nodes import Record, TupleRecord

TOOL_NAME = "qlint"
TOOL_VERSION = "0.1.0"
JSON_SCHEMA_VERSION = 1
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

STYLES = ("text", "json", "sarif")


class SkippedFile(TupleRecord):
    __slots__ = ()
    _fields = ("file", "line", "message")

    def __new__(cls, file: str, line: int, message: str):
        return tuple.__new__(cls, (file, line, message))


class Report(Record):
    """Merged result of analyzing a set of files."""

    __slots__ = ("files_analyzed", "files_skipped", "warnings", "tool_name", "tool_version")

    def __init__(
        self, files_analyzed: list[str], files_skipped: list[SkippedFile], warnings: list[Warning]
    ) -> None:
        self.files_analyzed, self.files_skipped = files_analyzed, files_skipped
        self.warnings = warnings
        self.tool_name, self.tool_version = TOOL_NAME, TOOL_VERSION

    def counts(self) -> dict[str, int]:
        """Warnings per rule id, always covering every rule."""
        out = dict.fromkeys(RULE_IDS, 0)
        for warning in self.warnings:
            out[warning.rule] = out.get(warning.rule, 0) + 1
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


# The JSON format's fixed shape, laid out as `json.dumps(doc, indent=2)` lays it
# out; each `{}` takes an encoded value.
_JSON_DOCUMENT = """{{
  "schema_version": {},
  "tool": {{
    "name": {},
    "version": {}
  }},
  "files_analyzed": {},
  "files_skipped": {},
  "summary": {{
{}
  }},
  "warnings": {}
}}
"""
_JSON_SKIPPED = """    {{
      "file": {},
      "line": {},
      "message": {}
    }}"""
_JSON_WARNING = """    {{
      "file": {},
      "line": {},
      "column": {},
      "end_line": {},
      "end_column": {},
      "rule": {},
      "message": {},
      "severity": {},
      "circuit": {}
    }}"""


def _json_list(items: list[str]) -> str:
    """A top-level value's list of items, each already indented."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _format_json(report: Report) -> bytes:
    """The bytes of `json.dumps(doc, indent=2, ensure_ascii=True)` and a newline.

    `json.dumps` drops to its pure-Python encoder whenever `indent` is set, so
    the fixed shape is filled in directly, with strings escaped by the C
    function `encode_basestring_ascii`. `json` is imported here, on first
    use, so that `import qlint` does not load it.
    """
    from json.encoder import encode_basestring_ascii as _quote

    files = ["    " + _quote(f) for f in report.files_analyzed]
    skipped = [
        _JSON_SKIPPED.format(_quote(s.file), s.line, _quote(s.message))
        for s in report.files_skipped
    ]
    summary = ",\n".join(f"    {_quote(rule)}: {n}" for rule, n in report.counts().items())
    warnings = [
        _JSON_WARNING.format(
            _quote(w.span.file), w.span.line, w.span.column, w.span.end_line, w.span.end_column,
            _quote(w.rule), _quote(w.message), _quote(w.severity),
            "null" if w.circuit is None else _quote(w.circuit),
        )
        for w in report.warnings
    ]
    return _JSON_DOCUMENT.format(
        JSON_SCHEMA_VERSION, _quote(report.tool_name), _quote(report.tool_version),
        _json_list(files), _json_list(skipped), summary, _json_list(warnings),
    ).encode("utf-8")


def _format_sarif(report: Report) -> bytes:
    import json

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
