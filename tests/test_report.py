"""Report serialization: text, JSON round-trip, SARIF, corpus statistics."""

from __future__ import annotations

import json

import pytest
from conftest import sample_source
from hypothesis import given, settings
from hypothesis import strategies as st

from qlint import Config, analyze_source
from qlint.analyses import ALL_RULES, RULE_IDS, Warning
from qlint.frontend.nodes import SourceSpan
from qlint.driver import report_of
from qlint.report import (
    Report,
    SkippedFile,
    build_report,
    corpus_stats,
    format_report,
)

_CONFIG = Config(rules=ALL_RULES)


def _report_for(*names: str) -> Report:
    outcomes = [
        analyze_source(sample_source(name), f"{name}.py", _CONFIG) for name in names
    ]
    return report_of(outcomes)


class TestTextFormat:
    def test_two_bug_demo_lines(self):
        text = format_report(_report_for("two_bugs"), "text").decode()
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("two_bugs.py:5:")
        assert "oversized-circuit" in lines[0]
        assert lines[1].startswith("two_bugs.py:10:")
        assert "op-after-meas" in lines[1]

    def test_line_shape(self):
        text = format_report(_report_for("redundant_measure"), "text").decode()
        location, rule, message = text.strip().split(" ", 2)
        assert location.split(":")[0] == "redundant_measure.py"
        assert location.split(":")[1] == "6"
        assert rule == "double-meas"
        assert message

    def test_empty_report_has_no_output(self):
        report = build_report(["clean.py"], [], [])
        assert format_report(report, "text") == b""


class TestJsonFormat:
    def test_round_trip_preserves_warning_fields(self):
        report = _report_for("two_bugs")
        doc = json.loads(format_report(report, "json"))
        assert doc["schema_version"] == 1
        assert doc["tool"]["name"] == "qlint"
        assert len(doc["warnings"]) == len(report.warnings)
        for got, want in zip(doc["warnings"], report.warnings):
            assert got["file"] == want.span.file
            assert got["line"] == want.span.line
            assert got["column"] == want.span.column
            assert got["end_line"] == want.span.end_line
            assert got["end_column"] == want.span.end_column
            assert got["rule"] == want.rule
            assert got["message"] == want.message
            assert got["severity"] == want.severity
            assert got["circuit"] == want.circuit

    def test_empty_report_zero_counts(self):
        report = build_report(["clean.py"], [], [])
        doc = json.loads(format_report(report, "json"))
        assert doc["warnings"] == []
        assert set(doc["summary"]) == set(RULE_IDS)
        assert all(v == 0 for v in doc["summary"].values())

    def test_summary_matches_listed_warnings(self):
        report = _report_for("two_bugs", "redundant_measure", "dropped_compose")
        doc = json.loads(format_report(report, "json"))
        assert sum(doc["summary"].values()) == len(doc["warnings"])

    def test_skipped_files_are_reported(self):
        report = build_report([], [SkippedFile("bad.py", 3, "invalid syntax")], [])
        doc = json.loads(format_report(report, "json"))
        assert doc["files_skipped"] == [
            {"file": "bad.py", "line": 3, "message": "invalid syntax"}
        ]

    def test_byte_identical_reformat(self):
        report = _report_for("two_bugs", "gate_after_measure")
        for style in ("text", "json", "sarif"):
            assert format_report(report, style) == format_report(report, style)


# Text that JSON must escape: quotes, backslashes, control characters, lone
# surrogates and non-ASCII characters inside and outside the BMP.
_TEXT = st.text(
    st.one_of(
        st.characters(codec=None, exclude_categories=()),
        st.sampled_from(
            ['"', "\\", "\x00", "\x1f", "\x7f", "\ud800", "\udfff", "\u2028", "\U0001d11e"]
        ),
    ),
    max_size=8,
)
_INT = st.integers(min_value=-(2**40), max_value=2**40)
_WARNING = st.builds(
    Warning,
    rule=st.one_of(st.sampled_from(RULE_IDS), _TEXT),
    span=st.builds(SourceSpan, _TEXT, _INT, _INT, _INT, _INT),
    message=_TEXT,
    circuit=st.one_of(st.none(), _TEXT),
    severity=_TEXT,
)
_REPORT = st.builds(
    Report,
    st.lists(_TEXT, max_size=3),
    st.lists(st.builds(SkippedFile, _TEXT, _INT, _TEXT), max_size=3),
    st.lists(_WARNING, max_size=4),
)


def _dumps(report: Report) -> bytes:
    """The JSON format as `json.dumps` writes the documented shape."""
    doc = {
        "schema_version": 1,
        "tool": {"name": report.tool_name, "version": report.tool_version},
        "files_analyzed": report.files_analyzed,
        "files_skipped": [
            {"file": s.file, "line": s.line, "message": s.message} for s in report.files_skipped
        ],
        "summary": report.counts(),
        "warnings": [
            {
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
            for w in report.warnings
        ],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode("utf-8")


class TestJsonWriter:
    """The hand-written JSON writer against `json.dumps(indent=2)`."""

    @settings(derandomize=True, deadline=None)
    @given(_REPORT)
    def test_bytes_equal_json_dumps(self, report):
        assert format_report(report, "json") == _dumps(report)

    def test_bytes_equal_json_dumps_on_samples(self):
        report = _report_for("two_bugs", "redundant_measure", "dropped_compose")
        assert format_report(report, "json") == _dumps(report)


class TestSarifFormat:
    def test_document_shape(self):
        doc = json.loads(format_report(_report_for("two_bugs"), "sarif"))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == list(RULE_IDS)
        assert len(run["results"]) == 2
        result = run["results"][0]
        assert result["ruleId"] == "oversized-circuit"
        assert result["level"] == "warning"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "two_bugs.py"
        assert location["region"]["startLine"] == 5

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            format_report(_report_for("two_bugs"), "yaml")


class TestCorpusStats:
    def test_two_file_arithmetic(self):
        buggy = analyze_source(
            "qc = QuantumCircuit(1, 1)\nqc.h(0)\nqc.measure(0, 0)\nqc.measure(0, 0)\n",
            "a.py",
            _CONFIG,
        )
        clean = analyze_source("qc = QuantumCircuit(1, 1)\n", "b.py", _CONFIG)
        csv_text = corpus_stats([report_of([buggy]), report_of([clean])])
        rows = dict(
            (line.split(",")[0], line.split(",")[1:])
            for line in csv_text.strip().splitlines()[1:]
        )
        assert rows["double-meas"] == ["1", "50.0"]
        assert rows["ghost-compose"] == ["0", "0.0"]

    def test_percentages_in_range_and_over_analyzed_files_only(self):
        reports = [
            report_of([analyze_source(sample_source(n), f"{n}.py", _CONFIG)])
            for n in ("two_bugs", "redundant_measure", "measure_all_extra")
        ]
        skipped = report_of(
            [analyze_source("def broken(:\n", "broken.py", _CONFIG)]
        )
        csv_text = corpus_stats(reports + [skipped])
        for line in csv_text.strip().splitlines()[1:]:
            pct = float(line.split(",")[2])
            assert 0.0 <= pct <= 100.0
        # Three analyzed files; the skipped one must not affect denominators.
        assert "op-after-meas,1,33.3" in csv_text

    def test_samples_golden_table(self):
        # Totals hand-counted from the per-sample expectations.
        names = ("two_bugs", "multi_register", "redundant_measure", "gate_after_measure", "measure_all_extra", "repeated_not", "dropped_compose")
        reports = [
            report_of([analyze_source(sample_source(n), f"{n}.py", _CONFIG)])
            for n in names
        ]
        csv_text = corpus_stats(reports)
        rows = {
            line.split(",")[0]: (line.split(",")[1], line.split(",")[2])
            for line in csv_text.strip().splitlines()[1:]
        }
        assert rows["double-meas"] == ("2", "28.6")
        assert rows["op-after-meas"] == ("2", "28.6")
        assert rows["meas-all-abuse"] == ("1", "14.3")
        assert rows["oversized-circuit"] == ("1", "14.3")
        assert rows["ghost-compose"] == ("1", "14.3")
        assert rows["insuff-clas-reg"] == ("1", "14.3")
        assert rows["cond-wo-meas"] == ("0", "0.0")
        assert rows["const-clas-bit"] == ("0", "0.0")
        assert rows["op-after-transp"] == ("0", "0.0")
        assert rows["old-iden-gate"] == ("0", "0.0")

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(ValueError):
            corpus_stats([])
