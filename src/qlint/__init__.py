"""qlint: static analysis for Qiskit-based quantum programs.

The pipeline lifts source files into quantum abstractions (registers,
circuits, operator events, per-qubit data flow) and runs rule-based analyses
over them. See the `cli` module for the command-line entry point.
"""

from .analyses import ALL_RULES, DEFAULT_PROFILE, RULE_IDS, Warning, run_all
from .driver import (
    Config,
    FileOutcome,
    analyze_paths,
    analyze_pipeline,
    analyze_source,
    report_of,
    suppress,
)
from .report import TOOL_VERSION as __version__
from .report import Report, corpus_stats, format_report

__all__ = [
    "ALL_RULES",
    "Config",
    "DEFAULT_PROFILE",
    "FileOutcome",
    "RULE_IDS",
    "Report",
    "Warning",
    "analyze_paths",
    "analyze_pipeline",
    "analyze_source",
    "corpus_stats",
    "format_report",
    "report_of",
    "run_all",
    "suppress",
    "__version__",
]
