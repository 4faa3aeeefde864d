"""Command-line driver: check files, summarize a corpus, list the rules."""

import argparse
import sys

from .analyses import ALL_RULES, DEFAULT_PROFILE, RULES
from .driver import Config, FileOutcome, analyze_paths, expand_paths, report_of
from .qir import DEFAULT_MAX_UNROLL
from .qir import GateTableError, load_gate_table
from .report import STYLES, corpus_stats, format_report

EXIT_CLEAN = 0
EXIT_WARNINGS = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlint", description="Static analysis for Qiskit-based quantum programs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="analyze files and print warnings")
    check.add_argument("paths", nargs="+", help="files or directories to analyze")
    _add_analysis_flags(check)
    check.add_argument(
        "--format", choices=STYLES, default="text", help="output format"
    )
    check.add_argument(
        "--dump-timelines",
        action="store_true",
        help="print per-qubit event timelines for inspection",
    )

    corpus = sub.add_parser("corpus", help="analyze a directory and emit statistics")
    corpus.add_argument("directory", help="directory of .py files")
    _add_analysis_flags(corpus)
    corpus.add_argument("--stats", metavar="OUT.csv", help="write per-rule CSV here")

    sub.add_parser("rules", help="list the rule catalog")
    return parser


def _add_analysis_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        choices=("default", "all"),
        default="default",
        help="base rule set (default: the six precise rules)",
    )
    parser.add_argument("--select", metavar="IDS", help="comma-separated rules to add")
    parser.add_argument("--disable", metavar="IDS", help="comma-separated rules to drop")
    parser.add_argument(
        "--max-unroll",
        type=int,
        default=DEFAULT_MAX_UNROLL,
        metavar="N",
        help="largest loop trip count that still gets unrolled",
    )
    parser.add_argument(
        "--gate-spec", metavar="FILE", help="override the bundled gate signature table"
    )


def _parse_rule_list(raw: str | None) -> set[str]:
    if not raw:
        return set()
    return {part.strip() for part in raw.split(",") if part.strip()}


def _effective_rules(args: argparse.Namespace) -> frozenset[str]:
    selected = _parse_rule_list(args.select)
    disabled = _parse_rule_list(args.disable)
    unknown = (selected | disabled) - ALL_RULES
    if unknown:
        raise _UsageError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    overlap = selected & disabled
    if overlap:
        raise _UsageError(
            f"rule id(s) both selected and disabled: {', '.join(sorted(overlap))}"
        )
    base = ALL_RULES if args.profile == "all" else DEFAULT_PROFILE
    return frozenset((base | selected) - disabled)


class _UsageError(Exception):
    pass


def _make_config(args: argparse.Namespace) -> Config:
    gate_table = None
    if args.gate_spec:
        try:
            gate_table = load_gate_table(args.gate_spec)
        except (OSError, GateTableError) as exc:
            raise _UsageError(f"cannot load gate table: {exc}") from exc
    if args.max_unroll < 1:
        raise _UsageError("--max-unroll must be at least 1")
    return Config(
        rules=_effective_rules(args),
        max_unroll=args.max_unroll,
        gate_table=gate_table,
        dump_timelines=getattr(args, "dump_timelines", False),
    )


def _analyze_each(files: list[str], config: Config) -> list[FileOutcome]:
    """Analyze file by file: an exception inside qlint is that file's outcome alone."""
    outcomes = []
    for path in files:
        try:
            outcomes += analyze_paths([path], config)
        except Exception as exc:  # the last resort; reported as a tool error, exit 2
            message = f"{path}: internal error: {type(exc).__name__}: {exc}"
            outcomes.append(FileOutcome(path, unreadable=message))
    return outcomes


def _cmd_check(args: argparse.Namespace) -> int:
    config = _make_config(args)
    outcomes = _analyze_each(expand_paths(args.paths), config)
    for outcome in outcomes:
        if outcome.skipped is not None:
            sys.stderr.write(
                f"qlint: skipped {outcome.path}: syntax error at line "
                f"{outcome.skipped.line}: {outcome.skipped.message}\n"
            )
    if config.dump_timelines:
        for outcome in outcomes:
            if outcome.timeline_dump:
                sys.stdout.write(f"# timelines: {outcome.path}\n")
                sys.stdout.write(outcome.timeline_dump)
    report = report_of(outcomes)
    sys.stdout.buffer.write(format_report(report, args.format))
    sys.stdout.buffer.flush()
    return _exit_code(outcomes, bool(report.warnings))


def _cmd_corpus(args: argparse.Namespace) -> int:
    config = _make_config(args)
    outcomes = _analyze_each(expand_paths([args.directory]), config)
    reports = [report_of([o]) for o in outcomes]
    analyzed = [r for r in reports if r.files_analyzed]
    csv_text = corpus_stats(analyzed)
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    total = sum(len(r.warnings) for r in analyzed)
    sys.stderr.write(
        f"qlint: analyzed {sum(len(r.files_analyzed) for r in analyzed)} files, "
        f"{total} warnings\n"
    )
    return _exit_code(outcomes, total > 0)


def _exit_code(outcomes: list[FileOutcome], warned: bool) -> int:
    """EXIT_ERROR, naming on stderr each file not read or not analyzed; else by warnings."""
    unreadable = [o.unreadable for o in outcomes if o.unreadable is not None]
    for message in unreadable:
        sys.stderr.write(f"qlint: error: {message}\n")
    if unreadable:
        return EXIT_ERROR
    return EXIT_WARNINGS if warned else EXIT_CLEAN


def _cmd_rules() -> int:
    for rule in RULES:
        marker = "[default]" if rule.id in DEFAULT_PROFILE else "         "
        sys.stdout.write(f"{rule.id:<18} {marker} {rule.summary}\n")
    return EXIT_CLEAN


def run(argv: list[str]) -> int:
    """Run the CLI; returns the process exit code (0/1/2)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_CLEAN
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
        if args.command == "rules":
            return _cmd_rules()
    except (_UsageError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"qlint: error: {exc}\n")
        return EXIT_ERROR
    return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()


__all__ = ["main", "run", "EXIT_CLEAN", "EXIT_WARNINGS", "EXIT_ERROR"]
