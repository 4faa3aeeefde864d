"""Per-file analysis pipeline and multi-file orchestration."""

import gc
from functools import cache

from .analyses import ALL_RULES, Warning, run_all
from .frontend import ParseError, parse_file, source_lines
from .frontend.nodes import ModuleAst, Record, TupleRecord
from .qflow import FlowRelation, build_flow
from .qir import DEFAULT_MAX_UNROLL, GateTable, QuantumIR, extract, load_gate_table
from .report import Report, SkippedFile, build_report


def __getattr__(name: str):
    """Import `ThreadPoolExecutor` on first access (PEP 562), not in `import qlint`.

    The analysis does not use it; bench/tracing.py subclasses it and then
    reads it back from the module's namespace, where it is stored.
    """
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor

        globals()[name] = ThreadPoolExecutor
        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def propagate_constants(tree: ModuleAst) -> None:
    """Unused, and does nothing; kept, like `ThreadPoolExecutor` and the two
    names below, only because bench/tracing.py wraps them. `extract` unrolls
    loops, folds constants and builds the CFG in its one walk."""


unroll_loops = build_cfg = propagate_constants


# The three patterns are compiled on first use, behind guards that most files
# fail; `re` is imported there too, so `import qlint` does not load it.
@cache
def _suppress_re() -> "re.Pattern[str]":
    import re

    return re.compile(r"#\s*qlint:\s*ignore(?:\[([a-z0-9\-, ]*)\])?\s*$")


@cache
def _cookie_re() -> "re.Pattern[bytes]":
    """PEP 263: a coding cookie on line 1, or on line 2 when line 1 is blank or a comment."""
    import re

    return re.compile(rb"(?:[ \t\f]*(?:#[^\r\n]*)?\r?\n)??[ \t\f]*#.*?coding[:=][ \t]*([-\w.]+)")


@cache
def _line_end_re() -> "re.Pattern[bytes]":
    import re

    return re.compile(rb"\r\n?|\n")


class Config(TupleRecord):
    """Per-run analysis settings; read-only once the run starts.

    Only `bench/run.py` reads `jobs`; qlint analyzes files serially.
    """

    __slots__ = ()
    _fields = ("rules", "max_unroll", "gate_table", "jobs", "dump_timelines")

    def __new__(
        cls, rules: frozenset[str] = ALL_RULES, max_unroll: int = DEFAULT_MAX_UNROLL,
        gate_table: GateTable | None = None, jobs: int = 1, dump_timelines: bool = False,
    ):
        return tuple.__new__(cls, (rules, max_unroll, gate_table, jobs, dump_timelines))


class FileOutcome(Record):
    """Result of analyzing (or skipping) one file."""

    __slots__ = ("path", "warnings", "skipped", "timeline_dump", "unreadable")

    def __init__(
        self, path: str, warnings: list[Warning] | None = None, skipped: SkippedFile | None = None,
        unreadable: str | None = None,
    ) -> None:
        self.path = path
        self.warnings = [] if warnings is None else warnings
        self.skipped = skipped
        self.timeline_dump: str | None = None
        self.unreadable = unreadable  # why the file was not read (or analyzed); not in reports


class PipelineResult(TupleRecord):
    """Intermediate products of the per-file pipeline, for library callers."""

    __slots__ = ()
    _fields = ("ir", "flow", "warnings")

    def __new__(cls, ir: QuantumIR, flow: FlowRelation, warnings: list[Warning]):
        return tuple.__new__(cls, (ir, flow, warnings))


def analyze_pipeline(source: str, path: str, config: Config | None = None) -> PipelineResult:
    """Run parse -> extract (loops, constants and CFG included) -> flow -> rules."""
    cfg_options = config or Config()
    tree = parse_file(source, path)
    table = cfg_options.gate_table or load_gate_table()
    ir = extract(tree, table, cfg_options.max_unroll)
    flow = build_flow(ir)
    warnings = run_all(ir, flow, cfg_options.rules)
    return PipelineResult(ir, flow, warnings)


def suppress(warnings: list[Warning], source: str) -> list[Warning]:
    """Drop warnings whose line carries a matching trailing ignore comment."""
    if not warnings or "qlint" not in source:
        return warnings  # no line can carry the comment
    lines = source_lines(source)
    kept = []
    for warning in warnings:
        if 1 <= warning.span.line <= len(lines):
            match = _suppress_re().search(lines[warning.span.line - 1])
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
    """Analyze one file's text, honoring suppression comments.

    The cyclic garbage collector is paused during the analysis, since a file's
    trees hold no reference cycles (tests/test_gc.py checks this); its enabled
    state is restored on every exit, exceptions included. The pause is
    process-wide: cyclic garbage of the host program and of its other threads
    is not collected meanwhile, and concurrent callers share the one state,
    so one call may re-enable the collector while another is still running.
    """
    cfg_options = config or Config()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = analyze_pipeline(source, path, cfg_options)
        outcome = FileOutcome(path, suppress(result.warnings, source))
        if cfg_options.dump_timelines:
            outcome.timeline_dump = result.flow.dump_timelines()
        del result  # free the file's trees before the collector could scan them
        return outcome
    except ParseError as exc:
        return FileOutcome(path, skipped=SkippedFile(path, exc.line, exc.message))
    finally:
        if gc_was_enabled:
            gc.enable()


def _analyze_path(path: str, config: Config) -> FileOutcome:
    try:
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
    except OSError as exc:
        return FileOutcome(path, unreadable=f"cannot read {path}: {exc}")
    cookie = None  # a cookie holds the literal `coding`, which most files lack
    if b"coding" in data and not data.startswith(b"\xef\xbb\xbf"):
        cookie = _cookie_re().match(data)
    try:
        source = data.decode(cookie.group(1).decode() if cookie else "utf-8-sig")
    except UnicodeDecodeError as exc:
        before, message = exc.object[: exc.start], str(exc)
    except LookupError as exc:  # an unknown encoding, which only a cookie can name
        before, message = data[: cookie.start(1)], str(exc)
    else:
        # Universal newlines, as reading in text mode gives them.
        return analyze_source(source.replace("\r\n", "\n").replace("\r", "\n"), path, config)
    # Python rejects such bytes with a SyntaxError, so the file is skipped like one.
    line = len(_line_end_re().findall(before)) + 1
    return FileOutcome(path, skipped=SkippedFile(path, line, message))


def expand_paths(paths: list[str]) -> list[str]:
    """Expand files and directories into a sorted list of .py files."""
    from pathlib import Path  # only the CLI expands paths; `import qlint` does not load it

    out: set[str] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            # A directory named `*.py` is not a file; a dangling link still is.
            out.update(str(f) for f in p.rglob("*.py") if not f.is_dir())
        elif p.exists():
            out.add(str(p))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(out)


def analyze_paths(paths: list[str], config: Config | None = None) -> list[FileOutcome]:
    """Analyze files serially, in sorted path order.

    `Config.jobs` is accepted and ignored: every stage is pure Python that
    holds the interpreter lock, so threads cannot overlap the work.
    """
    cfg_options = config or Config()
    return [_analyze_path(p, cfg_options) for p in sorted(paths)]


def report_of(outcomes: list[FileOutcome]) -> Report:
    """Merge per-file outcomes into one deterministic report."""
    analyzed = [o.path for o in outcomes if o.skipped is None and o.unreadable is None]
    skipped = [o.skipped for o in outcomes if o.skipped is not None]
    warnings: list[Warning] = []
    for outcome in outcomes:
        warnings.extend(outcome.warnings)
    return build_report(analyzed, skipped, warnings)
