"""Spans and counts recorded around qlint's public functions, from outside.

`Tracer.installed()` swaps each name `qlint.driver` calls for a wrapper
that records a span (layer name, start, end, parent span, file) and the
layer's work counts, then puts the originals back. Nothing under `src/`
changes. Spans are kept in memory; `dump` writes them out when the run
ends. A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property
from time import perf_counter

import qlint.driver as driver
import qlint.report as report
from qlint.frontend.cfg import Cfg
from qlint.qflow import FlowRelation
from qlint.qir.model import EventKind


def _stmt_count(stmts) -> int:
    total = 0
    for stmt in stmts:
        total += 1
        total += _stmt_count(getattr(stmt, "body", ()))
        total += _stmt_count(getattr(stmt, "orelse", ()))
    return total


# driver global -> (layer, counts taken from the result)
_DRIVER_LAYERS = {
    "analyze_source": ("driver.file", None),
    "parse_file": (
        "frontend.parser",
        lambda tree: {"frontend.parser.stmts": _stmt_count(tree.statements)},
    ),
    "unroll_loops": (
        "frontend.unroll",
        lambda tree: {
            "frontend.unroll.stmts_out": _stmt_count(tree.statements),
            "frontend.unroll.kept_loops": len(tree.non_unrollable),
        },
    ),
    "propagate_constants": ("frontend.constprop", None),
    "build_cfg": (
        "frontend.cfg",
        lambda cfg: {"frontend.cfg.blocks": len(cfg.blocks), "frontend.cfg.edges": len(cfg.edges)},
    ),
    "load_gate_table": ("qir.gates", lambda _table: {"qir.gates.loads": 1}),
    "extract": (
        "qir.extract",
        lambda ir: {
            "qir.extract.events": len(ir.events),
            "qir.extract.unknown_events": sum(e.kind is EventKind.UNKNOWN for e in ir.events),
            "qir.extract.diagnostics": len(ir.diagnostics),
        },
    ),
    "build_flow": ("qflow.build", None),
    "run_all": ("analyses.rules", lambda warnings: {"analyses.warnings": len(warnings)}),
    "suppress": ("driver.suppress", None),
}

# FlowRelation cached property -> (layer, count name)
_FLOW_LAYERS = {
    "may_follow_pairs": ("qflow.pairs", "qflow.pairs"),
    "directly_pairs": ("qflow.directly", "qflow.directly_pairs"),
}

_NAME, _START, _END, _PARENT, _FILE, _CHILDREN = range(6)


class Tracer:
    """Spans and per-file counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counts: list[defaultdict] = []

    # --- recording ---

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.counts = defaultdict(int)
            with self._lock:
                self._thread_counts.append(local.counts)
        return local

    def open(self, name: str, file: str | None = None) -> list:
        stack = self._state().stack
        parent = stack[-1] if stack else None
        if file is None and parent is not None:
            file = parent[_FILE]
        span = [name, 0.0, 0.0, parent, file, 0.0]
        stack.append(span)
        span[_START] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[_END] = perf_counter()
        self._local.stack.pop()
        parent = span[_PARENT]
        if parent is not None:
            parent[_CHILDREN] += span[_END] - span[_START]
        self.spans.append(span)

    def count(self, file: str | None, values: dict[str, int]) -> None:
        counts = self._state().counts
        for name, value in values.items():
            counts[(file, name)] += value

    def _wrap(self, layer: str, fn, counter=None, file_arg: int | None = None):
        def traced(*args, **kwargs):
            span = self.open(layer, args[file_arg] if file_arg is not None else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                self.count(span[_FILE], counter(result))
            return result

        return traced

    # --- patching ---

    @contextmanager
    def installed(self):
        """Route qlint's stage calls through this tracer for the block."""
        saved: list[tuple[object, str, object]] = []

        def patch(owner, name: str, value) -> None:
            saved.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

        for name, (layer, counter) in _DRIVER_LAYERS.items():
            file_arg = 1 if name == "analyze_source" else None
            patch(driver, name, self._wrap(layer, getattr(driver, name), counter, file_arg))
        for name, (layer, count_name) in _FLOW_LAYERS.items():
            original = vars(FlowRelation)[name]
            prop = cached_property(
                self._wrap(layer, original.func, lambda pairs, c=count_name: {c: len(pairs)})
            )
            prop.__set_name__(FlowRelation, name)
            patch(FlowRelation, name, prop)

        successors = Cfg.successors
        tracer = self

        def counted_successors(cfg, block_id):
            state = tracer._state()
            file = state.stack[-1][_FILE] if state.stack else None
            state.counts[(file, "frontend.cfg.successors_calls")] += 1
            return successors(cfg, block_id)

        patch(Cfg, "successors", counted_successors)

        class TracedPool(driver.ThreadPoolExecutor):
            def __enter__(self):
                self._bench_span = tracer.open("driver.pool")
                return super().__enter__()

            def __exit__(self, *exc_info):
                try:
                    return super().__exit__(*exc_info)
                finally:
                    tracer.close(self._bench_span)

        patch(driver, "ThreadPoolExecutor", TracedPool)
        patch(report, "format_report", self._wrap("report.format", report.format_report))
        try:
            yield self
        finally:
            for owner, name, value in reversed(saved):
                setattr(owner, name, value)

    # --- summaries ---

    def self_ms(self) -> dict[tuple[str | None, str], float]:
        """Self time in ms per (file, layer)."""
        out: dict[tuple[str | None, str], float] = defaultdict(float)
        for span in self.spans:
            out[(span[_FILE], span[_NAME])] += (span[_END] - span[_START] - span[_CHILDREN]) * 1e3
        return out

    def wall_ms(self, layer: str) -> float:
        return sum(s[_END] - s[_START] for s in self.spans if s[_NAME] == layer) * 1e3

    def counts(self) -> dict[tuple[str | None, str], int]:
        merged: dict[tuple[str | None, str], int] = defaultdict(int)
        for counts in self._thread_counts:
            for key, value in counts.items():
                merged[key] += value
        return merged

    def dump(self, path, extra: dict) -> None:
        """Write the spans (ids, parents, times in ms from the first start) as JSON."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        origin = min((s[_START] for s in self.spans), default=0.0)
        rows = [
            {
                "id": ids[id(s)],
                "name": s[_NAME],
                "start_ms": round((s[_START] - origin) * 1e3, 4),
                "end_ms": round((s[_END] - origin) * 1e3, 4),
                "parent": ids[id(s[_PARENT])] if s[_PARENT] is not None else None,
                "file": s[_FILE],
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**extra, "spans": rows}, handle)
