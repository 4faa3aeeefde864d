"""The cyclic-collector contract of `analyze_source`.

`analyze_source` pauses the cyclic garbage collector while it analyzes a
file. That is only safe because one file's trees, IR and flow relation hold
no reference cycles: reference counting alone frees all of them.
"""

from __future__ import annotations

import gc

import pytest
from conftest import SAMPLES_DIR
from corpus_defs import CASES
from genprog import branchy

from qlint import Config, analyze_source, driver
from qlint.analyses import ALL_RULES

CIRCUIT = "qc = QuantumCircuit(2, 2)\nqc.h(0)\nqc.measure(0, 0)\n"


def _sources() -> list[tuple[str, str]]:
    sources = [(p.name, p.read_text("utf-8")) for p in sorted(SAMPLES_DIR.glob("*.py"))]
    sources += [(f"{c.rule}__{c.name}.py", c.source) for c in CASES]
    sources += [(f"branchy{seed}.py", branchy(seed).source) for seed in range(10)]
    sources.append(("broken.py", "def f(:\n"))
    return sources


def test_analysis_leaves_no_cyclic_garbage():
    sources = _sources()
    config = Config(rules=ALL_RULES, dump_timelines=True)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for path, source in sources:
            analyze_source(source, path, config)
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert unreachable == 0


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorStateRestored:
    def test_after_an_analyzed_file(self, collector):
        outcome = analyze_source(CIRCUIT, "ok.py", Config(rules=ALL_RULES))
        assert outcome.warnings
        assert gc.isenabled() is collector

    def test_after_a_syntax_error(self, collector):
        outcome = analyze_source("def f(:\n", "bad.py")
        assert outcome.skipped is not None
        assert gc.isenabled() is collector

    def test_after_a_stage_raises(self, collector, monkeypatch):
        def fail(*args):
            assert not gc.isenabled()
            raise RuntimeError("stage failed")

        monkeypatch.setattr(driver, "build_flow", fail)
        with pytest.raises(RuntimeError, match="stage failed"):
            analyze_source(CIRCUIT, "ok.py")
        assert gc.isenabled() is collector
