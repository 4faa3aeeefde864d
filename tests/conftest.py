"""Shared fixtures: sample corpus, labeled cases, pipeline helpers."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus_defs import CASES  # noqa: E402

from qlint import Config, analyze_pipeline, analyze_source  # noqa: E402
from qlint.analyses import ALL_RULES  # noqa: E402

SAMPLES_DIR = Path(__file__).parent / "data" / "samples"

SAMPLE_NAMES = (
    "two_bugs",
    "multi_register",
    "redundant_measure",
    "gate_after_measure",
    "measure_all_extra",
    "repeated_not",
    "dropped_compose",
)


def sample_source(name: str) -> str:
    return (SAMPLES_DIR / f"{name}.py").read_text("utf-8")


def sample_path(name: str) -> str:
    return str(SAMPLES_DIR / f"{name}.py")


def elif_chain(branches: int) -> str:
    """`if x == 0:` followed by `elif` branches, `branches` arms in all."""
    arms = "".join(f"elif x == {i}:\n    pass\n" for i in range(1, branches))
    return "x = 0\nif x == 0:\n    pass\n" + arms


def parses_in_this_python(source: str) -> bool:
    """False where `ast.parse` itself runs out of stack on the source."""
    try:
        ast.parse(source)
    except RecursionError:
        return False
    return True


def warnings_for(source: str, path: str = "snippet.py", rules=ALL_RULES):
    """Full pipeline over a source snippet; returns suppressed warning list."""
    return analyze_source(source, path, Config(rules=frozenset(rules))).warnings


def pipeline(source: str, path: str = "snippet.py", **options):
    """Full pipeline returning IR, flow relation, and warnings."""
    return analyze_pipeline(source, path, Config(**options))


@pytest.fixture(scope="session")
def samples() -> dict[str, str]:
    names = list(SAMPLE_NAMES) + [f"{n}_fixed" for n in SAMPLE_NAMES if n != "multi_register"]
    return {name: sample_source(name) for name in names}


@pytest.fixture(scope="session")
def labeled_corpus_dir(tmp_path_factory) -> Path:
    """The labeled bug/clean corpus written out as real files."""
    root = tmp_path_factory.mktemp("labeled_corpus")
    for case in CASES:
        kind = "bug" if case.buggy else "clean"
        (root / f"{case.rule}__{case.name}__{kind}.py").write_text(
            case.source, "utf-8"
        )
    return root


@pytest.fixture(scope="session")
def synthetic_corpus_dir(tmp_path_factory) -> Path:
    """200 generated branch-free programs written out as real files."""
    from genprog import branch_free

    root = tmp_path_factory.mktemp("synthetic_corpus")
    for seed in range(200):
        prog = branch_free(seed)
        (root / f"gen{seed:03}.py").write_text(prog.source, "utf-8")
    return root
