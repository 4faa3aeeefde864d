"""Real-code smoke test: qlint over a fixed sample of the installed stdlib."""

from __future__ import annotations

import ast
import sysconfig
from pathlib import Path

from qlint.driver import analyze_paths, expand_paths


def test_every_tenth_stdlib_file_is_analysed():
    """Covers statement kinds the generated inputs never hold: `class`, `try`,
    `with`, `match`, `async`, `global`. No file may raise, and a file may be
    skipped only where `ast.parse` rejects its bytes."""
    stdlib = sysconfig.get_paths()["stdlib"]
    files = [p for p in expand_paths([stdlib]) if "site-packages" not in Path(p).parts]
    sample = files[::10]
    assert len(sample) > 50
    for outcome in analyze_paths(sample):
        assert outcome.unreadable is None, outcome.path
        if outcome.skipped is not None:
            try:
                ast.parse(Path(outcome.path).read_bytes())
            except (SyntaxError, ValueError):
                continue
            raise AssertionError(f"{outcome.path} parses but was skipped: {outcome.skipped}")
