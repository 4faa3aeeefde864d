"""Byte-identical output: the `--profile all` JSON report of a fixed input set.

The golden file is the report of the 15 samples and the 120 labeled cases,
written under fixed relative names. A change that alters any warning,
message, span or the report layout shows up here as a byte diff.

Regenerate it only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py

Compare against it without pytest, on any interpreter (exit status 1 and the
first differing line when the report changed; the file is never rewritten):

    PYTHONPATH=src python tests/test_golden.py --check
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from corpus_defs import CASES  # noqa: E402

from qlint.cli import run  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "report_all.json"
SAMPLES_DIR = Path(__file__).parent / "data" / "samples"


def render_report(root: Path) -> bytes:
    """Write the inputs under `root` and return the CLI's JSON report bytes."""
    (root / "samples").mkdir()
    (root / "cases").mkdir()
    for sample in sorted(SAMPLES_DIR.glob("*.py")):
        (root / "samples" / sample.name).write_bytes(sample.read_bytes())
    for case in CASES:
        kind = "bug" if case.buggy else "clean"
        path = root / "cases" / f"{case.rule}__{case.name}__{kind}.py"
        path.write_text(case.source, "utf-8")
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out):
            code = run(["check", "--profile", "all", "--format", "json", "samples", "cases"])
    finally:
        os.chdir(cwd)
    out.flush()
    assert code == 1
    return out.buffer.getvalue()


def first_difference(got: bytes, expected: bytes) -> str | None:
    """The first line where `got` differs from `expected`, or None when equal."""
    end = ["<end of report>"]
    now_lines = got.decode().splitlines(keepends=True) + end
    locked_lines = expected.decode().splitlines(keepends=True) + end
    for number, (now, locked) in enumerate(zip(now_lines, locked_lines), 1):
        if now != locked:
            return f"line {number} differs:\n  locked: {locked!r}\n  now:    {now!r}"
    return None


def test_report_matches_golden(tmp_path):
    assert render_report(tmp_path) == GOLDEN.read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        report = render_report(Path(tmp))
    if sys.argv[1:] == ["--check"]:
        diff = first_difference(report, GOLDEN.read_bytes())
        print(diff or f"{GOLDEN.name}: the report matches")
        sys.exit(1 if diff else 0)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_bytes(report)
    print(f"wrote {GOLDEN}")
