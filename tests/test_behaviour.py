"""Behaviour lock: warnings, IR diagnostics, events and flow pairs of ~1,460 inputs.

The inputs are the seed-1 benchmark workloads (`corpus`, `scale`, `loops`
from bench/workloads.py), 300 `genprog.branchy` programs and the samples.
For each input the golden file keeps every warning and IR diagnostic in full,
and a sha256 of the event list and of the `directly` pairs. Events,
circuits and registers are named by kind and source position (plus an
occurrence number where loop copies share a position), never by id, so a
refactor that renumbers them keeps the lock.

Regenerate it only for an intended behaviour change, and explain each
changed entry:

    PYTHONPATH=src python tests/test_behaviour.py

Compare against it without pytest, on any interpreter (exit status 1 and
the test's diff text when an input changed; the file is never rewritten):

    PYTHONPATH=src python tests/test_behaviour.py --check
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.append(str(HERE.parent / "bench"))

import workloads  # noqa: E402
from genprog import branchy  # noqa: E402

from qlint import Config, analyze_pipeline  # noqa: E402
from qlint.driver import suppress  # noqa: E402
from qlint.frontend import ParseError  # noqa: E402

GOLDEN = HERE / "golden" / "behaviour.json"
SAMPLES_DIR = HERE / "data" / "samples"
SEED = 1
BRANCHY_PROGRAMS = 300
_SCOPE_UID = re.compile(r"#\d+")


def inputs() -> list[tuple[str, str]]:
    """(name, source) of every locked input, in a fixed order."""
    out = []
    for workload in (workloads.corpus, workloads.scale, workloads.loops):
        out += [(f"{workload.__name__}/{f.name}", f.source) for f in workload(SEED)]
    out += [(f"branchy/{seed:03}.py", branchy(seed).source) for seed in range(BRANCHY_PROGRAMS)]
    out += [(f"samples/{p.name}", p.read_text("utf-8")) for p in sorted(SAMPLES_DIR.glob("*.py"))]
    return out


def _names(items, label) -> dict[str, str]:
    """Id -> `label@line:column`, with `#k` for the k-th later item at that name."""
    names: dict[str, str] = {}
    seen: Counter[str] = Counter()
    for item in items:
        name = f"{label(item)}@{item.span.line}:{item.span.column}"
        names[item.id] = f"{name}#{seen[name]}" if seen[name] else name
        seen[name] += 1
    return names


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def behaviour(name: str, source: str) -> dict:
    """What the lock keeps of one input."""
    try:
        result = analyze_pipeline(source, name, Config())
    except ParseError as exc:
        return {"skipped": [exc.line, exc.message]}
    ir, flow = result.ir, result.flow
    circuits = _names(ir.circuits.values(), lambda c: "circuit")
    registers = _names(ir.registers.values(), lambda r: f"{r.kind}:{r.display_name()}")
    events = _names(ir.events, lambda e: e.kind.value)

    def bits(refs) -> str:
        return ",".join(f"{registers.get(r.register)}[{r.index}]" for r in refs)

    event_lines = [
        f"{events[e.id]} {circuits.get(e.circuit)} {_SCOPE_UID.sub('', e.scope)} {e.gate_name}"
        f" q={bits(e.qubits)} c={bits(e.clbits)} cond={e.is_conditional}"
        f" new={e.creates_new_register} cause={e.unknown_cause and e.unknown_cause.value}"
        for e in ir.events
    ]
    pair_lines = sorted(
        f"{events[a]} {events[b]} {circuits[c]} {registers[r]}[{i}]"
        for a, b, (c, r, i) in flow.directly_pairs
    )
    return {
        "warnings": [
            [w.rule, w.span.line, w.span.column, w.message]
            for w in suppress(result.warnings, source)
        ],
        "diagnostics": [[d.span.line, d.span.column, d.message] for d in ir.diagnostics],
        "events": _digest(event_lines),
        "directly": _digest(pair_lines),
    }


def compute() -> dict[str, dict]:
    return {name: behaviour(name, source) for name, source in inputs()}


def render(table: dict[str, dict]) -> str:
    """One input per line, so a diff names the inputs that changed."""
    rows = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in table.items()]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def lock_diff() -> str | None:
    """What changed against the golden file (up to 10 inputs), or None."""
    expected = json.loads(GOLDEN.read_text("utf-8"))
    got = compute()
    changed = [name for name in sorted(expected.keys() | got.keys())
               if expected.get(name) != got.get(name)]
    if not changed:
        return None
    detail = "\n".join(
        f"{name}:\n  locked: {expected.get(name)}\n  now:    {got.get(name)}"
        for name in changed[:10]
    )
    return f"{len(changed)} of {len(expected)} inputs changed:\n{detail}"


def test_behaviour_matches_lock():
    diff = lock_diff()
    assert diff is None, diff


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        diff = lock_diff()
        print(diff or f"{GOLDEN.name}: all inputs match")
        sys.exit(1 if diff else 0)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(compute()), "utf-8")
    print(f"wrote {GOLDEN}")
