"""Circuit-method signature table: which arguments are qubits, clbits, params.

The table ships as a plain text file so the recognized surface can be
extended or overridden without touching code.
"""

from __future__ import annotations

import os
from functools import cache
from pathlib import Path
from typing import NamedTuple

GATE_CATEGORIES = frozenset(
    {
        "reversible_gate",
        "measurement",
        "measure_all",
        "reset",
        "initialize",
        "barrier",
        "conditional_marker",
    }
)


class GateSpec(NamedTuple):
    method_name: str
    category: str
    qubit_args: tuple[int, ...]
    clbit_args: tuple[int, ...]
    param_args: tuple[int, ...]


class GateTable(NamedTuple):
    gates: dict[str, GateSpec]
    builtin_circuits: frozenset[str]

    def spec(self, method_name: str) -> GateSpec | None:
        return self.gates.get(method_name)


class GateTableError(Exception):
    """Raised when a gate table file is malformed."""


def _parse_positions(text: str) -> tuple[int, ...]:
    if text == "-":
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise GateTableError(f"bad position list: {text!r}") from exc


def parse_gate_table(text: str, origin: str = "<gate table>") -> GateTable:
    """Parse the tabular gate data; '#' starts a comment, blank lines skipped."""
    gates: dict[str, GateSpec] = {}
    builtins: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 5:
            raise GateTableError(f"{origin}:{lineno}: expected 5 columns, got {len(fields)}")
        name, category, qubits, clbits, params = fields
        if category == "builtin_circuit":
            builtins.add(name)
            continue
        if category not in GATE_CATEGORIES:
            raise GateTableError(f"{origin}:{lineno}: unknown category {category!r}")
        spec = GateSpec(
            name,
            category,
            _parse_positions(qubits),
            _parse_positions(clbits),
            _parse_positions(params),
        )
        positions = list(spec.qubit_args) + list(spec.clbit_args) + list(spec.param_args)
        if len(positions) != len(set(positions)):
            raise GateTableError(f"{origin}:{lineno}: overlapping argument positions")
        if name in gates:
            raise GateTableError(f"{origin}:{lineno}: duplicate entry {name!r}")
        gates[name] = spec
    return GateTable(gates, frozenset(builtins))


def load_gate_table(path: str | Path | None = None) -> GateTable:
    """Load the bundled table, parsed once per process, or reread an override file."""
    if path is None:
        return _bundled_gate_table()
    p = Path(path)
    return parse_gate_table(p.read_text("utf-8"), str(p))


@cache
def _bundled_gate_table() -> GateTable:
    # Read through the package's loader, as `pkgutil.get_data` does, so that a
    # zipped package works too; `importlib.resources` costs more to import.
    path = os.path.join(os.path.dirname(__file__), "gate_table.txt")
    text = __spec__.loader.get_data(path).decode("utf-8")
    return parse_gate_table(text, "bundled gate table")
