"""Circuit-method signature table: which arguments are qubits, clbits, params.

The table ships as a plain text file so the recognized surface can be
extended or overridden without touching code.
"""

import os
from functools import cache

from ..frontend.nodes import TupleRecord

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


class GateSpec(TupleRecord):
    __slots__ = ()
    _fields = ("method_name", "category", "qubit_args", "clbit_args", "param_args")

    def __new__(
        cls, method_name: str, category: str, qubit_args: tuple[int, ...],
        clbit_args: tuple[int, ...], param_args: tuple[int, ...],
    ):
        return tuple.__new__(cls, (method_name, category, qubit_args, clbit_args, param_args))


class GateTable(TupleRecord):
    __slots__ = ()
    _fields = ("gates", "builtin_circuits")

    def __new__(cls, gates: dict[str, GateSpec], builtin_circuits: frozenset[str]):
        return tuple.__new__(cls, (gates, builtin_circuits))  # gates by method name


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
    columns: dict[str, tuple[int, ...]] = {}  # each distinct position column, parsed once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 5:
            raise GateTableError(f"{origin}:{lineno}: expected 5 columns, got {len(fields)}")
        name, category, qubits, clbits, params = fields
        if category == "builtin_circuit":
            builtins.add(name)
            continue
        if category not in GATE_CATEGORIES:
            raise GateTableError(f"{origin}:{lineno}: unknown category {category!r}")
        for column in (qubits, clbits, params):
            if column not in columns:
                columns[column] = _parse_positions(column)
        # `tuple.__new__` skips the record's Python-level `__new__`.
        spec = tuple.__new__(
            GateSpec, (name, category, columns[qubits], columns[clbits], columns[params])
        )
        positions = spec.qubit_args + spec.clbit_args + spec.param_args
        if len(positions) != len(set(positions)):
            raise GateTableError(f"{origin}:{lineno}: overlapping argument positions")
        if name in gates:
            raise GateTableError(f"{origin}:{lineno}: duplicate entry {name!r}")
        gates[name] = spec
    return GateTable(gates, frozenset(builtins))


def load_gate_table(path: str | os.PathLike[str] | None = None) -> GateTable:
    """Load the bundled table, parsed once per process, or reread an override file."""
    if path is None:
        return _bundled_gate_table()
    from pathlib import Path  # only an override reads a path; `import qlint` does not load it

    p = Path(path)
    return parse_gate_table(p.read_text("utf-8"), str(p))


@cache
def _bundled_gate_table() -> GateTable:
    # Read through the package's loader, as `pkgutil.get_data` does, so that a
    # zipped package works too; `importlib.resources` costs more to import.
    path = os.path.join(os.path.dirname(__file__), "gate_table.txt")
    text = __spec__.loader.get_data(path).decode("utf-8")
    return parse_gate_table(text, "bundled gate table")
