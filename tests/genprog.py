"""Seeded random program generator for property and acceptance tests.

Programs are valid for both the analyzer and the reference interpreter: all
register sizes and indices are literal, so every operation is resolvable and
executable.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import count

# (method, leading params, qubit operands) - a subset of the bundled table
# that the oracle also understands.
GATES: tuple[tuple[str, int, int], ...] = (
    ("h", 0, 1),
    ("x", 0, 1),
    ("y", 0, 1),
    ("z", 0, 1),
    ("s", 0, 1),
    ("t", 0, 1),
    ("sdg", 0, 1),
    ("tdg", 0, 1),
    ("rx", 1, 1),
    ("ry", 1, 1),
    ("rz", 1, 1),
    ("cx", 0, 2),
    ("cz", 0, 2),
    ("swap", 0, 2),
    ("ccx", 0, 3),
)


@dataclass(frozen=True)
class GeneratedProgram:
    source: str
    n_ops: int
    header_lines: int

    @property
    def op_lines(self) -> range:
        return range(self.header_lines + 1, self.header_lines + 1 + self.n_ops)


def _op_source(rng: random.Random, registers: list[tuple[str, int]], style: str) -> str:
    """One operation line over the given registers."""
    total = sum(size for _, size in registers)

    def qubit_ref(position: int) -> str:
        if style == "bare":
            return str(position)
        offset = 0
        for name, size in registers:
            if position < offset + size:
                return f"{name}[{position - offset}]"
            offset += size
        raise AssertionError("position out of range")

    kind = rng.random()
    if kind < 0.25:
        position = rng.randrange(total)
        clbit = rng.randrange(total)
        cl = str(clbit) if style == "bare" else f"ca[{clbit}]"
        return f"qc.measure({qubit_ref(position)}, {cl})"
    if kind < 0.35:
        return f"qc.reset({qubit_ref(rng.randrange(total))})"
    usable = [g for g in GATES if g[2] <= total]
    name, n_params, n_qubits = rng.choice(usable)
    positions = rng.sample(range(total), n_qubits)
    args = [f"{rng.randrange(1, 10) / 10}" for _ in range(n_params)]
    args += [qubit_ref(p) for p in positions]
    return f"qc.{name}({', '.join(args)})"


def branch_free(seed: int, max_ops: int = 10) -> GeneratedProgram:
    """A straight-line program with literal sizes and indices."""
    rng = random.Random(seed)
    layout = rng.choice(("implicit", "single", "dual"))
    if layout == "implicit":
        size = rng.randint(1, 4)
        header = [f"qc = QuantumCircuit({size}, {size})"]
        registers = [("q", size)]
        style = "bare"
    elif layout == "single":
        size = rng.randint(1, 4)
        header = [
            f'qa = QuantumRegister({size}, "qa")',
            f'ca = ClassicalRegister({size}, "ca")',
            "qc = QuantumCircuit(qa, ca)",
        ]
        registers = [("qa", size)]
        style = rng.choice(("bare", "indexed"))
    else:
        size_a = rng.randint(1, 4)
        size_b = rng.randint(1, 4)
        header = [
            f'qa = QuantumRegister({size_a}, "qa")',
            f'qb = QuantumRegister({size_b}, "qb")',
            f'ca = ClassicalRegister({size_a + size_b}, "ca")',
            "qc = QuantumCircuit(qa, qb, ca)",
        ]
        registers = [("qa", size_a), ("qb", size_b)]
        style = "indexed"
    n_ops = rng.randint(1, max_ops)
    ops = [_op_source(rng, registers, style) for _ in range(n_ops)]
    source = "\n".join(header + ops) + "\n"
    return GeneratedProgram(source, n_ops, len(header))


def loop_pair(seed: int) -> tuple[str, str]:
    """A program with one bounded loop, plus its hand-expanded equivalent."""
    rng = random.Random(seed)
    size = rng.randint(2, 4)
    header = [
        f'qa = QuantumRegister({size}, "qa")',
        f'ca = ClassicalRegister({size}, "ca")',
        "qc = QuantumCircuit(qa, ca)",
    ]
    registers = [("qa", size)]
    prefix = [
        _op_source(rng, registers, "indexed") for _ in range(rng.randint(0, 3))
    ]
    suffix = [
        _op_source(rng, registers, "indexed") for _ in range(rng.randint(0, 3))
    ]
    if rng.random() < 0.5:
        # Repeat a fixed body k times.
        k = rng.randint(1, 10)
        body = [_op_source(rng, registers, "indexed") for _ in range(rng.randint(1, 3))]
        looped_lines = [f"for i in range({k}):"] + [f"    {op}" for op in body]
        expanded_lines = body * k
    else:
        # Index a single-qubit gate with the loop variable.
        k = rng.randint(1, size)
        name = rng.choice(["h", "x", "z", "s"])
        looped_lines = [f"for i in range({k}):", f"    qc.{name}(qa[i])"]
        expanded_lines = [f"qc.{name}(qa[{v}])" for v in range(k)]
    looped = "\n".join(header + prefix + looped_lines + suffix) + "\n"
    expanded = "\n".join(header + prefix + expanded_lines + suffix) + "\n"
    return looped, expanded


@dataclass(frozen=True)
class BranchyProgram:
    """A program with `if flagK:` branches, kept loops and unknown operators.

    `flag0` .. `flag{flags - 1}` are unbound names, so the analyzer must take
    both arms. Kept loops are `for kN in range(T):` with T above the default
    unroll limit; `with_trip_count` rewrites T for concrete execution. Each
    `helper(qc)` line is an operator the analyzer cannot see into.
    """

    source: str
    flags: int


_KEPT_LOOP_RE = re.compile(r"^(\s*for k\d+ in range\()\d+(\):)$", re.MULTILINE)


def with_trip_count(source: str, trips: int) -> str:
    """The same program with every kept loop running `trips` times."""
    return _KEPT_LOOP_RE.sub(lambda m: f"{m.group(1)}{trips}{m.group(2)}", source)


def branchy(seed: int) -> BranchyProgram:
    """Nested if/else, kept loops and `helper(qc)` calls over one register."""
    rng = random.Random(seed)
    size = rng.randint(1, 3)
    pool = rng.randint(1, 6)
    flags = 0
    registers = [("qa", size)]
    lines = [
        f'qa = QuantumRegister({size}, "qa")',
        f'ca = ClassicalRegister({size}, "ca")',
        "qc = QuantumCircuit(qa, ca)",
    ]
    loops = count()

    def block(indent: str, depth: int) -> None:
        nonlocal flags
        for _ in range(rng.randint(1, 4) if depth else rng.randint(3, 8)):
            kind = rng.random()
            if depth < 3 and kind < 0.25:
                flag = rng.randrange(pool)
                flags = max(flags, flag + 1)
                lines.append(f"{indent}if flag{flag}:")
                block(indent + "    ", depth + 1)
                if rng.random() < 0.6:
                    lines.append(f"{indent}else:")
                    block(indent + "    ", depth + 1)
            elif depth < 3 and kind < 0.4:
                lines.append(f"{indent}for k{next(loops)} in range({rng.randint(11, 30)}):")
                block(indent + "    ", depth + 1)
            elif kind < 0.44:
                lines.append(f"{indent}helper(qc)")
            else:
                lines.append(indent + _op_source(rng, registers, "indexed"))

    block("", 0)
    return BranchyProgram("\n".join(lines) + "\n", flags)


def wide_branchy(seed: int, n_ops: int) -> str:
    """n_ops operations on an 8-qubit register, about a fifth under if/else."""
    rng = random.Random(seed)
    registers = [("qa", 8)]
    lines = [
        'qa = QuantumRegister(8, "qa")',
        'ca = ClassicalRegister(8, "ca")',
        "qc = QuantumCircuit(qa, ca)",
    ]
    done = under = 0
    while done < n_ops:
        if under < 0.2 * done:
            lines.append(f"if flag{rng.randrange(6)}:")
            lines.append("    " + _op_source(rng, registers, "indexed"))
            lines.append("else:")
            lines.append("    " + _op_source(rng, registers, "indexed"))
            done += 2
            under += 2
        else:
            lines.append(_op_source(rng, registers, "indexed"))
            done += 1
    return "\n".join(lines) + "\n"
