"""Seeded inputs for the four benchmark workloads.

Every generator takes the benchmark's `--seed` and returns the same sources
for the same seed. The corpus reuses the test suite's generator and labeled
cases; `scale` and `loops` draw operations from genprog's gate list in a
fixed mix.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

from corpus_defs import CASES, Case
from genprog import GATES, branch_free

CORPUS_GENERATED = 1000
SCALE_OPS = (100, 200, 400, 800)
SCALE_QUBITS = 8
SCALE_BRANCH_SHARE = 0.2
SCALE_FLAGS = 6
LOOP_FILES = 20
LOOP_QUBITS = 6


@dataclass(frozen=True)
class InputFile:
    """One generated source file and what the correctness pass checks on it.

    `kind` is "case" (labeled bug or clean twin), "straight" (branch-free:
    flow pairs must equal the oracle's) or "branchy" (branches or kept loops:
    flow pairs must include the oracle's under every flag assignment).
    """

    name: str
    source: str
    kind: str
    case: Case | None = None
    ops: int = 0
    flags: int = 0


def corpus(seed: int) -> list[InputFile]:
    rng = random.Random(seed)
    files = [
        InputFile(f"gen{i:04}.py", branch_free(rng.randrange(2**32)).source, "straight")
        for i in range(CORPUS_GENERATED)
    ]
    for case in CASES:
        label = "bug" if case.buggy else "clean"
        name = f"case__{case.rule}__{case.name}__{label}.py"
        files.append(InputFile(name, case.source, "case", case=case))
    return files


def _header(qubits: int) -> list[str]:
    return [
        f'qa = QuantumRegister({qubits}, "qa")',
        f'ca = ClassicalRegister({qubits}, "ca")',
        "qc = QuantumCircuit(qa, ca)",
    ]


# Kinds of one block of 20 operations: measure, reset, then gates by
# qubit count. A fixed mix and an even spread over the qubits make a file's
# cost depend on its size and shape, not on the draw.
_OP_BLOCK = ("measure",) * 5 + ("reset",) * 2 + (1,) * 9 + (2,) * 3 + (3,)


def _balanced_ops(rng: random.Random, qubits: int):
    pool: list[int] = []

    def take(count: int) -> list[int]:
        out: list[int] = []
        while len(out) < count:
            free = [i for i, bit in enumerate(pool) if bit not in out]
            if not free:
                pool[:0] = rng.sample(range(qubits), qubits)
                continue
            out.append(pool.pop(free[-1]))
        return out

    while True:
        kinds = list(_OP_BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "measure":
                (bit,) = take(1)
                yield f"qc.measure(qa[{bit}], ca[{rng.randrange(qubits)}])"
            elif kind == "reset":
                (bit,) = take(1)
                yield f"qc.reset(qa[{bit}])"
            else:
                name, n_params, _ = rng.choice([g for g in GATES if g[2] == kind])
                args = [f"{rng.randrange(1, 10) / 10}" for _ in range(n_params)]
                args += [f"qa[{bit}]" for bit in take(kind)]
                yield f"qc.{name}({', '.join(args)})"


def scale_program(rng: random.Random, n_ops: int, branchy: bool) -> str:
    """n_ops operations on one 8-qubit register.

    In the branchy form a fifth of the operations sit under `if flagK:` /
    `else:` on flags the analyzer cannot know. Branch sizes follow a fixed
    cycle, so only the operations and flag names depend on the seed.
    """
    ops = _balanced_ops(rng, SCALE_QUBITS)
    lines = _header(SCALE_QUBITS)
    done = under = branches = 0
    while done < n_ops:
        then_ops, else_ops = 1 + branches % 2, branches % 2
        if branchy and under < SCALE_BRANCH_SHARE * (done + 1) and done + then_ops + else_ops <= n_ops:
            lines.append(f"if flag{rng.randrange(SCALE_FLAGS)}:")
            lines += [f"    {next(ops)}" for _ in range(then_ops)]
            if else_ops:
                lines.append("else:")
                lines += [f"    {next(ops)}" for _ in range(else_ops)]
            done += then_ops + else_ops
            under += then_ops + else_ops
            branches += 1
        else:
            lines.append(next(ops))
            done += 1
    return "\n".join(lines) + "\n"


def scale(seed: int) -> list[InputFile]:
    rng = random.Random(seed)
    files = []
    for branchy in (False, True):
        half = "branchy" if branchy else "straight"
        for n_ops in SCALE_OPS:
            source = scale_program(rng, n_ops, branchy)
            files.append(
                InputFile(
                    f"scale_{half}_{n_ops:04}.py",
                    source,
                    half,
                    ops=n_ops,
                    flags=SCALE_FLAGS if branchy else 0,
                )
            )
    return files


# Statement kinds of one loops file, shuffled per file: plain operations,
# loops unrolled through a constant bound, nested unrolled loops, kept loops.
_LOOP_KINDS = ("op",) * 9 + ("bound",) * 3 + ("nested",) * 3 + ("kept",) * 3


def loops_program(rng: random.Random) -> str:
    """About 40 statements mixing unrolled, nested and kept loops.

    Unrolled loops take their bound through a constant (`n3 = 2 + 1`) and
    index with the loop variable; kept loops run 11-30 times, above the
    default unroll limit of 10, and use literal indices only, so every
    event the oracle traces is one the analyzer can resolve. Kinds, loop
    sizes and body lengths come from fixed lists in shuffled order, and the
    operations from the scale mix, so the files' cost depends little on
    the seed.
    """
    ops = _balanced_ops(rng, LOOP_QUBITS)
    lines = _header(LOOP_QUBITS)
    bodies = rng.sample(
        ["qc.h(qa[i])", "qc.measure(qa[i], ca[i])", f"qc.cx(qa[i], qa[{LOOP_QUBITS - 1} - i])"], 3
    )
    bounds = rng.sample([4, 5, 6], 3)
    nests = rng.sample([(2, 3, True), (3, 2, True), (2, 4, False)], 3)
    kept = rng.sample([1, 2, 3], 3)
    for index, kind in enumerate(rng.sample(_LOOP_KINDS, len(_LOOP_KINDS))):
        if kind == "op":
            lines.append(next(ops))
        elif kind == "bound":
            n = bounds.pop()
            a = rng.randint(1, n - 1)
            lines += [f"n{index} = {a} + {n - a}", f"for i in range(n{index}):", f"    {bodies.pop()}"]
        elif kind == "nested":
            outer, inner, rotate = nests.pop()
            lines += [
                f"for i in range({outer}):",
                f"    for j in range({inner}):",
                f"        qc.cx(qa[i], qa[j + {outer}])",
            ]
            if rotate:
                lines.append(f"        qc.rz(0.{rng.randint(1, 9)}, qa[j + {outer}])")
        else:
            lines.append(f"for k in range({rng.randint(11, 30)}):")
            lines += [f"    {next(ops)}" for _ in range(kept.pop())]
    return "\n".join(lines) + "\n"


def loops(seed: int) -> list[InputFile]:
    rng = random.Random(seed)
    return [
        InputFile(f"loops_{i:02}.py", loops_program(rng), "branchy")
        for i in range(LOOP_FILES)
    ]


WORKLOADS = {
    "corpus": corpus,
    "corpus-jobs2": corpus,
    "scale": scale,
    "loops": loops,
}


def write_inputs(files: list[InputFile], directory: Path) -> dict[str, InputFile]:
    """Write the sources out; returns the inputs by the path qlint sees."""
    by_path = {}
    for item in files:
        path = directory / item.name
        path.write_text(item.source, "utf-8")
        by_path[str(path)] = item
    return by_path


_FLAG_RE = re.compile(r"^(\s*if )flag(\d+):", re.MULTILINE)


def assign_flags(source: str, values: tuple[bool, ...]) -> str:
    """Rewrite each `if flagK:` into `if True:`/`if False:` on the same line."""
    return _FLAG_RE.sub(lambda m: f"{m.group(1)}{values[int(m.group(2))]}:", source)


def flag_assignments(item: InputFile, seed: int) -> list[tuple[bool, ...]]:
    """All-true, all-false and three seeded assignments (one if no flags)."""
    if item.flags == 0:
        return [()]
    rng = random.Random(f"{seed}:{item.name}")
    return [(True,) * item.flags, (False,) * item.flags] + [
        tuple(rng.random() < 0.5 for _ in range(item.flags)) for _ in range(3)
    ]
