"""No module under src/qlint imports a name it never uses, or `__future__`,
and nothing it defines in public goes uncalled.

A stdlib `ast` check in the spirit of pyflakes' F401. A name counts as used
when the module reads it anywhere, names it in a string annotation, or lists
it in `__all__` (how the package `__init__` files re-export). An import line
that carries `# noqa: F401` is exempt.

A public module-level function or class, or a public method of a public
class, counts as called when some `Name` or `Attribute` in src/qlint names
it. An `__all__` entry, and a use in tests/ or bench/, do not count: such a
definition is dead code unless README "Library use" documents it, and then
it goes on `UNCALLED_API`.

A field of a src/qlint class (a `__slots__` or `_fields` entry, or a
`self.<name> =` attribute) counts as read when some attribute load in
src/qlint or bench/ names it. State that only tests read goes on
`UNREAD_FIELDS`, with the reason it stays.

qlint's modules evaluate their annotations and import nothing from
`__future__`, a module that every start of the linter would otherwise load.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qlint"
MODULES = sorted(SRC.rglob("*.py"))
BENCH = sorted((SRC.parent.parent / "bench").glob("*.py"))


def _used_names(tree: ast.AST) -> set[str]:
    used: set[str] = set()
    annotations: list[ast.expr | None] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never uses."""
    source = path.read_text("utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            line = getattr(alias, "lineno", node.lineno)
            exempt = "# noqa: F401" in lines[line - 1] or "# noqa: F401" in lines[node.lineno - 1]
            if bound not in used and not exempt:
                found.append((line, bound))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_no_unused_import(path):
    assert unused_imports(path) == []


def test_no_module_imports_from_future():
    importing = [
        str(path.relative_to(SRC))
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "__future__"
    ]
    assert importing == []


def test_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import os\nimport re  # noqa: F401\nfrom typing import Any, List\n"
        "__all__ = ['List']\nx: 'Any' = 1\n",
        "utf-8",
    )
    assert unused_imports(module) == [(1, "os")]


# Documented library API (README "Library use") that nothing in src/qlint calls.
UNCALLED_API = {"FlowRelation.may_follow_pairs"}


def uncalled_definitions(paths: list[Path]) -> list[str]:
    """Each public function, class or method defined in `paths` that no
    `Name` or `Attribute` there names, as `name` or `Class.method`."""
    trees = [ast.parse(path.read_text("utf-8")) for path in paths]
    named: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in named:
                found.append(node.name)
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, functions) and not item.name.startswith("_"):
                    if item.name not in named:
                        found.append(f"{node.name}.{item.name}")
    return found


def test_every_public_definition_has_a_caller():
    assert set(uncalled_definitions(MODULES)) == UNCALLED_API


def test_caller_check_finds_an_uncalled_definition(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "__all__ = ['unused']\n"
        "def unused(): pass\n"
        "def used(): pass\n"
        "def _private(): pass\n"
        "class Box:\n"
        "    def method(self): return used()\n"
        "    def _helper(self): pass\n"
        "    def called(self): pass\n"
        "Box().called()\n",
        "utf-8",
    )
    assert uncalled_definitions([module]) == ["unused", "Box.method"]


# Fields nothing in src/qlint or bench/ reads, each with why it stays.
UNREAD_FIELDS = {
    "OperatorEvent.clbits": "the behaviour lock hashes each event's classical operands",
}


def unread_fields(paths: list[Path], readers: list[Path]) -> list[str]:
    """Each field of a class defined in `paths` that no attribute load in
    `readers` names, as `Class.name`: a `__slots__` or `_fields` entry, or
    an attribute the class sets on `self`."""
    loaded = {
        node.attr
        for path in readers
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for path in paths:
        for cls in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = []
            for node in cls.body:
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in ("__slots__", "_fields")
                    for t in node.targets
                ):
                    fields += ast.literal_eval(node.value)
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    fields.append(node.attr)
            found += [f"{cls.name}.{name}" for name in dict.fromkeys(fields) if name not in loaded]
    return found


def test_every_field_has_a_reader():
    assert set(unread_fields(MODULES, MODULES + BENCH)) == set(UNREAD_FIELDS)


def test_field_check_finds_an_unread_field(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "class Pair:\n"
        "    __slots__ = ('left', 'right')\n"
        "    _fields = ('left', 'right')\n"
        "    def __init__(self):\n"
        "        self.left, self.right = 1, 2\n"
        "        self.extra = self.left\n"
        "class Empty:\n"
        "    __slots__ = ()\n",
        "utf-8",
    )
    assert unread_fields([module], [module]) == ["Pair.right", "Pair.extra"]
