"""Restricted Python/Qiskit frontend: parsing, the subset's forms, the CFG."""

from .cfg import Block, Cfg
from .nodes import MODULE_SCOPE, ModuleAst, SourceSpan, int_value
from .parser import ParseError, parse_file, source_lines

__all__ = [
    "Block",
    "Cfg",
    "MODULE_SCOPE",
    "ModuleAst",
    "ParseError",
    "SourceSpan",
    "int_value",
    "parse_file",
    "source_lines",
]
