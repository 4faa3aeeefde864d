"""Restricted Python/Qiskit frontend: parsing, the subset's forms, the CFG."""

from .cfg import Cfg
from .nodes import MODULE_SCOPE, ModuleAst, SourceSpan
from .parser import ParseError, parse_file, source_lines

__all__ = [
    "Cfg",
    "MODULE_SCOPE",
    "ModuleAst",
    "ParseError",
    "SourceSpan",
    "parse_file",
    "source_lines",
]
