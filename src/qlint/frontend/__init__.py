"""Restricted Python/Qiskit frontend: parsing, unrolling with constants, CFG."""

from .cfg import Block, Cfg, build_cfg
from .nodes import MODULE_SCOPE, ModuleAst, SourceSpan, int_value
from .parser import ParseError, parse_file, source_lines
from .unroll import DEFAULT_MAX_UNROLL, unroll_loops

__all__ = [
    "Block",
    "Cfg",
    "DEFAULT_MAX_UNROLL",
    "MODULE_SCOPE",
    "ModuleAst",
    "ParseError",
    "SourceSpan",
    "build_cfg",
    "int_value",
    "parse_file",
    "source_lines",
    "unroll_loops",
]
