"""Restricted Python/Qiskit frontend: parsing, constants, unrolling, CFG."""

from .cfg import Block, Cfg, build_cfg
from .constprop import (
    MODULE_SCOPE,
    UNKNOWN,
    ConstEnv,
    ConstValue,
    known,
    propagate_constants,
)
from .nodes import ModuleAst, SourceSpan
from .parser import ParseError, parse_file, source_lines
from .unroll import DEFAULT_MAX_UNROLL, unroll_loops

__all__ = [
    "Block",
    "Cfg",
    "ConstEnv",
    "ConstValue",
    "DEFAULT_MAX_UNROLL",
    "MODULE_SCOPE",
    "ModuleAst",
    "ParseError",
    "SourceSpan",
    "UNKNOWN",
    "build_cfg",
    "known",
    "parse_file",
    "propagate_constants",
    "source_lines",
    "unroll_loops",
]
