"""Quantum IR: entity model, gate signature table, and the extractor."""

from .extract import DEFAULT_MAX_UNROLL, extract
from .gates import GateSpec, GateTable, GateTableError, load_gate_table, parse_gate_table
from .model import (
    CircuitDecl,
    CircuitKind,
    ComposeCall,
    Diagnostic,
    EventKind,
    Layout,
    OperatorEvent,
    QuantumIR,
    QubitRef,
    RegisterDecl,
    UNRESOLVED_BIT,
    UnknownCause,
)

__all__ = [
    "CircuitDecl",
    "CircuitKind",
    "ComposeCall",
    "DEFAULT_MAX_UNROLL",
    "Diagnostic",
    "EventKind",
    "GateSpec",
    "GateTable",
    "GateTableError",
    "Layout",
    "OperatorEvent",
    "QuantumIR",
    "QubitRef",
    "RegisterDecl",
    "UNRESOLVED_BIT",
    "UnknownCause",
    "extract",
    "load_gate_table",
    "parse_gate_table",
]
