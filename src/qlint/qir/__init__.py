"""Quantum IR: entity model, gate signature table, and the extractor."""

from .extract import extract
from .gates import GateSpec, GateTable, GateTableError, load_gate_table, parse_gate_table
from .model import (
    CircuitDecl,
    CircuitKind,
    ComposeCall,
    CompositionEdge,
    Diagnostic,
    EventKind,
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
    "CompositionEdge",
    "Diagnostic",
    "EventKind",
    "GateSpec",
    "GateTable",
    "GateTableError",
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
