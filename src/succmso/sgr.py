"""Succinct graph representations: the pair (N, C) and its basic queries."""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import circuit as circuit_mod
from .circuit import BoolCircuit
from .errors import BadParam, LabelOutOfRange, ParseError, TooLargeToMaterialize
from .graph import Digraph


@dataclass(frozen=True)
class Sgr:
    """The succinctly represented graph ⟨N, C⟩.

    N is carried as an arbitrary-precision integer so compiled reductions
    with many variables stay representable without materialization.
    """

    n_vertices: int
    circuit: BoolCircuit

    def __post_init__(self):
        if self.n_vertices < 1:
            raise BadParam("N must be >= 1")
        if self.n_vertices > (1 << self.circuit.label_bits):
            raise BadParam("N exceeds 2^label_bits")


def edge_query(s: Sgr, x: int, y: int) -> bool:
    """C(x, y) with the label range guard 0 <= x, y < N."""
    if not (0 <= x < s.n_vertices and 0 <= y < s.n_vertices):
        raise LabelOutOfRange(f"labels ({x}, {y}) not in [0, {s.n_vertices})")
    return s.circuit.eval(x, y)


def materialize(s: Sgr, limit: int) -> Digraph:
    """Evaluate all N^2 pairs, one row of N lanes per circuit pass, and
    return the explicit digraph."""
    if s.n_vertices > limit:
        raise TooLargeToMaterialize(f"N={s.n_vertices} exceeds limit {limit}")
    n = s.n_vertices
    edges = []
    for x in range(n):
        row = s.circuit.row(x, n)
        while row:  # visit only the set bits, lowest first
            low = row & -row
            edges.append((x, low.bit_length() - 1))
            row ^= low
    return Digraph(n, edges)


def check_size_convention(s: Sgr) -> bool:
    """Advisory check: gate count within 64 * (N^2 + 64)."""
    return s.circuit.gate_count() <= 64 * (s.n_vertices**2 + 64)


def to_json_obj(s: Sgr):
    return {"N": str(s.n_vertices), "circuit": s.circuit.to_json_obj()}


def serialize(s: Sgr) -> str:
    return json.dumps(to_json_obj(s))


def parse(text: str) -> Sgr:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return from_json_obj(obj)


def _vertex_count(value) -> int:
    """N as serialize writes it (a decimal-digit string) or as a JSON
    integer; a bool, a float or any other string is not a vertex count."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    raise ParseError(f"malformed SGR bundle: N is {value!r:.40}, not an integer")


def from_json_obj(obj) -> Sgr:
    try:
        n = _vertex_count(obj["N"])
        circ = circuit_mod.from_json_obj(obj["circuit"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed SGR bundle: {exc}") from exc
    return Sgr(n, circ)
