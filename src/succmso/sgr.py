"""Succinct graph representations: the pair (N, C) and its basic queries."""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import circuit as circuit_mod
from .circuit import BoolCircuit
from .errors import BadParam, LabelOutOfRange, ParseError, TooLargeToMaterialize
from .graph import Digraph, json_int, json_value, text_int

# Lanes per circuit pass in materialize. A wider pass spreads the
# interpreter's per-gate cost over more pairs, but each gate value of the
# pass is a LANES-bit int, so a pass holds about gates * LANES / 8 bytes
# (230 KB at 450 gates). At 4,096 lanes every graph up to N = 64 takes one
# pass; at N = 19-38 materialize fell from 0.3-1.4 ms to 0.04-0.13 ms on a
# 2-core x86 host. On that host 16,384 lanes were 5-30% faster at
# N = 259-4,099 and 65,536 lanes up to 1.4x slower than 4,096; on another
# host 65,536 lanes made N = 4,099 about 5x slower.
LANES = 4096


@dataclass(frozen=True)
class Sgr:
    """The succinctly represented graph ⟨N, C⟩.

    N is carried as an arbitrary-precision integer so compiled reductions
    with many variables stay representable without materialization. It is
    an exact int (a bool is a BadParam).
    """

    n_vertices: int
    circuit: BoolCircuit

    def __post_init__(self):
        if type(self.n_vertices) is not int:
            raise BadParam(f"N must be an integer, not {self.n_vertices!r:.40}")
        if self.n_vertices < 1:
            raise BadParam("N must be >= 1")
        if (self.n_vertices - 1).bit_length() > self.circuit.label_bits:
            raise BadParam("N exceeds 2^label_bits")


def edge_query(s: Sgr, x: int, y: int) -> bool:
    """C(x, y) with the label range guard 0 <= x, y < N; a label that is not
    an exact int, a bool included, is a LabelOutOfRange."""
    if type(x) is not int or type(y) is not int:
        raise LabelOutOfRange(f"labels ({x!r:.40}, {y!r:.40}) are not integers")
    if not (0 <= x < s.n_vertices and 0 <= y < s.n_vertices):
        raise LabelOutOfRange(f"labels ({x}, {y}) not in [0, {s.n_vertices})")
    return s.circuit.eval(x, y)


def materialize(s: Sgr, limit: int) -> Digraph:
    """Evaluate all N^2 pairs and return the explicit digraph.

    Each circuit pass evaluates a block of k = max(1, LANES // N)
    consecutive rows x against every y < N: lane i * N + y holds
    C(x0 + i, y), so one pass covers about LANES pairs.
    """
    if s.n_vertices > limit:
        raise TooLargeToMaterialize(f"N={s.n_vertices} exceeds limit {limit}")
    n = s.n_vertices
    k = max(1, LANES // n)
    edges = []
    for x0 in range(0, n, k):
        block = s.circuit.rows(x0, min(k, n - x0), n)
        base = x0 * n
        while block:  # visit only the set bits, lowest first
            low = block & -block
            edges.append(divmod(base + low.bit_length() - 1, n))
            block ^= low
    return Digraph(n, edges)


def check_size_convention(s: Sgr) -> bool:
    """Advisory check: gate count within 64 * (N^2 + 64)."""
    return s.circuit.gate_count() <= 64 * (s.n_vertices**2 + 64)


def to_json_obj(s: Sgr):
    return {"N": str(s.n_vertices), "circuit": s.circuit.to_json_obj()}


def serialize(s: Sgr) -> str:
    """The SGR JSON bundle. As in circuit.serialize, the checked gate
    tuples hold no container, so json.dumps skips its cycle check."""
    return json.dumps(to_json_obj(s), check_circular=False)


def parse(text: str) -> Sgr:
    return from_json_obj(json_value(text))


def _vertex_count(value) -> int:
    """N as serialize writes it (a decimal-digit string) or as a JSON
    integer; a sign, a bool, a float or any other string is not a vertex
    count."""
    what = "malformed SGR bundle: N"
    if type(value) is str and value[:1] != "-":
        value = text_int(value, what)
    return json_int(value, what)


def from_json_obj(obj) -> Sgr:
    """The SGR of a JSON object; every failure is a ParseError, including
    an N that Sgr refuses (below 1, or above 2^label_bits)."""
    try:
        n = _vertex_count(obj["N"])
        return Sgr(n, circuit_mod.from_json_obj(obj["circuit"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed SGR bundle: {exc}") from exc
    except BadParam as exc:
        raise ParseError(str(exc)) from exc
