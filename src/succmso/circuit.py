"""Gate-level Boolean circuits: representation, evaluation, synthesis, file format.

A circuit has ``2 * label_bits`` input wires: wires ``0 .. n-1`` carry the
first argument x least-significant-bit first, wires ``n .. 2n-1`` carry y.
Gates are fan-in <= 2; wider conjunctions/disjunctions are ladders.

Evaluation is bit-parallel (bitslicing): one pass over the gate list
evaluates a fixed x against many y at once. Each gate value is a Python int
with one bit per lane, and lane y holds the gate's value at (x, y). An
x-wire is all-ones (-1) or zero, a y-wire is a precomputed lane mask,
``not`` is ``~v`` (all-ones ^ v), and the output is cut to the lanes in use.
``BoolCircuit.row`` evaluates x against every y in ``[0, count)``;
``BoolCircuit.eval`` is the one-lane case of the same interpreter.

``CircuitBuilder`` simplifies as it synthesizes. Each gate is folded before
the structural-hash lookup: ``and``/``or`` with a constant, equal or
complementary operand, and ``not`` of a constant or of a ``not``, become an
existing gate or a constant, and ``and``/``or`` operands are put in
canonical order so commuted gates are shared. ``build(output)`` keeps only
the gates in the output's cone, renumbered in order, so every gate of a
built circuit but the output is read by a later gate. Circuits read by
``parse`` are taken verbatim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .errors import BadParam, InputOutOfRange, ParseError, TopologyError

_GATE_KINDS = {"input", "const", "not", "and", "or"}


@dataclass(frozen=True)
class BoolCircuit:
    """Immutable adjacency circuit on 2*label_bits inputs, one output."""

    label_bits: int
    gates: tuple
    output: int

    def __post_init__(self):
        if self.label_bits < 1:
            raise BadParam("label_bits must be >= 1")
        object.__setattr__(self, "gates", tuple(tuple(g) for g in self.gates))
        for i, gate in enumerate(self.gates):
            kind = gate[0]
            if kind == "input":
                w = gate[1]
                if not 0 <= w < 2 * self.label_bits:
                    raise BadParam(f"gate {i}: input wire {w} out of range")
            elif kind == "const":
                if gate[1] not in (0, 1):
                    raise BadParam(f"gate {i}: const must be 0 or 1")
            elif kind == "not":
                self._check_ref(i, gate[1])
            elif kind in ("and", "or"):
                self._check_ref(i, gate[1])
                self._check_ref(i, gate[2])
            else:
                raise BadParam(f"gate {i}: unknown kind {kind!r}")
        if not 0 <= self.output < len(self.gates):
            raise TopologyError(f"output index {self.output} out of range")

    def _check_ref(self, i, j):
        if not isinstance(j, int) or not 0 <= j < i:
            raise TopologyError(f"gate {i} references gate {j}")

    def eval(self, x: int, y: int) -> bool:
        """Evaluate the circuit on vertex labels x, y: one lane, holding y."""
        n = self.label_bits
        if not 0 <= x < (1 << n) or not 0 <= y < (1 << n):
            raise InputOutOfRange(f"labels ({x}, {y}) need more than {n} bits")
        return bool(self._lanes(x, [(y >> j) & 1 for j in range(n)]) & 1)

    def row(self, x: int, count: int) -> int:
        """C(x, y) for every y in [0, count), as an int whose bit y is C(x, y)."""
        n = self.label_bits
        if not 0 <= x < (1 << n) or not 1 <= count <= (1 << n):
            raise InputOutOfRange(f"row of label {x} over {count} labels needs more than {n} bits")
        return self._lanes(x, _lane_masks(n, count)) & ((1 << count) - 1)

    def _lanes(self, x, y_lanes):
        """One pass over the gates with x fixed and y-wire j set to y_lanes[j].

        The result may carry set bits above the lanes in use; callers mask it.
        """
        n = self.label_bits
        values = []
        push = values.append
        for gate in self.gates:
            kind = gate[0]
            if kind == "and":
                push(values[gate[1]] & values[gate[2]])
            elif kind == "or":
                push(values[gate[1]] | values[gate[2]])
            elif kind == "not":
                push(~values[gate[1]])
            elif kind == "input":
                w = gate[1]
                push(y_lanes[w - n] if w >= n else -((x >> w) & 1))
            else:
                push(-gate[1])
        return values[self.output]

    def gate_count(self) -> int:
        return len(self.gates)

    def to_json_obj(self):
        return {
            "version": 1,
            "label_bits": self.label_bits,
            "gates": [list(g) for g in self.gates],
            "output": self.output,
        }


@lru_cache(maxsize=4)
def _lane_masks(label_bits: int, count: int) -> tuple:
    """Mask j has bit y set iff bit j of y is 1, for every lane y < count.

    Each mask is its period-2^(j+1) pattern (2^j zeros, then 2^j ones)
    doubled until it covers count lanes, so building all of them costs
    O(label_bits * count / 64) word operations.
    """
    masks = []
    for j in range(label_bits):
        half = 1 << j
        if half >= count:
            masks.append(0)
            continue
        mask, width = ((1 << half) - 1) << half, 2 * half
        while width < count:
            mask |= mask << width
            width *= 2
        masks.append(mask & ((1 << count) - 1))
    return tuple(masks)


def serialize(circuit: BoolCircuit) -> str:
    return json.dumps(circuit.to_json_obj())


def parse(text: str) -> BoolCircuit:
    """Parse the JSON circuit format; inverse of serialize."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    return from_json_obj(obj)


def from_json_obj(obj) -> BoolCircuit:
    if not isinstance(obj, dict):
        raise ParseError("circuit object must be a JSON object")
    try:
        label_bits = obj["label_bits"]
        gates = obj["gates"]
        output = obj["output"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing circuit field: {exc}") from exc
    if not isinstance(gates, list):
        raise ParseError("gates must be a list")
    for i, g in enumerate(gates):
        if not isinstance(g, list) or not g or g[0] not in _GATE_KINDS:
            raise ParseError(f"gate {i} is malformed")
    try:
        return BoolCircuit(label_bits, tuple(tuple(g) for g in gates), output)
    except BadParam as exc:
        raise ParseError(str(exc)) from exc


class WireBundle(tuple):
    """Ordered gate indices read as an unsigned integer, LSB first."""

    @property
    def width(self):
        return len(self)


class CircuitBuilder:
    """Appends gates to a circuit under construction.

    Synthesis primitives return either a single gate index (a bit) or a
    WireBundle (a multi-bit unsigned value).
    """

    def __init__(self, label_bits: int):
        if label_bits < 1:
            raise BadParam("label_bits must be >= 1")
        self.label_bits = label_bits
        self._gates = []
        self._cache = {}

    def _emit(self, gate):
        """Fold the gate into an existing one if an identity allows, else
        share a structurally equal gate (structural hashing) or append it."""
        cache = self._cache
        idx = cache.get(gate)
        if idx is not None:  # only folded, canonical gates are ever cached
            return idx
        kind = gate[0]
        gates = self._gates
        if kind == "and" or kind == "or":
            a, b = gate[1], gate[2]
            if a > b:
                a, b = b, a
            ka, kb = gates[a][0], gates[b][0]
            if ka == "const" or kb == "const":
                dominant = 0 if kind == "and" else 1
                if ka == "const":
                    return a if gates[a][1] == dominant else b
                return b if gates[b][1] == dominant else a
            if a == b:
                return a
            # a gate only reads earlier gates, so ~a can only sit at b
            if kb == "not" and gates[b][1] == a:
                return self.const(kind == "or")
            if a != gate[1]:
                gate = (kind, a, b)
                idx = cache.get(gate)
                if idx is not None:
                    return idx
        elif kind == "not":
            sub = gates[gate[1]]
            if sub[0] == "not":
                return sub[1]
            if sub[0] == "const":
                return self.const(not sub[1])
        idx = len(gates)
        gates.append(gate)
        cache[gate] = idx
        return idx

    # -- elementary gates ------------------------------------------------

    def input(self, w: int) -> int:
        if not 0 <= w < 2 * self.label_bits:
            raise BadParam(f"input wire {w} out of range")
        return self._emit(("input", w))

    def const(self, b) -> int:
        return self._emit(("const", 1 if b else 0))

    def not_(self, g: int) -> int:
        return self._emit(("not", g))

    def and_(self, g: int, h: int) -> int:
        return self._emit(("and", g, h))

    def or_(self, g: int, h: int) -> int:
        return self._emit(("or", g, h))

    def xor_(self, g, h):
        return self.or_(self.and_(g, self.not_(h)), self.and_(self.not_(g), h))

    def xnor_(self, g, h):
        return self.or_(self.and_(g, h), self.and_(self.not_(g), self.not_(h)))

    def and_many(self, bits) -> int:
        bits = list(bits)
        if not bits:
            return self.const(1)
        acc = bits[0]
        for b in bits[1:]:
            acc = self.and_(acc, b)
        return acc

    def or_many(self, bits) -> int:
        bits = list(bits)
        if not bits:
            return self.const(0)
        acc = bits[0]
        for b in bits[1:]:
            acc = self.or_(acc, b)
        return acc

    # -- bundles ---------------------------------------------------------

    def x_bundle(self) -> WireBundle:
        return WireBundle(self.input(w) for w in range(self.label_bits))

    def y_bundle(self) -> WireBundle:
        n = self.label_bits
        return WireBundle(self.input(n + w) for w in range(n))

    def const_bundle(self, value: int, width: int) -> WireBundle:
        if value < 0 or width < 1 or value >= (1 << width):
            raise BadParam(f"constant {value} does not fit {width} bits")
        return WireBundle(self.const((value >> i) & 1) for i in range(width))

    def pad(self, bundle: WireBundle, width: int) -> WireBundle:
        if len(bundle) >= width:
            return WireBundle(bundle[:width])
        zero = self.const(0)
        return WireBundle(tuple(bundle) + (zero,) * (width - len(bundle)))

    # -- comparison ------------------------------------------------------

    def eq_const(self, bundle: WireBundle, c: int) -> int:
        """Bit that is 1 iff the bundle value equals constant c."""
        if c < 0:
            raise BadParam("negative constant")
        if c >= (1 << len(bundle)):
            return self.const(0)
        return self.and_many(
            bit if (c >> i) & 1 else self.not_(bit) for i, bit in enumerate(bundle)
        )

    def eq(self, a: WireBundle, b: WireBundle) -> int:
        w = max(len(a), len(b))
        a, b = self.pad(a, w), self.pad(b, w)
        return self.and_many(self.xnor_(x, y) for x, y in zip(a, b))

    def less_const(self, bundle: WireBundle, c: int) -> int:
        """Bit that is 1 iff bundle value < constant c (unsigned)."""
        if c < 0:
            raise BadParam("negative constant")
        if c >= (1 << len(bundle)):
            return self.const(1)
        lt = self.const(0)
        eq_prefix = self.const(1)
        for i in reversed(range(len(bundle))):
            bit = bundle[i]
            if (c >> i) & 1:
                lt = self.or_(lt, self.and_(eq_prefix, self.not_(bit)))
                eq_prefix = self.and_(eq_prefix, bit)
            else:
                eq_prefix = self.and_(eq_prefix, self.not_(bit))
        return lt

    # -- arithmetic ------------------------------------------------------

    def add_const(self, bundle: WireBundle, c: int) -> WireBundle:
        """Add a constant, result truncated to the bundle width (mod 2^w)."""
        if not 0 <= c < (1 << len(bundle)):
            raise BadParam(f"constant {c} does not fit the bundle width")
        out = []
        carry = self.const(0)
        for i, bit in enumerate(bundle):
            if (c >> i) & 1:
                out.append(self.xnor_(bit, carry))
                carry = self.or_(bit, carry)
            else:
                out.append(self.xor_(bit, carry))
                carry = self.and_(bit, carry)
        return WireBundle(out)

    def sub_const(self, bundle: WireBundle, c: int) -> WireBundle:
        """Subtract a constant mod 2^w (wrapping two's complement)."""
        w = len(bundle)
        if not 0 <= c < (1 << w):
            raise BadParam(f"constant {c} does not fit the bundle width")
        return self.add_const(bundle, ((1 << w) - c) % (1 << w))

    def _add_bundles(self, a: WireBundle, b: WireBundle, width: int) -> WireBundle:
        a, b = self.pad(a, width), self.pad(b, width)
        out = []
        carry = self.const(0)
        for x, y in zip(a, b):
            s = self.xor_(self.xor_(x, y), carry)
            carry = self.or_(self.and_(x, y), self.and_(carry, self.xor_(x, y)))
            out.append(s)
        return WireBundle(out)

    def mul_const(self, bundle: WireBundle, c: int) -> WireBundle:
        """Shift-and-add multiplier by a nonnegative constant."""
        if c < 0:
            raise BadParam("negative constant")
        w = len(bundle)
        if c == 0:
            return self.const_bundle(0, w)
        out_w = w + c.bit_length()
        zero = self.const(0)
        acc = None
        for p in range(c.bit_length()):
            if (c >> p) & 1:
                shifted = WireBundle((zero,) * p + tuple(bundle))
                acc = shifted if acc is None else self._add_bundles(acc, shifted, out_w)
        return self.pad(acc, out_w)

    def divmod_const(self, bundle: WireBundle, d: int):
        """Restoring long division by a positive constant.

        Returns (quotient, remainder): quotient has the input width,
        remainder has bit_length(d) bits.
        """
        if d <= 0:
            raise BadParam("divisor must be positive")
        w = len(bundle)
        rb = max(d.bit_length(), 1)
        rem = self.const_bundle(0, rb)
        q_bits = [None] * w
        for i in reversed(range(w)):
            shifted = WireBundle((bundle[i],) + tuple(rem))  # rem*2 + bit, width rb+1
            ge = self.not_(self.less_const(shifted, d))
            reduced = self.add_const(shifted, ((1 << (rb + 1)) - d))
            rem = WireBundle(
                self.or_(self.and_(ge, r), self.and_(self.not_(ge), s))
                for s, r in zip(shifted[:rb], reduced[:rb])
            )
            q_bits[i] = ge
        return WireBundle(q_bits), rem

    # -- selection -------------------------------------------------------

    def mux_bit(self, s: int, if0: int, if1: int) -> int:
        return self.or_(self.and_(s, if1), self.and_(self.not_(s), if0))

    # -- CNF embedding ---------------------------------------------------

    def cnf_eval(self, clauses, var_bundle: WireBundle) -> int:
        """Bit that is 1 iff the clause list is satisfied.

        Variable j (1-based) reads bit j-1 of the bundle. An empty clause
        list is the empty conjunction, i.e. constant true.
        """
        clause_bits = []
        for clause in clauses:
            lits = []
            for lit in clause:
                if lit == 0 or abs(lit) > len(var_bundle):
                    raise BadParam(f"literal {lit} out of range")
                bit = var_bundle[abs(lit) - 1]
                lits.append(bit if lit > 0 else self.not_(bit))
            clause_bits.append(self.or_many(lits))
        return self.and_many(clause_bits)

    # -- finish ----------------------------------------------------------

    def gate_count(self) -> int:
        return len(self._gates)

    def build(self, output: int) -> BoolCircuit:
        """The circuit of the output's cone: one backward pass marks the
        gates the output reads, one forward pass renumbers them in order.
        The builder is left as it was, so building mid-construction is fine."""
        gates = self._gates
        if not 0 <= output < len(gates):
            raise TopologyError(f"output index {output} out of range")
        live = bytearray(output + 1)
        live[output] = 1
        for i in range(output, -1, -1):
            if live[i]:
                gate = gates[i]
                kind = gate[0]
                if kind == "and" or kind == "or":
                    live[gate[1]] = live[gate[2]] = 1
                elif kind == "not":
                    live[gate[1]] = 1
        new_index = [0] * (output + 1)
        kept = []
        for i in range(output + 1):
            if live[i]:
                gate = gates[i]
                kind = gate[0]
                if kind == "and" or kind == "or":
                    gate = (kind, new_index[gate[1]], new_index[gate[2]])
                elif kind == "not":
                    gate = (kind, new_index[gate[1]])
                new_index[i] = len(kept)
                kept.append(gate)
        return BoolCircuit(self.label_bits, tuple(kept), len(kept) - 1)
