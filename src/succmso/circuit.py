"""Gate-level Boolean circuits: representation, evaluation, synthesis, file format.

A ``BoolCircuit`` is a list of gates of fan-in at most 2 over 2 *
label_bits input wires, x's bits then y's, and an output gate; C(x, y) is
the output's value on labels x and y. One interpreter, ``_run``, gives the
gates their meaning, bit-parallel: ``rows`` runs it once for a block of
rows, and ``eval`` runs it on the residual circuit of its row
(``_residual``). ``CircuitBuilder`` synthesizes circuits from bundles of
bits, folding and sharing gates as it emits them, and builds the output's
cone (``_cone``). ``_check_gates`` is the one check of a gate list, and
``serialize`` and ``parse`` give the JSON format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product

from .errors import BadParam, InputOutOfRange, ParseError, TopologyError
from .graph import json_value

# Cap on label_bits. Evaluation builds one lane per input wire, so the
# work of any pass grows with label_bits; 2^16 bits label the vertices of
# a reduction from a CNF with about 65,000 variables.
MAX_LABEL_BITS = 1 << 16

# The bits of each byte value, lowest first: eval cuts y's bits from y's
# bytes with it, one lookup per 8 bits. product lists the bits of 0 .. 255
# highest first.
_BYTE_BITS = tuple(bits[::-1] for bits in product((0, 1), repeat=8))


@dataclass(frozen=True)
class BoolCircuit:
    """Immutable adjacency circuit on 2*label_bits inputs, one output.

    Input wires 0 .. n-1 carry the first label x, least significant bit
    first, and wires n .. 2n-1 carry y, where n = label_bits. label_bits,
    output and every wire and gate operand are exact ints, never bools. A
    circuit is checked whole (_check_gates) and otherwise taken verbatim:
    nothing is folded or renumbered, so a parsed circuit keeps its gates.
    """

    label_bits: int
    gates: tuple
    output: int

    def __post_init__(self):
        """Check the label width, the output and every gate (_check_gates).
        A tuple of tuples is kept as given; gates in any other iterable, or
        given as lists, are stored as one. Gates that are not iterable are a
        BadParam."""
        _check_label_bits(self.label_bits)
        if type(self.output) is not int:
            raise BadParam(f"output must be a gate index, not {self.output!r:.40}")
        gates = self.gates
        loose = type(gates) is not tuple
        if loose:
            try:
                gates = tuple(gates)
            except TypeError:
                raise BadParam(f"gates must be an iterable, not {gates!r:.40}") from None
        if _check_gates(gates, 2 * self.label_bits, 0):
            loose = True
        if not 0 <= self.output < len(gates):
            raise TopologyError(f"output index {self.output} out of range")
        if loose:
            object.__setattr__(self, "gates", tuple(map(tuple, gates)))

    # The one-entry memo of eval: (x, residual gates, output index) for the
    # last x queried, or (x, None, answer) when the output folds to a
    # constant. Not a field, so it is left out of ==, hash and the JSON
    # form; a miss replaces it whole, so threads that race on it only
    # recompute.
    _row_memo = (None, None, None)

    def eval(self, x: int, y: int) -> bool:
        """Evaluate the circuit on vertex labels x, y: one lane, holding C(x, y).

        A query runs only the residual circuit of row x (_residual), the
        gates that still read y once x is folded in. It cuts y's bits from
        y's bytes and runs _run(residual, (), bits), so it runs no input
        gate and builds no wire list; an output that folds to a constant
        runs nothing, and one that folds to a bit of y has an empty
        residual. The residual of the last x queried is kept, so a query
        with the same x as the one before skips the fold.
        """
        n = self.label_bits
        if type(x) is not int or type(y) is not int:
            raise InputOutOfRange(f"labels ({x!r:.40}, {y!r:.40}) are not integers")
        if not 0 <= x < (1 << n) or not 0 <= y < (1 << n):
            raise InputOutOfRange(f"labels ({x}, {y}) need more than {n} bits")
        last_x, residual, output = self._row_memo
        if last_x != x:
            residual, output = _residual(self.gates, self.output, n, x)
            object.__setattr__(self, "_row_memo", (x, residual, output))
        if residual is None:
            return output
        bits = []  # y's bits, lowest first: the residual's first n values
        for byte in y.to_bytes((n + 7) // 8, "little"):
            bits += _BYTE_BITS[byte]
        del bits[n:]
        return bool(_run(residual, (), bits)[output] & 1)

    def rows(self, x0: int, k: int, count: int) -> int:
        """C(x, y) for the k rows x in [x0, x0 + k) and every y in [0, count),
        as an int whose bit (x - x0) * count + y is C(x, y)."""
        n = self.label_bits
        if type(x0) is not int or type(k) is not int or type(count) is not int:
            raise InputOutOfRange(f"rows ({x0!r:.40}, {k!r:.40}, {count!r:.40}) are not integers")
        if not 0 <= x0 < (1 << n) or not 1 <= count <= (1 << n):
            raise InputOutOfRange(f"row of label {x0} over {count} labels needs more than {n} bits")
        if k < 1 or x0 + k > (1 << n):
            raise InputOutOfRange(f"{k} rows from label {x0} need more than {n} bits")
        wires = (*_x_lanes(n, x0, k, count), *_y_lanes(n, k, count))
        lanes = _run(self.gates, wires, [])[self.output]
        return lanes & ((1 << (k * count)) - 1)

    def gate_count(self) -> int:
        return len(self.gates)

    def to_json_obj(self):
        return {
            "version": 1,
            "label_bits": self.label_bits,
            "gates": self.gates,  # json.dumps writes tuples as arrays
            "output": self.output,
        }


def _run(gates, wires, values):
    """The circuit interpreter: append the value of each gate in turn to
    values, where input gate ("input", w) reads wires[w] and an operand j
    reads values[j], and return values.

    It is bit-parallel (bitslicing): each value is an int with one bit per
    lane, one (x, y) pair each, so one pass over the gates evaluates every
    lane at once. Each wire holds one lane int, and "not" is ~v (all-ones ^
    v). A value may carry set bits above the lanes in use; callers mask it.
    """
    for gate in gates:
        kind = gate[0]
        if kind == "and":
            values.append(values[gate[1]] & values[gate[2]])
        elif kind == "or":
            values.append(values[gate[1]] | values[gate[2]])
        elif kind == "not":
            values.append(~values[gate[1]])
        elif kind == "input":
            values.append(wires[gate[1]])
        else:
            values.append(-gate[1])
    return values


def _residual(gates, output, label_bits, x):
    """Gates and output fixed at first argument x, as (residual, output):
    the circuit on y alone that gives C(x, y) for every y, or (None, answer)
    when the output does not depend on y.

    The residual's values start with y's label_bits bits, value j being
    bit j of y, so its gates are numbered from label_bits on and it holds
    no input gate. One pass in gate order folds: x-wire inputs and consts
    become constants; a y-wire input becomes the index of its bit; and, or
    and not of constants fold to a constant; an and/or with one constant
    operand becomes that constant or its other operand; every other gate is
    kept, appended as a tuple to a list headed by label_bits placeholders
    for y's bits, so a kept gate's list index is its value index. The
    output's cone is then taken from that list by _cone, with the
    placeholders as its head, so each and/or keeps its operands' order.
    When the output is a y bit, residual is () and output is that bit's
    index. On the compiled reductions at the bench sizes (the toy
    quadruple at s = 16 and 20, the shared-port quadruple at s = 12) a
    residual keeps a median of 32 of their 452-644 gates.

    The fold is partial evaluation, not a second interpreter: it never
    reads y, and every answer that depends on y comes from _run, as in
    rows, so the gates' semantics live in one place.
    """
    n = label_bits
    zero, one = ~0, ~1  # a folded value is ~c for constant c, else a value index
    kept = [None] * n  # y's bits, then each kept gate at its value index
    place = []  # each gate's folded value
    top = n  # the value index of the next kept gate
    # list.append is called by name, not through a bound alias: Python
    # 3.11 specializes that call, about 6% of the fold
    for gate in gates:
        kind = gate[0]
        if kind == "and":
            a, b = place[gate[1]], place[gate[2]]
            if a == zero or b == zero:
                place.append(zero)
            elif a == one:
                place.append(b)
            elif b == one:
                place.append(a)
            else:
                place.append(top)
                top += 1
                kept.append((kind, a, b))
        elif kind == "or":
            a, b = place[gate[1]], place[gate[2]]
            if a == one or b == one:
                place.append(one)
            elif a == zero:
                place.append(b)
            elif b == zero:
                place.append(a)
            else:
                place.append(top)
                top += 1
                kept.append((kind, a, b))
        elif kind == "not":
            a = place[gate[1]]
            if a < 0:
                place.append(zero + one - a)  # swaps zero and one
            else:
                place.append(top)
                top += 1
                kept.append((kind, a))
        elif kind == "input":
            w = gate[1]
            place.append(~(x >> w & 1) if w < n else w - n)
        else:
            place.append(~gate[1])
    out = place[output]
    if out < 0:
        return None, out == one
    if out < n:
        return (), out
    cone = _cone(kept, out, n)[0]
    return cone[n:], len(cone) - 1


def _cone(gates, output, head=0, tops=()):
    """The gates the output reads, directly or not, renumbered in order, so
    the output is the last gate, as (kept, index, taken): kept starts with
    gates[:taken] as they are, and index[i - taken] is gate i's new index,
    or -1. One backward pass marks the gates, one forward pass renumbers
    them, keeping each and/or's operands in the order they had. It serves
    build and cone_prefix, whose gate lists hold their inputs as gates, and
    _residual, whose list starts with a head of label_bits placeholders
    for y's bits, which the walks never reach.

    A layout from CircuitBuilder.cone_prefix passes its head length and
    tops: both passes walk only the gates from head on. Unless the output
    reads every top, part of the head is dead, and the plain cone is
    taken, with taken 0.
    """
    if output < head:
        head, tops = 0, ()
    live = bytearray(output + 1)
    live[output] = 1
    # reversed(live) reads each mark when the walk reaches it, after every
    # later gate has marked its operands
    for i in compress(range(output, head - 1, -1), reversed(live)):
        gate = gates[i]
        kind = gate[0]
        if kind == "and" or kind == "or":
            live[gate[1]] = live[gate[2]] = 1
        elif kind == "not":
            live[gate[1]] = 1
    if not all(live[t] for t in tops):
        return _cone(gates, output)
    index = [-1] * (output + 1 - head)
    kept = gates[:head]
    for i in compress(range(head, output + 1), live[head:]):
        gate = gates[i]
        kind = gate[0]
        if kind == "and" or kind == "or":
            a, b = gate[1], gate[2]
            if a >= head:
                a = index[a - head]
            if b >= head:
                b = index[b - head]
            gate = (kind, a, b)
        elif kind == "not":
            a = gate[1]
            if a >= head:
                a = index[a - head]
            gate = (kind, a)
        index[i - head] = len(kept)
        kept.append(gate)
    return tuple(kept), index, head


def _check_gates(gates, wires, start):
    """Check gates[start:], the gates before start being checked already,
    in one pass: the only check of a gate list. Returns whether some gate is
    a list, not a tuple; a gate that is neither, or is empty, is a BadParam.
    A gate is a known kind with its operand count; a wire or const operand
    is an exact int in range, and a gate operand an exact int naming an
    earlier gate (_check_refs), never a bool. BoolCircuit runs it from gate
    0; CircuitBuilder.cone_prefix runs it on a layout's head, once, and
    build on that layout only on the gates after the head."""
    loose = False
    for i in range(start, len(gates)):
        gate = gates[i]
        if type(gate) is not tuple:
            if type(gate) is not list:  # exact types: isinstance cost ~80 ns a gate
                raise BadParam(f"gate {i} is malformed")
            loose = True
        if not gate:
            raise BadParam(f"gate {i} is malformed")
        kind = gate[0]
        # unpacking checks the operand count: a len() call costs ~40 ns a gate
        if kind == "and" or kind == "or":
            try:
                _, a, b = gate
            except ValueError:
                raise BadParam(f"gate {i}: {kind} takes 2 operand(s)") from None
            if not (type(a) is int and type(b) is int and 0 <= a < i and 0 <= b < i):
                _check_refs(i, a, b)
        elif kind == "not":
            try:
                _, a = gate
            except ValueError:
                raise BadParam(f"gate {i}: not takes 1 operand(s)") from None
            if not (type(a) is int and 0 <= a < i):
                _check_refs(i, a)
        else:
            if kind != "input" and kind != "const":
                raise BadParam(f"gate {i}: unknown kind {kind!r}")
            try:
                _, a = gate
            except ValueError:
                raise BadParam(f"gate {i}: {kind} takes 1 operand(s)") from None
            if kind == "input":
                if type(a) is not int or not 0 <= a < wires:
                    raise BadParam(f"gate {i}: input wire {a!r} out of range")
            elif type(a) is not int or a not in (0, 1):
                raise BadParam(f"gate {i}: const must be 0 or 1")
    return loose


def _check_label_bits(label_bits):
    """Raise BadParam unless label_bits is an exact int in [1,
    MAX_LABEL_BITS]; BoolCircuit and CircuitBuilder both call it."""
    if type(label_bits) is not int or label_bits < 1:
        raise BadParam(f"label_bits must be an integer >= 1, not {label_bits!r:.40}")
    if label_bits > MAX_LABEL_BITS:
        raise BadParam(f"label_bits {label_bits} exceeds the cap {MAX_LABEL_BITS}")


def _check_refs(i, *refs):
    """Raise for the first operand of gate i that is not an earlier gate; a
    bool is not a gate index. _check_gates calls it only when its inlined
    test fails."""
    for j in refs:
        if type(j) is not int or not 0 <= j < i:
            raise TopologyError(f"gate {i} references gate {j}")


@lru_cache(maxsize=4)
def _y_lanes(label_bits: int, k: int, count: int) -> tuple:
    """The y-wire lanes of a k-row block: the x-lanes of rows [0, count)
    with one lane per row (mask j has bit y set iff bit j of y is 1), each
    repeated at every multiple of count. No carries occur, as each mask is
    below 2^count."""
    repeater = ((1 << (k * count)) - 1) // ((1 << count) - 1)  # sum of 2^(i*count), i < k
    return tuple(mask * repeater for mask in _x_lanes(label_bits, 0, count, 1))


def _x_lanes(label_bits: int, x0: int, k: int, count: int) -> list:
    """The x-wire lanes of rows x0 .. x0+k-1: lane j has the count bits of
    row i all set iff bit j of x0 + i is 1.

    Bits at and above the highest bit in which x0 and x0 + k - 1 differ
    are the same in every row, so their lanes are -1 or 0, which stay
    small ints through the gate pass. Below it, bit j of x0 + i has period
    2^(j+1) in i: while 2^j < k, one period is doubled until it covers the
    block; otherwise the bit flips once within the block.
    """
    top = (x0 ^ (x0 + k - 1)).bit_length()
    block = (1 << (k * count)) - 1
    lanes = []
    for j in range(top):
        half = 1 << j
        phase = x0 & (2 * half - 1)  # where x0 sits in the period
        if half < k:
            pattern, covered = ((1 << (half * count)) - 1) << (half * count), 2 * half
            while covered < phase + k:
                pattern |= pattern << (covered * count)
                covered *= 2
            lanes.append((pattern >> (phase * count)) & block)
        else:
            ones = phase >= half  # bit j of x0
            flip = (2 * half if ones else half) - phase  # rows before the flip
            head = (1 << (flip * count)) - 1
            lanes.append(head if ones else block ^ head)
    lanes += [-(x0 >> j & 1) for j in range(top, label_bits)]
    return lanes


def serialize(circuit: BoolCircuit) -> str:
    """The JSON circuit format. BoolCircuit's check leaves only gate tuples
    of one str and some ints, which hold no container, so json.dumps's
    cycle check (about half its time on a compiled circuit) is skipped;
    the text is the same."""
    return json.dumps(circuit.to_json_obj(), check_circular=False)


def parse(text: str) -> BoolCircuit:
    """Parse the JSON circuit format; inverse of serialize."""
    return from_json_obj(json_value(text))


def from_json_obj(obj) -> BoolCircuit:
    """A circuit from its JSON object. A version, if given, must be the
    exact int 1, the only format there is; a circuit without one reads as
    version 1."""
    if not isinstance(obj, dict):
        raise ParseError("circuit object must be a JSON object")
    version = obj.get("version", 1)
    if type(version) is not int or version != 1:
        raise ParseError(f"circuit version {version!r} is not 1")
    try:
        label_bits = obj["label_bits"]
        gates = obj["gates"]
        output = obj["output"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing circuit field: {exc}") from exc
    if not isinstance(gates, list):
        raise ParseError("gates must be a list")
    try:
        return BoolCircuit(label_bits, gates, output)
    except BadParam as exc:
        raise ParseError(str(exc)) from exc


class CircuitBuilder:
    """Appends gates to a circuit under construction.

    Synthesis primitives return either a single gate index (a bit) or a
    bundle (a multi-bit unsigned value): a tuple of gate indices, least
    significant bit first.
    """

    def __init__(self, label_bits: int):
        _check_label_bits(label_bits)
        self.label_bits = label_bits
        self._gates = []
        self._cache = {}
        self._head, self._tops = 0, ()  # a layout's head length and tops

    def copy(self) -> CircuitBuilder:
        """A builder with the same gates, extended without changing this one.
        Gates are tuples, so only the list and the hash table are copied; a
        layout's head and tops are kept."""
        other = CircuitBuilder(self.label_bits)
        other._gates = self._gates.copy()
        other._cache = self._cache.copy()
        other._head, other._tops = self._head, self._tops
        return other

    def _emit(self, gate):
        """Fold the gate into an existing one if an identity allows, else
        share a structurally equal gate (structural hashing) or append it.

        An and/or with a constant, equal or complementary operand, and a not
        of a constant or of a not, become an existing gate or a constant;
        and/or operands are put in canonical order, so commuted gates are
        shared."""
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
        """The conjunction of bits, as a ladder of fan-in-2 ands."""
        bits = list(bits)
        if not bits:
            return self.const(1)
        acc = bits[0]
        for b in bits[1:]:
            acc = self.and_(acc, b)
        return acc

    def or_many(self, bits) -> int:
        """The disjunction of bits, as a ladder of fan-in-2 ors."""
        bits = list(bits)
        if not bits:
            return self.const(0)
        acc = bits[0]
        for b in bits[1:]:
            acc = self.or_(acc, b)
        return acc

    # -- bundles ---------------------------------------------------------

    def x_bundle(self) -> tuple:
        return tuple(self.input(w) for w in range(self.label_bits))

    def y_bundle(self) -> tuple:
        n = self.label_bits
        return tuple(self.input(n + w) for w in range(n))

    def const_bundle(self, value: int, width: int) -> tuple:
        if value < 0 or width < 1 or value >= (1 << width):
            raise BadParam(f"constant {value} does not fit {width} bits")
        return tuple(self.const((value >> i) & 1) for i in range(width))

    def pad(self, bundle: tuple, width: int) -> tuple:
        bundle = tuple(bundle)
        if len(bundle) >= width:
            return bundle[:width]
        return bundle + (self.const(0),) * (width - len(bundle))

    # -- comparison ------------------------------------------------------

    def eq_const(self, bundle: tuple, c: int) -> int:
        """Bit that is 1 iff the bundle value equals constant c."""
        if c < 0:
            raise BadParam("negative constant")
        if c >= (1 << len(bundle)):
            return self.const(0)
        return self.and_many(
            bit if (c >> i) & 1 else self.not_(bit) for i, bit in enumerate(bundle)
        )

    def eq(self, a: tuple, b: tuple) -> int:
        w = max(len(a), len(b))
        a, b = self.pad(a, w), self.pad(b, w)
        return self.and_many(self.xnor_(x, y) for x, y in zip(a, b))

    def less_const(self, bundle: tuple, c: int) -> int:
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

    def add_const(self, bundle: tuple, c: int) -> tuple:
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
        return tuple(out)

    def sub_const(self, bundle: tuple, c: int) -> tuple:
        """Subtract a constant mod 2^w (wrapping two's complement)."""
        w = len(bundle)
        if not 0 <= c < (1 << w):
            raise BadParam(f"constant {c} does not fit the bundle width")
        return self.add_const(bundle, ((1 << w) - c) % (1 << w))

    def _add_bundles(self, a: tuple, b: tuple, width: int) -> tuple:
        a, b = self.pad(a, width), self.pad(b, width)
        out = []
        carry = self.const(0)
        for x, y in zip(a, b):
            s = self.xor_(self.xor_(x, y), carry)
            carry = self.or_(self.and_(x, y), self.and_(carry, self.xor_(x, y)))
            out.append(s)
        return tuple(out)

    def mul_const(self, bundle: tuple, c: int) -> tuple:
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
                shifted = (zero,) * p + tuple(bundle)
                acc = shifted if acc is None else self._add_bundles(acc, shifted, out_w)
        return self.pad(acc, out_w)

    def divmod_const(self, bundle: tuple, d: int):
        """Restoring long division by a positive constant.

        Returns (quotient, remainder): quotient has the input width,
        remainder has bit_length(d) bits. A power of two 2^k is wiring:
        the quotient is the bundle above bit k and the remainder its low
        k bits, each padded with the zero constant, and no other gate is
        emitted.
        """
        if d <= 0:
            raise BadParam("divisor must be positive")
        w = len(bundle)
        rb = max(d.bit_length(), 1)
        if d & (d - 1) == 0:
            k = rb - 1
            return self.pad(bundle[k:], w), self.pad(bundle[:k], rb)
        rem = self.const_bundle(0, rb)
        q_bits = [None] * w
        for i in reversed(range(w)):
            shifted = (bundle[i],) + rem  # rem*2 + bit, width rb+1
            ge = self.not_(self.less_const(shifted, d))
            reduced = self.add_const(shifted, ((1 << (rb + 1)) - d))
            rem = tuple(
                self.or_(self.and_(ge, r), self.and_(self.not_(ge), s))
                for s, r in zip(shifted[:rb], reduced[:rb])
            )
            q_bits[i] = ge
        return tuple(q_bits), rem

    # -- selection -------------------------------------------------------

    def mux_bit(self, s: int, if0: int, if1: int) -> int:
        return self.or_(self.and_(s, if1), self.and_(self.not_(s), if0))

    # -- CNF embedding ---------------------------------------------------

    def cnf_eval(self, clauses, var_bundle: tuple) -> int:
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
        """The circuit of the output's cone (``_cone``), renumbered in order,
        so every gate but the output is read by a later gate. On a layout
        (cone_prefix) or its copy, when the output reads the whole head, the
        head is kept as it is and only the gates after it are walked and
        checked (_check_gates). The builder is left as it was, so building
        mid-construction is fine."""
        gates = self._gates
        if not 0 <= output < len(gates):
            raise TopologyError(f"output index {output} out of range")
        kept, _, checked = _cone(gates, output, self._head, self._tops)
        _check_gates(kept, 2 * self.label_bits, checked)
        circuit = object.__new__(BoolCircuit)  # all checked: no __post_init__
        vars(circuit).update(label_bits=self.label_bits, gates=kept, output=len(kept) - 1)
        return circuit

    def opaque(self) -> int:
        """A fresh gate for a bit not known yet: no identity folds it and no
        other gate equals it. It has no value, so a builder that holds one
        serves cone_prefix only, never build."""
        gates = self._gates
        gates.append(("opaque", len(gates)))
        return len(gates) - 1

    def cone_prefix(self, output: int, size: int) -> tuple:
        """For a builder extended many times from its first size gates, the
        base, laid out head-first so that a build walks only the gates added
        since: (layout, place), a new builder and base gate i's index in it.
        The head, the output's cone among the base's gates in order, comes
        first and is checked here, once (_check_gates): an opaque gate in it
        is a BadParam. Every other base gate follows in order, re-emitted
        with its operands remapped. The layout keeps its head length and
        tops, the head gates that no head gate reads. As a gate follows its
        operands in both orders, folding and structural hashing give the
        layout, extended, the gates this builder would get."""
        gates = self._gates
        kept, place, _ = _cone(gates, output)
        # an output below size leaves place shorter than size
        place = (place + [-1] * size)[:size]
        head = kept[: size - place.count(-1)]
        _check_gates(head, 2 * self.label_bits, 0)
        layout = CircuitBuilder(self.label_bits)
        layout._gates = list(head)
        layout._cache = {gate: i for i, gate in enumerate(head)}
        for i in range(size):
            if place[i] < 0:
                gate = gates[i]
                if gate[0] in ("and", "or", "not"):
                    gate = (gate[0], *(place[j] for j in gate[1:]))
                place[i] = layout._emit(gate)
        read = {j for gate in head if gate[0] in ("and", "or", "not") for j in gate[1:]}
        layout._head = len(head)
        layout._tops = tuple(i for i in range(len(head)) if i not in read)
        return layout, place
