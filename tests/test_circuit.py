import hashlib
import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from succmso import circuit, sgr
from succmso.circuit import MAX_LABEL_BITS, BoolCircuit, CircuitBuilder, parse, serialize
from succmso.errors import BadParam, InputOutOfRange, ParseError, SuccmsoError, TopologyError
from succmso.graph import graph_equal
from succmso.reduce import (
    CnfInstance,
    compile_reduction,
    reduce_clique,
    reduce_loop,
    succ_ref_graph,
)
from succmso.sgr import materialize
from succmso.verify import seeded_cnf_battery

from test_reduce import QUADRUPLES


def bundle_value(builder, bundle, x, y):
    """Read a bundle's integer value by evaluating one probe circuit per bit."""
    total = 0
    for i, g in enumerate(bundle):
        if builder.build(g).eval(x, y):
            total |= 1 << i
    return total


def test_hand_built_circuit():
    # x0 and not y0
    c = BoolCircuit(1, [("input", 0), ("input", 1), ("not", 1), ("and", 0, 2)], 3)
    assert c.eval(1, 0) is True
    assert c.eval(1, 1) is False
    assert c.eval(0, 0) is False


def test_validation_errors():
    with pytest.raises(BadParam):
        BoolCircuit(1, [("input", 5)], 0)
    with pytest.raises(BadParam):
        BoolCircuit(1, [("frob", 0)], 0)
    with pytest.raises(TopologyError):
        BoolCircuit(1, [("not", 0)], 0)  # self-reference
    with pytest.raises(TopologyError):
        BoolCircuit(1, [("input", 0)], 3)


X0 = ("input", 0)


@pytest.mark.parametrize(
    "gates, error, message",
    [
        ([X0, ("and", 0, 1)], TopologyError, "gate 1 references gate 1"),
        ([X0, ("or", 1, 0)], TopologyError, "gate 1 references gate 1"),
        ([X0, ("and", 0, 2)], TopologyError, "gate 1 references gate 2"),
        ([X0, ("or", -1, 0)], TopologyError, "gate 1 references gate -1"),
        ([X0, ("and", 0, 0.0)], TopologyError, "gate 1 references gate 0.0"),
        ([X0, ("or", "0", 0)], TopologyError, "gate 1 references gate 0"),
        ([X0, ("not", 1)], TopologyError, "gate 1 references gate 1"),
        ([X0, ("not", None)], TopologyError, "gate 1 references gate None"),
        ([X0, ("and", 0)], BadParam, "gate 1: and takes 2 operand(s)"),
        ([X0, ("not", 0, 0)], BadParam, "gate 1: not takes 1 operand(s)"),
        ([("input", 0, 1)], BadParam, "gate 0: input takes 1 operand(s)"),
        ([("const",)], BadParam, "gate 0: const takes 1 operand(s)"),
        ([X0, ("xor", 0, 0)], BadParam, "gate 1: unknown kind 'xor'"),
        ([("input", 2)], BadParam, "gate 0: input wire 2 out of range"),
        ([("input", 0.5)], BadParam, "gate 0: input wire 0.5 out of range"),
        ([("const", 2)], BadParam, "gate 0: const must be 0 or 1"),
        ([("const", "1")], BadParam, "gate 0: const must be 0 or 1"),
        ([X0, ("not", True)], TopologyError, "gate 1 references gate True"),
        ([X0, ("and", False, 0)], TopologyError, "gate 1 references gate False"),
    ],
)
def test_validation_messages(gates, error, message):
    with pytest.raises(error) as info:
        BoolCircuit(1, gates, 0)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "label_bits, gates, output, message",
    [
        (2.5, [X0], 0, "label_bits must be an integer >= 1, not 2.5"),
        (True, [X0], 0, "label_bits must be an integer >= 1, not True"),
        (0, [X0], 0, "label_bits must be an integer >= 1, not 0"),
        (1, [X0], 0.0, "output must be a gate index, not 0.0"),
        (1, [X0], False, "output must be a gate index, not False"),
        (1, [("input", True)], 0, "gate 0: input wire True out of range"),
        (1, [("const", True)], 0, "gate 0: const must be 0 or 1"),
    ],
    ids=["label-bits-float", "label-bits-bool", "label-bits-zero", "output-float", "output-bool",
         "input-wire-bool", "const-bool"],
)
def test_label_bits_output_wires_and_consts_are_exact_ints(label_bits, gates, output, message):
    with pytest.raises(BadParam) as info:
        BoolCircuit(label_bits, gates, output)
    assert str(info.value) == message


@pytest.mark.parametrize("make", [lambda bits: BoolCircuit(bits, [X0], 0), CircuitBuilder])
def test_label_bits_cap(make):
    """Both classes share one check: an exact int in [1, MAX_LABEL_BITS]."""
    make(MAX_LABEL_BITS)
    with pytest.raises(BadParam, match=f"label_bits {MAX_LABEL_BITS + 1} exceeds the cap"):
        make(MAX_LABEL_BITS + 1)
    for bad in (1.0, True, "2", 0):
        with pytest.raises(BadParam, match="label_bits must be an integer >= 1"):
            make(bad)


@pytest.mark.parametrize(
    "gates, message",
    [([()], "gate 0 is malformed"), ([5], "gate 0 is malformed"),
     ([None], "gate 0 is malformed"), ([{}], "gate 0 is malformed"),
     (5, "gates must be an iterable, not 5"), (None, "gates must be an iterable, not None")],
    ids=["gate0", "5", "None", "gate3", "gates-5", "gates-None"],
)
def test_malformed_gate_shape(gates, message):
    """A gate that is not a non-empty tuple or list, or gates that are not
    iterable, are refused by the one validation pass, not by an IndexError,
    TypeError or KeyError."""
    with pytest.raises(BadParam) as info:
        BoolCircuit(1, gates, 0)
    assert str(info.value) == message


def test_validation_keeps_tuples_and_tuples_lists():
    gates = (X0, ("input", 1), ("and", 0, 1), ("not", 1))
    assert BoolCircuit(1, gates, 2).gates is gates
    for given in ([list(g) for g in gates], (list(g) for g in gates)):
        c = BoolCircuit(1, given, 2)
        assert c.gates == gates and all(type(g) is tuple for g in c.gates)


def test_eval_range_guard():
    c = BoolCircuit(2, [("const", 1)], 0)
    with pytest.raises(InputOutOfRange):
        c.eval(4, 0)


@pytest.mark.parametrize("x, y", [(1.0, 0), (0, 1.0), (True, 0), (0, False), ("1", 0), (None, 0)])
def test_eval_labels_are_exact_ints(x, y):
    c = BoolCircuit(2, [("input", 0), ("input", 2), ("and", 0, 1)], 2)
    with pytest.raises(InputOutOfRange, match="not integers"):
        c.eval(x, y)


@pytest.mark.parametrize("x0, k, count", [(0.0, 1, 2), (0, 1.0, 2), (0, 1, 2.0),
                                          (True, 1, 2), (0, True, 2), (0, 1, True)])
def test_rows_arguments_are_exact_ints(x0, k, count):
    c = BoolCircuit(2, [("input", 0), ("input", 2), ("and", 0, 1)], 2)
    with pytest.raises(InputOutOfRange, match="not integers"):
        c.rows(x0, k, count)


def test_structural_hashing_dedups():
    b = CircuitBuilder(2)
    x = b.x_bundle()
    g1 = b.and_(x[0], x[1])
    before = b.gate_count()
    g2 = b.and_(x[0], x[1])
    assert g1 == g2
    assert b.gate_count() == before


def test_serialize_round_trip():
    b = CircuitBuilder(3)
    out = b.eq(b.x_bundle(), b.y_bundle())
    c = b.build(out)
    c2 = parse(serialize(c))
    assert c2 == c
    obj = json.loads(serialize(c))
    assert obj["version"] == 1


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse("not json {")
    with pytest.raises(ParseError):
        parse(json.dumps({"label_bits": 1, "gates": [["bogus"]], "output": 0}))
    # operands missing, extra or not integers, a kind that is not a string,
    # and gates that are empty or not lists
    malformed = (["and", 0], ["input"], ["input", 0.5], ["const", 1.0], ["not", 0, 0], [["and"], 0, 0],
                 [], 5, None, {}, "and")
    for bad in malformed:
        with pytest.raises(ParseError):
            parse(json.dumps({"label_bits": 1, "gates": [["input", 0], bad], "output": 1}))


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_eq_and_less_const_exhaustive(w):
    for c in range((1 << w) + 1):  # 2^w: a constant wider than the bundle
        b = CircuitBuilder(w)
        x = b.x_bundle()
        eq_c = b.build(b.eq_const(x, c))
        lt_c = b.build(b.less_const(x, c))
        for v in range(1 << w):
            assert eq_c.eval(v, 0) == (v == c)
            assert lt_c.eval(v, 0) == (v < c)


@pytest.mark.parametrize("w", [1, 2, 3])
def test_add_sub_const_wraps(w):
    for c in range(1 << w):
        b = CircuitBuilder(w)
        x = b.x_bundle()
        add = b.add_const(x, c)
        sub = b.sub_const(x, c)
        for v in range(1 << w):
            assert bundle_value(b, add, v, 0) == (v + c) % (1 << w)
            assert bundle_value(b, sub, v, 0) == (v - c) % (1 << w)


def test_mul_const_oracle():
    for c in (0, 1, 2, 3, 5):
        b = CircuitBuilder(3)
        x = b.x_bundle()
        prod = b.mul_const(x, c)
        for v in range(8):
            assert bundle_value(b, prod, v, 0) == v * c


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 8, 16])
def test_divmod_const_oracle(d):
    """16 exceeds the 4-bit input: the quotient is 0, the remainder the
    input. A power-of-two divisor is wiring: it reads the input bits and
    the zero constant, which pads both bundles, and adds no gate."""
    b = CircuitBuilder(4)
    x = b.x_bundle()
    b.const(0)
    before = b.gate_count()
    q, r = b.divmod_const(x, d)
    assert (len(q), len(r)) == (4, d.bit_length())
    if d & (d - 1) == 0:
        assert b.gate_count() == before
    for v in range(16):
        assert bundle_value(b, q, v, 0) == v // d
        assert bundle_value(b, r, v, 0) == v % d


def test_divmod_rejects_zero():
    b = CircuitBuilder(2)
    with pytest.raises(BadParam):
        b.divmod_const(b.x_bundle(), 0)


@pytest.mark.parametrize("call, message", [
    (lambda b, x: b.input(4), "input wire 4 out of range"),
    (lambda b, x: b.const_bundle(4, 2), "constant 4 does not fit 2 bits"),
    (lambda b, x: b.const_bundle(-1, 2), "constant -1 does not fit 2 bits"),
    (lambda b, x: b.eq_const(x, -1), "negative constant"),
    (lambda b, x: b.less_const(x, -1), "negative constant"),
    (lambda b, x: b.add_const(x, 4), "constant 4 does not fit the bundle width"),
    (lambda b, x: b.sub_const(x, -1), "constant -1 does not fit the bundle width"),
    (lambda b, x: b.mul_const(x, -1), "negative constant"),
    (lambda b, x: b.cnf_eval([(1, 3)], x), "literal 3 out of range"),
    (lambda b, x: b.cnf_eval([(0,)], x), "literal 0 out of range"),
])
def test_builder_primitives_refuse_bad_arguments(call, message):
    b = CircuitBuilder(2)
    with pytest.raises(BadParam, match=message):
        call(b, b.x_bundle())


def test_mux_bit():
    b = CircuitBuilder(1)
    x = b.x_bundle()
    out = b.build(b.mux_bit(x[0], b.const(1), b.const(0)))
    assert out.eval(0, 0) is True
    assert out.eval(1, 0) is False


def test_cnf_eval_matches_python():
    clauses = [(1, -2), (3,), (-1, 2, -3)]
    b = CircuitBuilder(3)
    sat = b.build(b.cnf_eval(clauses, b.x_bundle()))
    for q in range(8):
        want = all(
            any((q >> (abs(l) - 1)) & 1 == (1 if l > 0 else 0) for l in cl)
            for cl in clauses
        )
        assert sat.eval(q, 0) == want


def test_cnf_eval_empty_is_true():
    b = CircuitBuilder(1)
    assert b.build(b.cnf_eval([], b.x_bundle())).eval(0, 0) is True


# -- the folding builder -------------------------------------------------


def assert_simplified(c):
    """No gate folds further, no two gates are equal, and every gate but the
    output (the last gate) is read by a later gate."""
    gates = c.gates
    assert c.output == len(gates) - 1
    assert len(set(gates)) == len(gates)
    read = set()
    for g in gates:
        if g[0] in ("and", "or"):
            a, b = g[1], g[2]
            assert a < b, g  # canonical order, so no equal operands
            assert gates[a][0] != "const" and gates[b][0] != "const", g
            assert gates[b] != ("not", a), g
            read.update((a, b))
        elif g[0] == "not":
            assert gates[g[1]][0] not in ("const", "not"), g
            read.add(g[1])
    assert read == set(range(len(gates) - 1))


def test_folding_rules():
    b = CircuitBuilder(1)
    g, h = b.input(0), b.input(1)
    zero, one = b.const(0), b.const(1)
    assert b.and_(g, one) == b.and_(one, g) == g
    assert b.and_(g, zero) == b.and_(zero, g) == zero
    assert b.or_(g, zero) == b.or_(zero, g) == g
    assert b.or_(g, one) == b.or_(one, g) == one
    assert b.and_(g, g) == b.or_(g, g) == g
    assert b.and_(g, b.not_(g)) == b.and_(b.not_(g), g) == zero
    assert b.or_(g, b.not_(g)) == b.or_(b.not_(g), g) == one
    assert b.not_(b.not_(g)) == g
    assert b.not_(one) == zero and b.not_(zero) == one
    assert b.and_(g, h) == b.and_(h, g)
    assert b.or_(g, h) == b.or_(h, g)


def test_build_keeps_only_the_output_cone():
    b = CircuitBuilder(2)
    x = b.x_bundle()
    b.sub_const(x, 1)  # dead: nothing the output reads
    out = b.and_(x[1], x[0])
    c = b.build(out)
    assert c.gates == (("input", 0), ("input", 1), ("and", 0, 1))
    assert c.output == 2
    with pytest.raises(TopologyError):
        b.build(b.gate_count())


def test_build_mid_construction_is_repeatable():
    b = CircuitBuilder(3)
    x, y = b.x_bundle(), b.y_bundle()
    eq = b.eq(x, y)
    first = b.build(eq)
    count = b.gate_count()
    assert b.build(eq) == first
    assert b.gate_count() == count
    later = b.or_(eq, b.less_const(x, 5))
    assert b.build(eq) == first
    for xv, yv in product(range(8), repeat=2):
        assert b.build(later).eval(xv, yv) == (xv == yv or xv < 5)


def test_parse_keeps_dead_and_constant_gates_verbatim():
    obj = {
        "version": 1,
        "label_bits": 1,
        "gates": [["input", 0], ["const", 1], ["and", 0, 1], ["not", 1],
                  ["not", 3], ["input", 1], ["or", 2, 2], ["and", 0, 0]],
        "output": 6,
    }
    text = json.dumps(obj)
    c = parse(text)
    assert [list(g) for g in c.gates] == obj["gates"]
    assert c.output == 6
    assert serialize(c) == text


@pytest.mark.parametrize("name", sorted(QUADRUPLES))
@pytest.mark.parametrize("s", range(1, 9))
def test_compiled_circuits_are_simplified(name, s):
    """A compile numbers the template's cached cone first and the gates
    after it, so an and/or may read a later-numbered gate first; its
    operands must come back in ascending order."""
    quad = QUADRUPLES[name]()
    for S in seeded_cnf_battery(s, 40, 100 + s):
        assert_simplified(compile_reduction(quad, S).circuit)


# CNFs that fold to constants: (1)(-1) makes s̄ the constant 1 and (1 -1)
# makes it 0; in (1 -1)(2) the tautology folds away and leaves s̄ = ~x2
CONSTANT_SBAR = ([(1,), (-1,)], [(1, -1)], [(1, -1), (2,)])

PINNED_CONSTANT_SBAR_GATES = {
    ("toy", 2): [45, 57, 60], ("toy", 3): [69, 85, 88], ("toy", 6): [141, 169, 172],
    ("shared", 2): [111, 124, 138], ("shared", 3): [144, 160, 175],
    ("shared", 6): [237, 262, 280],
    ("path", 2): [45, 41, 59], ("path", 3): [69, 53, 87], ("path", 6): [141, 89, 171],
}


@pytest.mark.parametrize("name", sorted(QUADRUPLES))
@pytest.mark.parametrize("s", [2, 3, 6])
def test_compiles_where_the_cached_cone_is_partly_dead(name, s):
    """When s̄ folds to a constant, one side of each g0/g1 selector dies,
    and with it part of the template's cached cone: the build takes the
    plain cone instead, with the gate counts of a one-pass build."""
    quad = QUADRUPLES[name]()
    counts = []
    for clauses in CONSTANT_SBAR:
        S = CnfInstance(s, clauses)
        compiled = compile_reduction(quad, S)
        assert_simplified(compiled.circuit)
        assert graph_equal(materialize(compiled, 1 << 10), succ_ref_graph(quad, S))
        counts.append(compiled.circuit.gate_count())
    assert counts == PINNED_CONSTANT_SBAR_GATES[name, s]


@pytest.mark.parametrize("name", sorted(QUADRUPLES))
def test_compiled_circuits_pass_the_full_check(name, monkeypatch):
    """build checks only the gates after the template layout's head, which
    cone_prefix checked once; every compiled circuit must still pass the
    check of all its gates. Both build paths run: with the head taken
    (seeded CNFs) and without it (s̄ constant, part of the head dead)."""
    cone, taken = circuit._cone, []

    def spy(gates, output, head=0, tops=()):
        kept, index, checked = cone(gates, output, head, tops)
        if head:
            taken.append(checked)
        return kept, index, checked

    monkeypatch.setattr(circuit, "_cone", spy)
    quad = QUADRUPLES[name]()
    for s in range(1, 7):
        cnfs = seeded_cnf_battery(s, 8, 500 + s)
        cnfs += [CnfInstance(s, c) for c in CONSTANT_SBAR[: 3 if s > 1 else 2]]
        for S in cnfs:
            c = compile_reduction(quad, S).circuit
            assert BoolCircuit(c.label_bits, c.gates, c.output) == c, (s, S.clauses)
    assert 0 in taken and max(taken) > 0


def test_cone_prefix_refuses_an_opaque_head():
    """A prefix's head is checked once, when it is made; an opaque gate
    has no value, so a head holding one is refused."""
    b = CircuitBuilder(1)
    out = b.and_(b.opaque(), b.input(0))
    with pytest.raises(BadParam, match="unknown kind 'opaque'"):
        b.cone_prefix(out, b.gate_count())


def test_build_checks_the_gates_after_the_prefix():
    """A build on a layout whose output reads the whole head takes the head
    as it is and checks the gates after it: an opaque gate added after the
    head is refused. A base gate outside the head follows it."""
    b = CircuitBuilder(2)
    x, y = b.x_bundle(), b.y_bundle()
    base = b.eq(x, y)
    spare = b.and_(x[0], b.not_(y[1]))  # outside base's cone
    probe = b.copy()
    layout, place = probe.cone_prefix(probe.or_(base, probe.opaque()), b.gate_count())
    head = tuple(layout._gates[: layout._head])
    assert place[spare] == len(head)  # the first gate after the head
    c = layout.copy()
    built = c.build(c.or_(place[base], place[spare]))
    assert built.gates[: len(head)] == head
    plain = b.build(b.or_(base, spare))
    assert built == BoolCircuit(built.label_bits, built.gates, built.output) == plain
    assert c.build(place[x[0]]) == b.build(x[0])  # an output inside the head
    bad = layout.copy()
    with pytest.raises(BadParam, match="unknown kind 'opaque'"):
        bad.build(bad.or_(place[base], bad.opaque()))


# sha256 over the sgr.serialize text of every circuit compiled below, one
# text a line. Taken from the compiler whose loop edges compare y with x,
# whose power-of-two divisions are wiring, whose G2 and G3 row tests read
# only x's low bits, and whose one seam rule glues the last copy to G3 as
# it glues each copy to the next.
COMPILED_TEXT_SHA256 = "f4589cde3f7a4be69cd10757113d55012cdcc972df8d9c8130a802b4867e56c2"


def test_compiled_circuit_text_is_pinned():
    """Pins each compiled circuit's gate numbering, which `succmso reduce
    sat2sgr` prints; the gate-count pins above do not see a renumbering."""
    digest = hashlib.sha256()
    for name in sorted(QUADRUPLES):
        quad = QUADRUPLES[name]()
        for s in (1, 2, 3, 5, 8, 12, 16, 20):
            cnfs = seeded_cnf_battery(s, 6, 4000 + s)
            # the last of CONSTANT_SBAR names variable 2, which s = 1 lacks
            cnfs += [CnfInstance(s, c) for c in CONSTANT_SBAR[: 3 if s > 1 else 2]]
            for S in cnfs:
                digest.update(sgr.serialize(compile_reduction(quad, S)).encode() + b"\n")
    assert digest.hexdigest() == COMPILED_TEXT_SHA256


@pytest.mark.parametrize("name", sorted(QUADRUPLES))
@pytest.mark.parametrize("s", [6, 12, 20])
def test_serialize_writes_the_text_of_plain_json_dumps(name, s):
    """serialize skips json.dumps's cycle check; the text must not change."""
    quad = QUADRUPLES[name]()
    for S in seeded_cnf_battery(s, 2, 40 + s):
        compiled = compile_reduction(quad, S)
        c = compiled.circuit
        assert serialize(c) == json.dumps(c.to_json_obj())
        assert sgr.serialize(compiled) == json.dumps(sgr.to_json_obj(compiled))


def test_auxiliary_reductions_are_simplified():
    for S in seeded_cnf_battery(3, 3, 9):
        assert_simplified(reduce_loop(S).circuit)
        assert_simplified(reduce_clique(S).circuit)


# one builder call per step: (op, a, b); a and b pick an input wire, a
# constant, or an earlier step counted back from the newest
STEPS = st.tuples(
    st.sampled_from(("input", "const", "not_", "and_", "or_")),
    st.integers(0, 7),
    st.integers(0, 7),
)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.integers(1, 3), st.lists(STEPS, min_size=1, max_size=30))
def test_builder_matches_python_bools(bits, steps):
    b = CircuitBuilder(bits)
    ops = []  # (gate index, fn(x, y) -> bool) per step
    for op, a, c in steps:
        if op == "input" or not ops:
            w = a % (2 * bits)
            if w < bits:
                fn = lambda x, y, w=w: bool((x >> w) & 1)
            else:
                fn = lambda x, y, w=w - bits: bool((y >> w) & 1)
            ops.append((b.input(w), fn))
        elif op == "const":
            ops.append((b.const(a % 2), lambda x, y, v=bool(a % 2): v))
        else:
            g, f = ops[-1 - a % len(ops)]
            if op == "not_":
                ops.append((b.not_(g), lambda x, y, f=f: not f(x, y)))
                continue
            h, k = ops[-1 - c % len(ops)]
            if op == "and_":
                ops.append((b.and_(g, h), lambda x, y, f=f, k=k: f(x, y) and k(x, y)))
            else:
                ops.append((b.or_(g, h), lambda x, y, f=f, k=k: f(x, y) or k(x, y)))
    n = 1 << bits
    for g, fn in ops:
        c = b.build(g)
        assert_simplified(c)
        for x in range(n):
            want = sum(1 << y for y in range(n) if fn(x, y))
            assert c.rows(x, 1, n) == want


# -- JSON fuzz: arbitrary JSON, and circuit objects near the valid ones ----

JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 1 << 70) | st.floats(allow_nan=False)
    | st.text(max_size=4)
)
JSON = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def circuit_json(draw):
    """A valid circuit's JSON object, or the same with one value (a field,
    a gate kind or an operand) replaced by another JSON value."""
    bits = draw(st.integers(1, 3))
    gates = []
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("input", "const", "not", "and", "or")[: 5 if i else 2]))
        top = {"input": 2 * bits, "const": 2}.get(kind, i)
        arity = 2 if kind in ("and", "or") else 1
        gates.append([kind, *(draw(st.integers(0, top - 1)) for _ in range(arity))])
    obj = {"label_bits": bits, "gates": gates, "output": draw(st.integers(0, len(gates) - 1))}
    if draw(st.booleans()):
        bad = draw(st.integers(-1, 6) | st.just(MAX_LABEL_BITS + 1) | JSON_LEAVES)
        where = draw(st.sampled_from(("label_bits", "output", *range(len(gates)))))
        if where in obj:
            obj[where] = bad
        else:
            gates[where][draw(st.integers(0, len(gates[where]) - 1))] = bad
    return obj


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(st.one_of(circuit_json().map(json.dumps), JSON.map(json.dumps), st.text(max_size=12)))
def test_circuit_json_fuzz(text):
    """Any text parses to a circuit or raises a SuccmsoError, and a parsed
    circuit survives serialize and parse unchanged."""
    try:
        c = parse(text)
    except SuccmsoError:
        return
    assert parse(serialize(c)) == c
