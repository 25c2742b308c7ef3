import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from succmso.circuit import BoolCircuit, CircuitBuilder, WireBundle, parse, serialize
from succmso.errors import BadParam, InputOutOfRange, ParseError, TopologyError
from succmso.reduce import compile_reduction, reduce_clique, reduce_loop
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


def test_eval_range_guard():
    c = BoolCircuit(2, [("const", 1)], 0)
    with pytest.raises(InputOutOfRange):
        c.eval(4, 0)


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


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_eq_and_less_const_exhaustive(w):
    for c in range(1 << w):
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


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
def test_divmod_const_oracle(d):
    b = CircuitBuilder(4)
    x = b.x_bundle()
    q, r = b.divmod_const(x, d)
    for v in range(16):
        assert bundle_value(b, q, v, 0) == v // d
        assert bundle_value(b, r, v, 0) == v % d


def test_divmod_rejects_zero():
    b = CircuitBuilder(2)
    with pytest.raises(BadParam):
        b.divmod_const(b.x_bundle(), 0)


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


def test_wire_bundle_width():
    assert WireBundle((0, 1, 2)).width == 3


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
@pytest.mark.parametrize("s", [4, 6])
def test_compiled_circuits_are_simplified(name, s):
    quad = QUADRUPLES[name]()
    for S in seeded_cnf_battery(s, 2, 70 + s):
        assert_simplified(compile_reduction(quad, S).circuit)


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
            assert c.row(x, n) == want
