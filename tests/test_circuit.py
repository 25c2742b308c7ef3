import json

import pytest

from succmso.circuit import BoolCircuit, CircuitBuilder, WireBundle, parse, serialize
from succmso.errors import BadParam, InputOutOfRange, ParseError, TopologyError


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
