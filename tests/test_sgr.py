import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from succmso import circuit as circuit_mod
from succmso.circuit import MAX_LABEL_BITS, BoolCircuit, CircuitBuilder
from succmso.errors import BadParam, LabelOutOfRange, ParseError, SuccmsoError, TooLargeToMaterialize
from succmso.graph import Digraph, graph_equal
from succmso.sgr import (
    Sgr,
    check_size_convention,
    edge_query,
    materialize,
    parse,
    serialize,
)

from test_circuit import JSON, circuit_json


def cycle_sgr(bits):
    """y == x + 1 mod 2^bits."""
    b = CircuitBuilder(bits)
    return Sgr(1 << bits, b.build(b.eq(b.add_const(b.x_bundle(), 1), b.y_bundle())))


def test_constructor_guards():
    b = CircuitBuilder(1)
    c = b.build(b.const(0))
    with pytest.raises(BadParam):
        Sgr(0, c)
    with pytest.raises(BadParam):
        Sgr(3, c)  # only 2 labels available with 1 bit


@pytest.mark.parametrize("n", [2.0, True, "2", None])
def test_vertex_count_is_an_exact_int(n):
    with pytest.raises(BadParam, match="N must be an integer"):
        Sgr(n, cycle_sgr(1).circuit)


@pytest.mark.parametrize("x, y", [(1.0, 2), (1, 2.0), (True, 0), (0, False), ("1", 2)])
def test_edge_query_labels_are_exact_ints(x, y):
    with pytest.raises(LabelOutOfRange, match="not integers"):
        edge_query(cycle_sgr(2), x, y)


def test_edge_query():
    s = cycle_sgr(2)
    assert edge_query(s, 0, 1)
    assert edge_query(s, 3, 0)
    assert not edge_query(s, 1, 1)
    with pytest.raises(LabelOutOfRange):
        edge_query(s, 4, 0)


def test_materialize_cycle():
    s = cycle_sgr(3)
    g = materialize(s, 100)
    assert graph_equal(g, Digraph(8, [(i, (i + 1) % 8) for i in range(8)]))


def test_materialize_limit():
    with pytest.raises(TooLargeToMaterialize):
        materialize(cycle_sgr(10), 100)


def test_partial_range():
    # N need not be a power of two; labels >= N are never queried
    b = CircuitBuilder(3)
    s = Sgr(5, b.build(b.eq(b.x_bundle(), b.y_bundle())))
    g = materialize(s, 100)
    assert g.n == 5
    assert g.edges == frozenset((i, i) for i in range(5))


def test_size_convention():
    assert check_size_convention(cycle_sgr(2))


def test_serialize_round_trip():
    s = cycle_sgr(2)
    s2 = parse(serialize(s))
    assert s2 == s
    assert graph_equal(materialize(s2, 100), materialize(s, 100))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("{}")
    with pytest.raises(ParseError):
        parse("[")


# JSON texts of N that are not vertex counts: a float, a bool, a number past
# the double range, strings int() would read but serialize never writes, and
# non-numbers
BAD_N = ("2.7", "true", "1e400", '"2.7"', '"-1"', '" 2"', '"0x2"', "null", "[2]", '"1_0"', '"+2"',
         '"\\u0662"')


def with_n(n_text):
    """cycle_sgr(1) as serialize writes it, with the N value's JSON text
    replaced."""
    obj = json.loads(serialize(cycle_sgr(1)))
    return json.dumps({"circuit": obj["circuit"]}).replace("{", '{"N": ' + n_text + ", ", 1)


@pytest.mark.parametrize("n_text", BAD_N)
def test_vertex_count_must_be_an_integer(n_text):
    with pytest.raises(ParseError, match="N is"):
        parse(with_n(n_text))


def test_vertex_count_as_integer_or_digit_string():
    assert parse(with_n("2")) == parse(with_n('"2"')) == cycle_sgr(1)
    assert serialize(cycle_sgr(1)) == with_n('"2"')


def wide_sgr_text(label_bits):
    """A 2-vertex SGR, x -> y iff bit 0 of x is 1 and bit 0 of y is 0, on a
    circuit with label_bits bits per label."""
    gates = [["input", 0], ["input", label_bits], ["not", 1], ["and", 0, 2]]
    circuit = {"label_bits": label_bits, "gates": gates, "output": 3}
    return json.dumps({"N": "2", "circuit": circuit})


def test_materialize_at_the_label_bits_cap():
    start = time.perf_counter()
    g = materialize(parse(wide_sgr_text(MAX_LABEL_BITS)), 2)
    assert time.perf_counter() - start < 0.5
    assert graph_equal(g, Digraph(2, [(1, 0)]))


def test_label_bits_past_the_cap_is_a_parse_error():
    text = wide_sgr_text(MAX_LABEL_BITS + 1)
    with pytest.raises(ParseError, match="exceeds the cap"):
        parse(text)
    with pytest.raises(ParseError, match="exceeds the cap"):
        circuit_mod.parse(json.dumps(json.loads(text)["circuit"]))


@pytest.mark.parametrize("n", ["0", "3"])
def test_vertex_count_out_of_range_is_a_parse_error(n):
    """N = 0, or N over 2^label_bits of a 1-bit circuit: the constructor
    raises BadParam (test_constructor_guards), parse a ParseError."""
    circuit = {"label_bits": 1, "gates": [["const", 0]], "output": 0}
    with pytest.raises(ParseError, match="N must be >= 1|N exceeds 2\\^label_bits"):
        parse(json.dumps({"N": n, "circuit": circuit}))


@pytest.mark.parametrize("label_bits", [1, 2, 3, 64, MAX_LABEL_BITS])
def test_vertex_count_fits_label_bits_exactly(label_bits):
    c = BoolCircuit(label_bits, [("const", 0)], 0)
    assert Sgr(1 << label_bits, c).n_vertices == 1 << label_bits
    with pytest.raises(BadParam, match="exceeds 2\\^label_bits"):
        Sgr((1 << label_bits) + 1, c)


# N is at most 2^label_bits or over it, as text or as a JSON integer, or
# not a vertex count; arbitrary circuit values are test_circuit's
SGR_JSON = st.fixed_dictionaries({
    "N": st.integers(1, 9).map(str) | st.integers(0, 9) | st.sampled_from((2.0, True, "0x2", None)),
    "circuit": circuit_json(),
})


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(st.one_of(SGR_JSON.map(json.dumps), JSON.map(json.dumps), st.text(max_size=12)))
def test_sgr_json_fuzz(text):
    """Any text parses to an SGR or raises a SuccmsoError, and a parsed SGR
    survives serialize and parse unchanged."""
    try:
        s = parse(text)
    except SuccmsoError:
        return
    assert parse(serialize(s)) == s
