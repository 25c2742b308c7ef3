"""The bit-parallel circuit kernel (BoolCircuit.rows, BoolCircuit.eval and
sgr.materialize) against two routes that do not use it: the scalar
per-pair interpreter below, and succ_ref's integer arithmetic."""

import random

import pytest

from succmso.circuit import BoolCircuit
from succmso.errors import InputOutOfRange
from succmso.graph import Digraph, graph_equal
from succmso.reduce import compile_reduction, succ_ref
from succmso.sgr import LANES, Sgr, materialize
from succmso.verify import seeded_cnf_battery

from test_reduce import QUADRUPLES


# -- the scalar oracle ---------------------------------------------------


def scalar_eval(circuit, x, y):
    """C(x, y) by walking the gates with one Boolean per gate."""
    n = circuit.label_bits
    values = [False] * len(circuit.gates)
    for i, gate in enumerate(circuit.gates):
        kind = gate[0]
        if kind == "input":
            w = gate[1]
            values[i] = bool((x >> w) & 1) if w < n else bool((y >> (w - n)) & 1)
        elif kind == "const":
            values[i] = bool(gate[1])
        elif kind == "not":
            values[i] = not values[gate[1]]
        elif kind == "and":
            values[i] = values[gate[1]] and values[gate[2]]
        else:
            values[i] = values[gate[1]] or values[gate[2]]
    return values[circuit.output]


def scalar_row(circuit, x, count):
    """Out-neighbours of x among [0, count), one scalar evaluation per pair."""
    return [y for y in range(count) if scalar_eval(circuit, x, y)]


def scalar_materialize(sgr):
    n = sgr.n_vertices
    return Digraph(n, [(x, y) for x in range(n) for y in scalar_row(sgr.circuit, x, n)])


def set_bits(v):
    """Positions of the 1 bits of v, lowest first."""
    digits = bin(v)[:1:-1]
    out, i = [], digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def boundary_labels(quad, s):
    """The first and last label of every region of the chain layout."""
    mid_end = quad.n2 + (1 << s) * quad.n1
    return sorted({0, quad.n2 - 1, quad.n2, mid_end - 1, mid_end, quad.big_n(s) - 1})


def random_circuit(rng, label_bits, size):
    """A seeded circuit that uses every gate kind."""
    gates = [("input", w) for w in range(2 * label_bits)] + [("const", 0), ("const", 1)]
    while len(gates) < size:
        i = len(gates)
        kind = rng.choice(("not", "and", "or", "and", "or"))
        if kind == "not":
            gates.append((kind, rng.randrange(i)))
        else:
            gates.append((kind, rng.randrange(i), rng.randrange(i)))
    return BoolCircuit(label_bits, gates, len(gates) - 1)


# -- row against the scalar oracle ---------------------------------------


@pytest.mark.parametrize("label_bits", [1, 3, 7])
def test_row_matches_scalar_on_random_circuits(label_bits):
    """count = 1, count = 2^label_bits and counts that are not powers of
    two, including more lanes than one machine word."""
    rng = random.Random(label_bits)
    full = 1 << label_bits
    counts = sorted({c for c in (1, 2, 5, 63, 64, 65, 100, full - 1, full) if 1 <= c <= full})
    for _ in range(3):
        c = random_circuit(rng, label_bits, 60)
        xs = range(full) if full <= 8 else rng.sample(range(full), 3) + [0, full - 1]
        for x in xs:
            for count in counts:
                assert set_bits(c.rows(x, 1, count)) == scalar_row(c, x, count), (x, count)
            y = rng.randrange(full)
            assert c.eval(x, y) is scalar_eval(c, x, y)


def test_row_range_guard():
    c = random_circuit(random.Random(2), 3, 20)
    for x, count in [(8, 1), (-1, 1), (0, 0), (0, 9), (0, -1)]:
        with pytest.raises(InputOutOfRange):
            c.rows(x, 1, count)


@pytest.mark.parametrize("label_bits", [1, 3, 7])
def test_rows_match_scalar_on_random_circuits(label_bits):
    """Blocks of k = 1, 2, 3 rows and blocks that run to the last label,
    from every start x0 (or a seeded sample at 7 bits), over counts of
    one lane, one machine word and either side of it, and every label."""
    rng = random.Random(100 + label_bits)
    full = 1 << label_bits
    counts = sorted({c for c in (1, 2, 63, 64, 65, full) if c <= full})
    for _ in range(2):
        c = random_circuit(rng, label_bits, 40)
        table = [sum(1 << y for y in scalar_row(c, x, full)) for x in range(full)]
        x0s = range(full) if full <= 8 else sorted(rng.sample(range(1, full - 1), 3) + [0, full - 1])
        for x0 in x0s:
            ks = {k for k in (1, 2, 3) if x0 + k <= full} | {full - x0, rng.randint(1, full - x0)}
            for k in sorted(ks):
                for count in counts:
                    mask = (1 << count) - 1
                    want = sum((table[x0 + i] & mask) << (i * count) for i in range(k))
                    assert c.rows(x0, k, count) == want, (x0, k, count)


def test_rows_guards():
    c = random_circuit(random.Random(3), 3, 20)
    for x0, k, count in [(0, 0, 8), (3, 0, 1), (0, -1, 8), (0, 9, 8), (7, 2, 8), (5, 4, 1),
                         (8, 1, 1), (-1, 1, 1), (0, 1, 0), (0, 1, 9), (0, 1, -1)]:
        with pytest.raises(InputOutOfRange):
            c.rows(x0, k, count)
    table = [sum(1 << y for y in scalar_row(c, x, 8)) for x in range(8)]
    assert c.rows(0, 8, 8) == sum(row << (8 * x) for x, row in enumerate(table))  # the largest block


# -- materialize against the scalar oracle -------------------------------

# Scalar evaluation costs N * gates Boolean steps per row, so at s = 3 the
# oracle checks every edge of the graph, and at s = 6 and 8 (N up to 518)
# every edge of the region-boundary rows plus, at s = 6, two seeded rows.
ORACLE_SIZES = [(3, None), (6, 2), (8, 0)]


@pytest.mark.parametrize("name", sorted(QUADRUPLES))
@pytest.mark.parametrize("s, extra_rows", ORACLE_SIZES)
def test_materialize_matches_scalar_oracle(name, s, extra_rows):
    quad = QUADRUPLES[name]()
    rng = random.Random(s)
    S = seeded_cnf_battery(s, 1, 31 + s)[0]
    sgr = compile_reduction(quad, S)
    g = materialize(sgr, 10**5)
    n = sgr.n_vertices
    if extra_rows is None:
        assert graph_equal(g, scalar_materialize(sgr))
        return
    rows = set(boundary_labels(quad, s)) | {rng.randrange(n) for _ in range(extra_rows)}
    for x in sorted(rows):
        assert sorted(v for u, v in g.edges if u == x) == scalar_row(sgr.circuit, x, n), x


def test_materialize_partial_last_block():
    """At N = 67, LANES // N = 61 rows share the first pass and the last
    6 rows make a shorter block; every edge matches the scalar oracle."""
    quad = QUADRUPLES["toy"]()
    S = seeded_cnf_battery(6, 1, 41)[0]
    sgr = compile_reduction(quad, S)
    n = sgr.n_vertices
    assert n == 67 and LANES // n < n and n % (LANES // n) != 0
    assert graph_equal(materialize(sgr, n), scalar_materialize(sgr))


@pytest.mark.parametrize("n", [65, 100, 128])
def test_materialize_dense_random_circuit(n):
    """A random circuit ORed with "y is even" has edges in every row, the
    last block's included: N = 65, 100 and 128 split into blocks of
    63 + 2, 40 + 40 + 20 and 32 * 4 rows."""
    gates = random_circuit(random.Random(n), 7, 40).gates
    gates += (("not", 7), ("or", len(gates) - 1, len(gates)))  # wire 7 is y's bit 0
    sgr = Sgr(n, BoolCircuit(7, gates, len(gates) - 1))
    g = materialize(sgr, n)
    assert graph_equal(g, scalar_materialize(sgr))
    assert {u for u, _ in g.edges} == set(range(n))


# -- rows at large s against succ_ref, never materialized ----------------


@pytest.mark.parametrize("s", [16, 20])
def test_row_matches_succ_ref_at_large_s(s):
    quad = QUADRUPLES["toy"]()
    rng = random.Random(s)
    S = seeded_cnf_battery(s, 1, 5)[0]
    sgr = compile_reduction(quad, S)
    n = sgr.n_vertices
    assert n == quad.big_n(s)
    rows = set(boundary_labels(quad, s)) | {rng.randrange(n) for _ in range(3)}
    for x in sorted(rows):
        assert set_bits(sgr.circuit.rows(x, 1, n)) == sorted(succ_ref(quad, S, x)), x
