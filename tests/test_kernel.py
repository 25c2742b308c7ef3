"""The circuit kernel (BoolCircuit.rows, BoolCircuit.eval with its per-row
residual circuit, and sgr.materialize) against two routes that do not use
it: the scalar per-pair interpreter below, and succ_ref's integer
arithmetic."""

import random
import sys
import threading

import pytest

from succmso.circuit import BoolCircuit, parse, serialize
from succmso.errors import InputOutOfRange
from succmso.graph import Digraph, graph_equal
from succmso.reduce import compile_reduction, succ_ref
from succmso import sgr as sgr_mod
from succmso.sgr import LANES, Sgr, edge_query, materialize
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


# -- eval's per-row memo against the scalar oracle -----------------------


def query_sequences(rng, full):
    """Seeded (x, y) query sequences: one x repeated, two xs alternating,
    and a return to the first x after two others."""
    a, b, c = rng.sample(range(full), 3)
    ys = [rng.randrange(full) for _ in range(6)]
    return [
        [(a, y) for y in ys],
        [(a if i % 2 else b, y) for i, y in enumerate(ys)],
        list(zip([a, a, b, c, a, a], ys)),
    ]


def assert_residual_is_a_cone(c):
    """The residual eval keeps for its last x is exactly its output's
    cone: and, or and not gates only (no input gate, no placeholder), each
    operand below the gate's own value index, the output the last value,
    and every gate but the last read by a later gate."""
    n, residual, output = c.label_bits, c._row_memo[1], c._row_memo[2]
    if not residual:
        return
    read = set()
    for k, gate in enumerate(residual):
        assert type(gate) is tuple and len(gate) == (2 if gate[0] == "not" else 3), (k, gate)
        assert gate[0] in ("and", "or", "not"), (k, gate)
        assert all(type(j) is int and 0 <= j < n + k for j in gate[1:]), (k, gate)
        read.update(gate[1:])
    assert output == n + len(residual) - 1
    assert read >= set(range(n, output))


def assert_eval_matches_scalar(c, rng):
    """Every query sequence matches the scalar oracle, the residual eval
    keeps is its output's cone, and evaluating leaves the circuit's
    equality, hash and JSON form as they were."""
    text, digest, twin = serialize(c), hash(c), parse(serialize(c))
    for queries in query_sequences(rng, 1 << c.label_bits):
        for x, y in queries:
            assert c.eval(x, y) is scalar_eval(c, x, y), (x, y)
            assert_residual_is_a_cone(c)
    assert c == twin and hash(c) == digest and serialize(c) == text


@pytest.mark.parametrize("label_bits", [2, 3, 7])
def test_eval_memo_on_random_circuits(label_bits):
    """random_circuit puts every y-wire's input gate before gates that read
    no y-wire (its consts at least), so eval's residual interleaves with
    gates it folds away."""
    rng = random.Random(200 + label_bits)
    for _ in range(4):
        assert_eval_matches_scalar(random_circuit(rng, label_bits, 60), rng)


@pytest.mark.parametrize("gates, output", [
    ([("input", 0), ("input", 2), ("not", 0)], 2),  # the output reads no y-wire
    ([("input", 2), ("input", 0), ("and", 0, 1)], 0),  # the output is a y-wire
    ([("const", 1), ("input", 3), ("or", 1, 0)], 2),  # the output reads a const
    # the output folds to 0 when bit 0 of x is 0, and reads y0 otherwise
    ([("input", 0), ("input", 2), ("and", 0, 1)], 2),
    # the output folds to 1 when bit 1 of x is 1, and reads y1 otherwise
    ([("input", 3), ("input", 1), ("or", 0, 1)], 2),
    ([("input", 2), ("const", 1)], 1),  # the output is a const gate
    # when bit 1 of x is 1, the and passes the y-gate ~y0 through
    ([("input", 2), ("not", 0), ("input", 1), ("and", 2, 1)], 3),
])
def test_eval_memo_on_hand_built_circuits(gates, output):
    """Every sequence queries three of the four xs, so each case meets both
    values of the x bit it folds on."""
    assert_eval_matches_scalar(BoolCircuit(2, gates, output), random.Random(7))


def folding_circuit(rng, label_bits, shape):
    """A random circuit and an x at which its output folds to the given
    shape: the constant 0, bit v of y, the not of bit v, or a part that
    reads y through several gates. That deep part is a random circuit xor
    (y_a and y_b), so it reads y whatever the random circuit folds to, and
    it is anded with x's bit w, which x sets only for shape "deep". v is
    y's top bit half the time. Gate i < 2 * label_bits is input wire i."""
    n = label_bits
    gates = list(random_circuit(rng, n, 2 * n + 2 + max(40, n)).gates)
    r, a, b = len(gates) - 1, n + rng.randrange(n), n + rng.randrange(n)
    gates += [("and", a, b), ("not", r)]
    q = len(gates) - 2
    gates += [("not", q), ("and", r, q + 2), ("and", q + 1, q)]
    gates.append(("or", q + 3, q + 4))
    deep = len(gates) - 1
    w = rng.randrange(n)
    v = n - 1 if rng.random() < 0.5 else rng.randrange(n)
    x = rng.getrandbits(n) & ~(1 << w)
    gates.append(("and", w, deep))
    guarded = len(gates) - 1
    if shape == "const":
        output = guarded
    elif shape == "deep":
        x |= 1 << w
        output = guarded
    else:
        leaf = n + v
        if shape == "not-y-wire":
            gates.append(("not", leaf))
            leaf = len(gates) - 1
        gates.append(("or", guarded, leaf))
        output = len(gates) - 1
    return BoolCircuit(n, gates, output), x


@pytest.mark.parametrize("shape", ["const", "y-wire", "not-y-wire", "deep"])
@pytest.mark.parametrize("label_bits", [1, 7, 8, 9, 16, 17, 64])
def test_eval_on_seeded_residuals_at_byte_edges(label_bits, shape):
    """eval reads y's bits bytewise, so label widths on either side of a
    byte (and y's top bit) are where a cut could go wrong. The residual kept
    for x is its output's cone; an output that folds to a constant or to a
    bare bit of y keeps no gate at all."""
    rng = random.Random(f"{label_bits}-{shape}")
    n = label_bits
    top = 1 << (n - 1)
    for _ in range(3):
        c, x = folding_circuit(rng, n, shape)
        ys = [top, (1 << n) - 1, 0, top | rng.getrandbits(n - 1)]
        ys += [rng.getrandbits(n) for _ in range(4)]
        for y in ys:
            assert c.eval(x, y) is scalar_eval(c, x, y), (x, y)
            assert c.eval(y, x) is scalar_eval(c, y, x), (y, x)  # another row, and back
        c.eval(x, 0)
        memo_x, residual, _ = c._row_memo
        assert memo_x == x
        if shape == "const":
            assert residual is None
        elif shape == "y-wire":
            assert residual == ()
        else:
            assert residual
            assert_residual_is_a_cone(c)
            assert shape == "deep" or len(residual) == 1


@pytest.mark.parametrize("name", sorted(QUADRUPLES))
def test_eval_memo_on_compiled_circuits_after_json(name):
    quad = QUADRUPLES[name]()
    rng = random.Random(300)
    for S in seeded_cnf_battery(8, 2, 17):
        assert_eval_matches_scalar(parse(serialize(compile_reduction(quad, S).circuit)), rng)


def test_eval_memo_shared_by_threads():
    """Threads that query one circuit at different xs replace each other's
    memo entry all the time; every answer still matches the oracle."""
    rng = random.Random(400)
    c = random_circuit(rng, 5, 80)
    queries = [[(x, rng.randrange(32)) for _ in range(2000)] for x in rng.sample(range(32), 4)]
    want = [[scalar_eval(c, x, y) for x, y in q] for q in queries]
    got = [None] * len(queries)

    def work(i):
        got[i] = [c.eval(x, y) for x, y in queries[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(queries))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


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


# The toy cells are named by s alone, so their ids stay stable.
@pytest.mark.parametrize("name, s", [("toy", 16), ("toy", 20), ("shared", 12)],
                         ids=["16", "20", "shared-12"])
def test_row_matches_succ_ref_at_large_s(name, s):
    """Every G3 row is checked: with a shared port (the shared quadruple's
    G3 row k' = 1) it points into all 2^s copies."""
    quad = QUADRUPLES[name]()
    rng = random.Random(s)
    S = seeded_cnf_battery(s, 1, 5)[0]
    sgr = compile_reduction(quad, S)
    n = sgr.n_vertices
    assert n == quad.big_n(s)
    g3_rows = range(quad.n2 + (1 << s) * quad.n1, n)
    rows = set(boundary_labels(quad, s)) | set(g3_rows) | {rng.randrange(n) for _ in range(3)}
    for x in sorted(rows):
        assert set_bits(sgr.circuit.rows(x, 1, n)) == sorted(succ_ref(quad, S, x)), x


@pytest.mark.parametrize("s", [16, 20])
@pytest.mark.parametrize("name", sorted(QUADRUPLES))
def test_edge_queries_match_succ_ref_at_large_s(name, s):
    """Single queries as the succinct_query bench makes them, after a JSON
    round trip: each row's first out-neighbours, and random labels."""
    quad = QUADRUPLES[name]()
    rng = random.Random(s)
    S = seeded_cnf_battery(s, 1, 5)[0]
    sgr = sgr_mod.parse(sgr_mod.serialize(compile_reduction(quad, S)))
    n = sgr.n_vertices
    rows = set(boundary_labels(quad, s)) | {rng.randrange(n) for _ in range(3)}
    for x in sorted(rows):
        row = succ_ref(quad, S, x)
        for y in sorted(row)[:16]:
            assert edge_query(sgr, x, y), (x, y)
        for y in [rng.randrange(n) for _ in range(4)] + [x]:
            assert edge_query(sgr, x, y) == (y in row), (x, y)
