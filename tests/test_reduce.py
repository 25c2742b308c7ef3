import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from succmso.circuit import MAX_LABEL_BITS
from succmso.errors import (
    BadLiteral,
    BadParam,
    ConstructionFailed,
    IndexOutOfRange,
    NotValidated,
    ParseError,
    SuccmsoError,
    TooLarge,
    TooLargeToMaterialize,
    ValidationError,
)
from succmso.graph import (
    BiboundariedGraph,
    Digraph,
    GadgetTriple,
    bib_from_json_obj,
    chain_maps,
    delta,
    graph_equal,
)
from succmso.mso import CompiledFormula
from succmso.reduce import (
    CnfInstance,
    GadgetQuadruple,
    _label_table,
    _reduction_template,
    build_quadruple,
    compile_reduction,
    delta_map,
    normalize_layout,
    parse_dimacs,
    path_triple,
    pump_check,
    reduce_clique,
    reduce_loop,
    sbar_at,
    succ_ref,
    succ_ref_graph,
    toy_quadruple,
)
from succmso.sgr import materialize
from succmso.treedec import TreeDecomposition, decomposition_of_delta, validate, width
from succmso.verify import delta_layout, sat_solve, seeded_cnf_battery, small_cnf_battery

LOOP = CompiledFormula.parse("ex x. E(x,x)")


def shared_port_quadruple():
    """k=2 with one shared port; exercises the k'' machinery."""
    g1 = BiboundariedGraph(Digraph(4, [(0, 1), (1, 2), (3, 1), (0, 3), (1, 3)]), (0, 3), (2, 3))
    g0 = BiboundariedGraph(Digraph(4, [(0, 0), (0, 2), (3, 1), (0, 3), (2, 3)]), (0, 3), (2, 3))
    g2 = BiboundariedGraph(Digraph(5, [(0, 1), (1, 2), (0, 4), (4, 3), (2, 4)]), (0, 4), (2, 4))
    g3 = BiboundariedGraph(Digraph(3, [(0, 1), (2, 1), (0, 2)]), (0, 2), (1, 2))
    return normalize_layout(g0, g1, g2, g3)


QUADRUPLES = {
    "toy": toy_quadruple,
    "shared": shared_port_quadruple,
    "path": lambda: build_quadruple(path_triple(), Digraph(1, [(0, 0)])),
}


def reference_graph(quad, S):
    n = quad.big_n(S.s)
    return Digraph(n, [(x, y) for x in range(n) for y in succ_ref(quad, S, x)])


# -- CNF handling --------------------------------------------------------


def test_cnf_value():
    S = CnfInstance(2, [(1, -2)])
    assert S.value(0b01)
    assert not S.value(0b10)


def test_cnf_guards():
    with pytest.raises(BadLiteral):
        CnfInstance(1, [(2,)])
    with pytest.raises(BadLiteral):
        CnfInstance(1, [()])
    with pytest.raises(BadLiteral):
        CnfInstance(0, [])


@pytest.mark.parametrize(
    "s, clauses",
    [(1, [(1.0,)]), (2.0, [(1,)]), (True, [(1,)]), (1, [(True,)])],
    ids=["float-literal", "float-s", "bool-s", "bool-literal"],
)
def test_cnf_needs_exact_ints(s, clauses):
    """A float or bool count or literal is refused by name; before the
    guard a float ended in a bare TypeError in sat_solve and a bool passed."""
    with pytest.raises(BadLiteral):
        CnfInstance(s, clauses)


def test_cnf_variable_count_cap():
    """s is capped at circuit.MAX_LABEL_BITS. About 10^15 variables once
    made the reduction's vertex count and the SAT model ask for more memory
    than any host has."""
    assert CnfInstance(MAX_LABEL_BITS, [(1, -MAX_LABEL_BITS)]).s == MAX_LABEL_BITS
    for s in (MAX_LABEL_BITS + 1, 10**15):
        with pytest.raises(BadLiteral, match="exceeds the cap"):
            CnfInstance(s, [(1, -2)])
        with pytest.raises(BadLiteral, match="exceeds the cap"):
            parse_dimacs(f"p cnf {s} 1\n1 -2 0\n")


def to_dimacs(S):
    """S as DIMACS text: the header, then one line per clause."""
    lines = [f"p cnf {S.s} {len(S.clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in S.clauses]
    return "\n".join(lines) + "\n"


# A header, then clause and comment lines, some of them malformed; or any
# text
DIMACS_HEADER = st.builds("p cnf {} {}".format, st.integers(-1, 5) | st.just(10**15),
                          st.integers(0, 3))
DIMACS_LINE = st.one_of(
    st.lists(st.integers(-4, 4), max_size=5).map(lambda lits: " ".join(map(str, lits))),
    st.sampled_from(("c note", "", "1 x 0", "%", " 2  -1\t0 ", "p cnf", "p dnf 2 1")),
)
DIMACS = st.builds(lambda head, body: "\n".join([head, *body]), DIMACS_HEADER,
                   st.lists(DIMACS_LINE, max_size=5))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(DIMACS | st.text(max_size=20))
def test_parse_dimacs_fuzz(text):
    """Any text parses to a CnfInstance or raises a SuccmsoError, and a
    parsed instance written back as DIMACS parses to itself."""
    try:
        S = parse_dimacs(text)
    except SuccmsoError:
        return
    assert parse_dimacs(to_dimacs(S)) == S


def test_parse_dimacs():
    S = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n3 0\n")
    assert S.s == 3
    assert S.clauses == ((1, -2), (3,))
    assert parse_dimacs("p cnf 2 0\n").clauses == ()
    with pytest.raises(ParseError):
        parse_dimacs("1 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf x 0\n")


@pytest.mark.parametrize("text", ["p cnf 3 5\n1 0\n", "p cnf 3 x\n1 0\n", "p cnf 3 0\n1 0\n",
                                  "p cnf 3 2\n1 0\n0\n"])
def test_parse_dimacs_reads_the_clause_count(text):
    """A header whose clause count is not the file's, or not an integer,
    once parsed to CnfInstance(s=3, clauses=((1,),))."""
    with pytest.raises(ParseError, match="clause"):
        parse_dimacs(text)


@pytest.mark.parametrize("text", ["p cnf 1_0 1\n1 0\n", "p cnf \u0661 1\n1 0\n", "p cnf 3 1\n+1 0\n",
                                  "p cnf 3 1\n1 -2_0 0\n", "p cnf 3 0_1\n1 0\n"])
def test_parse_dimacs_takes_plain_decimal_integers(text):
    """int() alone read "1_0" as 10 and took "+" and non-ASCII digits."""
    with pytest.raises(ParseError, match="not an integer"):
        parse_dimacs(text)


def test_parse_dimacs_counts_and_long_integers():
    assert parse_dimacs("p cnf 3 1\n1 0\n") == CnfInstance(3, [(1,)])
    assert parse_dimacs("p cnf 3 2\n1 -2 0 3\n") == CnfInstance(3, [(1, -2), (3,)])
    with pytest.raises(ParseError, match="5000 digits, too many"):
        parse_dimacs("p cnf 1 1\n" + "1" * 5000 + " 0\n")


@pytest.mark.parametrize("text, line", [("p cnf 1 1\n1 0 0\n", 2), ("p cnf 1 1\n0\n1 0\n", 2),
                                        ("p cnf 2 2\n1 0\n\n0 2 0\n", 4)])
def test_parse_dimacs_refuses_a_zero_that_ends_no_clause(text, line):
    """DIMACS reads such a 0 as an empty clause, an unsatisfiable formula;
    "p cnf 1 1" then "1 0 0" once parsed to the satisfiable ((1,),)."""
    with pytest.raises(ParseError, match=f"^line {line}: a 0 that ends no clause$"):
        parse_dimacs(text)


def test_sbar():
    S = CnfInstance(1, [(1,)])
    assert sbar_at(S, 0) == 1  # assignment v1=0 falsifies
    assert sbar_at(S, 1) == 0
    with pytest.raises(IndexOutOfRange):
        sbar_at(S, 2)


# -- layout normalization ------------------------------------------------


def test_toy_quadruple_constants():
    q = toy_quadruple()
    assert (q.k, q.k_prime, q.k_dprime) == (1, 1, 0)
    assert (q.n1, q.n2, q.n3) == (1, 1, 2)
    assert q.big_n(1) == 5


def test_shared_quadruple_constants():
    q = shared_port_quadruple()
    assert (q.k, q.k_prime, q.k_dprime) == (2, 1, 1)
    assert (q.n1, q.n2, q.n3) == (2, 3, 3)


def test_normalize_rejects_size_mismatch():
    e = BiboundariedGraph(Digraph(2, [(0, 1)]), (0,), (1,))
    big = BiboundariedGraph(Digraph(3, [(0, 1)]), (0,), (1,))
    with pytest.raises(ValidationError) as exc:
        normalize_layout(big, e, e, e)
    assert exc.value.condition == "COND_I"


def test_normalize_rejects_all_shared():
    g = BiboundariedGraph(Digraph(1), (0,), (0,))
    with pytest.raises(ValidationError) as exc:
        normalize_layout(g, g, g, g)
    assert exc.value.condition == "COND_II"


def test_normalize_rejects_neighborhood_mismatch():
    # shared port's out-neighborhood differs between G0 and G1
    g1 = BiboundariedGraph(Digraph(3, [(2, 0)]), (0, 2), (1, 2))
    g0 = BiboundariedGraph(Digraph(3, [(2, 1)]), (0, 2), (1, 2))
    other = g1
    with pytest.raises(ValidationError) as exc:
        normalize_layout(g0, g1, other, BiboundariedGraph(Digraph(3, [(2, 0)]), (0, 2), (1, 2)))
    assert exc.value.condition == "COND_III"


@pytest.mark.parametrize("j", range(4))
def test_quadruple_vertex_cap(j):
    """A gadget of 10^30 vertices is refused before the checks that build a
    set of every vertex of G1, or the normalization of each gadget."""
    gs = [BiboundariedGraph(Digraph(2, [(0, 1)]), (0,), (1,))] * 4
    gs[j] = BiboundariedGraph(Digraph(10**30), (0,), (1,))
    with pytest.raises(TooLarge):
        GadgetQuadruple(*gs)


def test_normalize_rejects_misaligned_ports():
    aligned = BiboundariedGraph(Digraph(3), (0, 2), (1, 2))
    misaligned = BiboundariedGraph(Digraph(3), (2, 0), (1, 2))  # shared port at position 0
    one_port = BiboundariedGraph(Digraph(3), (0,), (1,))
    for gadgets in ((aligned, aligned, misaligned, aligned), (aligned, aligned, aligned, one_port)):
        with pytest.raises(ValidationError) as exc:
            normalize_layout(*gadgets)
        assert exc.value.condition == "PORT_ALIGNMENT"


# -- label maps ----------------------------------------------------------


def test_delta_map_toy():
    q = toy_quadruple()
    assert delta_map(q, 1, 2, 0, 0) == 0
    assert delta_map(q, 1, 1, 0, 0) == 1
    assert delta_map(q, 1, 1, 1, 0) == 2
    assert delta_map(q, 1, 3, 0, 0) == 3
    assert delta_map(q, 1, 3, 0, 1) == 4
    bad = [(1, 1, 2, 0), (1, 0, 0, 2), (1, 2, 0, 2), (1, 3, 0, 2), (1, 4, 0, 0)]
    # a float copy index once gave the float label 2.0, and j=True gadget 1
    bad += [(1.0, 1, 0, 0), (1, True, 0, 0), (1, 1, 1.0, 0), (1, 1, 0, False)]
    for args in bad:
        with pytest.raises(IndexOutOfRange):
            delta_map(q, *args)


def test_delta2_two_readings_coincide():
    """The high-range prefix formula read as outer-shift vs inner-shift."""
    for quad in (toy_quadruple(), shared_port_quadruple()):
        for s in (1, 2, 3):
            ell_hat = (1 << s) - 1
            for r in range(quad.g2.n - quad.k_dprime, quad.g2.n):
                outer = quad.n2 + ell_hat * quad.n1 + r + quad.g1.n - quad.g2.n
                inner = delta_map(quad, s, 1, ell_hat, r + quad.g1.n - quad.g2.n)
                assert outer == inner == delta_map(quad, s, 2, 0, r)


def test_succ_ref_worked_example():
    q = toy_quadruple()
    S = CnfInstance(1, [(1,)])
    expected = {0: {1}, 1: {2}, 2: {2, 3}, 3: {4}, 4: set()}
    for x, want in expected.items():
        assert succ_ref(q, S, x) == want
    with pytest.raises(IndexOutOfRange):
        succ_ref(q, S, 5)


def test_labels_must_be_ints():
    """A float label or copy index once ended in a bare TypeError inside
    CnfInstance.value, and label True was answered as label 1."""
    q = toy_quadruple()
    S = CnfInstance(1, [(1,)])
    for x in (2.0, True):
        with pytest.raises(IndexOutOfRange):
            succ_ref(q, S, x)
    for i in (1.0, True):
        with pytest.raises(IndexOutOfRange):
            sbar_at(S, i)


@pytest.mark.parametrize("name", sorted(QUADRUPLES))
def test_succ_ref_graph_matches_per_label_route(name):
    """The whole-graph entry point and the per-label one share one case
    analysis; they must give the same chain on every battery."""
    quad = QUADRUPLES[name]()
    battery = small_cnf_battery()
    battery += [S for s in range(3, 9) for S in seeded_cnf_battery(s, 2, 70 + s)]
    for S in battery:
        g = succ_ref_graph(quad, S)
        assert graph_equal(g, reference_graph(quad, S)), (S.s, S.clauses)


def test_succ_ref_graph_size_guard(monkeypatch):
    """s = 21 is refused before the word is evaluated."""
    def no_work(self, q):
        raise AssertionError("evaluated the CNF before the size guard")

    S = CnfInstance(21, [(21,)])
    monkeypatch.setattr(CnfInstance, "value", no_work)
    with pytest.raises(TooLargeToMaterialize):
        succ_ref_graph(toy_quadruple(), S)
    with pytest.raises(NotValidated):
        succ_ref_graph(None, S)


# -- the layout is the chain Δ(2·s̄·3) -------------------------------------


def layout_labels(quad, S):
    """The gadgets, by letter, and the word 2·s̄·3 of the paper's chain, and
    the label delta_map gives each vertex of the chain that graph.chain_maps
    folds. Asserts that the renaming is a bijection onto [0, N): every
    letter that holds a chain vertex gives it the same label, and every
    label is used."""
    s = S.s
    word = ["2"] + [str(sbar_at(S, q)) for q in range(1 << s)] + ["3"]
    gamma = {str(j): quad.gadget(j) for j in range(4)}
    maps, total = chain_maps(gamma, word)
    copies = [(2, 0)] + [(int(letter), q) for q, letter in enumerate(word[1:-1])] + [(3, 0)]
    label = [None] * total
    for (j, q), vmap in zip(copies, maps):
        for r, c in enumerate(vmap):
            y = delta_map(quad, s, j, q, r)
            assert label[c] in (None, y), f"chain vertex {c} gets labels {label[c]} and {y}"
            label[c] = y
    assert sorted(label) == list(range(quad.big_n(s)))
    return gamma, word, label


def chain_in_layout(quad, S):
    """The paper's chain Δ(2·s̄·3), folded by graph.delta, with each chain
    vertex renamed through layout_labels, which asserts that the renaming
    is a bijection onto [0, N)."""
    gamma, word, label = layout_labels(quad, S)
    chain = delta(gamma, word).graph
    return Digraph(len(label), ((label[u], label[v]) for u, v in chain.edges))


@pytest.mark.parametrize("name", sorted(QUADRUPLES))
def test_layout_is_the_chain_label_for_label(name):
    """The routes' one layout, delta_map, renames Δ(2·s̄·3) bijectively and
    edge for edge onto succ_ref_graph's chain, up to s = 10 (N ≈ 2,000)."""
    quad = QUADRUPLES[name]()
    for s in (1, 2, 3, 6, 10):
        for S in [CnfInstance(s, [])] + seeded_cnf_battery(s, 2, 300 + s):
            assert graph_equal(chain_in_layout(quad, S), succ_ref_graph(quad, S)), (s, S.clauses)


def anchored_decomposition(g):
    """P1 → V(g) → P2: root bag P1, one bag of all of g, pointed-leaf bag
    P2; width |V(g)| − 1."""
    return TreeDecomposition(0, [-1, 0, 1], [g.p1, range(g.n), g.p2], pointed_leaf=2)


def layout_decomposition(quad, S):
    """The gadgets' anchored decompositions folded over 2·s̄·3 by
    decomposition_of_delta, with the bags renamed through layout_labels:
    built from the gadgets and the labels, never from the circuit."""
    decs = {str(j): anchored_decomposition(quad.gadget(j)) for j in range(4)}
    gamma, word, label = layout_labels(quad, S)
    t = decomposition_of_delta(gamma, decs, word)
    bags = [[label[c] for c in bag] for bag in t.bags]
    return TreeDecomposition(t.root, t.parents, bags, t.pointed_leaf)


@pytest.mark.parametrize("name", sorted(QUADRUPLES))
def test_compiled_graph_has_the_chain_decomposition(name):
    """The hard instances have bounded treewidth: layout_decomposition
    decomposes the circuit's materialized graph at width max n_j − 1,
    whatever s is (258 chain members at s = 8)."""
    quad = QUADRUPLES[name]()
    bound = max(quad.gadget(j).n for j in range(4)) - 1
    for s in (1, 2, 3, 6, 8):
        for S in [CnfInstance(s, [])] + seeded_cnf_battery(s, 2, 500 + s):
            t = layout_decomposition(quad, S)
            g = materialize(compile_reduction(quad, S), quad.big_n(s))
            assert validate(g, t) == [], (s, S.clauses)
            assert width(t) == bound, (s, S.clauses)


def random_gadget(rng, n, p1, p2):
    edges = [(u, v) for u in range(n) for v in range(n) if rng.random() < 0.25]
    return BiboundariedGraph(Digraph(n, edges), p1, p2)


def random_quadruples(seed, draws):
    """Seeded quadruples with k <= 3 ports, 0 to k - 1 of them shared at
    the same positions in every gadget, and up to two vertices beyond the
    ports. G0 mostly takes G1's ports and G1's edges out of the shared
    ports, as the preconditions ask. Returns the quadruples the
    constructor accepts and the ValidationError conditions of the rest."""
    rng = random.Random(seed)
    kept, refused = [], []
    for _ in range(draws):
        k = rng.randint(1, 3)
        shared = set(rng.sample(range(k), rng.randint(0, k - 1)))

        def gadget(n=None, like=None):
            n = n or 2 * k - len(shared) + rng.randint(0, 2)
            if like is None:
                verts = rng.sample(range(n), 2 * k - len(shared))
                p1, rest = verts[:k], iter(verts[k:])
                p2 = [p1[t] if t in shared else next(rest) for t in range(k)]
                return random_gadget(rng, n, p1, p2)
            g = random_gadget(rng, n, like.p1, like.p2)
            ports = set(like.p1) & set(like.p2)
            edges = {(u, v) for u, v in g.graph.edges if u not in ports}
            edges |= {(u, v) for u, v in like.graph.edges if u in ports}
            return BiboundariedGraph(Digraph(n, edges), like.p1, like.p2)

        g1 = gadget()
        g0 = gadget(g1.n, g1 if rng.random() < 0.8 else None)
        try:
            kept.append(GadgetQuadruple(g0, g1, gadget(), gadget()))
        except ValidationError as exc:
            refused.append(exc.condition)
    return kept, refused


def test_random_quadruples_agree_on_every_route():
    """On quadruples the constructor accepts, the circuit, succ_ref_graph,
    delta_layout and the renamed chain Δ(2·s̄·3) give one graph at s <= 3,
    and layout_decomposition decomposes it. These gadgets are not
    model-forcing, so only the routes are compared, never the loop verdict
    with SAT."""
    kept, refused = random_quadruples(2718, 120)
    assert len(kept) >= 60 and set(refused) <= {"COND_I", "COND_II", "COND_III"}
    assert any(q.k_dprime >= 2 for q in kept)  # two shared ports can be swapped
    for i, quad in enumerate(kept):
        assert GadgetQuadruple(quad.g0, quad.g1, quad.g2, quad.g3) == quad
        assert GadgetQuadruple(*map(bib_from_json_obj, quad.to_json_obj())) == quad
        for s in (1, 2, 3):
            S = seeded_cnf_battery(s, 1, 1000 * i + s)[0]
            ref = succ_ref_graph(quad, S)
            assert graph_equal(chain_in_layout(quad, S), ref), (i, s, S.clauses)
            assert graph_equal(delta_layout(quad, S), ref), (i, s, S.clauses)
            circuit = materialize(compile_reduction(quad, S), 10**5)
            assert graph_equal(circuit, ref), (i, s, S.clauses)
            # the certificate, at most at width max n_j − 1: a word need
            # not hold both G0 and G1
            t = layout_decomposition(quad, S)
            assert validate(circuit, t) == [], (i, s, S.clauses)
            assert width(t) < max(quad.gadget(j).n for j in range(4)), (i, s, S.clauses)


@pytest.mark.parametrize("name", sorted(QUADRUPLES))
def test_label_tables_give_the_layout(name):
    """succ_ref_graph reads a label table per (quadruple, s); the chain it
    gives is delta_layout's at every s <= 10, with the last copy holding
    g0 (a valid CNF), g1 (an unsatisfiable one) or either (seeded)."""
    quad = QUADRUPLES[name]()
    for s in range(1, 11):
        cnfs = [CnfInstance(s, []), CnfInstance(s, [(1,), (-1,)])]
        for S in cnfs + seeded_cnf_battery(s, 2, 600 + s):
            assert graph_equal(succ_ref_graph(quad, S), delta_layout(quad, S)), (s, S.clauses)


def test_label_tables_give_the_layout_on_random_quadruples():
    kept, _ = random_quadruples(2718, 120)
    for i, quad in enumerate(kept[:24]):
        for s in (4, 7, 10):
            S = seeded_cnf_battery(s, 1, 700 * i + s)[0]
            assert graph_equal(succ_ref_graph(quad, S), delta_layout(quad, S)), (i, s, S.clauses)


@pytest.mark.parametrize("name", ["toy", "shared"])
def test_label_table_stays_small_at_s_20(name):
    """A shared port's successors in every copy stay a range, so the table
    for s = 20 never holds the 2^20 labels a G3 row can point to."""
    quad = QUADRUPLES[name]()
    tracemalloc.start()
    try:
        table = _label_table.__wrapped__(quad, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    g3 = table[-1]
    longest = max((len(labels) for _, _, ranges in g3 for labels in ranges), default=0)
    assert longest == (1 << 20 if quad.k_dprime else 0)


def test_equal_quadruples_built_apart_share_their_hash_and_template(monkeypatch):
    """The hash is taken once, at construction; two equal quadruples built
    apart hash alike and hit the same cached template and label table."""
    a, b = shared_port_quadruple(), shared_port_quadruple()
    assert a is not b and a == b

    def refuse(self):
        raise AssertionError("a gadget was hashed again")

    with monkeypatch.context() as m:
        m.setattr(BiboundariedGraph, "__hash__", refuse)
        assert hash(a) == hash(b)
    assert _reduction_template(a, 5) is _reduction_template(b, 5)
    assert _label_table(a, 5) is _label_table(b, 5)


def test_quadruple_constants_are_derived_not_passed():
    """Four gadgets are the whole input; the six constants come from them."""
    quad = shared_port_quadruple()
    with pytest.raises(TypeError):
        GadgetQuadruple(quad.g0, quad.g1, quad.g2, quad.g3, 2, 1, 1, 2, 3, 3)
    assert normalize_layout is GadgetQuadruple


# -- compilation ---------------------------------------------------------

def test_compile_worked_example():
    q = toy_quadruple()
    g = materialize(compile_reduction(q, CnfInstance(1, [(1,)])), 100)
    assert graph_equal(g, Digraph(5, [(0, 1), (1, 2), (2, 2), (2, 3), (3, 4)]))


def test_compile_requires_validated_quad():
    with pytest.raises(NotValidated):
        compile_reduction("not a quad", CnfInstance(1, []))
    with pytest.raises(NotValidated):
        succ_ref(None, CnfInstance(1, []), 0)


@pytest.mark.parametrize("quad_fn", [toy_quadruple, shared_port_quadruple])
def test_compile_matches_succ_ref_on_battery(quad_fn):
    quad = quad_fn()
    for S in small_cnf_battery():
        g = materialize(compile_reduction(quad, S), 10**5)
        assert graph_equal(g, reference_graph(quad, S))


def seam_quadruple():
    """The toy quadruple with a P2-to-P1 edge in g0: the last copy's P2
    port, glued to G3's P1 port, has a successor iff that copy holds g0.
    On toy and path that port has none, and on shared its one edge is also
    a G3 edge, so no named quadruple tests the last seam."""
    e = BiboundariedGraph(Digraph(2, [(0, 1)]), (0,), (1,))
    g0 = BiboundariedGraph(Digraph(2, [(0, 0), (0, 1), (1, 0)]), (0,), (1,))
    return GadgetQuadruple(g0, e, e, e)


def test_the_last_seam_agrees_on_every_route():
    """The circuit, succ_ref_graph and delta_layout give one graph on the
    seam quadruple at s <= 8; (x1) and (¬x1) put g0 and g1 in the last
    copy, the seeded CNFs either."""
    quad = seam_quadruple()
    last_gadgets = set()
    for s in range(1, 9):
        cnfs = [CnfInstance(s, [(1,)]), CnfInstance(s, [(-1,)])]
        for S in cnfs + seeded_cnf_battery(s, 13, 800 + s):
            last_gadgets.add(sbar_at(S, (1 << s) - 1))
            ref = succ_ref_graph(quad, S)
            assert graph_equal(delta_layout(quad, S), ref), (s, S.clauses)
            assert graph_equal(materialize(compile_reduction(quad, S), 1 << 10), ref), (s, S.clauses)
    assert last_gadgets == {0, 1}


@pytest.mark.parametrize("ports", [(), (0,)])
def test_edgeless_quadruples_agree_on_every_route(ports):
    """Four edgeless 2-vertex gadgets: the template's output is the
    constant 0, a gate below the template's size, which once made
    cone_prefix index past the end of its cone."""
    e = BiboundariedGraph(Digraph(2), ports, [1 - p for p in ports])
    quad = GadgetQuadruple(e, e, e, e)
    for s in (1, 2, 3, 5):
        for S in [CnfInstance(s, [])] + seeded_cnf_battery(s, 3, 900 + s):
            sgr = compile_reduction(quad, S)
            assert sgr.circuit.gates == (("const", 0),)
            ref = succ_ref_graph(quad, S)
            assert not ref.edges and ref.n == quad.big_n(s)
            assert graph_equal(delta_layout(quad, S), ref), (s, S.clauses)
            assert graph_equal(materialize(sgr, 1 << 10), ref), (s, S.clauses)


def test_vertex_count_formula():
    for quad in (toy_quadruple(), shared_port_quadruple()):
        for s in (1, 2, 4):
            sgr = compile_reduction(quad, CnfInstance(s, []))
            assert sgr.n_vertices == quad.n2 + (1 << s) * quad.n1 + quad.n3


def test_compile_scales_without_materializing():
    quad = toy_quadruple()
    sgr = compile_reduction(quad, CnfInstance(16, [(1, -16)]))
    assert sgr.n_vertices == quad.big_n(16)
    # spot-check one edge far into the chain against succ_ref
    S = CnfInstance(16, [(1, -16)])
    x = quad.n2 + 12345 * quad.n1
    succs = succ_ref(quad, S, x)
    for y in list(succs)[:2]:
        assert sgr.circuit.eval(x, y)


# Gate counts of the circuits compiled for seeded_cnf_battery(s, 2, 9000 + s),
# computed with the compiler whose loop edges compare y with x, whose
# power-of-two divisions are wiring, whose G2 and G3 row tests read only
# x's low bits, and whose one seam rule glues the last copy to G3 as it
# glues each copy to the next; a compile must keep exactly these gates.
PINNED_GATE_COUNTS = {
    ("path", 4): [131, 125], ("path", 8): [256, 236], ("path", 12): [362, 356],
    ("shared", 4): [254, 242], ("shared", 8): [442, 384], ("shared", 12): [585, 573],
    ("toy", 4): [132, 126], ("toy", 8): [257, 237], ("toy", 12): [363, 357],
}


@pytest.mark.parametrize("name, s", sorted(PINNED_GATE_COUNTS))
def test_compiled_gate_counts_are_pinned(name, s):
    quad = QUADRUPLES[name]()
    counts = [
        compile_reduction(quad, S).circuit.gate_count()
        for S in seeded_cnf_battery(s, 2, 9000 + s)
    ]
    assert counts == PINNED_GATE_COUNTS[name, s]


# The reduction's size law, gates <= a + b·s + c·literals, per named
# quadruple as (a, b, c). a + b·s is exact on the clauses (x1 ∨ ¬x2)(x2 ∨ xs).
# c covers the gates beyond a + b·s per literal: at most 0.96 on toy and
# path and 3.53 on shared for the seeded 3-CNFs at s = 16, and 0.94 and
# 5.67 for unit clauses on every variable at s = 64.
SIZE_LAW = {"toy": (8, 28, 1), "path": (7, 28, 1), "shared": (80, 36, 6)}


@pytest.mark.parametrize("name", sorted(SIZE_LAW))
def test_compiled_gate_counts_follow_the_size_law(name):
    """The reduction is polynomial, and in fact linear in s and in the
    CNF's literals, up to s = 64; criterion 3's far looser budget is
    checked apart."""
    quad = QUADRUPLES[name]()
    a, b, c = SIZE_LAW[name]
    for s in (4, 8, 16, 32, 64):
        S = CnfInstance(s, [(1, -2), (2, s)])
        assert compile_reduction(quad, S).circuit.gate_count() == a + b * s, s
    rng = random.Random(16)
    cnfs = [CnfInstance(64, [(v,) for v in range(1, 65)]),
            CnfInstance(64, [(-v,) for v in range(1, 65)])]
    for m in (1, 5, 20, 80, 320, 640):
        clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 17), 3)]
                   for _ in range(m)]
        cnfs.append(CnfInstance(16, clauses))
    for S in cnfs:
        literals = sum(map(len, S.clauses))
        gates = compile_reduction(quad, S).circuit.gate_count()
        assert gates <= a + b * S.s + c * literals, (S.s, literals, gates)


def test_template_is_not_changed_by_compiles():
    quad = shared_port_quadruple()
    s1, s2 = seeded_cnf_battery(5, 2, 31)
    template, _ = _reduction_template(quad, 5)
    size = template.gate_count()
    first = compile_reduction(quad, s1).circuit.gates
    compile_reduction(quad, s2)
    assert compile_reduction(quad, s1).circuit.gates == first
    assert template.gate_count() == size


def test_cold_template_compiles_like_a_warm_one():
    quad = toy_quadruple()
    S = seeded_cnf_battery(6, 1, 17)[0]
    warm = compile_reduction(quad, S)
    _reduction_template.cache_clear()
    assert compile_reduction(quad, S) == warm


# -- quadruple construction ----------------------------------------------


def test_build_quadruple_loop_omega():
    q = build_quadruple(path_triple(), Digraph(1, [(0, 0)]))
    assert q.g1.n == 2
    assert q.g0.graph.edges == frozenset({(0, 0)})
    assert q.g0.p1 == (0,) and q.g0.p2 == (1,)


def test_build_quadruple_pads_to_fit():
    omega = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    q = build_quadruple(path_triple(), omega)
    assert q.g1.n == 3  # two glued copies of the edge gadget
    assert q.g0.graph.edges == frozenset({(0, 1), (1, 2), (2, 0)})


def test_build_quadruple_failure():
    t = path_triple()
    with pytest.raises(ConstructionFailed):
        build_quadruple(t, Digraph(60))


def test_build_quadruple_failure_names_its_condition_once():
    """The last ValidationError's bare message, not its text, once gave
    "PORT_ALIGNMENT: PORT_ALIGNMENT: ..."."""
    g1 = BiboundariedGraph(Digraph(3), (0, 1), (0, 2))  # shared port at position 0
    g2 = BiboundariedGraph(Digraph(3), (0, 1), (2, 1))  # shared port at position 1
    with pytest.raises(ConstructionFailed) as info:
        build_quadruple(GadgetTriple(g1, g2, g2), Digraph(1))
    assert info.value.condition == "PORT_ALIGNMENT"
    assert info.value.message == "shared-port positions differ across gadgets"
    assert str(info.value) == "PORT_ALIGNMENT: shared-port positions differ across gadgets"


# -- pump checks ---------------------------------------------------------


def test_pump_check_path():
    rep = pump_check(path_triple(), LOOP, expected=False, n_max=6)
    assert rep.ok
    assert rep.results == tuple((n, False) for n in range(7))


def test_pump_check_detects_mismatch():
    loop_gadget = BiboundariedGraph(Digraph(2, [(0, 1), (1, 1)]), (0,), (1,))
    t = GadgetTriple(loop_gadget, loop_gadget, loop_gadget)
    rep = pump_check(t, LOOP, expected=False, n_max=2)
    assert not rep.ok
    assert rep.first_mismatch == 0


def test_pump_check_caps_n_max():
    assert len(pump_check(path_triple(), LOOP, expected=False, n_max=0).results) == 1
    # -1 once checked no chain and reported success, True checked 0 and 1
    # copies, and 1.0 failed in range
    for n_max in (-1, 257, True, 1.0):
        with pytest.raises(BadParam):
            pump_check(path_triple(), LOOP, expected=True, n_max=n_max)


# -- auxiliary reductions ------------------------------------------------


def test_reduce_loop_worked_example():
    g = materialize(reduce_loop(CnfInstance(1, [(1,)])), 100)
    assert graph_equal(g, Digraph(2, [(0, 1), (1, 1)]))


def test_reduce_loop_contradiction_is_cycle():
    g = materialize(reduce_loop(CnfInstance(1, [(1,), (-1,)])), 100)
    assert graph_equal(g, Digraph(2, [(0, 1), (1, 0)]))


def test_reduce_loop_out_degree_one():
    for S in small_cnf_battery():
        g = materialize(reduce_loop(S), 100)
        assert all(len(g.successors(v)) == 1 for v in range(g.n))


def test_reduce_clique_worked_examples():
    g = materialize(reduce_clique(CnfInstance(1, [(1,), (-1,)])), 100)
    assert len(g.edges) == 4  # complete with loops
    g = materialize(reduce_clique(CnfInstance(1, [(1,)])), 100)
    assert g.successors(1) == [1]


def test_auxiliary_reductions_track_sat():
    clique = CompiledFormula.parse("all x. all y. E(x,y)")
    for S in small_cnf_battery():
        sat, _ = sat_solve(S)
        assert LOOP.eval(materialize(reduce_loop(S), 100)) == sat
        assert clique.eval(materialize(reduce_clique(S), 100)) == (not sat)
