import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from succmso.errors import (
    BadVertex,
    EmptyWord,
    ParseError,
    PortArityMismatch,
    SuccmsoError,
    TooLarge,
)
from succmso.graph import (
    BiboundariedGraph,
    Digraph,
    GadgetTriple,
    bib_from_json_obj,
    bib_to_json_obj,
    delta,
    disjoint_union,
    format_graph,
    glue,
    graph_equal,
    isomorphic_small,
    json_value,
    parse_graph,
    power_union,
)

from test_circuit import JSON


def edge_gadget():
    return BiboundariedGraph(Digraph(2, [(0, 1)]), (0,), (1,))


def test_digraph_basics():
    g = Digraph(3, [(0, 1), (0, 2), (1, 1)])
    assert g.successors(0) == [1, 2]
    assert g.successors(2) == []
    assert (1, 1) in g.edges
    with pytest.raises(BadVertex):
        g.successors(3)
    with pytest.raises(BadVertex):
        Digraph(2, [(0, 5)])


@pytest.mark.parametrize("u", [True, 1.0, -1, 3], ids=["bool", "float", "negative", "n"])
def test_successors_takes_only_an_exact_int_vertex(u):
    """successors(True) once returned vertex 1's successors and
    successors(1.0) ended in a bare TypeError."""
    g = Digraph(3, [(0, 1), (1, 2)])
    with pytest.raises(BadVertex):
        g.successors(u)


def test_predecessor_masks_transpose_the_edges():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(0, 9)
        g = Digraph(n, [(u, v) for u in range(n) for v in range(n) if rng.random() < 0.3])
        assert "predecessor_masks" not in vars(g)  # built on first read only
        pred = g.predecessor_masks
        assert len(pred) == n
        for u in range(n):
            for v in range(n):
                assert (pred[v] >> u & 1) == ((u, v) in g.edges)
                assert (pred[v] >> u & 1) == (g.successor_masks[u] >> v & 1)


@pytest.mark.parametrize(
    "n, edges",
    [
        (2.5, [(0, 1)]),  # delta over such a gadget ended in a TypeError
        (2.0, []),
        (True, []),
        ("2", []),
        (2, [(0.7, 1)]),
        (2, [(0, 1.0)]),
        (2, [(True, 1)]),
        (2, [(0, "1")]),
        (2, [(1, 1), (1.0, 1)]),  # equal to an integer edge, so a set would hide it
    ],
)
def test_digraph_takes_only_integers(n, edges):
    with pytest.raises(BadVertex):
        Digraph(n, edges)


@pytest.mark.parametrize(
    "edges",
    [[(1, 2, 3)], [(1,)], [5], 5, None, [[0, 1], {2}]],
    ids=["triple", "single", "int-entry", "int", "none", "set-entry"],
)
def test_digraph_names_a_malformed_edge_list(edges):
    """An edge list that does not unpack into pairs once raised a bare
    ValueError or TypeError."""
    with pytest.raises(BadVertex, match="^edges .* is not an iterable of"):
        Digraph(3, edges)


@pytest.mark.parametrize(
    "p1, p2, name",
    [(5, (1,), "p1"), ((0,), 5, "p2"), (None, None, "p1"),
     ([0], [[1]], "p2"), ([{0}], [1], "p1"), ([0, [1]], [1, 0], "p1")],
)
def test_biboundaried_graph_names_malformed_ports(p1, p2, name):
    """A port argument that is not iterable, or a list entry that a set
    cannot hold, once raised a bare TypeError."""
    with pytest.raises(BadVertex, match=f"^{name} "):
        BiboundariedGraph(Digraph(2), p1, p2)


def test_port_checks():
    g = Digraph(3)
    with pytest.raises(PortArityMismatch):
        BiboundariedGraph(g, (0,), (1, 2))
    with pytest.raises(BadVertex):
        BiboundariedGraph(g, (0, 0), (1, 2))
    with pytest.raises(BadVertex):
        BiboundariedGraph(g, (5,), (1,))
    # a float port once failed later inside delta, and a bool port was
    # written to JSON as false
    for p1, p2 in (((0.0,), (1,)), ((0,), (True,))):
        with pytest.raises(BadVertex, match="is not an int"):
            BiboundariedGraph(g, p1, p2)
    one, two = BiboundariedGraph(g, (0,), (1,)), BiboundariedGraph(g, (0, 1), (1, 2))
    with pytest.raises(PortArityMismatch):
        GadgetTriple(one, one, two)


def test_shared_ports():
    g = BiboundariedGraph(Digraph(4), (0, 3), (2, 3))
    assert g.ell == 2


def test_triple_rejects_all_shared():
    g = BiboundariedGraph(Digraph(1), (0,), (0,))
    with pytest.raises(BadVertex):
        GadgetTriple(g, g, g)


def test_disjoint_and_power_union():
    a = Digraph(2, [(0, 1)])
    b = Digraph(1, [(0, 0)])
    u = disjoint_union(a, b)
    assert u.n == 3
    assert u.edges == frozenset({(0, 1), (2, 2)})
    assert power_union(a, 0).n == 0
    assert power_union(a, 3).n == 6
    for k in (-1, True, 1.5):  # True was read as 1, and 1.5 failed in range
        with pytest.raises(BadVertex):
            power_union(a, k)
    c = Digraph(3, [(0, 1), (1, 1), (2, 0)])
    folded = Digraph(0)
    for k in range(6):
        assert power_union(c, k) == folded
        folded = disjoint_union(folded, c)


def test_glue_identifies_ports():
    # two edges glued end to end give a path of length 2
    g = glue(edge_gadget(), edge_gadget())
    assert g.n == 3
    assert g.graph.edges == frozenset({(0, 1), (1, 2)})
    assert g.p1 == (0,)
    assert g.p2 == (2,)


def test_glue_canonical_labels():
    # left keeps its labels; right's non-identified vertices continue upward
    left = BiboundariedGraph(Digraph(3, [(0, 1), (1, 2)]), (0,), (2,))
    right = BiboundariedGraph(Digraph(2, [(0, 1)]), (0,), (1,))
    g = glue(left, right)
    assert g.n == 4
    assert (2, 3) in g.graph.edges


def test_delta_fold():
    fam = {"1": edge_gadget()}
    g = delta(fam, "111")
    assert g.n == 4
    assert g.graph.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    with pytest.raises(EmptyWord):
        delta(fam, "")
    with pytest.raises(BadVertex):
        delta(fam, "12")


def test_isomorphism():
    a = Digraph(3, [(0, 1), (1, 2)])
    b = Digraph(3, [(2, 0), (0, 1)])
    assert isomorphic_small(a, b)
    assert not isomorphic_small(a, Digraph(3, [(0, 1), (1, 0)]))
    assert not isomorphic_small(a, Digraph(3, [(0, 1), (0, 2)]))  # an out-star
    assert not isomorphic_small(a, Digraph(3, [(0, 1)]))
    with pytest.raises(TooLarge):
        isomorphic_small(Digraph(11), Digraph(11))


def test_graph_equal_is_label_exact():
    assert graph_equal(Digraph(2, [(0, 1)]), Digraph(2, [(0, 1)]))
    assert not graph_equal(Digraph(2, [(0, 1)]), Digraph(2, [(1, 0)]))


def test_text_format_round_trip():
    g = edge_gadget()
    g2 = parse_graph(format_graph(g))
    assert g2 == g
    plain = Digraph(2, [(1, 0)])
    assert parse_graph(format_graph(plain)) == plain


def test_parse_graph_errors():
    with pytest.raises(ParseError):
        parse_graph("e 0 1\n")
    with pytest.raises(ParseError):
        parse_graph("graph two\n")


@pytest.mark.parametrize("text", ["graph 1_0\n", "graph \u0661\n", "graph +2\n", "graph 2\ne 0 1_0\n",
                                  "graph 2\ne 0 1\np1 0_0\np2 1\n"])
def test_parse_graph_takes_plain_decimal_integers(text):
    """int() alone read "1_0" as 10 and took "+" and non-ASCII digits."""
    with pytest.raises(ParseError, match="not an integer"):
        parse_graph(text)


def test_parse_graph_sign_and_long_integers():
    assert parse_graph("graph -0\n") == parse_graph("graph 0\n")
    with pytest.raises(ParseError, match="5000 digits, too many"):
        parse_graph("graph " + "1" * 5000)


def test_json_round_trip():
    g = BiboundariedGraph(Digraph(3, [(0, 2)]), (0,), (2,))
    assert bib_from_json_obj(bib_to_json_obj(g)) == g


@pytest.mark.parametrize(
    "change",
    [
        {"n": 2.5},
        {"n": True},
        {"n": "3"},
        {"edges": [[0, 1, 1]]},
        {"edges": [[0]]},
        {"edges": [[0.7, 1]]},
        {"edges": [["0", "1"]]},
        {"edges": [[False, 1]]},
        {"edges": 3},
        {"p1": [0.0], "p2": [2]},
        {"p2": [True]},
        {"p1": 0},
    ],
)
def test_json_gadget_takes_only_integers(change):
    obj = {"n": 3, "edges": [[0, 2]], "p1": [0], "p2": [2], **change}
    with pytest.raises(ParseError):
        bib_from_json_obj(obj)


# -- fuzz: graph text and gadget JSON near the valid ones, or any text -----

# A header, then edge, port and comment lines, some of them malformed; or
# any text
VERTEX = st.integers(0, 3).map(str)
GRAPH_LINE = st.one_of(
    st.builds("e {} {}".format, VERTEX, VERTEX),
    st.builds("p1 {}\np2 {}".format, VERTEX, VERTEX),
    st.builds("e {} {}".format, VERTEX, st.sampled_from(("-1", "4", "x", "1_0", "+1", "2.0", ""))),
    st.sampled_from(("", "# note", "e 1 # note", "p1", "p2 1 2", "graph 2", "p3 0", "e 0 1 2")),
)
GRAPH = st.builds(lambda n, body: "\n".join([f"graph {n}", *body]),
                  st.integers(-1, 5), st.lists(GRAPH_LINE, max_size=4))
GRAPH_TEXT = st.one_of(GRAPH, GRAPH, st.text(max_size=12))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(GRAPH_TEXT)
def test_parse_graph_fuzz(text):
    """Any text parses to a graph or raises a SuccmsoError, and a parsed
    graph written back as text parses to itself."""
    try:
        g = parse_graph(text)
    except SuccmsoError:
        return
    assert parse_graph(format_graph(g)) == g


def test_empty_port_lines_give_a_plain_digraph():
    """format_graph writes no port lines for a graph without ports, so
    parse_graph reads empty ones as no ports: "graph 1" with "p1" once
    parsed to a BiboundariedGraph that came back as a Digraph."""
    for text in ("graph 1\np1\n", "graph 1\np1\np2\n", "graph 1\np2 \n"):
        assert parse_graph(text) == Digraph(1)


@st.composite
def gadget_json(draw):
    """A valid gadget's JSON object, or the same with one field replaced
    by another JSON value."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), max_size=4))
    obj = {"n": n, "edges": edges, "p1": draw(st.permutations(range(n)))[:k],
           "p2": draw(st.permutations(range(n)))[:k]}
    if draw(st.booleans()):
        obj[draw(st.sampled_from(sorted(obj)))] = draw(st.integers(-1, 5) | JSON)
    return obj


GADGET_TEXT = st.one_of(gadget_json().map(json.dumps), JSON.map(json.dumps), st.text(max_size=12))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(GADGET_TEXT)
def test_gadget_json_fuzz(text):
    """Any text reads as a gadget or raises a SuccmsoError, and a gadget
    written back as JSON reads as itself."""
    try:
        b = bib_from_json_obj(json_value(text))
    except SuccmsoError:
        return
    assert bib_from_json_obj(json_value(json.dumps(bib_to_json_obj(b)))) == b


@pytest.mark.parametrize("text, message", [
    ("{", r"^invalid JSON at line 1, column 2: Expecting property name"),
    ("[1,\n 2", r"^invalid JSON at line 2, column 3: Expecting ',' delimiter$"),
    ("[" * 100_000, r"^invalid JSON: "),
    ("1" * 5000, r"^invalid JSON: "),
])
def test_json_value_refuses_with_a_parse_error(text, message):
    """Deep nesting and long numbers once escaped every JSON reader as a
    RecursionError or a ValueError traceback."""
    with pytest.raises(ParseError, match=message):
        json_value(text)
