import random
from itertools import permutations

import pytest

from succmso.errors import (
    BadAnchorBags,
    BadVertex,
    EmptyDecomposition,
    NotALeaf,
    TooLarge,
)
from succmso.graph import BiboundariedGraph, Digraph, delta
from succmso.treedec import (
    TreeDecomposition,
    ConnectivityViolated,
    EdgeUncovered,
    VertexUncovered,
    decomposition_of_delta,
    glue_pointed,
    lambda_fold,
    normalize_degree3,
    parse,
    serialize,
    treewidth_exact,
    validate,
    width,
)


def path_dec(n):
    """Chain decomposition of the n-vertex path: bags {i, i+1}."""
    bags = [{i, i + 1} for i in range(n - 1)]
    parents = [-1] + list(range(n - 2))
    return TreeDecomposition(0, parents, bags, pointed_leaf=n - 2)


def test_constructor_guards():
    with pytest.raises(EmptyDecomposition):
        TreeDecomposition(0, [], [])
    with pytest.raises(BadVertex):
        TreeDecomposition(0, [0], [{0}])  # root must have parent -1
    with pytest.raises(BadVertex):
        TreeDecomposition(0, [-1, 2, 1], [{0}] * 3)  # cycle
    with pytest.raises(NotALeaf):
        TreeDecomposition(0, [-1, 0], [{0}, {0}], pointed_leaf=0)


def test_validate_accepts_path():
    g = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert validate(g, path_dec(4)) == []


def test_validate_reports_violations():
    g = Digraph(3, [(0, 1), (1, 2)])
    t = TreeDecomposition(0, [-1, 0], [{0, 1}, {1, 2}])
    assert validate(g, t) == []
    missing_vertex = TreeDecomposition(0, [-1], [{0, 1}])
    kinds = {type(v) for v in validate(g, missing_vertex)}
    assert VertexUncovered in kinds
    assert EdgeUncovered in kinds
    broken = TreeDecomposition(0, [-1, 0, 1], [{0, 1}, {1, 2}, {0}])
    assert any(isinstance(v, ConnectivityViolated) for v in validate(g, broken))


def test_validate_uses_symmetric_closure():
    g = Digraph(2, [(1, 0)])
    t = TreeDecomposition(0, [-1], [{0, 1}])
    assert validate(g, t) == []


def test_width():
    assert width(path_dec(5)) == 1
    assert width(TreeDecomposition(0, [-1], [{0, 1, 2}])) == 2


def test_normalize_degree3():
    # star-shaped tree with 5 children at the root
    t = TreeDecomposition(0, [-1, 0, 0, 0, 0, 0], [{0}] * 6)
    g = Digraph(1)
    n = normalize_degree3(t)
    assert max(n.degree(v) for v in range(n.node_count)) <= 3
    assert width(n) == width(t)
    assert n.node_count >= t.node_count
    assert validate(g, n) == []


def test_glue_pointed():
    t = glue_pointed(path_dec(3), path_dec(3))
    assert t.node_count == 3  # pointed leaf replaced by the second chain
    assert t.pointed_leaf is not None
    with pytest.raises(NotALeaf):
        glue_pointed(TreeDecomposition(0, [-1], [{0}]), path_dec(3))


def test_lambda_fold():
    fam = {"a": path_dec(3)}
    t = lambda_fold(fam, "aaa")
    assert t.node_count == 4


def test_decomposition_of_delta_matches_chain():
    gadget = BiboundariedGraph(Digraph(2, [(0, 1)]), (0,), (1,))
    # anchored: root bag is P1, pointed-leaf bag is P2
    dec = TreeDecomposition(0, [-1, 0, 1], [{0}, {0, 1}, {1}], pointed_leaf=2)
    gamma = {"1": gadget}
    decs = {"1": dec}
    for word in ("1", "11", "1111"):
        chain = delta(gamma, word)
        t = decomposition_of_delta(gamma, decs, word)
        assert validate(chain.graph, t) == []
        assert width(t) == 1


def test_decomposition_of_delta_anchor_guard():
    gadget = BiboundariedGraph(Digraph(2, [(0, 1)]), (0,), (1,))
    bad = TreeDecomposition(0, [-1], [{0, 1}], pointed_leaf=0)
    with pytest.raises(BadAnchorBags):
        decomposition_of_delta({"1": gadget}, {"1": bad}, "11")


def test_treewidth_known_values():
    k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u < v])
    c4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    p4 = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert treewidth_exact(k4) == 3
    assert treewidth_exact(c4) == 2
    assert treewidth_exact(p4) == 1
    assert treewidth_exact(Digraph(1)) == 0
    assert treewidth_exact(Digraph(0)) == -1


def treewidth_by_orderings(g: Digraph) -> int:
    """Independent oracle: minimum over all elimination orderings of the
    symmetric closure, simulated with explicit fill-in. Exponential."""
    if g.n == 0:
        return -1
    base = [set() for _ in range(g.n)]
    for u, v in g.edges:
        if u != v:
            base[u].add(v)
            base[v].add(u)
    best = g.n
    for order in permutations(range(g.n)):
        adj = [set(s) for s in base]
        worst = -1
        for v in order:
            nbrs = set(adj[v])
            worst = max(worst, len(nbrs))
            for a in nbrs:
                adj[a].discard(v)
                adj[a].update(nbrs - {a})
            adj[v] = set()
        best = min(best, worst)
    return best


def test_treewidth_oracles_agree():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        edges = [
            (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.4
        ]
        g = Digraph(n, edges)
        assert treewidth_exact(g) == treewidth_by_orderings(g)


def test_treewidth_size_guard():
    with pytest.raises(TooLarge):
        treewidth_exact(Digraph(11))


def test_serialize_round_trip():
    t = path_dec(4)
    assert parse(serialize(t)) == t
