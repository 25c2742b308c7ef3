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
    assert n.parents == (-1, 0, 6, 7, 8, 8, 0, 6, 7)
    assert max(n.degree(v) for v in range(n.node_count)) <= 3
    assert width(n) == width(t)
    assert n.node_count >= t.node_count
    assert validate(g, n) == []


def random_parent_array(rng, n):
    """A random tree on n nodes, bushy or spread out, with one pointer
    bent out of shape half of the time."""
    order = rng.sample(range(n), n)
    spread = rng.choice((2, n))
    parents = [-1] * n
    for k in range(1, n):
        parents[order[k]] = order[rng.randrange(min(k, spread))]
    if rng.random() < 0.5:
        parents[rng.randrange(n)] = rng.randrange(-1, n)
    return order[0], parents


def is_tree_by_walks(root, parents):
    """Oracle: the root has no parent and every node walks up to it
    through parents in range, without repeating a node."""
    if parents[root] != -1:
        return False
    for i in range(len(parents)):
        seen, j = set(), i
        while j != root:
            if j in seen or not 0 <= parents[j] < len(parents):
                return False
            seen.add(j)
            j = parents[j]
    return True


def holders_disconnected(parents, bags, v):
    """Oracle: a search over tree edges that stays on nodes holding v
    misses some of them."""
    holders = {i for i, bag in enumerate(bags) if v in bag}
    if not holders:
        return False
    adj = {i: set() for i in holders}
    for i, p in enumerate(parents):
        if i in holders and p in holders:
            adj[i].add(p)
            adj[p].add(i)
    start = min(holders)
    seen, stack = {start}, [start]
    while stack:
        for j in adj[stack.pop()] - seen:
            seen.add(j)
            stack.append(j)
    return seen != holders


def degrees(root, parents):
    return [parents.count(v) + (v != root) for v in range(len(parents))]


def test_random_decompositions_against_oracles():
    rng = random.Random(11)
    trees = 0
    for _ in range(2000):
        n = rng.randint(1, 12)
        root, parents = random_parent_array(rng, n)
        bags = [{v for v in range(5) if rng.random() < 0.4} for _ in range(n)]
        if not is_tree_by_walks(root, parents):
            with pytest.raises(BadVertex):
                TreeDecomposition(root, parents, bags)
            continue
        trees += 1
        t = TreeDecomposition(root, parents, bags)
        g = Digraph(5, [(u, v) for u in range(5) for v in range(5) if rng.random() < 0.2])
        violations = validate(g, t)
        broken = [x.vertex for x in violations if isinstance(x, ConnectivityViolated)]
        assert broken == [v for v in range(5) if holders_disconnected(parents, bags, v)]
        n3 = normalize_degree3(t)
        assert width(n3) == width(t)
        assert validate(g, n3) == violations
        assert n3.node_count >= t.node_count
        assert max(degrees(n3.root, n3.parents)) <= 3
        if max(degrees(root, parents)) <= 3:
            assert n3 == t
    assert min(trees, 2000 - trees) > 300  # both answers of the constructor are exercised


def test_glue_pointed():
    t = glue_pointed(path_dec(3), path_dec(3))
    assert t.node_count == 3  # pointed leaf replaced by the second chain
    assert t.pointed_leaf is not None
    with pytest.raises(NotALeaf):
        glue_pointed(TreeDecomposition(0, [-1], [{0}]), path_dec(3))


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
    k10 = Digraph(10, [(u, v) for u in range(10) for v in range(10) if u != v])
    c10 = Digraph(10, [(i, (i + 1) % 10) for i in range(10)])
    # outer 5-cycle 0..4, spokes i -- i+5, inner pentagram 5..9
    petersen = Digraph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    grid = Digraph(
        9,
        [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)]
        + [(3 * r + c, 3 * r + c + 3) for r in range(2) for c in range(3)],
    )
    assert treewidth_exact(k10) == 9
    assert treewidth_exact(petersen) == 4
    assert treewidth_exact(c10) == 2
    assert treewidth_exact(grid) == 3


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
    # edges are drawn per ordered pair, loops included, so loops and
    # antiparallel pairs both occur
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 6)
        p = rng.choice((0.2, 0.35, 0.5, 0.7))
        g = Digraph(n, [(u, v) for u in range(n) for v in range(n) if rng.random() < p])
        assert treewidth_exact(g) == treewidth_by_orderings(g)


def random_k_tree(rng, n, k):
    """A k-tree on n > k vertices: a (k+1)-clique, then each new vertex
    joined to a random k-clique already present; treewidth exactly k. Each
    edge gets a random direction, or both."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = {(u, v) for i, u in enumerate(order[: k + 1]) for v in order[i + 1 : k + 1]}
    cliques = [frozenset(order[: k + 1]) - {v} for v in order[: k + 1]]
    for v in order[k + 1 :]:
        base = rng.choice(cliques)
        pairs |= {(u, v) for u in base}
        cliques += [base - {u} | {v} for u in base]
    edges = []
    for u, v in pairs:
        edges += rng.choice(([(u, v)], [(v, u)], [(u, v), (v, u)]))
    return Digraph(n, edges)


def test_treewidth_of_k_trees():
    rng = random.Random(8)
    for n in (8, 9, 10):
        for k in (1, 2, 3, 4):
            for _ in range(3):
                assert treewidth_exact(random_k_tree(rng, n, k)) == k


def test_treewidth_size_guard():
    with pytest.raises(TooLarge):
        treewidth_exact(Digraph(11))


def test_serialize_round_trip():
    t = path_dec(4)
    assert parse(serialize(t)) == t
