import json
import random
import time
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from succmso.errors import (
    BadAnchorBags,
    BadVertex,
    EmptyDecomposition,
    EmptyWord,
    NotALeaf,
    ParseError,
    PortArityMismatch,
    SuccmsoError,
    TooLarge,
)
from succmso.graph import BiboundariedGraph, Digraph, delta, glue
from succmso.treedec import (
    TreeDecomposition,
    ConnectivityViolated,
    EdgeUncovered,
    VertexUncovered,
    _simplicial_rule,
    decomposition_of_delta,
    from_json_obj,
    normalize_degree3,
    parse,
    serialize,
    to_json_obj,
    treewidth_exact,
    validate,
    width,
)

from test_acceptance import _dec_family
from test_circuit import JSON


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


def test_validate_checks_only_the_vertices_of_g():
    # vertex 5 of the bags is not in g, so its split holders are not reported
    t = TreeDecomposition(0, [-1, 0, 1], [{0, 5}, {1}, {0, 5}])
    assert validate(Digraph(2), t) == [ConnectivityViolated(0)]
    with pytest.raises(TooLarge):
        validate(Digraph(10**6 + 1), t)


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
    assert max(degrees(n.root, n.parents)) <= 3
    assert width(n) == width(t)
    assert len(n.parents) >= len(t.parents)
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


@pytest.mark.parametrize(
    "args",
    [
        (0.0, [-1], [{0}]),
        (True, [-1], [{0}]),
        (0, [-1, 0.0], [{0}, {1}]),
        (0, [-1, False], [{0}, {1}]),
        (0, [-1, 0], [{0}, {1}], 1.0),
        (0, [-1, 0], [{0}, {1}], True),
    ],
)
def test_constructor_takes_only_int_node_indices(args):
    # a float would fail as a tuple index, and a bool pointed leaf would be
    # serialized as true, which parse refuses
    with pytest.raises(BadVertex):
        TreeDecomposition(*args)
    t = TreeDecomposition(0, [-1, 0], [{0}, {1}], 1)
    assert parse(serialize(t)) == t


@pytest.mark.parametrize(
    "bags",
    [
        [{True}],
        [{0.5}],
        [[1, True]],
        [[True, 1]],
        [frozenset({False})],
        [iter([2, 1.0])],
        [{1}, {2, 3.0}],
    ],
)
def test_constructor_takes_only_int_bag_entries(bags):
    # a bool bag entry is serialized as true and a float as 0.5, which
    # parse refuses; [1, True] must not be folded into {1}
    with pytest.raises(BadVertex):
        TreeDecomposition(0, [-1] + [0] * (len(bags) - 1), bags)
    t = TreeDecomposition(0, [-1, 0], [[1, 1, 0], iter([2])])
    assert t.bags == (frozenset({0, 1}), frozenset({2}))
    assert parse(serialize(t)) == t


@pytest.mark.parametrize(
    "args, name",
    [((0, [-1], [5]), "bags"), ((0, [-1, 0], [{0}, None]), "bags"),
     ((0, [-1], 5), "bags"), ((0, 5, [{0}]), "parents"), ((0, None, None), "parents")],
)
def test_constructor_names_a_malformed_shape(args, name):
    # a parents or bags argument, or a bag, that is not iterable once
    # raised a bare TypeError
    with pytest.raises(BadVertex, match=f"^{name} "):
        TreeDecomposition(*args)


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
        assert len(n3.parents) >= len(t.parents)
        assert max(degrees(n3.root, n3.parents)) <= 3
        if max(degrees(root, parents)) <= 3:
            assert n3 == t
    assert min(trees, 2000 - trees) > 300  # both answers of the constructor are exercised


# -- the pairwise left fold: the oracle for the one-pass chain fold --------


def oracle_glue_map(a, b):
    """Vertex map applied to b's labels when computing a ⊕ b: a keeps its
    labels, P1(b)[i] goes to P2(a)[i], and the other b-vertices get fresh
    labels |a|, |a|+1, ... in increasing order of their own."""
    if a.ell != b.ell:
        raise PortArityMismatch(f"port counts {a.ell} and {b.ell} differ")
    vmap = {}
    for i, p in enumerate(b.p1):
        vmap[p] = a.p2[i]
    fresh = a.n
    for v in range(b.n):
        if v not in vmap:
            vmap[v] = fresh
            fresh += 1
    return vmap, fresh


def oracle_glue(a, b):
    vmap, total = oracle_glue_map(a, b)
    edges = set(a.graph.edges)
    edges.update((vmap[u], vmap[v]) for u, v in b.graph.edges)
    return BiboundariedGraph(Digraph(total, edges), a.p1, tuple(vmap[v] for v in b.p2))


def oracle_delta(gamma, word):
    word = list(word)
    if not word:
        raise EmptyWord("delta requires a nonempty word")
    for letter in word:
        if letter not in gamma:
            raise BadVertex(f"unknown gadget index {letter!r}")
    acc = gamma[word[0]]
    for letter in word[1:]:
        acc = oracle_glue(acc, gamma[letter])
    return acc


def oracle_glue_pointed(t, u):
    """t ⊕ u at t's pointed leaf: u's root takes the leaf's place under the
    leaf's parent, t's other nodes keep their order, renumbered to close the
    gap, and u's follow, its pointed leaf becoming the result's."""
    leaf = t.pointed_leaf
    if leaf is None:
        raise NotALeaf("left operand has no pointed leaf")
    if len(t.parents) == 1:
        return u
    offset = len(t.parents) - 1

    def shift(i):  # maps -1 to itself, as leaf >= 0
        return i - 1 if i > leaf else i

    parents = [shift(p) for i, p in enumerate(t.parents) if i != leaf]
    parents += [
        shift(t.parents[leaf]) if i == u.root else p + offset
        for i, p in enumerate(u.parents)
    ]
    bags = t.bags[:leaf] + t.bags[leaf + 1 :] + u.bags
    pointed = None if u.pointed_leaf is None else u.pointed_leaf + offset
    return TreeDecomposition(shift(t.root), parents, bags, pointed)


def oracle_relabel_bags(t, vmap):
    bags = [frozenset(vmap[v] for v in bag) for bag in t.bags]
    return TreeDecomposition(t.root, t.parents, bags, t.pointed_leaf)


def oracle_decomposition_of_delta(gamma, decs, word):
    word = list(word)
    if not word:
        raise EmptyWord("empty word")
    for letter in word:
        if letter not in gamma:
            raise BadVertex(f"unknown gadget index {letter!r}")
        if letter not in decs:
            raise BadVertex(f"unknown decomposition index {letter!r}")
        gadget, dec = gamma[letter], decs[letter]
        if dec.pointed_leaf is None:
            raise BadAnchorBags(f"decomposition {letter!r} has no pointed leaf")
        if dec.bags[dec.root] != frozenset(gadget.p1):
            raise BadAnchorBags(f"root bag of {letter!r} is not P1 of its gadget")
        if dec.bags[dec.pointed_leaf] != frozenset(gadget.p2):
            raise BadAnchorBags(f"pointed-leaf bag of {letter!r} is not P2 of its gadget")
    acc_graph = gamma[word[0]]
    acc_dec = decs[word[0]]
    for letter in word[1:]:
        b = gamma[letter]
        vmap, _ = oracle_glue_map(acc_graph, b)
        acc_dec = oracle_glue_pointed(acc_dec, oracle_relabel_bags(decs[letter], vmap))
        acc_graph = oracle_glue(acc_graph, b)
    return acc_dec


def test_oracle_glue_pointed():
    t = oracle_glue_pointed(path_dec(3), path_dec(3))
    assert len(t.parents) == 3  # pointed leaf replaced by the second chain
    assert t.pointed_leaf is not None
    with pytest.raises(NotALeaf):
        oracle_glue_pointed(TreeDecomposition(0, [-1], [{0}]), path_dec(3))


def random_member(rng, ell):
    """A random gadget with ell ports a side, and a decomposition anchored
    on it (root bag P1, pointed-leaf bag P2) whose root and pointed leaf
    sit anywhere in the node order; when P1 and P2 are one set, half the
    time a single node that is both root and pointed leaf."""
    n = rng.randint(max(ell, 1), 5)
    edges = [(u, v) for u in range(n) for v in range(n) if rng.random() < 0.3]
    p1 = rng.sample(range(n), ell)
    p2 = rng.sample(p1, ell) if rng.random() < 0.3 else rng.sample(range(n), ell)
    gadget = BiboundariedGraph(Digraph(n, edges), p1, p2)
    if set(p1) == set(p2) and rng.random() < 0.5:
        return gadget, TreeDecomposition(0, [-1], [p1], pointed_leaf=0)
    size = rng.randint(2, 6)
    order = rng.sample(range(size), size)
    parents = [-1] * size
    for k in range(1, size):
        parents[order[k]] = order[rng.randrange(k)]
    leaf = rng.choice([i for i in range(size) if i not in parents])
    bags = [rng.sample(range(n), rng.randint(0, n)) for _ in range(size)]
    bags[order[0]], bags[leaf] = p1, p2
    return gadget, TreeDecomposition(order[0], parents, bags, leaf)


def random_family(rng, ells):
    members = {letter: random_member(rng, ell) for letter, ell in zip("abc", ells)}
    return {k: g for k, (g, _) in members.items()}, {k: t for k, (_, t) in members.items()}


def test_chain_fold_matches_pairwise_oracle():
    rng = random.Random(23)
    single_nodes_glued = roots_shifted = last_single = root_from_last = 0
    for trial in range(800):
        gamma, decs = random_family(rng, [trial % 3] * 3)
        word = "".join(rng.choice("abc") for _ in range(rng.randint(1, 10)))
        assert delta(gamma, word) == oracle_delta(gamma, word)
        t = decomposition_of_delta(gamma, decs, word)
        assert t == oracle_decomposition_of_delta(gamma, decs, word)
        a, b = rng.choice("abc"), rng.choice("abc")
        assert glue(gamma[a], gamma[b]) == oracle_glue(gamma[a], gamma[b])
        single_nodes_glued += any(len(decs[x].parents) == 1 for x in word[:-1])
        roots_shifted += len(word) > 1 and decs[word[0]].root > decs[word[0]].pointed_leaf
        last_single += len(decs[word[-1]].parents) == 1
        root_from_last += len(word) > 1 and all(len(decs[x].parents) == 1 for x in word[:-1])
    # both special cases of the renumbering are exercised
    assert min(single_nodes_glued, roots_shifted) > 60
    # and so are a one-node last member, whose node keeps the pointed leaf,
    # and words whose root is the last member's, as every member before it
    # is one node
    assert min(last_single, root_from_last) > 60


def outcome(f, *args):
    try:
        return f(*args)
    except SuccmsoError as exc:
        return type(exc), str(exc)


def test_chain_fold_errors_match_pairwise_oracle():
    rng = random.Random(29)
    gamma, decs = random_family(rng, (1, 1, 2))
    cases = [("", gamma, decs), ("abz", gamma, decs), ("aac", gamma, decs)]
    cases.append(("ab", gamma, {"a": decs["a"]}))
    unpointed = TreeDecomposition(decs["a"].root, decs["a"].parents, decs["a"].bags)
    cases.append(("ba", gamma, {**decs, "a": unpointed}))
    bad_root = TreeDecomposition(0, [-1, 0], [{0, 1}, gamma["a"].p2], pointed_leaf=1)
    cases.append(("ab", gamma, {**decs, "a": bad_root}))
    bad_leaf = TreeDecomposition(0, [-1, 0], [gamma["a"].p1, {0, 1}], pointed_leaf=1)
    cases.append(("aa", gamma, {**decs, "a": bad_leaf}))
    kinds = set()
    for word, g, d in cases:
        expected = outcome(oracle_delta, g, word)
        assert outcome(delta, g, word) == expected
        expected = outcome(oracle_decomposition_of_delta, g, d, word)
        assert outcome(decomposition_of_delta, g, d, word) == expected
        kinds.add(expected[0])
    assert kinds == {EmptyWord, BadVertex, PortArityMismatch, BadAnchorBags}
    one, two = gamma["a"], gamma["c"]
    assert outcome(glue, one, two) == outcome(oracle_glue, one, two)


def test_long_chain_in_linear_time():
    gamma, decs = _dec_family()
    rng = random.Random(31)
    word = "".join(rng.choice("ab") for _ in range(5000))
    start = time.monotonic()
    chain = delta(gamma, word)
    t = decomposition_of_delta(gamma, decs, word)
    elapsed = time.monotonic() - start
    # every glue shares one port vertex and replaces one pointed leaf
    assert chain.n == 1 + 2 * word.count("a") + 3 * word.count("b")
    assert len(t.parents) == 3 * len(word) + 1
    assert validate(chain.graph, t) == []
    assert width(t) == 2
    assert elapsed < 5.0, elapsed  # the pairwise fold took tens of seconds


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
    for stray in (2, -1):  # a vertex the gadget does not have
        bad = TreeDecomposition(0, [-1, 0, 1], [{0}, {0, stray}, {1}], pointed_leaf=2)
        for word in ("1", "11"):
            with pytest.raises(BadVertex):
                decomposition_of_delta({"1": gadget}, {"1": bad}, word)


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
    # an almost-simplicial rule without fill edges gives 2 on this graph
    almost = Digraph(6, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (2, 5), (4, 5)])
    assert treewidth_exact(almost) == 3
    # the simplicial rule removes some vertices and leaves the rest to the
    # DP. A K4 on 4..7 hangs off vertex 4 of the 5-cycle 0..4: removing 5,
    # 6 and 7 gives the bound 3, which beats the cycle's 2
    k4_on_c5 = Digraph(
        8,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(u, v) for u in range(4, 8) for v in range(u + 1, 8)],
    )
    assert treewidth_exact(k4_on_c5) == 3
    # a pendant vertex 9 on a corner of the 3x3 grid: the bound is 1, and
    # the grid left to the DP gives 3
    assert treewidth_exact(Digraph(10, sorted(grid.edges) + [(9, 0)])) == 3
    # vertex 3 is simplicial on the triangle 0, 1, 2 although it carries a
    # loop and an antiparallel pair; a loop counted as a neighbour would
    # give an endpoint of a path the bound 2
    looped = Digraph(4, [(3, 3), (3, 0), (0, 3), (3, 1), (0, 1), (1, 2), (2, 0)])
    assert treewidth_exact(looped) == 2
    assert treewidth_exact(Digraph(3, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2)])) == 1
    # a forest (two paths, a star and an isolated vertex), an edgeless
    # graph, and a disjoint union of a K2, a K3 and a K4
    forest = Digraph(10, [(0, 1), (2, 1), (3, 4), (5, 6), (5, 7), (8, 5)])
    assert treewidth_exact(forest) == 1
    assert treewidth_exact(Digraph(5)) == 0
    cliques = Digraph(9, [(u, v) for part in ((0, 1), (2, 3, 4), (5, 6, 7, 8))
                          for u in part for v in part if u < v])
    assert treewidth_exact(cliques) == 3


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


def treewidth_by_bfs_dp(g: Digraph) -> int:
    """Second reference, feasible up to n = 10: the subset DP over
    eliminated-vertex bitmasks with each elimination degree found by its
    own breadth-first search through the eliminated set."""
    if g.n == 0:
        return -1
    n = g.n
    adj = [s | p for s, p in zip(g.successor_masks, g.predecessor_masks)]
    all_mask = (1 << n) - 1

    def degree(mask, v):
        seen = frontier = 1 << v
        out = 0
        while frontier:
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= adj[low.bit_length() - 1]
                frontier ^= low
            reached &= ~seen
            seen |= reached
            out |= reached & ~mask
            frontier = reached & mask
        return out.bit_count()

    @lru_cache(maxsize=None)
    def best(mask):
        if mask == all_mask:
            return -1
        out = n
        for v in range(n):
            if mask >> v & 1:
                continue
            deg = degree(mask, v)
            if deg < out:
                out = min(out, max(deg, best(mask | (1 << v))))
        return out

    return best(0)


def relabelled(rng, n, edges):
    perm = rng.sample(range(n), n)
    return Digraph(n, [(perm[u], perm[v]) for u, v in edges])


def beyond_oracle_graphs(rng):
    """Graphs on 7 to 10 vertices, past the ordering oracle's reach: random
    ones per ordered pair (loops and antiparallel pairs included), two
    random parts with no edge between them, cycles with chords, grids, and
    symmetric ones with every pair antiparallel and loops on some vertices."""
    for _ in range(26):
        for p in (0.2, 0.35, 0.5, 0.7):
            n = rng.randint(7, 10)
            yield Digraph(n, [(u, v) for u in range(n) for v in range(n) if rng.random() < p])
    for _ in range(50):
        n, cut = rng.randint(7, 10), rng.randint(2, 5)
        yield relabelled(rng, n, [(u, v) for u in range(n) for v in range(n)
                                  if (u < cut) == (v < cut) and rng.random() < 0.5])
    for _ in range(50):
        n = rng.randint(7, 10)
        ring = [(i, (i + 1) % n) if rng.random() < 0.5 else ((i + 1) % n, i) for i in range(n)]
        yield relabelled(rng, n, ring + [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))])
    for _ in range(20):
        rows, cols = rng.choice(((2, 4), (3, 3), (2, 5)))
        cells = rows * cols
        yield relabelled(rng, cells, [(i, i + 1) for i in range(cells) if (i + 1) % cols]
                         + [(i, i + cols) for i in range(cells - cols)])
    for _ in range(76):
        n = rng.randint(7, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        loops = [(v, v) for v in range(n) if rng.random() < 0.3]
        yield Digraph(n, pairs + [(v, u) for u, v in pairs] + loops)


def test_treewidth_agrees_with_bfs_dp_beyond_the_oracle():
    graphs = list(beyond_oracle_graphs(random.Random(13)))
    assert len(graphs) == 300
    for g in graphs:
        assert treewidth_exact(g) == treewidth_by_bfs_dp(g)


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


def test_simplicial_rule_removes_a_looped_k_tree_whole():
    """A k-tree is chordal, so the rule removes every vertex, and the
    largest degree at removal is k. Two loops must not stop it: a loop bit
    kept in the adjacency would leave its vertex and every neighbour
    unremoved, and a removed vertex's neighbours must be looked at again,
    as removing it can make them simplicial."""
    rng = random.Random(28)
    for n in (8, 9, 10):
        for k in (1, 2, 3, 4):
            for _ in range(3):
                g = random_k_tree(rng, n, k)
                g = Digraph(n, g.edges | {(v, v) for v in rng.sample(range(n), 2)})
                _, gone, low = _simplicial_rule(g)
                assert (gone, low) == ((1 << n) - 1, k)


def test_treewidth_size_guard():
    with pytest.raises(TooLarge):
        treewidth_exact(Digraph(11))


def test_serialize_round_trip():
    t = path_dec(4)
    assert parse(serialize(t)) == t
    single = TreeDecomposition(0, [-1], [set()])
    assert from_json_obj(json.loads(json.dumps(to_json_obj(single)))) == single


@pytest.mark.parametrize(
    "change",
    [
        {"root": False},
        {"root": 0.0},
        {"root": None},
        {"parents": [-1, 0.0]},
        {"parents": [-1, True]},
        {"parents": 0},
        {"bags": [[0.0], [1]]},
        {"bags": [["0"], [1]]},
        {"bags": [[0], 1]},
        {"bags": 2},
        {"pointed_leaf": 1.0},
        {"pointed_leaf": True},
    ],
)
def test_json_decomposition_takes_only_integers(change):
    obj = {"root": 0, "parents": [-1, 0], "bags": [[0], [1]], "pointed_leaf": 1, **change}
    with pytest.raises(ParseError):
        from_json_obj(obj)


@st.composite
def decomposition_json(draw):
    """A valid decomposition's JSON object, or the same with one field
    replaced by another JSON value."""
    n = draw(st.integers(1, 4))
    parents = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    leaves = [i for i in range(n) if i not in parents]
    obj = {
        "root": 0,
        "parents": parents,
        "bags": draw(st.lists(st.lists(st.integers(0, 4), max_size=3), min_size=n, max_size=n)),
        "pointed_leaf": draw(st.none() | st.sampled_from(leaves)),
    }
    if draw(st.booleans()):
        obj[draw(st.sampled_from(sorted(obj)))] = draw(st.integers(-1, 4) | JSON)
    return obj


DECOMPOSITION_TEXT = st.one_of(decomposition_json().map(json.dumps), JSON.map(json.dumps),
                               st.text(max_size=12))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(DECOMPOSITION_TEXT)
def test_decomposition_json_fuzz(text):
    """Any text parses to a decomposition or raises a SuccmsoError, and a
    parsed decomposition survives serialize and parse unchanged."""
    try:
        t = parse(text)
    except SuccmsoError:
        return
    assert parse(serialize(t)) == t
