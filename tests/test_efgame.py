import random

import pytest

from succmso.efgame import (
    FORBIDDEN,
    MIXED,
    SUFFICIENT,
    ef_equiv,
    q_bound,
    q_bound_total,
    q_search,
    saturating_scan,
)
from succmso.errors import BadParam, BoundTooLarge, EmptyGraph, TooLarge
from succmso.graph import Digraph, power_union
from succmso.mso import CompiledFormula

POINT = Digraph(1)
LOOP = Digraph(1, [(0, 0)])

# -- the fixed sentence battery ------------------------------------------

_SENTENCE_TEXTS = (
    "ex x. E(x,x)",
    "all x. E(x,x)",
    "ex x. x=x",
    "all x. ~E(x,x)",
    "ex x. ex y. E(x,y)",
    "all x. all y. E(x,y)",
    "ex x. all y. E(x,y)",
    "all x. ex y. E(x,y)",
    "ex x. ex y. ~x=y",
    "all x. all y. x=y",
    "ex x. ex y. (E(x,y) & E(y,x))",
    "all x. ex y. ~x=y",
    "ex x. all y. (E(x,y) -> x=y)",
    "ex X. all x. x in X",
    "ex X. ex x. x in X",
    "all X. ex x. x in X",
    "ex X. all x. ~x in X",
    "ex x. ex y. (E(x,y) & ~x=y)",
    "all x. all y. (E(x,y) -> E(y,x))",
    "ex x. ex y. (E(x,y) | E(y,x))",
)


def sentence_battery(max_rank=None):
    """Fixed 20-sentence probe set of quantifier rank (nesting depth) <= 2,
    compiled, optionally filtered down to a rank cap: four sentences of
    rank 1, then sixteen of rank 2."""
    sentences = [CompiledFormula.parse(text) for text in _SENTENCE_TEXTS]
    if max_rank is None:
        return sentences
    return [f for f in sentences if f.rank <= max_rank]


# -- the all-pairs game, as an oracle for the incremental one ------------


def _consistent(g, h, pg, ph, sg, sh):
    """Duplicator survives iff the partial map preserves =, E (both ways)
    and membership in corresponding chosen sets."""
    for i in range(len(pg)):
        for j in range(len(pg)):
            if (pg[i] == pg[j]) != (ph[i] == ph[j]):
                return False
            if ((pg[i], pg[j]) in g.edges) != ((ph[i], ph[j]) in h.edges):
                return False
        for k in range(len(sg)):
            if ((sg[k] >> pg[i]) & 1) != ((sh[k] >> ph[i]) & 1):
                return False
    return True


def _pairs(on_g, move, replies):
    """(g side, h side) of Spoiler's move against each reply in turn."""
    return [(move, r) if on_g else (r, move) for r in range(replies)]


def ef_oracle(g: Digraph, h: Digraph, m: int) -> bool:
    """The m-move game that re-checks every pebble pair and set at every
    position, on the edge sets: the search ef_equiv makes incremental."""
    boards = ((True, g, h), (False, h, g))
    memo = {}

    def wins(pg, ph, sg, sh, left):
        if not _consistent(g, h, pg, ph, sg, sh):
            return False
        if left == 0:
            return True
        key = (pg, ph, sg, sh, left)
        if key not in memo:
            memo[key] = all(
                any(wins(pg + (x,), ph + (y,), sg, sh, left - 1) for x, y in _pairs(on_g, mv, b.n))
                for on_g, a, b in boards
                for mv in range(a.n)
            ) and all(
                any(wins(pg, ph, sg + (s,), sh + (t,), left - 1) for s, t in _pairs(on_g, mv, 1 << b.n))
                for on_g, a, b in boards
                for mv in range(1 << a.n)
            )
        return memo[key]

    return wins((), (), (), (), m)


def random_digraph(rng, n):
    """Each ordered pair, loops included, is an edge with one drawn density."""
    p = rng.choice((0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
    return [(u, v) for u in range(n) for v in range(n) if rng.random() < p]


def ef_pairs(rng, count, max_n):
    """Seeded pairs of four kinds in turn: two independent graphs, a graph
    on max_n - 1 vertices and the same graph with one vertex doubled by a
    twin (same loop, same in- and out-neighbours), a relabelled copy, and a
    relabelled copy with one edge flipped. Edge densities vary, so loops
    and antiparallel edges both occur; the first two kinds differ in vertex
    count."""
    pairs = []
    for i in range(count):
        kind = i % 4
        n = max_n - 1 if kind == 1 else rng.randint(1, max_n)
        eg = random_digraph(rng, n)
        if kind == 0:
            nh = rng.randint(1, max_n)
            pairs.append((Digraph(n, eg), Digraph(nh, random_digraph(rng, nh))))
            continue
        nh, eh = n, set(eg)
        if kind == 1:
            w = rng.randrange(n)
            twin = {w: n}
            eh |= {(twin.get(u, u), twin.get(v, v)) for u, v in eg}
            eh |= {(twin.get(u, u), v) for u, v in eg} | {(u, twin.get(v, v)) for u, v in eg}
            nh = n + 1
        perm = list(range(nh))
        rng.shuffle(perm)
        eh = {(perm[u], perm[v]) for u, v in eh}
        if kind == 3:
            eh ^= {(rng.randrange(n), rng.randrange(n))}
        pairs.append((Digraph(n, eg), Digraph(nh, eh)))
    return pairs


# The last two cases reach the 5-vertex guard at m = 2 and 3. At m = 3 the
# oracle's full search of an equivalent 5-vertex pair takes most of the
# case's time, so it draws four pairs, one equivalent.
@pytest.mark.parametrize(
    "m, max_n, count", [(0, 5, 12), (1, 5, 60), (2, 4, 60), (3, 4, 40), (2, 5, 40), (3, 5, 4)]
)
def test_ef_equiv_matches_all_pairs_oracle(m, max_n, count):
    rng = random.Random(1000 + m)
    verdicts = []
    for g, h in ef_pairs(rng, count, max_n):
        verdict = ef_equiv(g, h, m)
        assert verdict == ef_oracle(g, h, m), (g, h, m)
        verdicts.append(verdict)
    assert all(verdicts) if m == 0 else len(set(verdicts)) == 2


def all_digraphs(max_n):
    """Every digraph on 0..max_n vertices, loops included."""
    out = []
    for n in range(max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(n)]
        for bits in range(1 << len(pairs)):
            out.append(Digraph(n, [p for i, p in enumerate(pairs) if bits >> i & 1]))
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ef_equiv_matches_oracle_on_every_pair_up_to_two_vertices(m):
    """All 19 digraphs on 0-2 vertices, paired every way: unequal vertex
    counts, loops, antiparallel edges and empty boards."""
    graphs = all_digraphs(2)
    assert len(graphs) == 19
    for g in graphs:
        for h in graphs:
            assert ef_equiv(g, h, m) == ef_oracle(g, h, m), (g, h, m)


def test_identical_graphs_equivalent():
    g = Digraph(3, [(0, 1), (1, 2)])
    for m in range(3):
        assert ef_equiv(g, g, m)


def test_zero_moves_always_equivalent():
    assert ef_equiv(POINT, LOOP, 0)


def test_loop_distinguished_in_one_move():
    assert not ef_equiv(POINT, LOOP, 1)


def test_pinned_isolated_vertex_counts():
    one, two = power_union(POINT, 1), power_union(POINT, 2)
    assert ef_equiv(one, two, 1)
    assert not ef_equiv(one, two, 2)  # "ex x. ex y. ~x=y" needs two moves


def test_set_moves_count_past_point_moves():
    # three pebbles cannot tell 3 isolated vertices from 4, but two sets
    # split the vertices into four classes that a last pebble probes
    three, four = power_union(POINT, 3), power_union(POINT, 4)
    assert ef_equiv(three, four, 2)
    assert not ef_equiv(three, four, 3)


def test_guards():
    with pytest.raises(TooLarge):
        ef_equiv(Digraph(6), Digraph(6), 1)
    with pytest.raises(TooLarge):
        ef_equiv(POINT, POINT, 4)


def test_ef_equiv_implies_sentence_agreement():
    """Soundness link: game equivalence at m forces agreement on every
    rank-<=m sentence in the battery."""
    rng = random.Random(11)
    pairs = []
    for _ in range(25):
        gs = []
        for _ in range(2):
            n = rng.randint(1, 3)
            edges = [
                (u, v) for u in range(n) for v in range(n) if rng.random() < 0.4
            ]
            gs.append(Digraph(n, edges))
        pairs.append(tuple(gs))
    for m in (1, 2):
        probes = sentence_battery(max_rank=m)
        for g, h in pairs:
            if ef_equiv(g, h, m):
                for probe in probes:
                    assert probe.eval(g) == probe.eval(h)


def test_sentence_battery_shape():
    full = sentence_battery()
    assert len(full) == 20
    assert [f.rank for f in full] == [1] * 4 + [2] * 16
    texts = [f.text for f in full]
    assert [f.text for f in sentence_battery(max_rank=1)] == texts[:4]
    assert [f.text for f in sentence_battery(max_rank=2)] == texts


def test_q_search_single_vertex():
    assert q_search(POINT, 1, q_max=4) == 1
    assert q_search(POINT, 2, q_max=4) == 2


def test_q_search_not_found_and_empty():
    # two moves can count isolated vertices up to 3, so q=1 and q=2 fail
    assert q_search(POINT, 2, q_max=1) is None
    with pytest.raises(EmptyGraph):
        q_search(Digraph(0), 1, 4)


def test_q_search_verified_by_definition():
    for m in (1, 2):
        q = q_search(POINT, m, q_max=4)
        assert ef_equiv(power_union(POINT, q), power_union(POINT, q + 1), m)
        if q > 1:
            assert not ef_equiv(power_union(POINT, q - 1), power_union(POINT, q), m)


def test_q_bound_values():
    assert q_bound(1, 2, 0) == 2
    assert q_bound(1, 0, 1) == 2  # 2^(1*(0+0+1)); the recursion bottoms at m2=0
    assert q_bound(1, 1, 1) == 2 ** (1 * (1 + 1 + 1))
    with pytest.raises(BoundTooLarge):
        q_bound(100, 10, 3)
    with pytest.raises(BoundTooLarge):
        q_bound(-1, 0, 0)


def test_q_bound_total_dominates_search():
    for m in (1, 2):
        q = q_search(POINT, m, q_max=4)
        assert q_bound_total(1, m) >= q


def test_q_bound_total_is_max_over_splits():
    assert q_bound_total(1, 2) == max(q_bound(1, m1, 2 - m1) for m1 in range(3))


def test_q_bound_of_size_zero_is_closed_form():
    """Size 0 makes every exponent 0, so no guard trips: the recursive
    bound once raised RecursionError at m2 = 5,000, and q_bound_total took
    O(m^2) steps before that."""
    assert q_bound(0, 7, 0) == 7
    assert q_bound(0, 0, 5000) == q_bound(0, 3, 1) == 1
    for m in range(6):
        assert q_bound_total(0, m) == max(q_bound(0, m1, m - m1) for m1 in range(m + 1)) == m
    assert q_bound_total(0, 10**12) == 10**12


def test_q_bound_guard_names_a_huge_exponent_by_its_size():
    """An exponent past 4,300 digits once made the message itself fail
    (int-to-str limit) with a ValueError."""
    with pytest.raises(BoundTooLarge, match=r"exponent of 524293 bits exceeds the guard"):
        q_bound(1, 0, 5)
    with pytest.raises(BoundTooLarge, match=r"exponent 1000001 exceeds the guard"):
        q_bound(1000001, 0, 1)
    with pytest.raises(BoundTooLarge):
        q_bound_total(1, 10**12)


def test_negative_move_counts_fail_by_name():
    """A negative m once recursed until RecursionError (ef_equiv, q_search)
    or hit max() of an empty range (q_bound_total). A float count did the
    same or ended in a bare TypeError, and m = True played one move."""
    with pytest.raises(BadParam):
        ef_equiv(POINT, LOOP, -1)
    with pytest.raises(BadParam):
        q_search(POINT, -1, 4)
    with pytest.raises(BadParam):
        q_search(POINT, -1, 0)
    with pytest.raises(BoundTooLarge):
        q_bound_total(1, -1)
    for m in (2.5, True):
        with pytest.raises(BadParam):
            ef_equiv(POINT, POINT, m)
    for m, q_max in ((1.5, 2), (1, 2.5), (True, 2), (1, True)):
        with pytest.raises(BadParam):
            q_search(POINT, m, q_max)
    for args in ((1.5, 1, 1), (1, 1.0, 1), (1, 1, True)):
        with pytest.raises(BoundTooLarge):
            q_bound(*args)
    for args in ((1, 2.5), (True, 1), (0, 2.0)):
        with pytest.raises(BoundTooLarge):
            q_bound_total(*args)


def test_saturating_scan():
    battery = [Digraph(n) for n in (1, 2, 3)]
    loop_sentence = CompiledFormula.parse("ex x. E(x,x)")
    assert saturating_scan(LOOP, loop_sentence, battery) == SUFFICIENT
    assert saturating_scan(POINT, loop_sentence, battery) == FORBIDDEN
    mixed_battery = battery + [LOOP]
    assert saturating_scan(POINT, loop_sentence, mixed_battery) == MIXED
    # an empty battery was once Sufficient without a single check
    for battery in ([], iter([])):
        with pytest.raises(BadParam):
            saturating_scan(LOOP, loop_sentence, battery)
