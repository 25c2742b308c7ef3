import random

import pytest

from succmso.efgame import (
    FORBIDDEN,
    MIXED,
    NOT_FOUND,
    SUFFICIENT,
    ef_equiv,
    q_bound,
    q_bound_total,
    q_search,
    saturating_scan,
    sentence_battery,
)
from succmso.errors import BoundTooLarge, EmptyGraph, TooLarge
from succmso.graph import Digraph, power_union
from succmso.mso import CompiledFormula, parse, rank

POINT = Digraph(1)
LOOP = Digraph(1, [(0, 0)])


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
        probes = [CompiledFormula(f) for f in sentence_battery(max_rank=m)]
        for g, h in pairs:
            if ef_equiv(g, h, m):
                for probe in probes:
                    assert probe.eval(g) == probe.eval(h)


def test_sentence_battery_shape():
    full = sentence_battery()
    assert len(full) == 20
    assert [rank(f) for f in full] == [1] * 4 + [2] * 16
    assert sentence_battery(max_rank=1) == full[:4]
    assert sentence_battery(max_rank=2) == full


def test_q_search_single_vertex():
    assert q_search(POINT, 1, q_max=4) == 1
    assert q_search(POINT, 2, q_max=4) == 2


def test_q_search_not_found_and_empty():
    # two moves can count isolated vertices up to 3, so q=1 and q=2 fail
    assert q_search(POINT, 2, q_max=1) is NOT_FOUND
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


def test_saturating_scan():
    battery = [Digraph(n) for n in (1, 2, 3)]
    loop_sentence = parse("ex x. E(x,x)")
    assert saturating_scan(LOOP, loop_sentence, battery) == SUFFICIENT
    assert saturating_scan(POINT, loop_sentence, battery) == FORBIDDEN
    mixed_battery = battery + [LOOP]
    assert saturating_scan(POINT, loop_sentence, mixed_battery) == MIXED
