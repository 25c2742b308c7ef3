"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL summary line and enforcing its stated runtime budget."""

import random
import time
from itertools import product

from succmso.efgame import ef_equiv, q_bound_total, q_search
from succmso.graph import (
    BiboundariedGraph,
    Digraph,
    delta,
    graph_equal,
    power_union,
)
from succmso.mso import CompiledFormula
from succmso.reduce import (
    CnfInstance,
    build_quadruple,
    compile_reduction,
    path_triple,
    pump_check,
    reduce_clique,
    reduce_loop,
    succ_ref,
    toy_quadruple,
)
from succmso.sgr import materialize
from succmso.treedec import (
    TreeDecomposition,
    decomposition_of_delta,
    normalize_degree3,
    treewidth_exact,
    validate,
    width,
)
from succmso.verify import (
    DEFAULT_SEED,
    delta_layout,
    sat_solve,
    seeded_cnf_battery,
    small_cnf_battery,
)

from test_efgame import sentence_battery

LOOP_C = CompiledFormula.parse("ex x. E(x,x)")


def battery():
    return small_cnf_battery() + seeded_cnf_battery(3, 10, DEFAULT_SEED)


def report(number, label, elapsed, budget):
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s < {budget}s)")


def test_criterion_1_reduction_soundness():
    start = time.monotonic()
    quad = toy_quadruple()
    for S in battery():
        g = materialize(compile_reduction(quad, S), 10**5)
        assert LOOP_C.eval(g) == sat_solve(S)[0], S.clauses
    report(1, "reduction soundness on the full battery", time.monotonic() - start, 10)


def test_criterion_2_triple_path_agreement():
    start = time.monotonic()
    quad = toy_quadruple()
    for S in battery():
        g = materialize(compile_reduction(quad, S), 10**5)
        assert graph_equal(g, delta_layout(quad, S)), S.clauses
        ref = Digraph(g.n, ((x, y) for x in range(g.n) for y in succ_ref(quad, S, x)))
        assert graph_equal(g, ref), S.clauses
    report(2, "circuit / layout / succ_ref agree label-exactly", time.monotonic() - start, 10)


def test_criterion_3_polynomial_compilation():
    start = time.monotonic()
    quad = toy_quadruple()
    previous = 0
    for s in range(4, 13):
        clauses = [(1, -2), (3,)]
        t0 = time.monotonic()
        sgr = compile_reduction(quad, CnfInstance(s, clauses))
        per_instance = time.monotonic() - t0
        assert per_instance < 0.1, f"s={s} took {per_instance:.3f}s"
        literals = sum(len(c) for c in clauses)
        budget = 2000 * (s + 1) ** 2 + 200 * literals
        gates = sgr.circuit.gate_count()
        assert gates <= budget, f"s={s}: {gates} gates > {budget}"
        assert gates >= previous, f"gate count not monotone at s={s}"
        previous = gates
        assert sgr.n_vertices == quad.big_n(s)
    report(3, "compilation stays fast and within the gate budget", time.monotonic() - start, 10)


def test_criterion_4_auxiliary_reductions():
    start = time.monotonic()
    clique = CompiledFormula.parse("all x. all y. E(x,y)")
    for S in battery():
        sat = sat_solve(S)[0]
        assert LOOP_C.eval(materialize(reduce_loop(S), 100)) == sat
        assert clique.eval(materialize(reduce_clique(S), 100)) == (not sat)
    report(4, "loop tracks SAT, clique tracks UNSAT", time.monotonic() - start, 5)


def test_criterion_5_pump_property():
    start = time.monotonic()
    triple = path_triple()
    assert pump_check(triple, LOOP_C, expected=False, n_max=6).ok
    quad = build_quadruple(triple, Digraph(1, [(0, 0)]))
    fam = {"0": quad.g0, "1": quad.g1, "2": quad.g2, "3": quad.g3}
    words = 0
    for length in (1, 2, 3):
        for w in product("01", repeat=length):
            word = "2" + "".join(w) + "3"
            assert LOOP_C.eval(delta(fam, word).graph) == ("0" in w), word
            words += 1
    assert words == 14
    report(5, "path chains stay loop-free; gadget chains loop iff the word has a 0",
           time.monotonic() - start, 10)


def test_criterion_6_ef_eval_coherence():
    start = time.monotonic()
    rng = random.Random(DEFAULT_SEED)
    pairs = []
    while len(pairs) < 50:
        gs = []
        for _ in range(2):
            n = rng.randint(1, 4)
            edges = [(u, v) for u in range(n) for v in range(n) if rng.random() < 0.35]
            gs.append(Digraph(n, edges))
        pairs.append(tuple(gs))
    for m in (1, 2):
        probes = sentence_battery(max_rank=m)
        for g, h in pairs:
            if ef_equiv(g, h, m):
                for probe in probes:
                    assert probe.eval(g) == probe.eval(h)
    one, two = Digraph(1), power_union(Digraph(1), 2)
    assert ef_equiv(one, two, 1)
    assert not ef_equiv(one, two, 2)
    report(6, "game equivalence implies sentence agreement (50 pairs + pinned)",
           time.monotonic() - start, 60)


def test_criterion_7_q_idempotence():
    start = time.monotonic()
    point = Digraph(1)
    for m, expected in ((1, 1), (2, 2)):
        q = q_search(point, m, q_max=4)
        assert q == expected
        assert ef_equiv(power_union(point, q), power_union(point, q + 1), m)
        if q > 1:
            assert not ef_equiv(power_union(point, q - 1), power_union(point, q), m)
        assert q_bound_total(1, m) >= q
    report(7, "idempotence exponents found, verified, and dominated by the bound",
           time.monotonic() - start, 10)


def _dec_family():
    """Two gadget/decomposition pairs with anchored P1/P2 bags."""
    narrow = BiboundariedGraph(Digraph(3, [(0, 1), (1, 2)]), (0,), (2,))
    narrow_dec = TreeDecomposition(
        0, [-1, 0, 1, 2], [{0}, {0, 1}, {1, 2}, {2}], pointed_leaf=3
    )
    wide = BiboundariedGraph(
        Digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]), (0,), (3,)
    )
    wide_dec = TreeDecomposition(
        0, [-1, 0, 1, 2], [{0}, {0, 1, 2}, {1, 2, 3}, {3}], pointed_leaf=3
    )
    return {"a": narrow, "b": wide}, {"a": narrow_dec, "b": wide_dec}


def _node_degree(t, v):
    return len(t.children[v]) + (v != t.root)


def test_criterion_8_decomposition_machinery():
    start = time.monotonic()
    gamma, decs = _dec_family()
    member_width = {letter: width(t) for letter, t in decs.items()}
    rng = random.Random(DEFAULT_SEED)
    for _ in range(30):
        word = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        chain = delta(gamma, word)
        t = decomposition_of_delta(gamma, decs, word)
        assert validate(chain.graph, t) == []
        assert width(t) == max(member_width[letter] for letter in word)
        n3 = normalize_degree3(t)
        assert validate(chain.graph, n3) == []
        assert width(n3) == width(t)
        assert len(n3.parents) >= len(t.parents)
        assert all(_node_degree(n3, v) <= 3 for v in range(len(n3.parents)))
    k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u < v])
    assert treewidth_exact(k4) == 3
    assert treewidth_exact(Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) == 2
    assert treewidth_exact(Digraph(4, [(0, 1), (1, 2), (2, 3)])) == 1
    report(8, "chain decompositions validate at member width; treewidth anchors hold",
           time.monotonic() - start, 30)


def _all_digraphs(n):
    pairs = [(u, v) for u in range(n) for v in range(n)]
    for mask in range(1 << len(pairs)):
        yield Digraph(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1])


def _has_reach_pair(g):
    for src in range(g.n):
        seen = set()
        stack = [src]
        while stack:
            u = stack.pop()
            for v in g.successors(u):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen - {src}:
            return True
    return False


def _has_nontrivial_cycle(g):
    # directed cycle of length >= 2 (loops ignored), by DFS coloring
    color = [0] * g.n
    def visit(u):
        color[u] = 1
        for v in g.successors(u):
            if v == u:
                continue
            if color[v] == 1:
                return True
            if color[v] == 0 and visit(v):
                return True
        color[u] = 2
        return False
    return any(color[u] == 0 and visit(u) for u in range(g.n))


def test_criterion_9_evaluator_oracle_equivalence():
    start = time.monotonic()
    loop = LOOP_C
    total_out = CompiledFormula.parse("all x. ex y. E(x,y)")
    reach = CompiledFormula.parse(
        "ex x. ex y. (~x=y & all R. ((x in R"
        " & all u. all v. ((u in R & E(u,v)) -> v in R)) -> y in R))"
    )
    cycle = CompiledFormula.parse(
        "ex X. (ex x. x in X"
        " & all u. (u in X -> ex v. ((v in X & ~u=v) & E(u,v))))"
    )
    checked = 0
    for n in range(5):
        for g in _all_digraphs(n):
            assert loop.eval(g) == any(u == v for u, v in g.edges)
            assert total_out.eval(g) == all(g.successors(u) for u in range(n))
            assert reach.eval(g) == _has_reach_pair(g)
            assert cycle.eval(g) == _has_nontrivial_cycle(g)
            checked += 1
    assert checked == 1 + 2 + 16 + 512 + 65536
    report(9, f"evaluator matches direct algorithms on {checked} digraphs",
           time.monotonic() - start, 120)
