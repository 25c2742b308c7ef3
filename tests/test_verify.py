import pytest

from succmso.errors import BadParam, NotValidated, ParseError, TooLargeToMaterialize
from succmso.graph import BiboundariedGraph, Digraph, delta, graph_equal, isomorphic_small
from succmso.reduce import CnfInstance, normalize_layout, sbar_at, succ_ref, toy_quadruple
from succmso.verify import (
    DEFAULT_SEED,
    check_instance,
    cnf_models,
    delta_layout,
    end_to_end,
    sat_solve,
    seeded_cnf_battery,
    small_cnf_battery,
)

from test_reduce import QUADRUPLES


def test_sat_solve_basic():
    ok, model = sat_solve(CnfInstance(1, [(1,)]))
    assert ok and model == {1: True}
    ok, model = sat_solve(CnfInstance(1, [(1,), (-1,)]))
    assert not ok and model is None


def test_sat_solve_unsat_chain():
    S = CnfInstance(3, [(1, 2), (-1, 3), (-2,), (-3,)])
    assert sat_solve(S) == (False, None)


def test_sat_solve_returns_verified_model():
    for S in small_cnf_battery() + seeded_cnf_battery(3, 10, 99):
        ok, model = sat_solve(S)
        if ok:
            q = sum(1 << (v - 1) for v, val in model.items() if val)
            assert S.value(q)


def first_model(S):
    """sat_solve's answer by the plain scan: the first satisfying q."""
    for q in range(1 << S.s):
        if S.value(q):
            return True, {v: bool((q >> (v - 1)) & 1) for v in range(1, S.s + 1)}
    return False, None


def generator_value(S, q):
    """The generator form of CnfInstance.value that the loop form replaced,
    kept as its oracle."""
    return all(
        any((q >> (abs(lit) - 1)) & 1 == (1 if lit > 0 else 0) for lit in clause)
        for clause in S.clauses
    )


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6, 7, 8, 12])
def test_cnf_models_match_value(s):
    instances = seeded_cnf_battery(s, 6 if s < 12 else 2, 500 + s)
    instances.append(CnfInstance(s, []))
    if s <= 8:
        instances += [
            CnfInstance(s, [(1, -1)]),  # tautology
            CnfInstance(s, [(s, -s), (-1,)]),
            CnfInstance(s, [(s, s)]),  # repeated literal
            CnfInstance(s, [(-1, -1, -s), (1, -1), (s, 1, s)]),
        ]
        if s >= 2:
            instances += [CnfInstance(s, [(2, 2)]), CnfInstance(s, [(2, 2), (-2, 1, -2)])]
    for S in instances:
        models = cnf_models(S)
        values = [S.value(q) for q in range(1 << s)]
        assert values == [generator_value(S, q) for q in range(1 << s)]
        assert models >> (1 << s) == 0
        assert [models >> q & 1 for q in range(1 << s)] == values


def test_cnf_models_size_guard():
    """s = 21 once built 21 masks of 2^21 bits; s = 30 would ask for 4 GB."""
    with pytest.raises(TooLargeToMaterialize):
        cnf_models(CnfInstance(21, [(1, -21)]))


def test_sat_solve_takes_the_first_model():
    batteries = small_cnf_battery() + seeded_cnf_battery(3, 10, 99) + seeded_cnf_battery(3, 20, 3)
    batteries += seeded_cnf_battery(3, 10, DEFAULT_SEED)
    batteries += [S for s, count in SOUNDNESS_BATTERY.items() for S in seeded_cnf_battery(s, count, 5)]
    for S in batteries:
        assert sat_solve(S) == first_model(S)


def test_dpll_agrees_with_enumeration():
    from succmso.verify import _dpll

    for S in small_cnf_battery() + seeded_cnf_battery(3, 20, 3):
        ok, model = _dpll([list(c) for c in S.clauses], {}, S.s)
        assert ok == sat_solve(S)[0]
        if ok:
            q = sum(1 << (v - 1) for v, val in model.items() if val)
            assert S.value(q)


def test_delta_layout_worked_example():
    g = delta_layout(toy_quadruple(), CnfInstance(1, [(1,)]))
    assert graph_equal(g, Digraph(5, [(0, 1), (1, 2), (2, 2), (2, 3), (3, 4)]))


def test_delta_layout_contradiction_is_loop_free_path():
    g = delta_layout(toy_quadruple(), CnfInstance(1, [(1,), (-1,)]))
    assert g.n == 5
    assert all((v, v) not in g.edges for v in range(5))


def test_delta_layout_requires_quad():
    with pytest.raises(NotValidated):
        delta_layout(object(), CnfInstance(1, []))


def test_delta_layout_size_guard():
    """delta_layout places all 2^s copies, so it refuses s > 20 up front."""
    with pytest.raises(TooLargeToMaterialize):
        delta_layout(toy_quadruple(), CnfInstance(21, [(21,)]))
    assert delta_layout(toy_quadruple(), CnfInstance(10, [(10,)])).n == toy_quadruple().big_n(10)


def test_delta_layout_vertex_count():
    quad = toy_quadruple()
    for S in small_cnf_battery():
        assert delta_layout(quad, S).n == quad.big_n(S.s)


def test_delta_layout_matches_canonical_gluing():
    """Same chain as the word fold, up to the canonical/layout relabeling."""
    quad = toy_quadruple()
    fam = {"0": quad.g0, "1": quad.g1, "2": quad.g2, "3": quad.g3}
    for S in small_cnf_battery():
        if S.s > 1:
            continue  # keep within the isomorphism guard
        word = "2" + "".join(str(sbar) for sbar in (1 - S.value(0), 1 - S.value(1))) + "3"
        canonical = delta(fam, word).graph
        assert isomorphic_small(delta_layout(quad, S), canonical)


def test_check_instance_record():
    rec = check_instance(CnfInstance(1, [(1,)]))
    assert rec.ok
    assert rec.satisfiable and rec.models_sentence
    assert rec.routes_agree and rec.succ_ref_agrees
    assert rec.n_vertices == 5


def test_check_instance_size_guard_comes_first(monkeypatch):
    """N > limit stops in materialize, before any route visits the 2^s
    copies; compile_reduction itself reads only the last bit of the word."""
    calls = []
    value = CnfInstance.value
    monkeypatch.setattr(CnfInstance, "value", lambda S, q: calls.append(q) or value(S, q))
    S = CnfInstance(12, [(1, -12)])
    with pytest.raises(TooLargeToMaterialize, match="exceeds limit 1000"):
        check_instance(S, toy_quadruple(), limit=1000)
    assert len(calls) <= 1


def test_check_instance_sentences_alternate():
    """The compiled sentence is cached by its text: alternating two
    sentences on one instance gives each its own verdict every time."""
    S = CnfInstance(1, [(1,)])
    total = "all x. ex y. E(x,y)"  # false: the last label has no successor
    for _ in range(3):
        assert check_instance(S, sentence="ex x. E(x,x)").models_sentence
        assert not check_instance(S, sentence=total).models_sentence


def test_check_instance_malformed_sentence_every_call():
    S = CnfInstance(1, [(1,)])
    for _ in range(3):
        with pytest.raises(ParseError):
            check_instance(S, sentence="ex x. E(x,")


# Seeded instances per s for the soundness batteries; at s = 10 the
# shared-port quadruple has N = 2054, and its one instance takes most of
# the time.
SOUNDNESS_BATTERY = {6: 3, 8: 1, 10: 1}


@pytest.mark.parametrize("name", sorted(QUADRUPLES))
def test_soundness_battery(name):
    """Loop iff SAT, and the circuit, succ_ref and delta_layout agree label
    for label, on seeded instances and one contradiction."""
    quad = QUADRUPLES[name]()
    battery = [S for s, count in SOUNDNESS_BATTERY.items() for S in seeded_cnf_battery(s, count, 5)]
    battery.append(CnfInstance(6, battery[0].clauses + ((1,), (-1,))))
    verdicts = set()
    for S in battery:
        rec = check_instance(S, quad)
        assert rec.ok, (S.s, S.clauses)
        verdicts.add(rec.satisfiable)
    assert verdicts == {True, False}


def test_end_to_end_builtin_battery():
    report = end_to_end()
    assert report.ok
    assert len(report.records) == len(small_cnf_battery()) + 10
    obj = report.to_json_obj()
    assert obj["ok"] is True


def test_end_to_end_refuses_an_empty_battery(monkeypatch):
    """An empty battery once reported ok without checking anything; it is
    refused before any instance is checked."""
    monkeypatch.setattr("succmso.verify.check_instance", lambda *a: pytest.fail("checked"))
    for instances in ([], iter([])):
        with pytest.raises(BadParam):
            end_to_end(instances=instances)


def canonical_cnf(s, word):
    """The CNF whose s̄ is word: one clause per assignment q with bit q of
    word set, falsified by q alone (variable j + 1 takes bit j of q)."""
    clauses = [tuple(-v if q >> (v - 1) & 1 else v for v in range(1, s + 1))
               for q in range(1 << s) if word >> q & 1]
    return CnfInstance(s, clauses)


@pytest.mark.parametrize("name", sorted(QUADRUPLES))
def test_every_sbar_word_up_to_three_variables(name):
    """Every truth-table word at s <= 3 (4 + 16 + 256 of them), through its
    canonical CNF: loop iff SAT, the three routes agree label for label,
    and SAT holds iff the word is not all ones."""
    quad = QUADRUPLES[name]()
    for s in (1, 2, 3):
        for word in range(1 << (1 << s)):
            S = canonical_cnf(s, word)
            assert [sbar_at(S, q) for q in range(1 << s)] == [word >> q & 1 for q in range(1 << s)]
            rec = check_instance(S, quad)
            assert rec.ok, (s, word)
            assert rec.satisfiable == (word != (1 << (1 << s)) - 1), (s, word)


def test_end_to_end_negative_control():
    """Loop moved from G0 into G1: unsatisfiable instances then model the
    loop sentence and the soundness check must fail."""
    e = BiboundariedGraph(Digraph(2, [(0, 1)]), (0,), (1,))
    looped = BiboundariedGraph(Digraph(2, [(0, 1), (1, 1)]), (0,), (1,))
    corrupted = normalize_layout(e, looped, e, e)
    unsat = CnfInstance(1, [(1,), (-1,)])
    rec = check_instance(unsat, corrupted)
    assert rec.routes_agree and rec.succ_ref_agrees  # pipeline still consistent
    assert rec.models_sentence and not rec.satisfiable
    assert not rec.ok


def test_small_battery_composition():
    battery = small_cnf_battery()
    assert all(S.s <= 2 and len(S.clauses) <= 2 for S in battery)
    assert any(not S.clauses for S in battery)
    # deterministic ordering
    assert [S.clauses for S in battery] == [S.clauses for S in small_cnf_battery()]


def test_seeded_battery_reproducible():
    a = seeded_cnf_battery(3, 10, 42)
    b = seeded_cnf_battery(3, 10, 42)
    assert [S.clauses for S in a] == [S.clauses for S in b]
    assert all(S.s == 3 for S in a)
    assert [S.clauses for S in seeded_cnf_battery(3, 10, 43)] != [S.clauses for S in a]


def test_succ_ref_layout_cross_check():
    quad = toy_quadruple()
    for S in seeded_cnf_battery(3, 5, 7):
        lay = delta_layout(quad, S)
        ref = Digraph(
            lay.n, ((x, y) for x in range(lay.n) for y in succ_ref(quad, S, x))
        )
        assert graph_equal(lay, ref)
