import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from succmso.errors import ParseError, ScopeError, TooLargeForBruteForce
from succmso.graph import Digraph
from succmso.mso import (
    And,
    CompiledFormula,
    Edge,
    Eq,
    Implies,
    Member,
    Not,
    Or,
    Quant,
    eval_formula,
    is_set_var,
    parse,
    print_formula,
    rank,
    reach_macro,
)

LOOP = Digraph(2, [(0, 0)])
PATH3 = Digraph(3, [(0, 1), (1, 2)])
CYCLE3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])


def test_parse_and_print_round_trip():
    texts = [
        "ex x. E(x,x)",
        "all x. ex y. E(x,y)",
        "ex X. all x. x in X",
        "all x. all y. (E(x,y) -> E(y,x))",
        "ex x. ex y. (~x=y & E(x,y))",
    ]
    for text in texts:
        f = parse(text)
        assert parse(print_formula(f)) == f


def test_rank_counts_quantifiers():
    assert rank(parse("ex x. E(x,x)")) == 1
    assert rank(parse("ex x. ex y. (E(x,y) & E(y,x))")) == 2
    assert rank(parse("ex X. all x. x in X")) == 2
    # rank is nesting depth: a connective takes the larger side
    assert rank(parse("ex x. (ex y. E(x,y) & ex z. E(z,x))")) == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("ex x E(x,x)")  # missing dot
    with pytest.raises(ParseError):
        parse("E(x)")
    with pytest.raises(ParseError):
        parse("ex x. E(x,x) trailing")


def test_scope_errors():
    with pytest.raises(ScopeError):
        parse("E(x,x)")  # free variable in a sentence
    with pytest.raises(ScopeError):
        parse("ex x. ex x. E(x,x)")  # shadowing
    with pytest.raises(ScopeError):
        parse("ex X. E(X,X)")  # set variable in a point position
    with pytest.raises(ScopeError):
        parse("ex x. ex y. x in y")


def test_free_variables_allowed_when_asked():
    f = parse("E(x,y)", allow_free=True)
    assert CompiledFormula(f).free == {"x", "y"}


def test_free_variable_not_clobbered_by_same_named_quantifier():
    f = parse("(all x. x=x & E(x,x))", allow_free=True)
    assert eval_formula(Digraph(2, [(0, 0)]), f, {"x": 0})


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError):
        parse("~" * 5000 + "ex x. x=x")
    with pytest.raises(ParseError):
        parse("(" * 5000 + "x=x")
    with pytest.raises(ParseError):
        parse("".join(f"ex x{i}. " for i in range(5000)) + "x0=x0")


def test_nesting_cap_is_256_levels():
    f = parse("~" * 256 + "x=x", allow_free=True)
    assert eval_formula(LOOP, f, {"x": 0})
    with pytest.raises(ParseError):
        parse("~" * 257 + "x=x", allow_free=True)


def nested_not(levels):
    """ex x. ~~...~x=x with the given number of Not nodes, built from the
    AST classes, not parsed."""
    f = Eq("x", "x")
    for _ in range(levels):
        f = Not(f)
    return Quant("ex", "x", f)


def test_deep_ast_is_a_parse_error():
    deep = nested_not(2000)
    with pytest.raises(ParseError):
        CompiledFormula(deep)
    with pytest.raises(ParseError):
        eval_formula(LOOP, deep)
    with pytest.raises(ParseError):
        rank(deep)
    with pytest.raises(ParseError):
        print_formula(deep)


def test_ast_nesting_cap_matches_the_parser():
    # the Quant and 255 Nots are the 256 levels above the atom
    f = nested_not(255)
    assert not eval_formula(LOOP, f) and rank(f) == 1
    assert parse(print_formula(f)) == f
    for fn in (CompiledFormula, print_formula):
        with pytest.raises(ParseError):
            fn(nested_not(256))
    with pytest.raises(ParseError):
        parse("ex x. " + "~" * 256 + "x=x")


def test_basic_evaluation():
    loop = parse("ex x. E(x,x)")
    assert eval_formula(LOOP, loop)
    assert not eval_formula(PATH3, loop)
    assert eval_formula(PATH3, parse("ex x. all y. ~E(y,x)"))  # a source exists
    assert not eval_formula(CYCLE3, parse("ex x. all y. ~E(y,x)"))


def test_set_quantifier_semantics():
    # no proper nonempty subset of a cycle is closed under E
    closed = parse(
        "ex X. ((ex x. x in X & ex y. ~y in X)"
        " & all u. all v. ((u in X & E(u,v)) -> v in X))"
    )
    assert not eval_formula(CYCLE3, closed)
    assert eval_formula(PATH3, closed)


def test_valuation():
    f = CompiledFormula(parse("E(x,y)", allow_free=True))
    assert f.eval(PATH3, {"x": 0, "y": 1})
    assert not f.eval(PATH3, {"x": 1, "y": 0})
    with pytest.raises(ScopeError):
        f.eval(PATH3, {"x": 0})
    with pytest.raises(ScopeError):
        f.eval(PATH3, {"x": 0, "y": 9})


def test_set_valuation():
    f = CompiledFormula(parse("x in X", allow_free=True))
    assert f.eval(PATH3, {"x": 1, "X": {0, 1}})
    assert not f.eval(PATH3, {"x": 2, "X": {0, 1}})


def test_brute_force_guard():
    f = CompiledFormula(parse("ex X. ex x. x in X"))
    with pytest.raises(TooLargeForBruteForce):
        f.eval(Digraph(25))
    # first-order formulas are exempt from the guard
    assert eval_formula(Digraph(30, [(0, 0)]), parse("ex x. E(x,x)"))


def test_reach_macro():
    reach = reach_macro("x", "y")
    f = Quant("ex", "x", Quant("ex", "y", reach))
    compiled = CompiledFormula(reach)
    assert compiled.eval(PATH3, {"x": 0, "y": 2})
    assert not compiled.eval(PATH3, {"x": 2, "y": 0})
    assert compiled.eval(CYCLE3, {"x": 2, "y": 0})
    assert eval_formula(PATH3, f)


def test_ast_constructors_direct():
    f = Quant("ex", "x", Edge("x", "x"))
    assert eval_formula(LOOP, f)
    assert print_formula(f) == "ex x. E(x,x)"


# -- the one pass against a direct interpreter ---------------------------

POINTS, SETS = ("x", "y", "z"), ("X", "Y")


@st.composite
def formulas(draw, bound=frozenset(), depth=4):
    """Well-typed formulas without shadowing; atoms draw from the whole
    name pool, so a name can be free in one subformula and bound in its
    sibling."""
    kind = draw(st.sampled_from(("atom",) if depth == 0 else ("atom", "not", "bin", "quant")))
    if kind == "atom":
        atom = draw(st.sampled_from((Edge, Eq, Member)))
        right = SETS if atom is Member else POINTS
        return atom(draw(st.sampled_from(POINTS)), draw(st.sampled_from(right)))
    if kind == "not":
        return Not(draw(formulas(bound, depth - 1)))
    if kind == "bin":
        cls = draw(st.sampled_from((And, Or, Implies)))
        return cls(draw(formulas(bound, depth - 1)), draw(formulas(bound, depth - 1)))
    var = draw(st.sampled_from([v for v in POINTS + SETS if v not in bound]))
    kind = draw(st.sampled_from(("ex", "all")))
    return Quant(kind, var, draw(formulas(bound | {var}, depth - 1)))


def interpret(g, f, env):
    """Direct recursive semantics; sets are frozensets in a dict env."""
    if isinstance(f, Edge):
        return (env[f.x], env[f.y]) in g.edges
    if isinstance(f, Eq):
        return env[f.x] == env[f.y]
    if isinstance(f, Member):
        return env[f.x] in env[f.xs]
    if isinstance(f, Not):
        return not interpret(g, f.sub, env)
    if isinstance(f, And):
        return interpret(g, f.left, env) and interpret(g, f.right, env)
    if isinstance(f, Or):
        return interpret(g, f.left, env) or interpret(g, f.right, env)
    if isinstance(f, Implies):
        return not interpret(g, f.left, env) or interpret(g, f.right, env)
    if is_set_var(f.var):
        domain = [frozenset(c) for k in range(g.n + 1) for c in combinations(range(g.n), k)]
    else:
        domain = range(g.n)
    results = (interpret(g, f.sub, {**env, f.var: v}) for v in domain)
    return any(results) if f.kind == "ex" else all(results)


def free_of(f, bound=frozenset()):
    if isinstance(f, (Edge, Eq)):
        return {f.x, f.y} - bound
    if isinstance(f, Member):
        return {f.x, f.xs} - bound
    if isinstance(f, Not):
        return free_of(f.sub, bound)
    if isinstance(f, Quant):
        return free_of(f.sub, bound | {f.var})
    return free_of(f.left, bound) | free_of(f.right, bound)


def depth_of(f):
    if isinstance(f, Quant):
        return 1 + depth_of(f.sub)
    if isinstance(f, Not):
        return depth_of(f.sub)
    if isinstance(f, (And, Or, Implies)):
        return max(depth_of(f.left), depth_of(f.right))
    return 0


def _all_digraphs(n):
    pairs = list(product(range(n), repeat=2))
    for bits in range(1 << len(pairs)):
        yield Digraph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


_rng = random.Random(7)
GRAPHS = [g for n in range(3) for g in _all_digraphs(n)] + [
    Digraph(3, [p for p in product(range(3), repeat=2) if _rng.random() < 0.4]) for _ in range(6)
]


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(formulas(), st.randoms(use_true_random=False))
def test_one_pass_matches_direct_interpreter(f, rng):
    compiled = CompiledFormula(f)
    free = free_of(f)
    assert compiled.free == free
    assert compiled.rank == rank(f) == depth_of(f)
    for g in GRAPHS:
        if g.n == 0 and any(not is_set_var(v) for v in free):
            continue  # no vertex to give a free point variable
        env = {
            v: frozenset(u for u in range(g.n) if rng.random() < 0.5)
            if is_set_var(v)
            else rng.randrange(g.n)
            for v in sorted(free)
        }
        assert compiled.eval(g, env) == interpret(g, f, env), (print_formula(f), g)
