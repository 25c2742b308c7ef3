import random
import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from succmso.errors import ParseError, ScopeError, SuccmsoError, TooLargeForBruteForce
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
    is_set_var,
    parse,
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
        f = CompiledFormula.parse(text)
        assert parse(f.text) == f.formula


def test_rank_counts_quantifiers():
    def rank(text):
        return CompiledFormula.parse(text).rank

    assert rank("ex x. E(x,x)") == 1
    assert rank("ex x. ex y. (E(x,y) & E(y,x))") == 2
    assert rank("ex X. all x. x in X") == 2
    # rank is nesting depth: a connective takes the larger side
    assert rank("ex x. (ex y. E(x,y) & ex z. E(z,x))") == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("ex x E(x,x)")  # missing dot
    with pytest.raises(ParseError):
        parse("E(x)")
    with pytest.raises(ParseError):
        parse("ex x. E(x,x) trailing")
    with pytest.raises(ParseError, match="expected a connective"):
        parse("ex x. (x=x ~ x=x)")


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
    f = CompiledFormula.parse("(all x. x=x & E(x,x))", allow_free=True)
    assert f.eval(Digraph(2, [(0, 0)]), {"x": 0})


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError):
        parse("~" * 5000 + "ex x. x=x")
    with pytest.raises(ParseError):
        parse("(" * 5000 + "x=x")
    with pytest.raises(ParseError):
        parse("".join(f"ex x{i}. " for i in range(5000)) + "x0=x0")


def test_nesting_cap_is_256_levels():
    f = CompiledFormula.parse("~" * 256 + "x=x", allow_free=True)
    assert f.eval(LOOP, {"x": 0})
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
    with pytest.raises(ParseError):
        CompiledFormula(nested_not(2000))


def test_ast_nesting_cap_matches_the_parser():
    # the Quant and 255 Nots are the 256 levels above the atom
    f = CompiledFormula(nested_not(255))
    assert not f.eval(LOOP) and f.rank == 1
    assert parse(f.text) == f.formula
    with pytest.raises(ParseError):
        CompiledFormula(nested_not(256))
    with pytest.raises(ParseError):
        parse("ex x. " + "~" * 256 + "x=x")


def test_basic_evaluation():
    loop = CompiledFormula.parse("ex x. E(x,x)")
    assert loop.eval(LOOP)
    assert not loop.eval(PATH3)
    source = CompiledFormula.parse("ex x. all y. ~E(y,x)")
    assert source.eval(PATH3)  # a source exists
    assert not source.eval(CYCLE3)


def test_set_quantifier_semantics():
    # no proper nonempty subset of a cycle is closed under E
    closed = CompiledFormula.parse(
        "ex X. ((ex x. x in X & ex y. ~y in X)"
        " & all u. all v. ((u in X & E(u,v)) -> v in X))"
    )
    assert not closed.eval(CYCLE3)
    assert closed.eval(PATH3)


def test_valuation():
    f = CompiledFormula(parse("E(x,y)", allow_free=True))
    assert f.eval(PATH3, {"x": 0, "y": 1})
    assert not f.eval(PATH3, {"x": 1, "y": 0})
    with pytest.raises(ScopeError):
        f.eval(PATH3, {"x": 0})
    with pytest.raises(ScopeError):
        f.eval(PATH3, {"x": 0, "y": 9})
    # a point value is an exact int: 1.0 and True once read as vertex 1,
    # 1.5 as no vertex, and "1" ended in a bare TypeError
    g = Digraph(3, [(0, 1), (1, 1)])
    loop = CompiledFormula(parse("E(x,x)", allow_free=True))
    assert loop.eval(g, {"x": 1})
    for value in (1.0, True, 1.5, "1", None):
        with pytest.raises(ScopeError, match="'x'"):
            loop.eval(g, {"x": value})


@pytest.mark.parametrize("valuation", [[("x", 0)], "ab", 5])
def test_valuation_must_be_a_mapping(valuation):
    """A list of pairs, a string and an int once ended in a bare
    AttributeError or TypeError."""
    with pytest.raises(ScopeError, match="not a mapping"):
        CompiledFormula.parse("ex x. E(x,x)").eval(LOOP, valuation)
    with pytest.raises(ScopeError, match="not a mapping"):
        CompiledFormula.parse("E(x,x)", allow_free=True).eval(LOOP, valuation)


def test_set_valuation():
    f = CompiledFormula(parse("x in X", allow_free=True))
    assert f.eval(PATH3, {"x": 1, "X": {0, 1}})
    assert not f.eval(PATH3, {"x": 2, "X": {0, 1}})
    assert f.eval(PATH3, {"x": 1, "X": (v for v in (2, 1))})
    # a set value is an iterable of exact ints; 5 and [1.0] once ended in a
    # bare TypeError
    for value in (5, [1.0], [True], [1, "2"], None):
        with pytest.raises(ScopeError, match="'X'"):
            f.eval(PATH3, {"x": 1, "X": value})


def test_brute_force_guard():
    f = CompiledFormula(parse("ex X. ex x. x in X"))
    with pytest.raises(TooLargeForBruteForce):
        f.eval(Digraph(25))
    # first-order formulas are exempt from the guard
    assert CompiledFormula.parse("ex x. E(x,x)").eval(Digraph(30, [(0, 0)]))


def reach_macro(x: str, y: str, set_var: str = "R"):
    """The E*(x, y) macro: every set containing x and closed under E
    contains y. Leaves x and y free."""
    u, v = "u0", "v0"
    closed = Quant(
        "all", u, Quant("all", v, Implies(And(Member(u, set_var), Edge(u, v)), Member(v, set_var)))
    )
    return Quant("all", set_var, Implies(And(Member(x, set_var), closed), Member(y, set_var)))


def test_reach_macro():
    reach = reach_macro("x", "y")
    f = Quant("ex", "x", Quant("ex", "y", reach))
    compiled = CompiledFormula(reach)
    assert compiled.eval(PATH3, {"x": 0, "y": 2})
    assert not compiled.eval(PATH3, {"x": 2, "y": 0})
    assert compiled.eval(CYCLE3, {"x": 2, "y": 0})
    assert CompiledFormula(f).eval(PATH3)


def test_ast_constructors_direct():
    f = CompiledFormula(Quant("ex", "x", Edge("x", "x")))
    assert f.eval(LOOP)
    assert f.text == "ex x. E(x,x)"


@pytest.mark.parametrize("f", [
    Quant("ex", "x", Quant("all", "x", Edge("x", "x"))),
    Quant("ex", "X", Eq("X", "X")),
    Quant("ex", "x", Member("x", "x")),
], ids=["shadowed", "set-as-point", "point-as-set"])
def test_ill_scoped_ast_is_not_printed(f):
    """These were once printed, and parse refuses the text; compiling,
    which also prints, refuses them."""
    with pytest.raises(ScopeError):
        CompiledFormula(f)


@pytest.mark.parametrize("f, named", [
    (Quant("some", "x", Edge("x", "x")), "'some'"),
    (Quant("ex", "x", Edge("", "x")), "''"),
    (Quant("ex", 5, Eq(5, 5)), "5"),
    (Quant("ex", "x y", Eq("x y", "x y")), "'x y'"),
    (Quant("ex", "ex", Eq("ex", "ex")), "'ex'"),
    (Quant("ex", "x", Member("x", "X1Y")), "'X1Y'"),
    (Not(5), "node: 5"),
    (Quant("ex", "x", None), "node: None"),
], ids=["kind-some", "empty-name", "int-name", "name-with-space", "keyword-name", "capital-inside",
        "int-child", "none-child"])
def test_ast_that_parse_cannot_produce_is_a_parse_error(f, named):
    """Each was once compiled: "some" was evaluated as "all", "" and 5
    ended in a bare IndexError or TypeError, the other names printed
    text that parse refuses, and a child that is no AST node ended in a
    bare TypeError."""
    with pytest.raises(ParseError, match=re.escape(named)):
        CompiledFormula(f)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.one_of(st.text(max_size=4), st.sampled_from(("ex", "all", "in", "E", "x1", "Xs"))))
def test_compiled_names_print_text_that_parse_reads_back(name):
    body = Quant("ex", "v", Member("v", name)) if name[:1].isupper() else Eq(name, name)
    f = Quant("ex", name, body)
    try:
        compiled = CompiledFormula(f)
    except ParseError:
        return
    assert parse(compiled.text) == f


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
    assert compiled.rank == depth_of(f)
    for g in GRAPHS:
        if g.n == 0 and any(not is_set_var(v) for v in free):
            continue  # no vertex to give a free point variable
        env = {
            v: frozenset(u for u in range(g.n) if rng.random() < 0.5)
            if is_set_var(v)
            else rng.randrange(g.n)
            for v in sorted(free)
        }
        verdict = compiled.eval(g, env)
        assert type(verdict) is bool, (compiled.text, g)
        assert verdict == interpret(g, f, env), (compiled.text, g)


# Formula text: a printed formula, maybe with one span replaced by a
# token; a run of tokens; or any text
MSO_TOKENS = ("ex", "all", "x", "y", "X", "E", "in", "(", ")", ",", ".", "~", "&", "|", "->", "=",
              " ", "")


@st.composite
def formula_texts(draw):
    text = CompiledFormula(draw(formulas())).text
    if draw(st.booleans()):
        i, j = sorted(draw(st.integers(0, len(text))) for _ in range(2))
        text = text[:i] + draw(st.sampled_from(MSO_TOKENS)) + text[j:]
    return text


@pytest.mark.parametrize("text", ["ex x. x=x\n", "ex x. E(x,x) ", " all x. ~E(x,x)\t\r\n "])
def test_trailing_whitespace_is_ignored_like_leading(text):
    """The tokenizer once wanted a token after every run of whitespace."""
    assert parse(text) == parse(text.strip())


def test_blank_text_is_an_empty_formula():
    for text in ("", "  \n"):
        with pytest.raises(ParseError, match="unexpected end of formula"):
            parse(text)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.one_of(formula_texts(), st.lists(st.sampled_from(MSO_TOKENS), max_size=10).map(" ".join),
                 st.text(max_size=12)))
def test_formula_text_fuzz(text):
    """Any text parses to a formula or raises a SuccmsoError, and a parsed
    formula printed back parses to itself."""
    try:
        f = CompiledFormula.parse(text, allow_free=True)
    except SuccmsoError:
        return
    assert parse(f.text, allow_free=True) == f.formula


# -- miniscoping against the direct interpreter --------------------------


def bound_in(f):
    """Names that a quantifier inside f binds."""
    if isinstance(f, Quant):
        return {f.var} | bound_in(f.sub)
    if isinstance(f, Not):
        return bound_in(f.sub)
    if isinstance(f, (And, Or, Implies)):
        return bound_in(f.left) | bound_in(f.right)
    return set()


@st.composite
def closed_points(draw, f, bound):
    """f with its free point names that are neither bound above (bound)
    nor inside f quantified at its root, so that the empty graph
    evaluates it."""
    for name in sorted(free_of(f) - bound - bound_in(f)):
        if not is_set_var(name):
            f = Quant(draw(st.sampled_from(("ex", "all"))), name, f)
    return f


@st.composite
def miniscope_cases(draw, bound=frozenset(), depth=2):
    """Q v. (F op D), with op one of &, |, -> (F in the antecedent), F
    free of v and D reading v: v a point or a set, F sometimes quantified,
    D sometimes joined with another such case, and names drawn from the
    whole pool, so one can be free in F and bound in D. All six
    (Q, op) pairs are drawn, the three that are not moved too."""
    v = draw(st.sampled_from([n for n in POINTS + SETS if n not in bound]))
    inner = bound | {v}
    close = draw(st.booleans())
    f = draw(formulas(inner, 2).filter(lambda f: v not in free_of(f)))
    if close:
        f = draw(closed_points(f, inner))
    if is_set_var(v):
        d = Member(draw(st.sampled_from(POINTS)), v)
    else:
        p = draw(st.sampled_from(POINTS))
        d = draw(st.sampled_from((Edge(v, p), Edge(p, v), Eq(v, p), Member(v, "X"))))
    if depth > 1 and draw(st.booleans()):
        join = draw(st.sampled_from((And, Or, Implies)))
        d = join(d, draw(miniscope_cases(inner, depth - 1)))
    if close:
        d = draw(closed_points(d, inner))
    op = draw(st.sampled_from((And, Or, Implies)))
    if op is Implies:
        c = draw(formulas(inner, 1))
        if close:
            c = draw(closed_points(c, inner))
        body = draw(st.sampled_from((Implies(And(f, d), c), Implies(And(d, f), c), Implies(f, d))))
    else:
        body = draw(st.sampled_from((op(f, d), op(d, f), op(op(f, d), f))))
    return Quant(draw(st.sampled_from(("ex", "all"))), v, body)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(miniscope_cases(), st.randoms(use_true_random=False))
def test_miniscoped_quantifiers_match_direct_interpreter(f, rng):
    """The compiled closure runs the miniscoped form; interpret runs f as
    given. GRAPHS starts with the empty graph, where only the three moved
    forms keep their value."""
    compiled = CompiledFormula(f)
    free = free_of(f)
    for g in GRAPHS:
        if g.n == 0 and any(not is_set_var(v) for v in free):
            continue
        env = {
            v: frozenset(u for u in range(g.n) if rng.random() < 0.5)
            if is_set_var(v)
            else rng.randrange(g.n)
            for v in sorted(free)
        }
        assert compiled.eval(g, env) == interpret(g, f, env), (compiled.text, g)


@pytest.mark.parametrize("text, expected", [
    ("all x. (ex y. E(y,y) & E(x,x))", True),
    ("ex x. (all y. ~E(y,y) | E(x,x))", False),
    ("ex x. (ex y. E(y,y) -> E(x,x))", False),
    ("ex x. (all y. ~E(y,y) & E(x,x))", False),
    ("all x. ((ex y. E(y,y) & E(x,x)) -> ~x=x)", True),
    ("all x. (ex y. E(y,y) | E(x,x))", True),
    ("ex X. all x. x in X", True),
    ("all X. ex x. x in X", False),
    ("ex X. ex x. x in X", False),
])
def test_empty_domain_verdicts(text, expected):
    """On the graph with no vertex, ex x. D is false and all x. D true.
    With F out of the loop, the first three would read false, true and
    true, so they are not moved; the next three are, and agree. The set
    domain there holds one set, the empty one."""
    f = CompiledFormula.parse(text)
    assert f.eval(Digraph(0)) is expected
    assert interpret(Digraph(0), f.formula, {}) is expected



# -- cost-ordered chains --------------------------------------------------


class CountingEdges(frozenset):
    """An edge set that counts its lookups."""

    lookups = 0

    def __contains__(self, pair):
        self.lookups += 1
        return super().__contains__(pair)


def edge_lookups(text, graphs):
    """The edge-set lookups that evaluating text makes over graphs, at
    every valuation of its free points, and its verdicts."""
    f = CompiledFormula.parse(text, allow_free=True)
    lookups, verdicts = 0, []
    for g in graphs:
        g = Digraph(g.n, g.edges)
        edges = CountingEdges(g.edges)
        object.__setattr__(g, "edges", edges)
        for values in product(range(g.n), repeat=len(f.free)):
            verdicts.append(f.eval(g, dict(zip(sorted(f.free), values))))
        lookups += edges.lookups
    return lookups, verdicts


def closed(s):
    return f"all u. all v. ((u in {s} & E(u,v)) -> v in {s})"


@pytest.mark.parametrize("text, hand_ordered", [
    (f"all R. ((x in R & {closed('R')}) -> y in R)", f"all R. (y in R | ~(x in R & {closed('R')}))"),
    (f"ex X. ({closed('X')} & x in X)", f"ex X. (x in X & {closed('X')})"),
])
def test_chains_run_their_cheapest_parts_first(text, hand_ordered):
    """The closure condition, of rank 2, runs after the one-bit tests
    beside it, as in the hand-ordered text: only for sets R that hold x
    and not y, and for sets X that hold x."""
    graphs = [PATH3, CYCLE3, Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 1), (2, 2)])]
    lookups, verdicts = edge_lookups(text, graphs)
    assert lookups > 0
    assert (lookups, verdicts) == edge_lookups(hand_ordered, graphs)


def balanced(cls, parts):
    """parts joined by cls as a balanced tree."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return cls(balanced(cls, parts[:mid]), balanced(cls, parts[mid:]))


@pytest.mark.parametrize("cls, filler", [(And, Eq("x", "x")), (Or, Not(Eq("x", "x")))])
def test_long_balanced_chains(cls, filler):
    """4,096 parts, a dozen levels deep as an AST, run as one flattened
    chain whose closure nests log2(4,096) calls deep: a quantified part at
    the front (it runs last), two atoms that decide and filler that does
    not."""
    parts = [filler] * 4096
    parts[0] = Quant("ex", "z", And(Edge("x", "z"), Edge("z", "y")))
    parts[1234], parts[3000] = Member("y", "X"), Edge("x", "y")
    f = balanced(cls, parts)
    compiled = CompiledFormula(f)
    assert compiled.rank == 1
    for g in GRAPHS[1:]:
        for x, y in product(range(g.n), repeat=2):
            for mask in range(1 << g.n):
                env = {"x": x, "y": y, "X": frozenset(v for v in range(g.n) if mask >> v & 1)}
                assert compiled.eval(g, env) == interpret(g, f, env), (g, env)


@st.composite
def chains(draw, bound=frozenset(), depth=2):
    """An "&", "|" or "->" chain of 2 to 5 parts, left-deep, right-deep or
    balanced, sometimes under a quantifier, whose parts mix atoms, point-
    and set-quantified formulas and, depth permitting, chains; an
    implication's consequent is often an atom under quantified
    antecedents."""
    outer = None
    if not bound and draw(st.booleans()):
        outer = draw(st.sampled_from(POINTS + SETS))
        bound = bound | {outer}

    def atom():
        return draw(formulas(bound, 0))

    def quantified(pool):
        var = draw(st.sampled_from([v for v in pool if v not in bound]))
        return Quant(draw(st.sampled_from(("ex", "all"))), var, draw(formulas(bound | {var}, 2)))

    def part():
        kind = draw(st.sampled_from(("atom", "point", "set", "chain") if depth else ("atom",)))
        if kind == "atom":
            return atom()
        if kind == "chain":
            return draw(chains(bound, depth - 1))
        return quantified(POINTS if kind == "point" else SETS)

    def fold(cls, parts):
        if len(parts) == 1:
            return parts[0]
        shape = draw(st.sampled_from(("left", "right", "balanced")))
        mid = {"left": len(parts) - 1, "right": 1, "balanced": len(parts) // 2}[shape]
        return cls(fold(cls, parts[:mid]), fold(cls, parts[mid:]))

    k = draw(st.integers(2, 5))
    cls = draw(st.sampled_from((And, Or, Implies)))
    if cls is Implies:
        if draw(st.booleans()):  # an atom under quantified antecedents
            ante = [quantified(POINTS + SETS) for _ in range(k - 1)]
            f = Implies(fold(And, ante), atom())
        else:
            f = Implies(fold(And, [part() for _ in range(k - 1)]), part())
    else:
        f = fold(cls, [part() for _ in range(k)])
    if outer is not None:
        f = Quant(draw(st.sampled_from(("ex", "all"))), outer, f)
    return f


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(chains(), st.randoms(use_true_random=False))
def test_cost_ordered_chains_match_direct_interpreter(f, rng):
    """The compiled closures run each chain in cost order, the chains that
    miniscoping builds too; interpret runs f as given. GRAPHS starts with
    the empty graph."""
    compiled = CompiledFormula(f)
    free = free_of(f)
    for g in GRAPHS:
        if g.n == 0 and any(not is_set_var(v) for v in free):
            continue
        env = {
            v: frozenset(u for u in range(g.n) if rng.random() < 0.5)
            if is_set_var(v)
            else rng.randrange(g.n)
            for v in sorted(free)
        }
        assert compiled.eval(g, env) == interpret(g, f, env), (compiled.text, g)
