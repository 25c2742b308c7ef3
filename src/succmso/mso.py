"""MSO formulas: the AST, its concrete syntax, and brute-force evaluation
(CompiledFormula)."""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParseError, ScopeError, TooLargeForBruteForce
from .graph import Digraph

# -- AST -----------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    x: str
    y: str


@dataclass(frozen=True)
class Eq:
    x: str
    y: str


@dataclass(frozen=True)
class Member:
    x: str
    xs: str


@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class Quant:
    """kind is 'ex' or 'all'; whether the variable ranges over sets is
    determined by its capitalization."""

    kind: str
    var: str
    sub: object


def is_set_var(name: str) -> bool:
    """Whether name is a set variable: a name that starts with an uppercase
    letter names a set variable, one that starts lowercase a point."""
    return name[0].isupper()


# -- concrete syntax -----------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z][a-z0-9]*")
_TOKEN_RE = re.compile(rf"\s*(->|[()=,.~&|]|{_NAME_RE.pattern})")
_KEYWORDS = frozenset(("ex", "all", "in", "E"))

# Nesting cap of the recursive parser (each ~, quantifier or parenthesis is
# one level), well below Python's recursion limit. _compile applies the same
# cap to formulas built from the AST classes, where each Not, Quant, And, Or
# or Implies node is one level.
_MAX_NESTING = 256

# Cap on n ** rank, the number of innermost evaluations of a first-order
# formula on n vertices (a set quantifier iterates 2^n >= n times, so this
# is a lower bound with set quantifiers too). Each costs about 0.3 us on a
# 2-core x86 host under Python 3.11 (all x. all y. all z. ~((E(x,y) &
# E(y,z)) & E(z,x)) on the transitive tournament on 100 vertices, whose
# 10^6 triples all reach the body), so the cap is about 30 s of work.
_MAX_FO_WORK = 10**8

# Indices into the view that eval builds once per call (see _compile).
_EDGES, _POINTS, _SETS = range(3)

# Cap on the vertex count of a graph on which a formula with a set
# quantifier is evaluated: one set quantifier alone iterates 2^n sets.
_MAX_SET_VERTICES = 24


def _is_name(name) -> bool:
    """Whether name is a variable the parser reads: an identifier that is
    not a keyword."""
    return type(name) is str and _NAME_RE.fullmatch(name) is not None and name not in _KEYWORDS


def _tokenize(text):
    """(token, position) pairs; whitespace before, between and after the
    tokens separates them and is otherwise ignored."""
    tokens = []
    pos = 0
    end = len(text.rstrip())
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"cannot tokenize at position {pos}: {text[pos:pos + 10]!r}")
        tokens.append((m.group(1), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of formula")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, what):
        tok, pos = self.next()
        if tok != what:
            raise ParseError(f"expected {what!r} at position {pos}, got {tok!r}")
        return tok

    def ident(self):
        tok, pos = self.next()
        if not _is_name(tok):
            raise ParseError(f"expected an identifier at position {pos}, got {tok!r}")
        return tok

    def formula(self, depth=0):
        if depth > _MAX_NESTING:
            raise ParseError(f"formula nested deeper than {_MAX_NESTING} levels")
        depth += 1
        tok = self.peek()
        if tok == "~":
            self.next()
            return Not(self.formula(depth))
        if tok in ("ex", "all"):
            self.next()
            var = self.ident()
            self.expect(".")
            return Quant(tok, var, self.formula(depth))
        if tok == "E":
            self.next()
            self.expect("(")
            x = self.ident()
            self.expect(",")
            y = self.ident()
            self.expect(")")
            return Edge(x, y)
        if tok == "(":
            self.next()
            left = self.formula(depth)
            op, pos = self.next()
            right = self.formula(depth)
            self.expect(")")
            if op == "&":
                return And(left, right)
            if op == "|":
                return Or(left, right)
            if op == "->":
                return Implies(left, right)
            raise ParseError(f"expected a connective at position {pos}, got {op!r}")
        # atom starting with a variable: v = v  or  v in V
        x = self.ident()
        op, pos = self.next()
        if op == "=":
            return Eq(x, self.ident())
        if op == "in":
            return Member(x, self.ident())
        raise ParseError(f"expected '=' or 'in' at position {pos}, got {op!r}")


# -- the one pass: analysis and evaluation -------------------------------


def _slot(name, scope, slots):
    """Slot of the binding in force for name; a free name gets a slot of
    its own the first time it is seen."""
    if name in scope:
        return scope[name]
    if name not in slots:
        slots.append(name)
    return slots.index(name)


def _check_names(*names):
    """ParseError for the first of names that parse would not read as a
    variable (_is_name), so that every compiled formula prints as text
    that parse reads back."""
    for name in names:
        if not _is_name(name):
            raise ParseError(f"not a variable name: {name!r:.40}")


class _Node(NamedTuple):
    """One node as _compile returns it, or one operand of a chain. fn is
    its closure fn(view, env), None for a connective (see part). reads has
    bit i set when it reads env slot i (a quantifier's own slot is not read
    from outside it); key is its cost key, the pair (holds a set
    quantifier, quantifier rank). A connective has its op ("&", "|", "->")
    and parts, each with its closure: the operands of its flattened "&" or
    "|" chain, or for "->" those of its antecedent's "&" chain, then the
    consequent."""

    fn: object
    reads: int
    key: tuple
    text: str = ""
    op: str | None = None
    parts: tuple = ()

    @property
    def part(self):
        """The node as one operand, its closure built: a connective's by
        _join for "&" and "|" and by _implies for "->"."""
        if self.op is None:
            return self
        if self.op == "->":
            return _implies(self.parts[:-1], self.parts[-1])
        return _join(self.parts, self.op == "&")


def _spine(c, op):
    """The parts of c's flattened op chain."""
    return c.parts if c.op == op else (c.part,)


def _over(fn, parts):
    """The part with closure fn that stands for all of parts: it reads
    what they read, holds a set quantifier if one does, and has their
    largest rank."""
    reads = 0
    for p in parts:
        reads |= p.reads
    return _Node(fn, reads, (any(p.key[0] for p in parts), max(p.key[1] for p in parts)))


def _tree(fns, conj):
    """fns joined by and (conj) or or, left to right, as a balanced tree of
    two-operand closures."""
    if len(fns) == 1:
        return fns[0]
    a, b = _tree(fns[:len(fns) // 2], conj), _tree(fns[len(fns) // 2:], conj)
    if conj:
        return lambda view, env: a(view, env) and b(view, env)
    return lambda view, env: a(view, env) or b(view, env)


def _join(parts, conj):
    """The part of the conjunction (conj) or the disjunction of parts. Its
    closure runs them in increasing key, ties in the given order. Three or
    more are nested as a balanced tree of two-operand closures, so a chain
    of k parts runs at most ceil(log2 k) closures deep."""
    if len(parts) == 1:
        return parts[0]
    return _over(_tree([p.fn for p in sorted(parts, key=lambda p: p.key)], conj), parts)


def _implies(ante, c):
    """The part of (A1 & ... & Ak) -> C, from the parts Ai of the
    antecedent's "&" chain and the consequent's part c. It runs C | ~A when
    C's key is below the largest Ai key, and ~A | C otherwise."""
    a, cf = _join(ante, True).fn, c.fn
    if c.key < max(p.key for p in ante):
        fn = lambda view, env: cf(view, env) or not a(view, env)
    else:
        fn = lambda view, env: (not a(view, env)) or cf(view, env)
    return _over(fn, (*ante, c))


def _split(parts, bit):
    """The parts that do not read the slot of bit, and those that do, each
    in their order."""
    return [p for p in parts if not p.reads & bit], [p for p in parts if p.reads & bit]


def _loop(idx, over_sets, exists, sub):
    """A quantifier's loop, as a part: the part sub with env[idx] at each
    value of the domain in increasing order, the view's vertices or, over
    sets, its vertex masks. It is built per kind: ex returns True at the
    first true body and all False at the first false one."""
    domain = _SETS if over_sets else _POINTS
    body = sub.fn
    if exists:
        def fn(view, env):
            for env[idx] in view[domain]:
                if body(view, env):
                    return True
            return False
    else:
        def fn(view, env):
            for env[idx] in view[domain]:
                if not body(view, env):
                    return False
            return True
    return _Node(fn, sub.reads & ~(1 << idx), (over_sets or sub.key[0], sub.key[1] + 1))


def _compile(node, scope, slots, depth=0):
    """One descent: reject nesting past parse's cap, names and quantifier
    kinds that parse never produces, shadowing and ill-typed atoms, assign
    env slots, print the node, and compile it to a closure fn(view, env)
    for repeated evaluation. depth is the number of nodes above node.
    Besides the parser, it is the only walk over the AST. A connective
    returns fn None with its parts, and its closure is built by its part
    (see _Node) where it is read as one operand: under a ~, as a
    quantifier body that is not miniscoped, as a consequent, inside a
    chain of another connective, or at the root. A chain of one
    connective flattens into its outermost node's parts (an implication
    flattens its antecedent's "&" chain), so each chain builds its
    closures once.

    view is the graph as eval builds it once per call: the tuple (edge
    set, range(n), range(1 << n)), whose last entry is None when the
    formula has no set quantifier; _EDGES, _POINTS and _SETS index it.
    E(x,y) looks its pair up in the edge set, and each quantifier's loop
    reads its domain from the view (see _loop). An atom returns its truth
    as a bool or, for x in X, as the bit of X at x; eval turns the result
    into a bool.

    scope maps each variable bound above node to its slot. slots has one
    entry per env slot: a free variable's name, or None for the slot of a
    quantifier (each quantifier has its own). env holds vertex numbers for
    point variables and bitmasks for set variables (bit i = vertex i); a
    set quantifier runs over the masks in increasing binary order.

    A quantifier over slot i miniscopes its body before building its loop,
    from the closures its parts already have. With F the parts of the
    body's flattened "&" (or "|") chain that read no slot i, and D the
    rest:

    - ex v. (F & D) runs as F & ex v. D;
    - all v. ((F & D) -> C) runs as F -> all v. (D -> C), or as
      F -> all v. C when every part of the antecedent is in F;
    - all v. (F | D) runs as F | all v. D.

    A rule applies only when F is nonempty and some other part reads slot
    i. Parts are told apart by the slots they read, not by the names in
    them: a name free in F and bound again inside D names two slots. The
    three rules hold on every domain, the empty point domain (a graph with
    no vertex) included, where ex v. D is false and all v. D true on both
    sides. all v. (F & D), ex v. (F | D) and ex v. (F -> D) are not moved:
    on that domain they are true, false and false whatever F is, while
    F & all v. D, F | ex v. D and F -> ex v. D read F, F and ~F there.
    Miniscoping changes only the closure: the text, the rank and the
    guards are those of the formula as given.

    Every chain then runs its cheapest operands first, by a static cost
    key per part: the pair (holds a set quantifier, quantifier rank),
    compared in that order (see _Node). An "&" or "|" chain, flattened,
    runs its parts in increasing key, ties in their order in the text (see
    _join). (A1 & ... & Ak) -> C runs C first, as C | ~(A1 & ... & Ak),
    when C's key is below the largest Ai key, and as ~(A1 & ... & Ak) | C
    otherwise (see _implies). The same holds for the chains that
    miniscoping builds: F & ex v. D and F | all v. D are chains of F's
    parts and the loop, and F -> all v. (D -> C) two implications. A
    loop's key is that of the parts it runs over, with one more rank, and
    a set quantifier if it runs over sets. So all R. ((x in R & Cl(R)) ->
    y in R) tests y in R first and runs Cl(R) only when y is not in R and
    x is. The order is exact: the guards run in eval before any closure,
    no closure raises, and none writes anything but its own quantifier's
    env slot, which no part outside that quantifier reads, so the
    operands of a chain are pure functions of the env and commute. Like
    miniscoping, the order changes only the closure.

    Returns a _Node.
    """
    if depth > _MAX_NESTING:
        raise ParseError(f"formula nested deeper than {_MAX_NESTING} levels")
    depth += 1
    if isinstance(node, (Edge, Eq)):
        _check_names(node.x, node.y)
        for v in (node.x, node.y):
            if is_set_var(v):
                raise ScopeError(f"{v!r} is a set variable used as a point")
        i, j = _slot(node.x, scope, slots), _slot(node.y, scope, slots)
        reads = 1 << i | 1 << j
        if isinstance(node, Edge):
            fn = lambda view, env: (env[i], env[j]) in view[_EDGES]
            return _Node(fn, reads, (False, 0), f"E({node.x},{node.y})")
        return _Node(lambda view, env: env[i] == env[j], reads, (False, 0), f"{node.x}={node.y}")
    if isinstance(node, Member):
        _check_names(node.x, node.xs)
        if is_set_var(node.x) or not is_set_var(node.xs):
            raise ScopeError("membership needs a point on the left, a set on the right")
        i, j = _slot(node.x, scope, slots), _slot(node.xs, scope, slots)
        fn = lambda view, env: env[j] >> env[i] & 1
        return _Node(fn, 1 << i | 1 << j, (False, 0), f"{node.x} in {node.xs}")
    if isinstance(node, Not):
        sub = _compile(node.sub, scope, slots, depth)
        sub_fn = sub.part.fn
        fn = lambda view, env: not sub_fn(view, env)
        return _Node(fn, sub.reads, sub.key, f"~{sub.text}")
    if isinstance(node, (And, Or, Implies)):
        op = "->" if isinstance(node, Implies) else "&" if isinstance(node, And) else "|"
        left = _compile(node.left, scope, slots, depth)
        right = _compile(node.right, scope, slots, depth)
        parts = _spine(left, "&" if op == "->" else op)
        parts += (right.part,) if op == "->" else _spine(right, op)
        key = (left.key[0] or right.key[0], max(left.key[1], right.key[1]))
        return _Node(None, left.reads | right.reads, key, f"({left.text} {op} {right.text})",
                     op, parts)
    if isinstance(node, Quant):
        if node.kind not in ("ex", "all"):
            raise ParseError(f"not a quantifier kind: {node.kind!r:.40}")
        _check_names(node.var)
        if node.var in scope:
            raise ScopeError(f"variable {node.var!r} is shadowed")
        idx = len(slots)
        slots.append(None)
        body = _compile(node.sub, {**scope, node.var: idx}, slots, depth)
        over_sets = is_set_var(node.var)
        exists, bit = node.kind == "ex", 1 << idx
        fn = None
        if body.op == ("&" if exists else "|"):  # F & ex v. D, or F | all v. D
            outer, inner = _split(body.parts, bit)
            if outer and inner:
                loop = _loop(idx, over_sets, exists, _join(inner, exists))
                fn = _join(outer + [loop], exists).fn
        elif body.op == "->" and not exists:  # F -> all v. (D -> C)
            outer, inner = _split(body.parts[:-1], bit)
            c = body.parts[-1]
            if outer and (inner or c.reads & bit):
                sub = _implies(inner, c) if inner else c
                fn = _implies(outer, _loop(idx, over_sets, False, sub)).fn
        if fn is None:
            fn = _loop(idx, over_sets, exists, body.part).fn
        return _Node(fn, body.reads & ~bit, (over_sets or body.key[0], body.key[1] + 1),
                     f"{node.kind} {node.var}. {body.text}")
    raise ParseError(f"not an MSO formula node: {node!r:.40}")


def _vertex(name, v, n):
    """v, checked as a vertex in the valuation of name: an exact int (not a
    bool, a float or a string) in range(n)."""
    if type(v) is not int:
        raise ScopeError(f"valuation of {name!r}: {v!r:.40} is not an int vertex")
    if not 0 <= v < n:
        raise ScopeError(f"valuation of {name!r}: vertex {v} out of range")
    return v


class CompiledFormula:
    """A formula compiled once, evaluable against many graphs.

    .formula is the AST, .free the set of free variables, .rank the
    quantifier rank (the maximal quantifier nesting depth), .text the
    concrete syntax that parse reads back. An AST that parse could not
    produce (nested deeper than parse accepts, a name that is not an
    identifier, a quantifier kind other than ex or all, a child that is not
    an AST node) raises ParseError, and an ill-scoped one (a shadowed
    variable, a set used as a point) ScopeError.
    """

    def __init__(self, formula):
        self.formula = formula
        slots = []
        c = _compile(formula, {}, slots)
        self._fn, self.text = c.part.fn, c.text
        self._set_quant, self.rank = c.key
        self._width = len(slots)
        self._free_slots = {name: i for i, name in enumerate(slots) if name is not None}
        self.free = frozenset(self._free_slots)

    @classmethod
    def parse(cls, text: str, allow_free=False) -> CompiledFormula:
        """The formula in text, parsed, then compiled by the one pass;
        sentences only unless allow_free is set. It is the text entry
        point, and callers keep the handle it returns."""
        p = _Parser(text)
        formula = p.formula()
        if p.i != len(p.tokens):
            tok, pos = p.tokens[p.i]
            raise ParseError(f"trailing input at position {pos}: {tok!r}")
        compiled = cls(formula)
        if compiled.free and not allow_free:
            raise ScopeError(f"free variables in sentence: {sorted(compiled.free)}")
        return compiled

    def eval(self, g: Digraph, valuation=None) -> bool:
        """Whether g models the formula. valuation maps each free point
        variable to a vertex and each free set variable to an iterable of
        vertices, each vertex an exact int in range(g.n); ScopeError names
        the variable otherwise. A valuation that is not a mapping raises
        ScopeError."""
        if valuation is None:
            valuation = {}
        elif not isinstance(valuation, Mapping):
            raise ScopeError(f"valuation {valuation!r:.40} is not a mapping of variables to values")
        missing = self.free - set(valuation)
        if missing:
            raise ScopeError(f"unbound free variables: {sorted(missing)}")
        if self._set_quant and g.n > _MAX_SET_VERTICES:
            raise TooLargeForBruteForce(
                f"{g.n} vertices with a set quantifier exceeds the guard ({_MAX_SET_VERTICES})"
            )
        if g.n**self.rank > _MAX_FO_WORK:
            raise TooLargeForBruteForce(
                f"{g.n} vertices at quantifier rank {self.rank} exceed the guard "
                f"(n^rank <= {_MAX_FO_WORK})"
            )
        env = [0] * self._width
        for name, value in valuation.items():
            if name not in self._free_slots:
                continue
            if is_set_var(name):
                try:
                    members = iter(value)
                except TypeError:
                    raise ScopeError(
                        f"valuation of {name!r}: {value!r:.40} is not an iterable of vertices"
                    ) from None
                mask = 0
                for v in members:
                    mask |= 1 << _vertex(name, v, g.n)
                env[self._free_slots[name]] = mask
            else:
                env[self._free_slots[name]] = _vertex(name, value, g.n)
        view = (g.edges, range(g.n), range(1 << g.n) if self._set_quant else None)
        return bool(self._fn(view, env))


def parse(text: str, allow_free=False):
    """The AST of CompiledFormula.parse(text, allow_free), for callers that
    compile it themselves, such as perfbench."""
    return CompiledFormula.parse(text, allow_free).formula
