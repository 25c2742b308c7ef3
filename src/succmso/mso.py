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


class _Compiled(NamedTuple):
    """One node as _compile returns it. reads has bit i set when the node
    reads env slot i (a quantifier's own slot is not read from outside
    it). op is the node's connective ("&", "|", "->") or None, and parts
    holds (fn, reads) pairs: for "&" and "|" the operands of the node's
    flattened "&" or "|" chain, for "->" those of its antecedent's "&"
    chain followed by the consequent."""

    fn: object
    text: str
    rank: int
    set_quant: bool
    reads: int
    op: str | None = None
    parts: tuple = ()


def _spine(c, op):
    """The (fn, reads) parts of c's flattened op chain."""
    return c.parts if c.op == op else ((c.fn, c.reads),)


def _join(fns, conj):
    """One closure for the conjunction (conj) or the disjunction of the
    closures fns, with one and two parts as direct calls."""
    if len(fns) == 1:
        return fns[0]
    if len(fns) == 2:
        a, b = fns
        if conj:
            return lambda view, env: a(view, env) and b(view, env)
        return lambda view, env: a(view, env) or b(view, env)
    if conj:
        return lambda view, env: all(f(view, env) for f in fns)
    return lambda view, env: any(f(view, env) for f in fns)


def _implies(a, b):
    """The closure of a -> b."""
    return lambda view, env: (not a(view, env)) or b(view, env)


def _split(parts, bit):
    """The closures of the parts that do not read the slot of bit, and of
    those that do, each in their order."""
    return [f for f, reads in parts if not reads & bit], [f for f, reads in parts if reads & bit]


def _loop(idx, over_sets, exists, sub):
    """A quantifier's loop: sub with env[idx] at each value of the domain
    in increasing order, the view's vertices or, over sets, its vertex
    masks. It is built per kind: ex returns True at the first true body
    and all False at the first false one."""
    domain = _SETS if over_sets else _POINTS
    if exists:
        def fn(view, env):
            for env[idx] in view[domain]:
                if sub(view, env):
                    return True
            return False
    else:
        def fn(view, env):
            for env[idx] in view[domain]:
                if not sub(view, env):
                    return False
            return True
    return fn


def _compile(node, scope, slots, depth=0):
    """One descent: reject nesting past parse's cap, names and quantifier
    kinds that parse never produces, shadowing and ill-typed atoms, assign
    env slots, print the node, and compile it to a closure fn(view, env)
    for repeated evaluation. depth is the number of nodes above node.
    Besides the parser, it is the only walk over the AST.

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

    Returns a _Compiled.
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
            return _Compiled(fn, f"E({node.x},{node.y})", 0, False, reads)
        return _Compiled(lambda view, env: env[i] == env[j], f"{node.x}={node.y}", 0, False, reads)
    if isinstance(node, Member):
        _check_names(node.x, node.xs)
        if is_set_var(node.x) or not is_set_var(node.xs):
            raise ScopeError("membership needs a point on the left, a set on the right")
        i, j = _slot(node.x, scope, slots), _slot(node.xs, scope, slots)
        fn = lambda view, env: env[j] >> env[i] & 1
        return _Compiled(fn, f"{node.x} in {node.xs}", 0, False, 1 << i | 1 << j)
    if isinstance(node, Not):
        sub = _compile(node.sub, scope, slots, depth)
        sub_fn = sub.fn
        fn = lambda view, env: not sub_fn(view, env)
        return _Compiled(fn, f"~{sub.text}", sub.rank, sub.set_quant, sub.reads)
    if isinstance(node, (And, Or, Implies)):
        left = _compile(node.left, scope, slots, depth)
        right = _compile(node.right, scope, slots, depth)
        if isinstance(node, Implies):
            op, fn = "->", _implies(left.fn, right.fn)
            parts = _spine(left, "&") + ((right.fn, right.reads),)
        else:
            op = "&" if isinstance(node, And) else "|"
            fn = _join((left.fn, right.fn), op == "&")
            parts = _spine(left, op) + _spine(right, op)
        return _Compiled(fn, f"({left.text} {op} {right.text})", max(left.rank, right.rank),
                         left.set_quant or right.set_quant, left.reads | right.reads, op, parts)
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
                fn = _join((_join(outer, exists), loop), exists)
        elif body.op == "->" and not exists:  # F -> all v. (D -> C)
            outer, inner = _split(body.parts[:-1], bit)
            c, c_reads = body.parts[-1]
            if outer and (inner or c_reads & bit):
                sub = _implies(_join(inner, True), c) if inner else c
                fn = _implies(_join(outer, True), _loop(idx, over_sets, False, sub))
        if fn is None:
            fn = _loop(idx, over_sets, exists, body.fn)
        return _Compiled(fn, f"{node.kind} {node.var}. {body.text}", body.rank + 1,
                         body.set_quant or over_sets, body.reads & ~bit)
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
        self._fn, self.text, self.rank, self._set_quant = c.fn, c.text, c.rank, c.set_quant
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
