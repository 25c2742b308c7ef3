"""MSO formulas: AST, concrete syntax, quantifier rank, brute-force evaluation.

Lowercase identifiers are point variables, uppercase identifiers are set
variables. Vertex sets are enumerated as bitmasks in increasing binary
order (bit i = vertex i). The quantifier rank of a formula is its maximal
quantifier nesting depth. One recursive pass (``_compile``) checks scopes,
assigns env slots, finds the free variables and the rank, and builds the
evaluation closures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


MsoFormula = object  # any of the node types above


def is_set_var(name: str) -> bool:
    return name[0].isupper()


# -- concrete syntax -----------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(->|[()=,.~&|]|[A-Za-z][a-z0-9]*)")

# Nesting cap of the recursive parser (each ~, quantifier or parenthesis is
# one level), well below Python's recursion limit. _compile and
# print_formula apply the same cap to formulas built from the AST classes,
# where each Not, Quant, And, Or or Implies node is one level.
_MAX_NESTING = 256


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
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
        if not re.fullmatch(r"[A-Za-z][a-z0-9]*", tok) or tok in ("ex", "all", "in", "E"):
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


def parse(text: str, allow_free=False):
    """Parse a formula; sentences only unless allow_free is set."""
    p = _Parser(text)
    formula = p.formula()
    if p.i != len(p.tokens):
        tok, pos = p.tokens[p.i]
        raise ParseError(f"trailing input at position {pos}: {tok!r}")
    free = CompiledFormula(formula).free
    if free and not allow_free:
        raise ScopeError(f"free variables in sentence: {sorted(free)}")
    return formula


def print_formula(formula) -> str:
    """Inverse of parse (round-trip stable). Raises ParseError on a formula
    nested deeper than parse accepts."""
    return _print(formula, 0)


def _print(node, depth):
    if depth > _MAX_NESTING:
        raise ParseError(f"formula nested deeper than {_MAX_NESTING} levels")
    depth += 1
    if isinstance(node, Edge):
        return f"E({node.x},{node.y})"
    if isinstance(node, Eq):
        return f"{node.x}={node.y}"
    if isinstance(node, Member):
        return f"{node.x} in {node.xs}"
    if isinstance(node, Not):
        return f"~{_print(node.sub, depth)}"
    if isinstance(node, And):
        return f"({_print(node.left, depth)} & {_print(node.right, depth)})"
    if isinstance(node, Or):
        return f"({_print(node.left, depth)} | {_print(node.right, depth)})"
    if isinstance(node, Implies):
        return f"({_print(node.left, depth)} -> {_print(node.right, depth)})"
    if isinstance(node, Quant):
        return f"{node.kind} {node.var}. {_print(node.sub, depth)}"
    raise TypeError(f"not an MSO formula node: {node!r}")


# -- the one pass: analysis and evaluation -------------------------------


def _slot(name, scope, slots):
    """Slot of the binding in force for name; a free name gets a slot of
    its own the first time it is seen."""
    if name in scope:
        return scope[name]
    if name not in slots:
        slots.append(name)
    return slots.index(name)


def _compile(node, scope, slots, depth=0):
    """One descent: reject nesting past parse's cap, shadowing and ill-typed
    atoms, assign env slots, and compile to a closure fn(n, edges, env) for
    repeated evaluation. depth is the number of nodes above node.

    scope maps each variable bound above node to its slot. slots has one
    entry per env slot: a free variable's name, or None for the slot of a
    quantifier (each quantifier has its own). env holds vertex numbers for
    point variables and bitmasks for set variables.

    Returns (fn, quantifier rank, whether a set quantifier occurs).
    """
    if depth > _MAX_NESTING:
        raise ParseError(f"formula nested deeper than {_MAX_NESTING} levels")
    depth += 1
    if isinstance(node, (Edge, Eq)):
        for v in (node.x, node.y):
            if is_set_var(v):
                raise ScopeError(f"{v!r} is a set variable used as a point")
        i, j = _slot(node.x, scope, slots), _slot(node.y, scope, slots)
        if isinstance(node, Edge):
            return (lambda n, E, env: (env[i], env[j]) in E), 0, False
        return (lambda n, E, env: env[i] == env[j]), 0, False
    if isinstance(node, Member):
        if is_set_var(node.x) or not is_set_var(node.xs):
            raise ScopeError("membership needs a point on the left, a set on the right")
        i, j = _slot(node.x, scope, slots), _slot(node.xs, scope, slots)
        return (lambda n, E, env: (env[j] >> env[i]) & 1 == 1), 0, False
    if isinstance(node, Not):
        sub, qrank, set_quant = _compile(node.sub, scope, slots, depth)
        return (lambda n, E, env: not sub(n, E, env)), qrank, set_quant
    if isinstance(node, (And, Or, Implies)):
        left, lrank, lset = _compile(node.left, scope, slots, depth)
        right, rrank, rset = _compile(node.right, scope, slots, depth)
        if isinstance(node, And):
            fn = lambda n, E, env: left(n, E, env) and right(n, E, env)
        elif isinstance(node, Or):
            fn = lambda n, E, env: left(n, E, env) or right(n, E, env)
        else:
            fn = lambda n, E, env: (not left(n, E, env)) or right(n, E, env)
        return fn, max(lrank, rrank), lset or rset
    if isinstance(node, Quant):
        if node.var in scope:
            raise ScopeError(f"variable {node.var!r} is shadowed")
        idx = len(slots)
        slots.append(None)
        sub, qrank, set_quant = _compile(node.sub, {**scope, node.var: idx}, slots, depth)
        over_sets = is_set_var(node.var)
        exists = node.kind == "ex"

        def fn(n, E, env):
            domain = range(1 << n) if over_sets else range(n)
            for value in domain:
                env[idx] = value
                if sub(n, E, env) == exists:
                    return exists
            return not exists

        return fn, qrank + 1, set_quant or over_sets
    raise TypeError(f"not an MSO formula node: {node!r}")


class CompiledFormula:
    """A formula compiled once, evaluable against many graphs.

    .free is the set of free variables, .rank the quantifier rank. A formula
    nested deeper than parse accepts raises ParseError.
    """

    def __init__(self, formula):
        self.formula = formula
        slots = []
        self._fn, self.rank, self._set_quant = _compile(formula, {}, slots)
        self._width = len(slots)
        self._free_slots = {name: i for i, name in enumerate(slots) if name is not None}
        self.free = frozenset(self._free_slots)

    def eval(self, g: Digraph, valuation=None) -> bool:
        valuation = valuation or {}
        missing = self.free - set(valuation)
        if missing:
            raise ScopeError(f"unbound free variables: {sorted(missing)}")
        if self._set_quant and g.n > 24:
            raise TooLargeForBruteForce(
                f"{g.n} vertices with a set quantifier exceeds the guard (24)"
            )
        env = [0] * self._width
        for name, value in valuation.items():
            if name not in self._free_slots:
                continue
            if is_set_var(name):
                mask = 0
                for v in value:
                    if not 0 <= v < g.n:
                        raise ScopeError(f"valuation vertex {v} out of range")
                    mask |= 1 << v
                env[self._free_slots[name]] = mask
            else:
                if not 0 <= value < g.n:
                    raise ScopeError(f"valuation vertex {value} out of range")
                env[self._free_slots[name]] = value
        return bool(self._fn(g.n, g.edges, env))


def eval_formula(g: Digraph, formula, valuation=None) -> bool:
    """One-shot MSO satisfaction check; standard semantics."""
    return CompiledFormula(formula).eval(g, valuation)


def rank(formula) -> int:
    """Quantifier rank: the maximal nesting depth of quantifiers."""
    return CompiledFormula(formula).rank


def reach_macro(x: str, y: str, set_var: str = "R"):
    """The E*(x, y) macro: every set containing x and closed under E
    contains y. Leaves x and y free."""
    u, v = "u0", "v0"
    closed = Quant(
        "all", u, Quant("all", v, Implies(And(Member(u, set_var), Edge(u, v)), Member(v, set_var)))
    )
    return Quant("all", set_var, Implies(And(Member(x, set_var), closed), Member(y, set_var)))
