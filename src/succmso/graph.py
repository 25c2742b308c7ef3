"""Explicit digraphs, biboundaried graphs, gluing, and word-indexed chains."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .errors import BadVertex, EmptyWord, ParseError, PortArityMismatch, TooLarge

# Cap on the vertex count of isomorphic_small, which tries up to n!
# vertex maps.
_MAX_ISO_VERTICES = 10


@dataclass(frozen=True)
class Digraph:
    """Digraph on vertices {0, ..., n-1}; loops allowed, no multi-edges.
    n and every endpoint are exact ints (a bool or a float is a BadVertex).
    """

    n: int
    edges: frozenset

    def __init__(self, n, edges=()):
        if type(n) is not int:
            raise BadVertex(f"vertex count {n!r:.40} is not an integer")
        if n < 0:
            raise BadVertex("vertex count must be nonnegative")
        try:
            edges = [(u, v) for u, v in edges]
        except (TypeError, ValueError) as exc:  # not iterable, or an entry not a pair
            raise BadVertex(f"edges {edges!r:.40} is not an iterable of (u, v) pairs") from exc
        for u, v in edges:  # before deduplication, which would hide (1.0, 1) behind (1, 1)
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                if type(u) is not int or type(v) is not int:
                    raise BadVertex(f"edge ({u!r:.40}, {v!r:.40}) has a non-integer endpoint")
                raise BadVertex(f"edge ({u}, {v}) out of range for {n} vertices")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(edges))

    def successors(self, u):
        """Out-neighborhood G(u) as a sorted list: the set bits of
        successor_masks[u], lowest first. u must be an exact int (not a
        bool or a float) in range(n)."""
        if type(u) is not int:
            raise BadVertex(f"vertex {u!r:.40} is not an int")
        if not 0 <= u < self.n:
            raise BadVertex(f"vertex {u} out of range")
        mask, out = self.successor_masks[u], []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    @cached_property
    def successor_masks(self):
        """Out-neighbourhood of every vertex as a bitmask (bit v of entry u
        is set iff (u, v) is an edge), built on first use, so graphs that
        never read it pay nothing; successors and the exact searches of
        efgame and treedec read it."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
        return tuple(masks)

    @cached_property
    def predecessor_masks(self):
        """In-neighbourhood of every vertex as a bitmask (bit u of entry v
        is set iff (u, v) is an edge), built on first use like the successor
        masks, so graphs that never read it pay nothing."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[v] |= 1 << u
        return tuple(masks)


@dataclass(frozen=True)
class BiboundariedGraph:
    """Digraph with two equal-length sequences of distinct ports."""

    graph: Digraph
    p1: tuple
    p2: tuple

    def __init__(self, graph, p1, p2):
        try:
            p1 = tuple(p1)
            p2 = tuple(p2)
        except TypeError as exc:  # p1 is a tuple iff it was read, so p2 failed
            name, seq = ("p2", p2) if type(p1) is tuple else ("p1", p1)
            raise BadVertex(f"{name} {seq!r:.40} is not a sequence of vertices") from exc
        if len(p1) != len(p2):
            raise PortArityMismatch(f"|p1|={len(p1)} != |p2|={len(p2)}")
        for seq, name in ((p1, "p1"), (p2, "p2")):
            for v in seq:  # before the set, which would refuse a list as unhashable
                if type(v) is not int:
                    raise BadVertex(f"{name} vertex {v!r:.40} is not an int")
                if not 0 <= v < graph.n:
                    raise BadVertex(f"{name} vertex {v} out of range")
            if len(set(seq)) != len(seq):
                raise BadVertex(f"{name} has repeated vertices")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)

    @property
    def ell(self):
        return len(self.p1)

    @property
    def n(self):
        return self.graph.n


@dataclass(frozen=True)
class GadgetTriple:
    """Three gadgets with equal port count; g1 must have a non-port vertex
    or a non-shared port (P1(g1) ∩ P2(g1) != V(g1))."""

    g1: BiboundariedGraph
    g2: BiboundariedGraph
    g3: BiboundariedGraph

    def __post_init__(self):
        if not self.g1.ell == self.g2.ell == self.g3.ell:
            raise PortArityMismatch("gadget port counts differ")
        if set(self.g1.p1) & set(self.g1.p2) == set(range(self.g1.n)):
            raise BadVertex("P1(g1) ∩ P2(g1) must not cover all of g1")


def disjoint_union(a: Digraph, b: Digraph) -> Digraph:
    """A ⊔ B; B's vertices are relabeled by +|A|."""
    shifted = {(u + a.n, v + a.n) for u, v in b.edges}
    return Digraph(a.n + b.n, a.edges | shifted)


def power_union(a: Digraph, k: int) -> Digraph:
    """Disjoint union of k copies of a, copy i shifted by i|a|; k = 0 gives
    the empty graph. k must be an exact int (a bool is refused)."""
    if type(k) is not int or k < 0:
        raise BadVertex(f"k must be a nonnegative int, not {k!r:.40}")
    return Digraph(a.n * k, [(u + i * a.n, v + i * a.n) for i in range(k) for u, v in a.edges])


def chain_maps(gamma: dict, word):
    """One vertex map per letter of word (a list from the gadget's labels to
    the chain's) and the chain's vertex count. The first gadget keeps its
    labels; in each next one, P1[i] goes to the chain's P2[i] so far and the
    other vertices to fresh labels in increasing order."""
    word = list(word)
    if not word:
        raise EmptyWord("delta requires a nonempty word")
    for letter in word:
        if letter not in gamma:
            raise BadVertex(f"unknown gadget index {letter!r}")
    maps, total, p2 = [], 0, ()
    for letter in word:
        b = gamma[letter]
        vmap = [None] * b.n
        if maps:
            if len(p2) != b.ell:
                raise PortArityMismatch(f"port counts {len(p2)} and {b.ell} differ")
            for p, q in zip(b.p1, p2):
                vmap[p] = q
        for v in range(b.n):
            if vmap[v] is None:
                vmap[v] = total
                total += 1
        maps.append(vmap)
        p2 = [vmap[v] for v in b.p2]
    return maps, total


def delta(gamma: dict, word) -> BiboundariedGraph:
    """The chain Δ(word): the gadgets named by its letters, glued left to
    right through the maps of chain_maps."""
    word = list(word)
    maps, total = chain_maps(gamma, word)
    edges = []
    for letter, vmap in zip(word, maps):
        edges += [(vmap[u], vmap[v]) for u, v in gamma[letter].graph.edges]
    p2 = [maps[-1][v] for v in gamma[word[-1]].p2]
    return BiboundariedGraph(Digraph(total, edges), gamma[word[0]].p1, p2)


def glue(a: BiboundariedGraph, b: BiboundariedGraph) -> BiboundariedGraph:
    """The gluing a ⊕ b: P2(a) identified positionally with P1(b); delta's
    two-letter case."""
    return delta({0: a, 1: b}, (0, 1))


def graph_equal(a: Digraph, b: Digraph) -> bool:
    """Label-exact equality."""
    return a.n == b.n and a.edges == b.edges


def isomorphic_small(a: Digraph, b: Digraph) -> bool:
    """Brute-force isomorphism test for graphs with at most
    _MAX_ISO_VERTICES (10) vertices."""
    if a.n > _MAX_ISO_VERTICES or b.n > _MAX_ISO_VERTICES:
        raise TooLarge(f"isomorphic_small is limited to {_MAX_ISO_VERTICES} vertices")
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    for perm in permutations(range(a.n)):
        if all((perm[u], perm[v]) in b.edges for u, v in a.edges):
            return True
    return False


# -- text format ---------------------------------------------------------


def parse_graph(text: str):
    """Parse the line-oriented graph format.

    Returns a BiboundariedGraph when p1/p2 lines list ports, else a Digraph
    (format_graph writes no port lines for a graph without ports).
    """
    n = None
    edges = []
    p1 = p2 = ()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        where = f"line {lineno}: a number"
        if parts[0] == "graph" and len(parts) == 2:
            n = text_int(parts[1], where)
        elif parts[0] == "e" and len(parts) == 3:
            edges.append((text_int(parts[1], where), text_int(parts[2], where)))
        elif parts[0] == "p1":
            p1 = tuple(text_int(v, where) for v in parts[1:])
        elif parts[0] == "p2":
            p2 = tuple(text_int(v, where) for v in parts[1:])
        else:
            raise ParseError(f"line {lineno}: cannot parse {raw!r}")
    if n is None:
        raise ParseError("missing 'graph <n>' line")
    g = Digraph(n, edges)
    if not (p1 or p2):
        return g
    return BiboundariedGraph(g, p1, p2)


def format_graph(g) -> str:
    """Serialize a Digraph or BiboundariedGraph to the text format."""
    bib = isinstance(g, BiboundariedGraph)
    lines = [f"graph {g.n}"] + [f"e {u} {v}" for u, v in sorted((g.graph if bib else g).edges)]
    if bib and (g.p1 or g.p2):
        lines += ["p1 " + " ".join(map(str, g.p1)), "p2 " + " ".join(map(str, g.p2))]
    return "\n".join(lines) + "\n"


# -- JSON text and gadget files ------------------------------------------


def json_value(text: str):
    """The value of JSON text, the library's one JSON decoder: circuit, SGR
    and decomposition text and the CLI's gadget, family and decomposition
    files all go through it. Text that is not JSON is a ParseError with the
    line, the column and the decoder's message; so is a number past int()'s
    digit limit, or deep nesting."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        where = f"line {exc.lineno}, column {exc.colno}"
        raise ParseError(f"invalid JSON at {where}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def json_int(value, what) -> int:
    """value if it is a JSON integer; a bool, a float, a string or any
    other value is a ParseError naming what."""
    if type(value) is not int:
        raise ParseError(f"{what} is {value!r:.40}, not an integer")
    return value


def text_int(token: str, what) -> int:
    """token as a plain decimal integer: ASCII digits with an optional
    leading "-". int() alone would also take "+", "_" and non-ASCII digits;
    anything else, or more digits than int() converts, is a ParseError
    naming what."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{what} is {token!r:.40}, not an integer")
    try:
        return int(token)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ParseError(f"{what} has {len(digits)} digits, too many") from None


def json_ints(value, what) -> tuple:
    """A JSON list of integers as a tuple, each entry checked by json_int."""
    if not isinstance(value, list):
        raise ParseError(f"{what} is {value!r:.40}, not a list")
    return tuple(json_int(v, what) for v in value)


def bib_from_json_obj(obj) -> BiboundariedGraph:
    """The gadget of a JSON {"n", "edges", "p1", "p2"} object; every number
    must be a JSON integer (json_int), else ParseError."""
    try:
        n = json_int(obj["n"], "n")
        edges = [json_ints(e, "an edge") for e in obj["edges"]]
        p1, p2 = json_ints(obj.get("p1", []), "p1"), json_ints(obj.get("p2", []), "p2")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed graph object: {exc}") from exc
    if any(len(e) != 2 for e in edges):
        raise ParseError("an edge is not a [u, v] pair")
    return BiboundariedGraph(Digraph(n, edges), p1, p2)


def bib_to_json_obj(b: BiboundariedGraph):
    return {
        "n": b.n,
        "edges": sorted([u, v] for u, v in b.graph.edges),
        "p1": list(b.p1),
        "p2": list(b.p2),
    }
