"""Explicit digraphs, biboundaried graphs, gluing, and word-indexed chains."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .errors import BadVertex, EmptyWord, ParseError, PortArityMismatch, TooLarge


@dataclass(frozen=True)
class Digraph:
    """Digraph on vertices {0, ..., n-1}; loops allowed, no multi-edges."""

    n: int
    edges: frozenset

    def __init__(self, n, edges=()):
        if n < 0:
            raise BadVertex("vertex count must be nonnegative")
        edges = frozenset((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise BadVertex(f"edge ({u}, {v}) out of range for {n} vertices")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    def successors(self, u):
        """Out-neighborhood G(u) as a sorted list."""
        if not 0 <= u < self.n:
            raise BadVertex(f"vertex {u} out of range")
        return list(self._successor_index[u])

    @cached_property
    def _successor_index(self):
        """Sorted out-neighbours of every vertex, built on the first
        successors call, so graphs that are never queried pay nothing."""
        index = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges):
            index[u].append(v)
        return index


@dataclass(frozen=True)
class BiboundariedGraph:
    """Digraph with two equal-length sequences of distinct ports."""

    graph: Digraph
    p1: tuple
    p2: tuple

    def __init__(self, graph, p1, p2):
        p1, p2 = tuple(p1), tuple(p2)
        if len(p1) != len(p2):
            raise PortArityMismatch(f"|p1|={len(p1)} != |p2|={len(p2)}")
        for seq, name in ((p1, "p1"), (p2, "p2")):
            if len(set(seq)) != len(seq):
                raise BadVertex(f"{name} has repeated vertices")
            for v in seq:
                if not 0 <= v < graph.n:
                    raise BadVertex(f"{name} vertex {v} out of range")
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
    """Disjoint union of k copies of a; k = 0 gives the empty graph."""
    if k < 0:
        raise BadVertex("k must be nonnegative")
    out = Digraph(0)
    for _ in range(k):
        out = disjoint_union(out, a)
    return out


def _glue_map(a: BiboundariedGraph, b: BiboundariedGraph):
    """Vertex map applied to b's labels when computing a ⊕ b.

    a keeps its labels; the i-th vertex of P1(b) goes to the i-th vertex of
    P2(a); remaining b-vertices get fresh labels |a|, |a|+1, ... in
    increasing order of their original labels.
    """
    if a.ell != b.ell:
        raise PortArityMismatch(f"port counts {a.ell} and {b.ell} differ")
    vmap = {}
    for i, p in enumerate(b.p1):
        vmap[p] = a.p2[i]
    fresh = a.n
    for v in range(b.n):
        if v not in vmap:
            vmap[v] = fresh
            fresh += 1
    return vmap, fresh


def glue(a: BiboundariedGraph, b: BiboundariedGraph) -> BiboundariedGraph:
    """The gluing a ⊕ b: P2(a) identified positionally with P1(b)."""
    vmap, total = _glue_map(a, b)
    edges = set(a.graph.edges)
    edges.update((vmap[u], vmap[v]) for u, v in b.graph.edges)
    result = Digraph(total, edges)
    return BiboundariedGraph(result, a.p1, tuple(vmap[v] for v in b.p2))


def delta(gamma: dict, word) -> BiboundariedGraph:
    """Left fold of ⊕ over the gadgets named by the letters of word."""
    word = list(word)
    if not word:
        raise EmptyWord("delta requires a nonempty word")
    for letter in word:
        if letter not in gamma:
            raise BadVertex(f"unknown gadget index {letter!r}")
    acc = gamma[word[0]]
    for letter in word[1:]:
        acc = glue(acc, gamma[letter])
    return acc


def graph_equal(a: Digraph, b: Digraph) -> bool:
    """Label-exact equality."""
    return a.n == b.n and a.edges == b.edges


def isomorphic_small(a: Digraph, b: Digraph) -> bool:
    """Brute-force isomorphism test for graphs with at most 10 vertices."""
    if a.n > 10 or b.n > 10:
        raise TooLarge("isomorphic_small is limited to 10 vertices")
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    for perm in permutations(range(a.n)):
        if all((perm[u], perm[v]) in b.edges for u, v in a.edges):
            return True
    return False


# -- text format ---------------------------------------------------------


def parse_graph(text: str):
    """Parse the line-oriented graph format.

    Returns a BiboundariedGraph when p1/p2 lines are present, else a Digraph.
    """
    n = None
    edges = []
    p1 = p2 = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "graph" and len(parts) == 2:
                n = int(parts[1])
            elif parts[0] == "e" and len(parts) == 3:
                edges.append((int(parts[1]), int(parts[2])))
            elif parts[0] == "p1":
                p1 = tuple(int(v) for v in parts[1:])
            elif parts[0] == "p2":
                p2 = tuple(int(v) for v in parts[1:])
            else:
                raise ValueError
        except ValueError:
            raise ParseError(f"line {lineno}: cannot parse {raw!r}") from None
    if n is None:
        raise ParseError("missing 'graph <n>' line")
    g = Digraph(n, edges)
    if p1 is None and p2 is None:
        return g
    return BiboundariedGraph(g, p1 or (), p2 or ())


def format_graph(g) -> str:
    """Serialize a Digraph or BiboundariedGraph to the text format."""
    if isinstance(g, BiboundariedGraph):
        lines = [f"graph {g.n}"]
        lines += [f"e {u} {v}" for u, v in sorted(g.graph.edges)]
        if g.p1 or g.p2:
            lines.append("p1 " + " ".join(str(v) for v in g.p1))
            lines.append("p2 " + " ".join(str(v) for v in g.p2))
    else:
        lines = [f"graph {g.n}"]
        lines += [f"e {u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


# -- JSON gadget files ---------------------------------------------------


def bib_from_json_obj(obj) -> BiboundariedGraph:
    try:
        g = Digraph(obj["n"], [tuple(e) for e in obj["edges"]])
        return BiboundariedGraph(g, obj.get("p1", ()), obj.get("p2", ()))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed graph object: {exc}") from exc


def bib_to_json_obj(b: BiboundariedGraph):
    return {
        "n": b.n,
        "edges": sorted([u, v] for u, v in b.graph.edges),
        "p1": list(b.p1),
        "p2": list(b.p2),
    }
