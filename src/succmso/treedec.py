"""Tree decompositions: validity, width, degree-3 normalization, the
chain-decomposition correspondence, and exact treewidth."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import (
    BadAnchorBags,
    BadVertex,
    EmptyDecomposition,
    EmptyWord,
    NotALeaf,
    ParseError,
    TooLarge,
)
from .graph import Digraph, chain_maps, json_int, json_ints, json_value


@dataclass(frozen=True)
class TreeDecomposition:
    """Rooted tree with one bag per node; parents[root] == -1. The root,
    every parent, the pointed leaf and every bag entry are exact ints (not
    bools or floats); anything else raises BadVertex."""

    root: int
    parents: tuple
    bags: tuple  # of frozensets
    pointed_leaf: int | None = None

    def __init__(self, root, parents, bags, pointed_leaf=None):
        try:
            parents = tuple(parents)
        except TypeError as exc:
            raise BadVertex(f"parents {parents!r:.40} is not a sequence of node indices") from exc
        # exact ints, as Digraph takes: a float fails as an index, and a
        # bool is written to JSON as true, which parse refuses. Bag entries
        # are checked before frozenset would fold [1, True] into {1}; any
        # bag but a frozenset is read once into a tuple, so that the check
        # and the frozenset see the same entries
        try:
            bags = [b if type(b) is frozenset else tuple(b) for b in bags]
        except TypeError as exc:  # bags, or a bag in it, is not iterable
            raise BadVertex(f"bags {bags!r:.40} is not a sequence of vertex sets") from exc
        bad = set(map(type, chain.from_iterable(bags))) - {int}
        if bad:
            raise BadVertex(f"a bag entry is a {bad.pop().__name__}, not an int")
        bags = tuple(map(frozenset, bags))
        n = len(parents)
        if n == 0 or len(bags) != n:
            raise EmptyDecomposition("need one bag per tree node")
        leaf = 0 if pointed_leaf is None else pointed_leaf
        bad = [i for i in (root, leaf, *parents) if type(i) is not int]
        if bad:
            raise BadVertex(f"node index {bad[0]!r:.40} is not an int")
        if not 0 <= root < n or parents[root] != -1:
            raise BadVertex("root must exist and have parent -1")
        for i, p in enumerate(parents):
            if i != root and not 0 <= p < n:
                raise BadVertex(f"node {i} has invalid parent {p}")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "bags", bags)
        object.__setattr__(self, "pointed_leaf", pointed_leaf)
        # every other node has one parent in range, so the tree is connected
        # and acyclic iff a walk down from the root reaches all n nodes
        reached, stack = 0, [root]
        while stack:
            reached += 1
            stack.extend(self.children[stack.pop()])
        if reached != n:
            raise BadVertex("parent pointers contain a cycle")
        if pointed_leaf is not None:
            if not 0 <= pointed_leaf < n or self.children[pointed_leaf]:
                raise NotALeaf(f"node {pointed_leaf} is not a leaf")

    @cached_property
    def children(self):
        """Children of every node in increasing order, built once per tree."""
        index = [[] for _ in self.parents]
        for i, p in enumerate(self.parents):
            if p != -1:
                index[p].append(i)
        return tuple(map(tuple, index))


# -- validity ------------------------------------------------------------


@dataclass(frozen=True)
class VertexUncovered:
    vertex: int


@dataclass(frozen=True)
class EdgeUncovered:
    u: int
    v: int


@dataclass(frozen=True)
class ConnectivityViolated:
    vertex: int


_MAX_VALIDATE_VERTICES = 10**6
_MAX_TREEWIDTH_VERTICES = 10


def validate(g: Digraph, t: TreeDecomposition):
    """Check the three decomposition conditions against the symmetric
    closure of g. Returns a list of violations; empty means valid.

    Every vertex in no bag is a violation, so g may have at most
    _MAX_VALIDATE_VERTICES (10^6) vertices; a larger graph raises TooLarge
    before any work is done."""
    if g.n > _MAX_VALIDATE_VERTICES:
        raise TooLarge(f"validate is limited to {_MAX_VALIDATE_VERTICES} vertices, not {g.n}")
    holders = {}
    for i, bag in enumerate(t.bags):
        for v in bag:
            holders.setdefault(v, set()).add(i)
    empty = frozenset()
    violations = [VertexUncovered(v) for v in range(g.n) if v not in holders]
    for u, v in sorted(g.edges):
        if holders.get(u, empty).isdisjoint(holders.get(v, empty)):
            violations.append(EdgeUncovered(u, v))
    # interpolation: the nodes holding v form a connected subtree, that is,
    # exactly one of them has its parent outside the set; a vertex in no bag
    # cannot break it, and a bag entry outside g is not checked
    for v in sorted(holders):
        nodes = holders[v]
        if sum(t.parents[i] not in nodes for i in nodes) > 1 and 0 <= v < g.n:
            violations.append(ConnectivityViolated(v))
    return violations


def width(t: TreeDecomposition) -> int:
    """Largest bag size minus one; TreeDecomposition holds at least one bag."""
    return max(len(b) for b in t.bags) - 1


# -- degree-3 normalization ---------------------------------------------


def normalize_degree3(t: TreeDecomposition) -> TreeDecomposition:
    """Split any node of degree > 3 into a chain of nodes with the same bag.

    Width is preserved; the node count never decreases.
    """
    parents = list(t.parents)
    bags = list(t.bags)
    children = [list(kids) for kids in t.children]
    # one split brings a node to degree <= 3; the duplicate it appends may
    # still be too wide, and the scan reaches it because the list grows
    for v, kids in enumerate(children):
        if len(kids) + (0 if v == t.root else 1) <= 3:
            continue
        # keep the first child, push the rest below a duplicate bag
        dup = len(parents)
        parents.append(v)
        bags.append(bags[v])
        for k in kids[1:]:
            parents[k] = dup
        children.append(kids[1:])
        children[v] = [kids[0], dup]
    return TreeDecomposition(t.root, parents, bags, t.pointed_leaf)


# -- chain decompositions ------------------------------------------------


def decomposition_of_delta(gamma: dict, decs: dict, word) -> TreeDecomposition:
    """Decomposition of the glued chain, bags relabeled through the same
    vertex maps as the chain itself.

    Requires, per member: the root bag is P1 of its gadget and the pointed
    leaf bag is P2 of its gadget. Each next member's root takes the place
    of the pointed leaf. The nodes are numbered in member order, each
    member's in its own order, leaving out the pointed leaf of every member
    but the last. A member's root hangs from the parent of the pointed leaf
    left out before it, or has parent -1 while no node has a parent yet; so
    the root is that of the first member with more than one node, or the
    last member's. The pointed leaf is the last member's.
    """
    word = list(word)
    if not word:
        raise EmptyWord("empty word")
    for letter in dict.fromkeys(word):
        if letter not in gamma:
            raise BadVertex(f"unknown gadget index {letter!r}")
        if letter not in decs:
            raise BadVertex(f"unknown decomposition index {letter!r}")
        gadget, dec = gamma[letter], decs[letter]
        if dec.pointed_leaf is None:
            raise BadAnchorBags(f"decomposition {letter!r} has no pointed leaf")
        if dec.bags[dec.root] != frozenset(gadget.p1):
            raise BadAnchorBags(f"root bag of {letter!r} is not P1 of its gadget")
        if dec.bags[dec.pointed_leaf] != frozenset(gadget.p2):
            raise BadAnchorBags(f"pointed-leaf bag of {letter!r} is not P2 of its gadget")
        if not all(0 <= v < gadget.n for bag in dec.bags for v in bag):
            raise BadVertex(f"a bag of {letter!r} holds a vertex outside its gadget")
    maps, _ = chain_maps(gamma, word)
    # index maps a member's nodes to final numbers; the root's parent -1
    # reads its last entry, hook, the parent of the leaf left out before
    parents, bags, hook, last = [], [], -1, len(word) - 1
    for k, (letter, vmap) in enumerate(zip(word, maps)):
        dec = decs[letter]
        skip = dec.pointed_leaf if k < last else len(dec.parents)
        index = [len(parents) + i - (i > skip) for i in range(len(dec.parents))] + [hook]
        for i, p in enumerate(dec.parents):
            if i != skip:
                parents.append(index[p])
                bags.append(frozenset(vmap[v] for v in dec.bags[i]))
        hook = index[dec.parents[dec.pointed_leaf]]
    return TreeDecomposition(parents.index(-1), parents, bags, index[dec.pointed_leaf])


# -- exact treewidth -----------------------------------------------------


def _simplicial_rule(g: Digraph):
    """The symmetric adjacency of g and what the simplicial rule removes
    from it, as (adj, gone, low): adj[v] is the mask of v's out- and
    in-neighbours, loops dropped, gone the mask of the removed vertices and
    low the largest degree a vertex had when it was removed (-1 if none
    was).

    The rule removes every simplicial vertex (one whose remaining
    neighbours are pairwise adjacent), again and again (Bodlaender, Koster
    and van den Eijkhof, "Pre-processing rules for triangulation of
    probabilistic networks", Computational Intelligence 21(3), 2005). This
    is exact: for a simplicial v, tw(G) = max(deg v, tw(G - v)). Every
    decomposition of G has a bag that holds the clique N[v], and G - v is a
    subgraph of G, so tw(G) is at least both; and a decomposition of G - v
    has a bag that holds the clique N(v), below which a new bag N[v] covers
    v. So v goes first in some optimal ordering, and removing it adds no
    fill edge. A loop is dropped, as it would keep its vertex and every
    neighbour from being simplicial. A chordal graph (every k-tree) is
    removed whole.
    """
    n = g.n
    # symmetric, so a component that v does not touch has no v in its
    # neighbourhood
    adj = [(s | p) & ~(1 << v)
           for v, (s, p) in enumerate(zip(g.successor_masks, g.predecessor_masks))]
    # v is simplicial iff each neighbour u misses no other neighbour; only
    # a removed vertex's neighbours can turn simplicial, so they go back
    # into the to-do mask
    gone, low, todo = 0, -1, (1 << n) - 1
    while todo:
        v = todo.bit_length() - 1
        todo ^= 1 << v
        nbrs = rest = adj[v] & ~gone
        while rest:
            bit = rest & -rest
            if nbrs & ~adj[bit.bit_length() - 1] != bit:
                break
            rest ^= bit
        else:
            gone |= 1 << v
            low = max(low, nbrs.bit_count())
            todo |= nbrs
    return adj, gone, low


def treewidth_exact(g: Digraph) -> int:
    """Exact treewidth of the symmetric closure, for graphs of at most
    _MAX_TREEWIDTH_VERTICES (10) vertices.

    Dynamic program over the set S of eliminated vertices, a bitmask
    (equivalent to a minimum over all elimination orderings). Eliminating v
    after S costs the number of vertices outside S that v reaches through S:
    its neighbours outside S together with the outside neighbourhoods of the
    components of G[S] that it touches (the Q-sets of Bodlaender, Fomin,
    Koster, Kratsch and Thilikos, "On exact algorithms for treewidth", ACM
    TALG 9(1), 2012). S carries its components, each as a vertex mask and
    an outside-neighbourhood mask, so the cost is an OR over them; the
    components of S plus v are those v does not touch, plus v merged with
    those it does. A vertex that costs at least the best width found so far
    cannot lower it and is not expanded.

    The DP starts from the vertices that the simplicial rule removes
    (_simplicial_rule), with no components, and the width is the larger of
    the rule's bound and the DP's. A chordal graph never reaches the DP.
    """
    if g.n > _MAX_TREEWIDTH_VERTICES:
        raise TooLarge(f"treewidth_exact is limited to {_MAX_TREEWIDTH_VERTICES} vertices")
    if g.n == 0:
        return -1
    n = g.n
    adj, gone, low = _simplicial_rule(g)
    full = (1 << n) - 1
    if gone == full:
        return low
    memo = {full: -1}

    def best(mask, comps):
        out = memo.get(mask)
        if out is not None:
            return out
        out = n
        for v in range(n):
            if mask >> v & 1:
                continue
            near = reach = adj[v]
            merged, kept = 1 << v, []
            for comp, nbrs in comps:
                if near & comp:
                    reach |= nbrs
                    merged |= comp
                else:
                    kept.append((comp, nbrs))
            child = mask | 1 << v
            reach &= ~child
            deg = reach.bit_count()
            if deg < out:
                kept.append((merged, reach))
                out = min(out, max(deg, best(child, kept)))
        memo[mask] = out
        return out

    return max(low, best(gone, []))


# -- file format ---------------------------------------------------------


def to_json_obj(t: TreeDecomposition):
    return {
        "root": t.root,
        "parents": list(t.parents),
        "bags": [sorted(b) for b in t.bags],
        "pointed_leaf": t.pointed_leaf,
    }


def from_json_obj(obj) -> TreeDecomposition:
    try:
        root, leaf = json_int(obj["root"], "root"), obj.get("pointed_leaf")
        parents = json_ints(obj["parents"], "parents")
        bags = [json_ints(bag, "a bag") for bag in obj["bags"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed decomposition object: {exc}") from exc
    leaf = None if leaf is None else json_int(leaf, "pointed_leaf")
    return TreeDecomposition(root, parents, bags, leaf)


def serialize(t: TreeDecomposition) -> str:
    return json.dumps(to_json_obj(t))


def parse(text: str) -> TreeDecomposition:
    return from_json_obj(json_value(text))
