"""Tree decompositions: validity, width, degree-3 normalization, pointed
gluing, the chain-decomposition correspondence, and exact treewidth."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    BadAnchorBags,
    BadVertex,
    EmptyDecomposition,
    EmptyWord,
    NotALeaf,
    ParseError,
    TooLarge,
)
from .graph import BiboundariedGraph, Digraph, _glue_map, glue


@dataclass(frozen=True)
class TreeDecomposition:
    """Rooted tree with one bag per node; parents[root] == -1."""

    root: int
    parents: tuple
    bags: tuple  # of frozensets
    pointed_leaf: int | None = None

    def __init__(self, root, parents, bags, pointed_leaf=None):
        parents = tuple(parents)
        bags = tuple(frozenset(b) for b in bags)
        n = len(parents)
        if n == 0 or len(bags) != n:
            raise EmptyDecomposition("need one bag per tree node")
        if not 0 <= root < n or parents[root] != -1:
            raise BadVertex("root must exist and have parent -1")
        for i, p in enumerate(parents):
            if i != root and not 0 <= p < n:
                raise BadVertex(f"node {i} has invalid parent {p}")
        # connected & acyclic: every node must reach the root
        for i in range(n):
            seen = set()
            j = i
            while j != root:
                if j in seen:
                    raise BadVertex("parent pointers contain a cycle")
                seen.add(j)
                j = parents[j]
        if pointed_leaf is not None:
            children = self._children_of(parents, n)
            if not 0 <= pointed_leaf < n or children[pointed_leaf]:
                raise NotALeaf(f"node {pointed_leaf} is not a leaf")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "bags", bags)
        object.__setattr__(self, "pointed_leaf", pointed_leaf)

    @staticmethod
    def _children_of(parents, n):
        children = [[] for _ in range(n)]
        for i, p in enumerate(parents):
            if p != -1:
                children[p].append(i)
        return children

    def children(self):
        return self._children_of(self.parents, len(self.parents))

    @property
    def node_count(self):
        return len(self.parents)

    def degree(self, v):
        """Parent plus children count."""
        kids = sum(1 for p in self.parents if p == v)
        return kids + (0 if v == self.root else 1)


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


def validate(g: Digraph, t: TreeDecomposition):
    """Check the three decomposition conditions against the symmetric
    closure of g. Returns a list of violations; empty means valid."""
    violations = []
    covered = set().union(*t.bags) if t.bags else set()
    for v in range(g.n):
        if v not in covered:
            violations.append(VertexUncovered(v))
    for u, v in sorted(g.edges):
        if not any(u in bag and v in bag for bag in t.bags):
            violations.append(EdgeUncovered(u, v))
    # interpolation = the nodes containing each vertex form a connected subtree
    for v in range(g.n):
        holders = [i for i, bag in enumerate(t.bags) if v in bag]
        if len(holders) <= 1:
            continue
        holder_set = set(holders)
        # climb from each holder to the highest holder; every step inside
        # the subtree between holders must itself hold v
        depths = {}
        for i in holders:
            d, j = 0, i
            while j != t.root:
                j = t.parents[j]
                d += 1
            depths[i] = d
        top = min(holders, key=lambda i: depths[i])
        ok = True
        for i in holders:
            j = i
            while j != top and j != t.root:
                j = t.parents[j]
                if j not in holder_set:
                    ok = False
                    break
            if j != top:
                ok = False
            if not ok:
                break
        if not ok:
            violations.append(ConnectivityViolated(v))
    return violations


def width(t: TreeDecomposition) -> int:
    """Largest bag size minus one."""
    if not t.bags:
        raise EmptyDecomposition("no bags")
    return max(len(b) for b in t.bags) - 1


# -- degree-3 normalization ---------------------------------------------


def normalize_degree3(t: TreeDecomposition) -> TreeDecomposition:
    """Split any node of degree > 3 into a chain of nodes with the same bag.

    Width is preserved; the node count never decreases.
    """
    parents = list(t.parents)
    bags = list(t.bags)
    root = t.root

    def degree(v):
        kids = sum(1 for p in parents if p == v)
        return kids + (0 if v == root else 1)

    changed = True
    while changed:
        changed = False
        for v in range(len(parents)):
            if degree(v) <= 3:
                continue
            kids = [i for i, p in enumerate(parents) if p == v]
            # keep the first child, push the rest below a duplicate bag
            dup = len(parents)
            parents.append(v)
            bags.append(bags[v])
            for k in kids[1:]:
                parents[k] = dup
            changed = True
            break
    return TreeDecomposition(root, parents, bags, t.pointed_leaf)


# -- pointed gluing ------------------------------------------------------


def subtree_nodes(t: TreeDecomposition, v: int):
    """Nodes of the largest subtree rooted at v."""
    children = t.children()
    out = []
    stack = [v]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(children[u])
    return out


def subtree_replace(t: TreeDecomposition, v: int, u: TreeDecomposition) -> TreeDecomposition:
    """Replace the largest subtree of t rooted at v with the tree u."""
    if not 0 <= v < t.node_count:
        raise BadVertex(f"node {v} out of range")
    removed = set(subtree_nodes(t, v))
    keep = [i for i in range(t.node_count) if i not in removed]
    if v == t.root and not keep:
        return u
    remap = {old: new for new, old in enumerate(keep)}
    offset = len(keep)
    parents = [remap[t.parents[i]] if t.parents[i] != -1 else -1 for i in keep]
    bags = [t.bags[i] for i in keep]
    anchor = t.parents[v]
    for i in range(u.node_count):
        if i == u.root:
            parents.append(remap[anchor] if anchor != -1 else -1)
        else:
            parents.append(u.parents[i] + offset)
        bags.append(u.bags[i])
    root = remap[t.root] if t.root not in removed else offset + u.root
    pointed = None if u.pointed_leaf is None else u.pointed_leaf + offset
    return TreeDecomposition(root, parents, bags, pointed)


def glue_pointed(t: TreeDecomposition, u: TreeDecomposition) -> TreeDecomposition:
    """t ⊕ u at t's pointed leaf; the result's pointed leaf comes from u."""
    if t.pointed_leaf is None:
        raise NotALeaf("left operand has no pointed leaf")
    return subtree_replace(t, t.pointed_leaf, u)


def lambda_fold(family: dict, word) -> TreeDecomposition:
    """Left fold of pointed-leaf gluing over the letters of word."""
    word = list(word)
    if not word:
        raise EmptyWord("lambda requires a nonempty word")
    for letter in word:
        if letter not in family:
            raise BadVertex(f"unknown decomposition index {letter!r}")
        if family[letter].pointed_leaf is None:
            raise NotALeaf(f"decomposition {letter!r} has no pointed leaf")
    acc = family[word[0]]
    for letter in word[1:]:
        acc = glue_pointed(acc, family[letter])
    return acc


def _relabel_bags(t: TreeDecomposition, vmap) -> TreeDecomposition:
    return TreeDecomposition(
        t.root,
        t.parents,
        [frozenset(vmap[v] for v in bag) for bag in t.bags],
        t.pointed_leaf,
    )


def decomposition_of_delta(gamma: dict, decs: dict, word) -> TreeDecomposition:
    """Decomposition of the glued chain, bags relabeled through the same
    canonical maps as the chain itself.

    Requires, per member: the root bag is P1 of its gadget and the pointed
    leaf bag is P2 of its gadget.
    """
    word = list(word)
    if not word:
        raise EmptyWord("empty word")
    for letter in word:
        gadget, dec = gamma[letter], decs[letter]
        if dec.pointed_leaf is None:
            raise BadAnchorBags(f"decomposition {letter!r} has no pointed leaf")
        if dec.bags[dec.root] != frozenset(gadget.p1):
            raise BadAnchorBags(f"root bag of {letter!r} is not P1 of its gadget")
        if dec.bags[dec.pointed_leaf] != frozenset(gadget.p2):
            raise BadAnchorBags(f"pointed-leaf bag of {letter!r} is not P2 of its gadget")
    acc_graph = gamma[word[0]]
    acc_dec = decs[word[0]]
    for letter in word[1:]:
        b = gamma[letter]
        vmap, _ = _glue_map(acc_graph, b)
        acc_dec = glue_pointed(acc_dec, _relabel_bags(decs[letter], vmap))
        acc_graph = glue(acc_graph, b)
    return acc_dec


# -- exact treewidth -----------------------------------------------------


def _symmetric_adj(g: Digraph):
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _elim_reach(adj, eliminated, v):
    """Neighbors of v through paths whose interior lies in the eliminated set."""
    seen = {v}
    stack = [v]
    out = set()
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in seen:
                continue
            seen.add(w)
            if w in eliminated:
                stack.append(w)
            else:
                out.add(w)
    return out


def treewidth_exact(g: Digraph) -> int:
    """Exact treewidth of the symmetric closure, for graphs of size <= 10.

    Dynamic program over subsets of eliminated vertices (equivalent to a
    minimum over all elimination orderings).
    """
    if g.n > 10:
        raise TooLarge("treewidth_exact is limited to 10 vertices")
    if g.n == 0:
        return -1
    adj = _symmetric_adj(g)
    from functools import lru_cache

    all_mask = (1 << g.n) - 1

    @lru_cache(maxsize=None)
    def best(mask):
        if mask == all_mask:
            return -1
        eliminated = {i for i in range(g.n) if (mask >> i) & 1}
        out = g.n
        for v in range(g.n):
            if (mask >> v) & 1:
                continue
            deg = len(_elim_reach(adj, eliminated, v))
            out = min(out, max(deg, best(mask | (1 << v))))
        return out

    return best(0)


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
        return TreeDecomposition(
            obj["root"], obj["parents"], obj["bags"], obj.get("pointed_leaf")
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed decomposition object: {exc}") from exc


def serialize(t: TreeDecomposition) -> str:
    return json.dumps(to_json_obj(t))


def parse(text: str) -> TreeDecomposition:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return from_json_obj(obj)
