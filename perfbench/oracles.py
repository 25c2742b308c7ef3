"""Input generators and expected answers that do not use succmso.

Every expected answer the benchmark checks comes from here, from the
benchmark's own gadget data, or from a known mathematical fact (an
isomorphic copy is EF-equivalent; a k-tree has treewidth k).
"""

from __future__ import annotations

from itertools import combinations

# -- CNF -----------------------------------------------------------------


def random_cnf(rng, s, n_clauses, offset):
    """n_clauses clauses of distinct variables, each literal negated with
    probability 1/2. Widths cycle through 1..min(3, s) from offset, so the
    literal count, which sets the circuit size, does not depend on the seed."""
    clauses = []
    for j in range(n_clauses):
        width = 1 + (j + offset) % min(3, s)
        clauses.append(
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, s + 1), width))
        )
    return clauses


def brute_force_sat(s, clauses):
    """Satisfiable iff some of the 2^s assignments meets every clause."""
    for bits in range(1 << s):
        if all(
            any(((bits >> (abs(lit) - 1)) & 1) == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def chain_size(g2_n, g1_n, g3_n, k, s):
    """Vertex count of the glued chain: prefix without its out-ports, 2^s
    middle copies without their out-ports, and the whole suffix."""
    return (g2_n - k) + (1 << s) * (g1_n - k) + g3_n


# -- digraphs ------------------------------------------------------------


def all_digraphs(n):
    """Every edge set on n labelled vertices, loops included."""
    pairs = [(u, v) for u in range(n) for v in range(n)]
    for mask in range(1 << len(pairs)):
        yield [e for i, e in enumerate(pairs) if (mask >> i) & 1]


def random_digraph(rng, n, p):
    """round(p * n^2) distinct edges, loops allowed. The edge count is set by
    p, not drawn, so only the graph's shape depends on the seed."""
    pairs = [(u, v) for u in range(n) for v in range(n)]
    return sorted(rng.sample(pairs, round(p * len(pairs))))


def near_dag(rng, n, p, back_edge, loop):
    """A share p of the forward pairs along a random vertex order, plus
    optionally one back edge and one loop. The back edge reverses a forward
    edge, so the graph has a nontrivial cycle exactly when back_edge is set.
    As in random_digraph, the forward edge count is set by p."""
    order = list(range(n))
    rng.shuffle(order)
    forward = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    edges = set(rng.sample(forward, round(p * len(forward))))
    if back_edge:
        u, v = rng.choice(sorted(edges))
        edges.add((v, u))
    if loop:
        v = rng.randrange(n)
        edges.add((v, v))
    return sorted(edges)


def relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def k_tree(rng, n, k):
    """A random k-tree on n > k vertices with each edge oriented at random.
    Its treewidth is exactly k."""
    edges = set(combinations(range(k + 1), 2))
    cliques = [c for c in combinations(range(k + 1), k)]
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        edges.update((u, v) for u in base)
        cliques.extend(tuple(sorted(set(base) - {u} | {v})) for u in base)
    return sorted((u, v) if rng.random() < 0.5 else (v, u) for u, v in edges)


def _successors(n, edges):
    succ = [[] for _ in range(n)]
    for u, v in edges:
        succ[u].append(v)
    return succ


def has_loop(n, edges):
    return any(u == v for u, v in edges)


def total_out_degree(n, edges):
    return len({u for u, _ in edges}) == n


def has_reach_pair(n, edges):
    """Some y != x is reachable from some x: true iff a non-loop edge exists."""
    return any(u != v for u, v in edges)


def has_nontrivial_cycle(n, edges):
    """A directed cycle of length >= 2, by Kahn's algorithm on the graph
    without loops: a cycle exists iff some vertex is never freed."""
    succ = _successors(n, [(u, v) for u, v in edges if u != v])
    indeg = [0] * n
    for outs in succ:
        for v in outs:
            indeg[v] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    freed = 0
    while ready:
        u = ready.pop()
        freed += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return freed < n


def mso_answers(n, edges):
    """Expected verdicts of the four sentences, in workloads.SENTENCES order."""
    return (
        has_loop(n, edges),
        total_out_degree(n, edges),
        has_reach_pair(n, edges),
        has_nontrivial_cycle(n, edges),
    )


# -- tree decompositions -------------------------------------------------


def tree_degree_ok(parents, root):
    """Every node has at most three tree neighbours."""
    degree = [0 if i == root else 1 for i in range(len(parents))]
    for p in parents:
        if p != -1:
            degree[p] += 1
    return max(degree) <= 3
