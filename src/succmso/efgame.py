"""MSO Ehrenfeucht-Fraïssé games on tiny graphs, the idempotence search
q(G, m), the explicit recursion bounding it, and saturating-graph scans.

"Rank" is quantifier rank, the maximal quantifier nesting depth (mso.rank):
an m-move game decides agreement on all MSO sentences of rank <= m."""

from __future__ import annotations

from .errors import BadParam, BoundTooLarge, EmptyGraph, TooLarge
from .graph import Digraph, disjoint_union, power_union
from .mso import CompiledFormula

_MAX_VERTICES = 5
_MAX_MOVES = 3


def ef_equiv(g: Digraph, h: Digraph, m: int) -> bool:
    """Duplicator wins the m-move game where Spoiler freely mixes point and
    set moves; equivalent to agreement on all MSO sentences of quantifier
    rank (nesting depth) <= m.

    Duplicator survives a position iff the pebbles induce a partial map that
    preserves =, E (both ways) and membership in corresponding chosen sets.
    Every position searched satisfies this, so each move is checked only
    against the position it extends: a new pebble pair against the earlier
    pebbles, its own loop bit and every chosen set, a new set pair against
    every pebble. Edges are read from the successor masks."""
    if m < 0:
        raise BadParam(f"move count must be nonnegative, not {m}")
    if g.n > _MAX_VERTICES or h.n > _MAX_VERTICES or m > _MAX_MOVES:
        raise TooLarge(
            f"ef_equiv guard: |g|,|h| <= {_MAX_VERTICES} and m <= {_MAX_MOVES}"
        )
    gs, hs = g.successor_masks, h.successor_masks
    memo = {}

    def point_ok(pg, ph, sg, sh, a, b):
        ra, rb = gs[a], hs[b]
        if (ra >> a ^ rb >> b) & 1:
            return False
        for x, y in zip(pg, ph):
            if (x == a) != (y == b):
                return False
            if (gs[x] >> a ^ hs[y] >> b) & 1 or (ra >> x ^ rb >> y) & 1:
                return False
        for s, t in zip(sg, sh):
            if (s >> a ^ t >> b) & 1:
                return False
        return True

    def set_ok(pg, ph, s, t):
        for x, y in zip(pg, ph):
            if (s >> x ^ t >> y) & 1:
                return False
        return True

    def wins(pg, ph, sg, sh, left):
        if left == 0:
            return True
        key = (pg, ph, sg, sh, left)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = True
        # Spoiler: any board, point or set move; Duplicator answers in kind
        for spoiler_on_g in (True, False):
            a, b = (g, h) if spoiler_on_g else (h, g)
            for move in range(a.n):
                answered = False
                for reply in range(b.n):
                    x, y = (move, reply) if spoiler_on_g else (reply, move)
                    if point_ok(pg, ph, sg, sh, x, y) and wins(
                        pg + (x,), ph + (y,), sg, sh, left - 1
                    ):
                        answered = True
                        break
                if not answered:
                    result = False
                    break
            if not result:
                break
            for move in range(1 << a.n):
                answered = False
                for reply in range(1 << b.n):
                    s, t = (move, reply) if spoiler_on_g else (reply, move)
                    if set_ok(pg, ph, s, t) and wins(
                        pg, ph, sg + (s,), sh + (t,), left - 1
                    ):
                        answered = True
                        break
                if not answered:
                    result = False
                    break
            if not result:
                break
        memo[key] = result
        return result

    return wins((), (), (), (), m)


class NotFound:
    """Sentinel: no idempotence exponent within the searched range."""

    def __repr__(self):
        return "NotFound"


NOT_FOUND = NotFound()


def q_search(g: Digraph, m: int, q_max: int):
    """Least q <= q_max with ⊔^q g equivalent (rank m) to ⊔^(q+1) g."""
    if g.n == 0:
        raise EmptyGraph("q_search needs a nonempty graph")
    if m < 0:
        raise BadParam(f"move count must be nonnegative, not {m}")
    for q in range(1, q_max + 1):
        if ef_equiv(power_union(g, q), power_union(g, q + 1), m):
            return q
    return NOT_FOUND


def q_bound(size_g: int, m1: int, m2: int) -> int:
    """Exact value of the recursive upper bound on the idempotence exponent
    for a graph of the given size, split into point and set moves."""
    if size_g < 0 or m1 < 0 or m2 < 0:
        raise BoundTooLarge("arguments must be nonnegative")
    if m2 == 0:
        return m1
    prev = q_bound(size_g, m1, m2 - 1)
    exponent = size_g * (prev + m1 + m2)
    if exponent > 10**6:
        raise BoundTooLarge(f"exponent {exponent} exceeds the guard (10^6)")
    return 1 << exponent


def q_bound_total(size_g: int, m: int) -> int:
    """Maximum of q_bound over all splits m1 + m2 = m."""
    if m < 0:
        raise BoundTooLarge("arguments must be nonnegative")
    return max(q_bound(size_g, m1, m - m1) for m1 in range(m + 1))


# -- saturating scans ----------------------------------------------------

SUFFICIENT = "Sufficient"
FORBIDDEN = "Forbidden"
MIXED = "Mixed"


def saturating_scan(omega: Digraph, formula, battery) -> str:
    """Empirically classify omega against the battery: Sufficient if every
    omega ⊔ G models the sentence, Forbidden if none does, Mixed otherwise."""
    compiled = CompiledFormula(formula)
    verdicts = {compiled.eval(disjoint_union(omega, g)) for g in battery}
    if verdicts <= {True}:
        return SUFFICIENT
    if verdicts <= {False}:
        return FORBIDDEN
    return MIXED
