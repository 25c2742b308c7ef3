"""MSO Ehrenfeucht-Fraïssé games on tiny graphs, the idempotence search
q(G, m), the explicit recursion bounding it, and saturating-graph scans.

"Rank" is quantifier rank, the maximal quantifier nesting depth (mso.rank):
an m-move game decides agreement on all MSO sentences of rank <= m."""

from __future__ import annotations

from .errors import BoundTooLarge, EmptyGraph, TooLarge
from .graph import Digraph, disjoint_union, power_union
from .mso import CompiledFormula, parse, rank

_MAX_VERTICES = 5
_MAX_MOVES = 3


def _consistent(g, h, pg, ph, sg, sh):
    """Duplicator survives iff the partial map preserves =, E (both ways)
    and membership in corresponding chosen sets."""
    for i in range(len(pg)):
        for j in range(len(pg)):
            if (pg[i] == pg[j]) != (ph[i] == ph[j]):
                return False
            if ((pg[i], pg[j]) in g.edges) != ((ph[i], ph[j]) in h.edges):
                return False
        for k in range(len(sg)):
            if ((sg[k] >> pg[i]) & 1) != ((sh[k] >> ph[i]) & 1):
                return False
    return True


def ef_equiv(g: Digraph, h: Digraph, m: int) -> bool:
    """Duplicator wins the m-move game where Spoiler freely mixes point and
    set moves; equivalent to agreement on all MSO sentences of quantifier
    rank (nesting depth) <= m."""
    if g.n > _MAX_VERTICES or h.n > _MAX_VERTICES or m > _MAX_MOVES:
        raise TooLarge(
            f"ef_equiv guard: |g|,|h| <= {_MAX_VERTICES} and m <= {_MAX_MOVES}"
        )
    memo = {}

    def wins(pg, ph, sg, sh, left):
        if not _consistent(g, h, pg, ph, sg, sh):
            return False
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
                    npg = pg + (move,) if spoiler_on_g else pg + (reply,)
                    nph = ph + (reply,) if spoiler_on_g else ph + (move,)
                    if wins(npg, nph, sg, sh, left - 1):
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
                    nsg = sg + (move,) if spoiler_on_g else sg + (reply,)
                    nsh = sh + (reply,) if spoiler_on_g else sh + (move,)
                    if wins(pg, ph, nsg, nsh, left - 1):
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
    return max(q_bound(size_g, m1, m - m1) for m1 in range(m + 1))


# -- sentence battery ----------------------------------------------------

_SENTENCE_TEXTS = (
    "ex x. E(x,x)",
    "all x. E(x,x)",
    "ex x. x=x",
    "all x. ~E(x,x)",
    "ex x. ex y. E(x,y)",
    "all x. all y. E(x,y)",
    "ex x. all y. E(x,y)",
    "all x. ex y. E(x,y)",
    "ex x. ex y. ~x=y",
    "all x. all y. x=y",
    "ex x. ex y. (E(x,y) & E(y,x))",
    "all x. ex y. ~x=y",
    "ex x. all y. (E(x,y) -> x=y)",
    "ex X. all x. x in X",
    "ex X. ex x. x in X",
    "all X. ex x. x in X",
    "ex X. all x. ~x in X",
    "ex x. ex y. (E(x,y) & ~x=y)",
    "all x. all y. (E(x,y) -> E(y,x))",
    "ex x. ex y. (E(x,y) | E(y,x))",
)


def sentence_battery(max_rank=None):
    """Fixed 20-sentence probe set of quantifier rank (nesting depth) <= 2,
    optionally filtered down to a rank cap: four sentences of rank 1, then
    sixteen of rank 2."""
    sentences = [parse(text) for text in _SENTENCE_TEXTS]
    if max_rank is None:
        return sentences
    return [f for f in sentences if rank(f) <= max_rank]


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
