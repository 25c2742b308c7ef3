"""MSO Ehrenfeucht-Fraïssé games on tiny graphs, the idempotence search
q(G, m), the explicit recursion bounding it, and saturating-graph scans."""

from __future__ import annotations

from .errors import BadParam, BoundTooLarge, EmptyGraph, TooLarge
from .graph import Digraph, disjoint_union, power_union

_MAX_VERTICES = 5
_MAX_MOVES = 3
# q_bound refuses an exponent above 10^_MAX_EXPONENT_LOG10
_MAX_EXPONENT_LOG10 = 6


def _check_moves(m):
    """A move count is a nonnegative int. A float would recurse without
    end, and a bool is refused too, since True would play one move."""
    if type(m) is not int:
        raise BadParam(f"move count must be an int, not {m!r}")
    if m < 0:
        raise BadParam(f"move count must be nonnegative, not {m}")


def ef_equiv(g: Digraph, h: Digraph, m: int) -> bool:
    """Duplicator wins the m-move game where Spoiler freely mixes point and
    set moves; equivalent to agreement on all MSO sentences of quantifier
    rank (the maximal quantifier nesting depth, mso.CompiledFormula.rank)
    <= m.

    Duplicator survives a position iff the pebbles induce a partial map that
    preserves =, E (both ways) and membership in corresponding chosen sets.
    Every position searched satisfies this, and Duplicator only ever tries
    replies that keep it so, in increasing order:

    - a point reply b to Spoiler's a is a set bit of a candidate mask on the
      other board: b's loop bit, its equality with each pebble, its edges to
      and from each pebble and its membership in each chosen set must match
      a's, each one mask operation on the successor and predecessor masks;
    - a set reply t to Spoiler's s agrees with s on the pebbles, so only its
      bits on unpebbled vertices are free, and they run over the submasks
      of the unpebbled mask.

    With one move left a point move survives iff its candidate mask is
    nonzero and a set move always survives (its forced bits are consistent),
    so such positions are decided without recursion and are not memoized.

    Spoiler tries each set move only up to complement: only the s whose top
    bit (vertex n - 1 of its board) is clear, and s = 0 on an empty board.
    This is exact. Complementing one chosen pair on both boards, X to ~X
    and Y to ~Y, keeps every atomic test, since x in X iff y in Y exactly
    when x in ~X iff y in ~Y. Applied to every later position, it maps
    Duplicator's replies t to s (those that agree with s on the pebbles)
    one to one onto the replies to ~s, and a winning line after (s, t)
    onto one after (~s, ~t). So Duplicator survives s iff it survives ~s."""
    _check_moves(m)
    if g.n > _MAX_VERTICES or h.n > _MAX_VERTICES or m > _MAX_MOVES:
        raise TooLarge(
            f"ef_equiv guard: |g|,|h| <= {_MAX_VERTICES} and m <= {_MAX_MOVES}"
        )
    boards = []
    for b in (g, h):
        succ = b.successor_masks
        loops = sum(1 << v for v in range(b.n) if succ[v] >> v & 1)
        boards.append((b.n, (1 << b.n) - 1, loops, succ, b.predecessor_masks))
    # Spoiler's board, then Duplicator's
    sides = ((True, boards[0], boards[1]), (False, boards[1], boards[0]))
    memo = {}

    def wins(pg, ph, sg, sh, left):
        key = (pg, ph, sg, sh, left)
        cached = memo.get(key)
        if cached is None:
            cached = memo[key] = answers(pg, ph, sg, sh, left)
        return cached

    def answers(pg, ph, sg, sh, left):
        """Duplicator has a surviving reply to every Spoiler move; a reply
        leaves left - 1 moves, and only positions with two or more moves
        left go through the memo."""
        step = wins if left > 2 else answers
        for on_g, (n_a, _, loops_a, succ_a, pred_a), (_, full_b, loops_b, succ_b, pred_b) in sides:
            pebbles = tuple(zip(pg, ph) if on_g else zip(ph, pg))
            sets = tuple(zip(sg, sh) if on_g else zip(sh, sg))
            for a in range(n_a):
                replies = loops_b if loops_a >> a & 1 else full_b & ~loops_b
                for x, y in pebbles:
                    replies &= 1 << y if x == a else ~(1 << y)
                    replies &= succ_b[y] if succ_a[x] >> a & 1 else ~succ_b[y]
                    replies &= pred_b[y] if pred_a[x] >> a & 1 else ~pred_b[y]
                for u, v in sets:
                    replies &= v if u >> a & 1 else ~v
                if left == 1:
                    if not replies:
                        return False
                    continue
                while replies:
                    low = replies & -replies
                    b = low.bit_length() - 1
                    if on_g:
                        survived = step(pg + (a,), ph + (b,), sg, sh, left - 1)
                    else:
                        survived = step(pg + (b,), ph + (a,), sg, sh, left - 1)
                    if survived:
                        break
                    replies ^= low
                else:
                    return False
            if left == 1:
                continue
            free = full_b
            for _, y in pebbles:
                free &= ~(1 << y)
            for s in range(1 << max(n_a - 1, 0)):  # one of each pair s, ~s
                forced = 0
                for x, y in pebbles:
                    if s >> x & 1:
                        forced |= 1 << y
                sub = 0
                while True:
                    t = forced | sub
                    if on_g:
                        survived = step(pg, ph, sg + (s,), sh + (t,), left - 1)
                    else:
                        survived = step(pg, ph, sg + (t,), sh + (s,), left - 1)
                    if survived:
                        break
                    if sub == free:
                        return False
                    sub = (sub - free) & free
        return True

    return m == 0 or answers((), (), (), (), m)


def q_search(g: Digraph, m: int, q_max: int):
    """Least q <= q_max with ⊔^q g equivalent (rank m) to ⊔^(q+1) g, or
    None if there is none."""
    if g.n == 0:
        raise EmptyGraph("q_search needs a nonempty graph")
    _check_moves(m)
    if type(q_max) is not int:
        raise BadParam(f"q_max must be an int, not {q_max!r}")
    for q in range(1, q_max + 1):
        if ef_equiv(power_union(g, q), power_union(g, q + 1), m):
            return q
    return None


def _check_bound_args(*args):
    """BoundTooLarge unless every argument is a nonnegative exact int (a
    bool is refused)."""
    if any(type(a) is not int for a in args):
        raise BoundTooLarge(f"arguments must be ints, not {args!r}")
    if min(args) < 0:
        raise BoundTooLarge("arguments must be nonnegative")


def q_bound(size_g: int, m1: int, m2: int) -> int:
    """Exact value of the recursive upper bound on the idempotence exponent
    for a graph of the given size, split into point and set moves:
    q(m1, 0) = m1 and q(m1, m2) = 2^(size_g * (q(m1, m2 - 1) + m1 + m2)),
    each exponent at most 10^_MAX_EXPONENT_LOG10 (10^6). For size 0 every
    exponent is 0, so the bound is 1 once m2 > 0."""
    _check_bound_args(size_g, m1, m2)
    if size_g == 0:
        return m1 if m2 == 0 else 1
    q = m1
    for j in range(1, m2 + 1):
        exponent = size_g * (q + m1 + j)
        if exponent > 10**_MAX_EXPONENT_LOG10:
            shown = exponent if exponent < 10**18 else f"of {exponent.bit_length()} bits"
            raise BoundTooLarge(f"exponent {shown} exceeds the guard (10^{_MAX_EXPONENT_LOG10})")
        q = 1 << exponent
    return q


def q_bound_total(size_g: int, m: int) -> int:
    """Maximum of q_bound over all splits m1 + m2 = m. For size 0 that is
    m (the split m1 = m); for size >= 1 the split m1 = 0 comes first and
    trips the exponent guard within a few steps once m > 4."""
    _check_bound_args(size_g, m)
    if size_g == 0:
        return m
    return max(q_bound(size_g, m1, m - m1) for m1 in range(m + 1))


# -- saturating scans ----------------------------------------------------

SUFFICIENT = "Sufficient"
FORBIDDEN = "Forbidden"
MIXED = "Mixed"


def saturating_scan(omega: Digraph, sentence, battery) -> str:
    """Empirically classify omega against the battery: Sufficient if every
    omega ⊔ G models the sentence (an mso.CompiledFormula), Forbidden if
    none does, Mixed otherwise. An empty battery would be Sufficient without
    a check, so it is refused with BadParam."""
    battery = tuple(battery)
    if not battery:
        raise BadParam("saturating_scan needs at least one graph in the battery")
    verdicts = {sentence.eval(disjoint_union(omega, g)) for g in battery}
    if verdicts <= {True}:
        return SUFFICIENT
    if verdicts <= {False}:
        return FORBIDDEN
    return MIXED
