"""The SAT-to-succinct-graph reduction compiler.

Gadget layout normalization (``GadgetQuadruple``), the label maps
(``delta_map``), the circuit-free successor relation (``succ_ref``),
circuit compilation (``compile_reduction``), the quadruple builder, pump
checks, and the two single-circuit auxiliary reductions.

A quadruple fixes the gadgets, and the CNF only chooses which of g0 and g1
each copy q holds, by the bit s̄(q). So each route does the work that
depends only on (quadruple, s) once and caches it: the circuit route in
``_reduction_template``, the circuit-free route in ``_label_table``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

from .circuit import MAX_LABEL_BITS, CircuitBuilder
from .errors import (
    BadLiteral,
    BadParam,
    ConstructionFailed,
    IndexOutOfRange,
    NotValidated,
    ParseError,
    TooLargeToMaterialize,
    ValidationError,
)
from .graph import (
    BiboundariedGraph,
    Digraph,
    GadgetTriple,
    bib_to_json_obj,
    check_gadget_sizes,
    delta,
    text_int,
)
from .sgr import Sgr

# -- CNF instances -------------------------------------------------------


@dataclass(frozen=True)
class CnfInstance:
    """CNF with s variables; clauses are nonempty tuples of nonzero literals.

    s and every literal are exact ints, never bools or floats (BadLiteral).
    s is at most circuit.MAX_LABEL_BITS. A reduction's labels are wider
    than s bits, so no larger CNF can be compiled, and a larger s only made
    the vertex count 2^s and the SAT model, one entry per variable, ask for
    memory in proportion to s.
    """

    s: int
    clauses: tuple

    def __init__(self, s, clauses):
        if type(s) is not int:
            raise BadLiteral(f"variable count {s!r} is not an int")
        if s < 1:
            raise BadLiteral("need at least one variable")
        if s > MAX_LABEL_BITS:
            raise BadLiteral(f"variable count {s} exceeds the cap {MAX_LABEL_BITS}")
        clauses = tuple(tuple(c) for c in clauses)
        for clause in clauses:
            if not clause:
                raise BadLiteral("empty clause")
            for lit in clause:
                if type(lit) is not int:
                    raise BadLiteral(f"literal {lit!r} is not an int")
                if lit == 0 or abs(lit) > s:
                    raise BadLiteral(f"literal {lit} out of range for s={s}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "clauses", clauses)

    def value(self, q: int) -> bool:
        """Evaluate at the assignment where variable j+1 takes bit j of q."""
        for clause in self.clauses:
            for lit in clause:
                if lit > 0:
                    if q >> (lit - 1) & 1:
                        break
                elif not q >> (-lit - 1) & 1:
                    break
            else:
                return False
        return True


def parse_dimacs(text: str) -> CnfInstance:
    """Parse standard DIMACS cnf. The file must hold as many clauses as its
    header says. A 0 that ends no literal (an empty clause, which DIMACS
    reads as unsatisfiable) is a ParseError."""
    s = None
    clauses = []
    current = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"line {lineno}: bad problem line {raw!r}")
            s = text_int(parts[2], f"line {lineno}: the variable count")
            count = text_int(parts[3], f"line {lineno}: the clause count")
            continue
        if s is None:
            raise ParseError(f"line {lineno}: clause before 'p cnf' header")
        where = f"line {lineno}: a literal"
        for num in [text_int(tok, where) for tok in line.split()]:
            if num == 0:
                if not current:
                    raise ParseError(f"line {lineno}: a 0 that ends no clause")
                clauses.append(tuple(current))
                current = []
            else:
                current.append(num)
    if s is None:
        raise ParseError("missing 'p cnf' header")
    if current:
        clauses.append(tuple(current))
    if len(clauses) != count:
        raise ParseError(f"the header says {count} clauses, the file holds {len(clauses)}")
    return CnfInstance(s, clauses)


def sbar_at(S: CnfInstance, q: int) -> int:
    """Bit q of the implicit word: 1 iff assignment q falsifies S. q must
    be an exact int (a bool is refused) in [0, 2^s), else IndexOutOfRange."""
    if type(q) is not int:
        raise IndexOutOfRange(f"index {q!r} is not an int")
    if not 0 <= q < (1 << S.s):
        raise IndexOutOfRange(f"index {q} not in [0, 2^{S.s})")
    return 0 if S.value(q) else 1


# -- gadget quadruples ---------------------------------------------------


def _shared_positions(g: BiboundariedGraph):
    """Positions t where P1[t] is a shared port; requires P1[t] == P2[t] there."""
    set1, set2 = set(g.p1), set(g.p2)
    pos = tuple(t for t, p in enumerate(g.p1) if p in set2)
    pos2 = tuple(t for t, p in enumerate(g.p2) if p in set1)
    if pos != pos2 or any(g.p1[t] != g.p2[t] for t in pos):
        raise ValidationError(
            "PORT_ALIGNMENT", "shared ports must sit at matching positions of P1 and P2"
        )
    return pos


def _normalize_one(g: BiboundariedGraph, shared_pos, is_g3: bool) -> BiboundariedGraph:
    """Permute vertex labels into the layout slots. The non-shared P1 ports
    take the first slots. In G3 the shared ports follow them and the
    non-shared P2 ports take the last slots; in the other gadgets the
    non-shared P2 ports, then the shared ports, take the last slots. The
    other vertices fill the free slots in their order."""
    k, kpp, n = g.ell, len(shared_pos), g.n
    kp = k - kpp
    if is_g3:
        slots2, slots3 = range(n - kp, n), range(kp, k)
    else:
        slots2, slots3 = range(n - k, n - kpp), range(n - kpp, n)
    pi = dict(zip((p for t, p in enumerate(g.p1) if t not in shared_pos), range(kp)))
    pi.update(zip((p for t, p in enumerate(g.p2) if t not in shared_pos), slots2))
    pi.update(zip((g.p1[t] for t in shared_pos), slots3))
    rest = [v for v in range(n) if v not in pi]
    pi.update(zip(rest, sorted(set(range(n)) - set(pi.values()))))
    graph = Digraph(n, ((pi[u], pi[v]) for u, v in g.graph.edges))
    return BiboundariedGraph(graph, (pi[v] for v in g.p1), (pi[v] for v in g.p2))


@dataclass(frozen=True)
class GadgetQuadruple:
    """Four gadgets in the fixed layout that the label arithmetic below
    assumes, and the layout constants derived from them, never passed.

    It is the one way to build a quadruple. Construction is the
    validation: GadgetQuadruple(g0, g1, g2, g3) checks the compiler
    preconditions, raising ValidationError naming the violated condition
    (TooLarge for a gadget past graph.MAX_GADGET_VERTICES, before any of
    them), and stores each gadget permuted into the layout. A normalized
    quadruple normalizes to itself. normalize_layout is another name for this
    constructor. The hash, which every template and label table lookup
    takes, is computed once, at construction.
    """

    g0: BiboundariedGraph
    g1: BiboundariedGraph
    g2: BiboundariedGraph
    g3: BiboundariedGraph
    k: int = field(init=False)
    k_prime: int = field(init=False)
    k_dprime: int = field(init=False)
    n1: int = field(init=False)
    n2: int = field(init=False)
    n3: int = field(init=False)

    def __post_init__(self):
        gs = g0, g1, g2, g3 = self.g0, self.g1, self.g2, self.g3
        check_gadget_sizes(*gs)
        k = g0.ell
        if any(g.ell != k for g in gs):
            raise ValidationError("PORT_ALIGNMENT", "gadget port counts differ")
        positions = [_shared_positions(g) for g in gs]
        if len(set(positions)) != 1:
            raise ValidationError("PORT_ALIGNMENT", "shared-port positions differ across gadgets")
        shared_pos = positions[0]
        k_dprime = len(shared_pos)
        if g0.n != g1.n:
            raise ValidationError("COND_I", f"|G0|={g0.n} != |G1|={g1.n}")
        if set(g0.p1) & set(g0.p2) != set(g1.p1) & set(g1.p2):
            raise ValidationError("COND_II", "shared port sets of G0 and G1 differ")
        if set(g1.p1) & set(g1.p2) == set(range(g1.n)):
            raise ValidationError("COND_II", "shared ports cover all of G1")
        norm = [_normalize_one(g, shared_pos, is_g3=(i == 3)) for i, g in enumerate(gs)]
        for p in range(g1.n - k_dprime, g1.n):
            if norm[0].graph.successors(p) != norm[1].graph.successors(p):
                raise ValidationError("COND_III", f"G0({p}) != G1({p})")
        derived = (*norm, k, k - k_dprime, k_dprime, g1.n - k, g2.n - k, g3.n)
        for f, value in zip(fields(self), derived):
            object.__setattr__(self, f.name, value)
        # the six constants follow from the gadgets, so equal quadruples
        # have equal gadgets and hash alike
        object.__setattr__(self, "_hash", hash(tuple(norm)))

    def __hash__(self):
        return self._hash

    def big_n(self, s: int) -> int:
        return self.n2 + (1 << s) * self.n1 + self.n3

    def gadget(self, j):
        return (self.g0, self.g1, self.g2, self.g3)[j]

    def to_json_obj(self):
        return [bib_to_json_obj(g) for g in (self.g0, self.g1, self.g2, self.g3)]


normalize_layout = GadgetQuadruple


# -- label maps and reference successor relation -------------------------


def delta_map(quad: GadgetQuadruple, s: int, j: int, q: int, r: int) -> int:
    """Layout label of gadget-j vertex r in copy q. s, j, q and r must be
    exact ints (a bool is refused), else IndexOutOfRange."""
    for name, value in (("s", s), ("j", j), ("q", q), ("r", r)):
        if type(value) is not int:
            raise IndexOutOfRange(f"{name} {value!r:.40} is not an int")
    ell_hat = (1 << s) - 1
    if j in (0, 1):
        size = quad.g1.n
        if not 0 <= r < size:
            raise IndexOutOfRange(f"vertex {r} out of range for gadget {j}")
        if not 0 <= q <= ell_hat:
            raise IndexOutOfRange(f"copy index {q} out of range")
        if r < size - quad.k_dprime:
            return quad.n2 + q * quad.n1 + r
        return quad.n2 + ell_hat * quad.n1 + r
    if j == 2:
        if not 0 <= r < quad.g2.n:
            raise IndexOutOfRange(f"vertex {r} out of range for gadget 2")
        if r < quad.g2.n - quad.k_dprime:
            return r
        return quad.n2 + ell_hat * quad.n1 + r + quad.g1.n - quad.g2.n
    if j == 3:
        if not 0 <= r < quad.g3.n:
            raise IndexOutOfRange(f"vertex {r} out of range for gadget 3")
        return quad.n2 + (1 << s) * quad.n1 + r
    raise IndexOutOfRange(f"gadget index {j}")


def succ_ref(quad: GadgetQuadruple, S: CnfInstance, x: int):
    """Out-neighbor labels of x in the glued chain, by pure integer
    arithmetic (no circuits); s̄ is worked out bit by bit with sbar_at. x
    must be an exact int (a bool is refused) in [0, N), else
    IndexOutOfRange."""
    if not isinstance(quad, GadgetQuadruple):
        raise NotValidated("expected a normalized GadgetQuadruple")
    if type(x) is not int:
        raise IndexOutOfRange(f"label {x!r} is not an int")
    big_n = quad.big_n(S.s)
    if not 0 <= x < big_n:
        raise IndexOutOfRange(f"label {x} not in [0, {big_n})")
    return _succ_ref(_label_table(quad, S.s), lambda q: sbar_at(S, q), x)


_GRAPH_MAX_S = 20


def succ_ref_graph(quad: GadgetQuadruple, S: CnfInstance) -> Digraph:
    """The whole glued chain by succ_ref's case analysis, with the word s̄
    evaluated once per copy instead of once per label. It visits all 2^s
    copies, so like verify.delta_layout it refuses s > _GRAPH_MAX_S (20)."""
    if not isinstance(quad, GadgetQuadruple):
        raise NotValidated("expected a normalized GadgetQuadruple")
    s = S.s
    if s > _GRAPH_MAX_S:
        raise TooLargeToMaterialize(
            f"succ_ref_graph visits 2^{s} copies; s must be <= {_GRAPH_MAX_S}"
        )
    word = [0 if S.value(q) else 1 for q in range(1 << s)].__getitem__
    table = _label_table(quad, s)
    big_n = quad.big_n(s)
    return Digraph(big_n, ((x, y) for x in range(big_n) for y in _succ_ref(table, word, x)))


# Templates and label tables kept, one per (quadruple, s): each bench
# workload cycles through three pairs, and `--workload all` through six. A
# template is small (the shared-port quadruple at s = 20 has 970 gates in
# under 0.2 MB), and a label table smaller still, so eight cost at most a
# few MB.
_TEMPLATE_CACHE = 8


@lru_cache(maxsize=_TEMPLATE_CACHE)
def _label_table(quad: GadgetQuadruple, s: int) -> tuple:
    """succ_ref's labels for (quad, s), worked out through delta_map once,
    as the tuple (n2, n1, k', ell_hat, mid_end, g2, copy, from_g2, g3),
    mid_end being the first G3 label. A copy row's labels are offsets from
    its copy's base n2 + q·n1 plus the shared-port labels, which no copy
    moves.

    g2[x]: the successors of G2 row x < n2. copy[j][r]: (offsets, fixed)
    of gadget j's row r < n1 + k', the rows of a copy and of the non-shared
    P2 ports that the next copy's rows r - n1 < k' are glued to.
    from_g2[r]: the successors of G2's P2 port glued to copy 0's row r < k'.
    g3[r]: (labels, last, ranges) of G3 row r. For r < k', last[i] is its
    labels joined with the successors of the last copy's P2 port glued to
    it, when that copy holds gadget i; else last is None. A shared port's
    labels take in G2's successors too, and ranges holds one range per
    successor v of G1's port, v's label in every copy, so a table never
    holds 2^s labels.

    The route reads no circuit and nothing of verify, and this cache is
    kept apart from _reduction_template's.
    """
    ell_hat = (1 << s) - 1
    n2, n1, kp = quad.n2, quad.n1, quad.k_prime

    def labels(j, q, succs):
        return frozenset(delta_map(quad, s, j, q, v) for v in succs)

    def copy_row(j, r):
        offsets, fixed = [], set()
        for v in quad.gadget(j).graph.successors(r):
            y = delta_map(quad, s, j, 0, v)
            if y == delta_map(quad, s, j, ell_hat, v):  # a shared port: one label
                fixed.add(y)
            else:
                offsets.append(y - n2)
        return tuple(offsets), frozenset(fixed)

    def g3_row(r):
        own = labels(3, 0, quad.g3.graph.successors(r))
        if r < kp:
            last = tuple(
                own | labels(i, ell_hat, quad.gadget(i).graph.successors(r + n1)) for i in (0, 1)
            )
            return own, last, ()
        if r < quad.k:
            own |= labels(2, 0, quad.g2.graph.successors(r + n2))
            # G1's v in every copy q is label dm(1, 0, v) + q * n1; a shared
            # port has one label for all copies, so both ends agree and the
            # range has one
            ranges = tuple(
                range(delta_map(quad, s, 1, 0, v), delta_map(quad, s, 1, ell_hat, v) + 1, n1)
                for v in quad.g1.graph.successors(r + n1)
            )
            return own, None, ranges
        return own, None, ()

    return (
        n2,
        n1,
        kp,
        ell_hat,
        n2 + (1 << s) * n1,
        tuple(labels(2, 0, quad.g2.graph.successors(x)) for x in range(n2)),
        tuple(tuple(copy_row(j, r) for r in range(n1 + kp)) for j in (0, 1)),
        tuple(labels(2, 0, quad.g2.graph.successors(r + n2)) for r in range(kp)),
        tuple(g3_row(r) for r in range(quad.n3)),
    )


def _succ_ref(table, word, x: int):
    """The case analysis behind succ_ref and succ_ref_graph: out-neighbors
    of label x < N, where word(q) is the bit s̄(q), read from the label
    table of (quad, s) as a new set."""
    n2, n1, k_prime, ell_hat, mid_end, g2, copy, from_g2, g3 = table
    if x < n2:
        return set(g2[x])
    if x < mid_end:
        q, r = divmod(x - n2, n1)
        base = n2 + q * n1
        offsets, fixed = copy[word(q)][r]
        out = {base + o for o in offsets}
        out |= fixed
        if r < k_prime:
            if q == 0:
                out |= from_g2[r]
            else:
                base -= n1
                offsets, fixed = copy[word(q - 1)][r + n1]
                out.update([base + o for o in offsets])
                out |= fixed
        return out
    own, last, ranges = g3[x - mid_end]
    out = set(own if last is None else last[word(ell_hat)])
    for labels in ranges:
        out.update(labels)
    return out


# -- circuit compilation -------------------------------------------------

@lru_cache(maxsize=_TEMPLATE_CACHE)
def _reduction_template(quad: GadgetQuadruple, s: int):
    """Emit every gate of the reduction circuit that does not depend on the
    CNF, once per (quadruple, s): region tests, the G2 prefix, the division
    of x - n2 into (q, r), the row conditions of both gadgets in copies q
    and q - 1, and G3's own rows.

    One seam rule glues each member of the chain to the next: row r < k'
    of copy q takes the successors of the P2 port glued to it, G2's when
    q = 0, else copy q - 1's by s̄(q - 1). G3's glued ports, labels
    mid_end + r with r < k', are row r of copy q = 2^s, so the seam is
    gated by n2 <= x < mid_end + k', and a compile reads S only through
    s̄(q) and s̄(q - 1). The template is one layout (cone_prefix),
    head-first, its head being the output's cone in a probe whose s̄(q)
    and s̄(q - 1) are opaque gates, which nothing folds, so that the head
    holds what every build reads unless s̄ folds to a constant. Returns
    (layout, extend): extend(S) adds the gates of a CNF S with s variables
    to a copy of the layout, never to the cached one, and returns the
    build.

    The layout keeps the template small. A loop's row test compares y with
    x (gadget_row_cond). The division by n1 is wiring when n1 is a power of
    two (divmod_const). A G2 row test reads only the low
    (n2 - 1).bit_length() bits of x, the only ones that can be nonzero
    under the G2 prefix. A G3 label below N is mid_end + r with r < n3, and
    n3 consecutive labels differ in their low (n3 - 1).bit_length() bits,
    so a G3 row test reads only those; a label >= N may pass the test of
    some G3 row, which compile_reduction allows."""
    big_n = quad.big_n(s)
    ell_hat = (1 << s) - 1
    nb = max((big_n - 1).bit_length(), 1)
    b = CircuitBuilder(nb)
    x_in, y_in = b.x_bundle(), b.y_bundle()
    dm = delta_map

    mid_start = quad.n2
    mid_end = quad.n2 + (1 << s) * quad.n1
    in2 = b.less_const(x_in, mid_start)
    before3 = b.less_const(x_in, mid_end)
    in_mid = b.and_(b.not_(in2), before3)
    in3 = b.not_(before3)
    # the seams reach copy 2^s, whose rows r < k' are G3's glued P1 ports
    in_seam = b.and_(b.not_(in2), b.less_const(x_in, mid_end + quad.k_prime))

    def y_eq_consts(labels):
        return b.or_many(b.eq_const(y_in, yv) for yv in sorted(labels))

    # region x < n2: the G2 prefix, fully constant
    x_low2 = x_in[: (quad.n2 - 1).bit_length()]
    case2 = b.or_many(
        b.and_(
            b.eq_const(x_low2, xv),
            y_eq_consts(dm(quad, s, 2, 0, v) for v in quad.g2.graph.successors(xv)),
        )
        for xv in range(quad.n2)
    )

    # region n2 <= x < n2 + 2^s*n1: Euclidean division recovers (q, r)
    t = b.sub_const(x_in, quad.n2)
    qb, rb = b.divmod_const(t, quad.n1)
    q_low = qb[:s]
    qm1 = b.sub_const(qb, 1)
    qm1_low = qm1[:s]
    q_n1 = b.pad(b.mul_const(q_low, quad.n1), nb)
    qm1_n1 = b.pad(b.mul_const(qm1_low, quad.n1), nb)

    def gadget_row_cond(gadget, local, offset_bundle):
        """y ∈ δ^q_j(G_j(local)) with q carried by offset_bundle * n1.
        A loop v == local has label x itself, in copy q as in the row
        of copy q - 1 glued to it, so it compares y with x."""
        conds = []
        for v in gadget.graph.successors(local):
            if v == local:
                conds.append(b.eq(y_in, x_in))
            elif v < quad.g1.n - quad.k_dprime:
                conds.append(b.eq(y_in, b.add_const(offset_bundle, quad.n2 + v)))
            else:
                conds.append(b.eq_const(y_in, quad.n2 + ell_hat * quad.n1 + v))
        return b.or_many(conds)

    # per copy-local row r: r_is tests the remainder against r, here is the
    # pair of g0/g1 row conditions in copy q, and prev is None or (from_g2,
    # g0 cond, g1 cond) for the edges that reach row r < k' from the G2
    # prefix or from copy q - 1
    q_is_zero = b.eq_const(qb, 0)
    mid_rows = []
    for r in range(quad.n1):
        r_is = b.eq_const(rb, r)
        here = (gadget_row_cond(quad.g0, r, q_n1), gadget_row_cond(quad.g1, r, q_n1))
        prev = None
        if r < quad.k_prime:
            prev = (
                y_eq_consts(
                    dm(quad, s, 2, 0, v) for v in quad.g2.graph.successors(r + quad.n2)
                ),
                gadget_row_cond(quad.g0, r + quad.n1, qm1_n1),
                gadget_row_cond(quad.g1, r + quad.n1, qm1_n1),
            )
        mid_rows.append((r_is, here, prev))
    head = b.and_(in2, case2)

    # region x >= n2 + 2^s*n1: the G3 suffix, G3's own rows; the seam
    # parts above give its glued P1 ports, rows r < k', the last copy's edges
    low3 = (quad.n3 - 1).bit_length()
    x_low3 = x_in[:low3]
    rows3 = []
    for r in range(quad.n3):
        xv = mid_end + r
        labels = {dm(quad, s, 3, 0, v) for v in quad.g3.graph.successors(r)}
        extra = []
        if quad.k_prime <= r < quad.k:
            labels |= {dm(quad, s, 2, 0, v) for v in quad.g2.graph.successors(r + quad.n2)}
            # shared ports point into every copy: membership in the union
            # over t of n2 + t*n1 + v via divisibility by n1
            for v in quad.g1.graph.successors(r + quad.n1):
                if v < quad.g1.n - quad.k_dprime:
                    base = quad.n2 + v
                    shifted = b.sub_const(y_in, base)
                    t_q, t_r = b.divmod_const(shifted, quad.n1)
                    extra.append(
                        b.and_many(
                            [
                                b.not_(b.less_const(y_in, base)),
                                b.eq_const(t_r, 0),
                                b.less_const(t_q, 1 << s),
                            ]
                        )
                    )
                else:
                    labels.add(quad.n2 + ell_hat * quad.n1 + v)
        rows3.append(
            b.and_(
                b.eq_const(x_low3, xv & ((1 << low3) - 1)),
                b.or_many([y_eq_consts(labels)] + extra),
            )
        )
    tail = b.and_(in3, b.or_many(rows3))

    def select(c, m, sbar_q, sbar_qm1):
        """Emit on c the gates that pick the g0 or g1 row conditions by the
        bits sbar_q = s̄(q) and sbar_qm1 = s̄(q - 1), and join them with the
        G2 prefix and the G3 suffix, reading template gate i as m[i];
        returns the output gate."""
        rows, seams = [], []
        for r_is, (g0_here, g1_here), prev in mid_rows:
            rows.append(c.and_(m[r_is], c.mux_bit(sbar_q, m[g0_here], m[g1_here])))
            if prev is not None:
                from_g2, g0_cond, g1_cond = prev
                from_prev = c.mux_bit(sbar_qm1, m[g0_cond], m[g1_cond])
                seams.append(c.and_(m[r_is], c.mux_bit(m[q_is_zero], from_prev, m[from_g2])))
        mid = c.and_(m[in_mid], c.or_many(rows))
        seam = c.and_(m[in_seam], c.or_many(seams))
        return c.or_many([m[head], mid, seam, m[tail]])

    size = b.gate_count()
    probe = b.copy()
    out = select(probe, range(size), probe.opaque(), probe.opaque())
    layout, place = probe.cone_prefix(out, size)

    def extend(S):
        c = layout.copy()
        sbar_q = c.not_(c.cnf_eval(S.clauses, [place[i] for i in q_low]))
        sbar_qm1 = c.not_(c.cnf_eval(S.clauses, [place[i] for i in qm1_low]))
        return c.build(select(c, place, sbar_q, sbar_qm1))

    return layout, extend


def compile_reduction(quad: GadgetQuadruple, S: CnfInstance) -> Sgr:
    """Compile the glued chain for S into an adjacency circuit.

    The circuit decides y ∈ succ_ref(quad, S, x) for all x, y < N;
    behavior on labels >= N is unconstrained. A copy of the cached
    template for (quad, S.s) gets only the gates that depend on S: the
    two CNF evaluators giving s̄(q) and s̄(q - 1), and the selectors between
    the g0 and g1 row conditions. Folding and structural hashing do not
    depend on emission order, so the kept gates are those of a circuit
    built in one pass; only their numbering differs. The template's head
    (its part of the output's cone when s̄ is unknown) comes first as it
    is, then the other template gates the output reads, then S's gates,
    each part in emission order. When s̄ folds to a constant, part of the
    head can be dead, and the build takes the layout's plain cone, whose
    template gates all lie in the head, as S's gates fold away. A compiled
    circuit keeps 450-650 gates at the bench sizes, and 125-365 at
    s = 4-12 on the toy and path quadruples.
    """
    if not isinstance(quad, GadgetQuadruple):
        raise NotValidated("expected a normalized GadgetQuadruple")
    _, extend = _reduction_template(quad, S.s)
    return Sgr(quad.big_n(S.s), extend(S))


# -- quadruple construction from a triple --------------------------------


_MAX_COPIES = 50


def build_quadruple(triple: GadgetTriple, omega: Digraph) -> GadgetQuadruple:
    """Build the compiler's static input from a pump triple and a
    saturating graph.

    The model-forcing gadget is assembled from the n-fold gluing of the
    pump gadget, for n up to _MAX_COPIES (50): the shared ports and their
    out-neighbors are kept at their labels, the saturating graph is placed
    on free labels, and the rest stays isolated. The quadruple's
    constructor validates the result.
    """
    g1 = triple.g1
    last_error = None
    for copies in range(1, _MAX_COPIES + 1):
        chain = delta({"1": g1}, "1" * copies)
        shared = set(chain.p1) & set(chain.p2)
        hverts = set(shared)
        for p in shared:
            hverts.update(chain.graph.successors(p))
        if chain.n < len(hverts) + omega.n:
            continue
        placement = [v for v in range(chain.n) if v not in hverts][: omega.n]
        edges = {(u, v) for u, v in chain.graph.edges if u in hverts and v in hverts}
        edges |= {(placement[u], placement[v]) for u, v in omega.edges}
        g0 = BiboundariedGraph(Digraph(chain.n, edges), chain.p1, chain.p2)
        try:
            return GadgetQuadruple(g0, chain, triple.g2, triple.g3)
        except ValidationError as exc:
            last_error = exc
    if last_error is not None:
        raise ConstructionFailed(last_error.condition, last_error.message)
    raise ConstructionFailed("SIZE", f"no workable copy count up to {_MAX_COPIES}")


# -- pump checks ---------------------------------------------------------


@dataclass(frozen=True)
class PumpReport:
    expected: bool
    results: tuple  # of (n, observed) pairs
    first_mismatch: int | None = None

    @property
    def ok(self):
        return self.first_mismatch is None


_MAX_PUMP = 256


def pump_check(triple: GadgetTriple, sentence, expected: bool, n_max: int) -> PumpReport:
    """Evaluate the sentence, an mso.CompiledFormula, on the glued chain
    for 0..n_max middle copies.

    Each chain is folded and evaluated anew, so the work grows at least
    quadratically in n_max; n_max must lie in [0, _MAX_PUMP] (256), else
    BadParam is raised before the first evaluation. A negative n_max would
    check no chain and report a vacuous success; n_max must be an exact int
    (a bool is refused)."""
    if type(n_max) is not int or not 0 <= n_max <= _MAX_PUMP:
        raise BadParam(f"pump_check needs 0 <= n_max <= {_MAX_PUMP}, not {n_max}")
    family = {"1": triple.g1, "2": triple.g2, "3": triple.g3}
    results = []
    first_bad = None
    for n in range(n_max + 1):
        word = "2" + "1" * n + "3"
        g = delta(family, word).graph
        observed = sentence.eval(g)
        results.append((n, observed))
        if observed != expected and first_bad is None:
            first_bad = n
    return PumpReport(expected, tuple(results), first_bad)


# -- auxiliary single-circuit reductions ---------------------------------


def reduce_loop(S: CnfInstance) -> Sgr:
    """Satisfying labels loop on themselves; others step to the cyclic
    successor. The graph has a loop iff S is satisfiable."""
    b = CircuitBuilder(S.s)
    x_in, y_in = b.x_bundle(), b.y_bundle()
    sat = b.cnf_eval(S.clauses, x_in)
    stay = b.eq(x_in, y_in)
    step = b.eq(b.add_const(x_in, 1), y_in)
    return Sgr(1 << S.s, b.build(b.mux_bit(sat, step, stay)))


def reduce_clique(S: CnfInstance) -> Sgr:
    """Falsifying labels connect to everything; satisfying labels only to
    themselves. The graph is a clique (with loops) iff S is unsatisfiable."""
    b = CircuitBuilder(S.s)
    x_in, y_in = b.x_bundle(), b.y_bundle()
    unsat_here = b.not_(b.cnf_eval(S.clauses, x_in))
    return Sgr(1 << S.s, b.build(b.or_(unsat_here, b.eq(x_in, y_in))))


# -- built-in gadgets ----------------------------------------------------


def _edge_gadget():
    return BiboundariedGraph(Digraph(2, [(0, 1)]), (0,), (1,))


def toy_quadruple() -> GadgetQuadruple:
    """The worked single-port quadruple used throughout the test battery."""
    g0 = BiboundariedGraph(Digraph(2, [(0, 0), (0, 1)]), (0,), (1,))
    return GadgetQuadruple(g0, _edge_gadget(), _edge_gadget(), _edge_gadget())


def path_triple() -> GadgetTriple:
    """Directed-path pump triple: gluing yields longer loop-free paths."""
    return GadgetTriple(_edge_gadget(), _edge_gadget(), _edge_gadget())
