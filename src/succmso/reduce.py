"""The SAT-to-succinct-graph reduction compiler.

Gadget layout normalization, the integer-level label maps and successor
relation for the glued chain, circuit synthesis, the quadruple builder,
pump checks, and the two single-circuit auxiliary reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import CircuitBuilder, WireBundle
from .errors import (
    BadLiteral,
    ConstructionFailed,
    IndexOutOfRange,
    NotValidated,
    ParseError,
    ValidationError,
)
from .graph import BiboundariedGraph, Digraph, GadgetTriple, delta, glue
from .mso import CompiledFormula
from .sgr import Sgr

# -- CNF instances -------------------------------------------------------


@dataclass(frozen=True)
class CnfInstance:
    """CNF with s variables; clauses are nonempty tuples of nonzero literals."""

    s: int
    clauses: tuple

    def __init__(self, s, clauses):
        if s < 1:
            raise BadLiteral("need at least one variable")
        clauses = tuple(tuple(c) for c in clauses)
        for clause in clauses:
            if not clause:
                raise BadLiteral("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > s:
                    raise BadLiteral(f"literal {lit} out of range for s={s}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "clauses", clauses)

    def value(self, q: int) -> bool:
        """Evaluate at the assignment where variable j+1 takes bit j of q."""
        return all(
            any((q >> (abs(lit) - 1)) & 1 == (1 if lit > 0 else 0) for lit in clause)
            for clause in self.clauses
        )


def parse_dimacs(text: str) -> CnfInstance:
    """Parse standard DIMACS cnf."""
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
            try:
                s = int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: bad variable count") from None
            continue
        if s is None:
            raise ParseError(f"line {lineno}: clause before 'p cnf' header")
        try:
            nums = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: cannot parse {raw!r}") from None
        for num in nums:
            if num == 0:
                if current:
                    clauses.append(tuple(current))
                    current = []
            else:
                current.append(num)
    if s is None:
        raise ParseError("missing 'p cnf' header")
    if current:
        clauses.append(tuple(current))
    return CnfInstance(s, clauses)


def sbar_at(S: CnfInstance, q: int) -> int:
    """Bit q of the implicit word: 1 iff assignment q falsifies S."""
    if not 0 <= q < (1 << S.s):
        raise IndexOutOfRange(f"index {q} not in [0, 2^{S.s})")
    return 0 if S.value(q) else 1


# -- gadget quadruples ---------------------------------------------------


@dataclass(frozen=True)
class GadgetQuadruple:
    """Four normalized gadgets plus the cached layout constants.

    Produced by normalize_layout; the label arithmetic below assumes the
    normalized positions.
    """

    g0: BiboundariedGraph
    g1: BiboundariedGraph
    g2: BiboundariedGraph
    g3: BiboundariedGraph
    k: int
    k_prime: int
    k_dprime: int
    n1: int
    n2: int
    n3: int

    def big_n(self, s: int) -> int:
        return self.n2 + (1 << s) * self.n1 + self.n3

    def gadget(self, j):
        return (self.g0, self.g1, self.g2, self.g3)[j]

    def to_json_obj(self):
        from .graph import bib_to_json_obj

        return [bib_to_json_obj(g) for g in (self.g0, self.g1, self.g2, self.g3)]


def _shared_positions(g: BiboundariedGraph):
    """Positions t where P1[t] is a shared port; requires P1[t] == P2[t] there."""
    set1, set2 = set(g.p1), set(g.p2)
    pos = tuple(t for t, p in enumerate(g.p1) if p in set2)
    pos2 = tuple(t for t, p in enumerate(g.p2) if p in set1)
    if pos != pos2 or any(g.p1[t] != g.p2[t] for t in pos):
        raise ValidationError(
            "PORT_ALIGNMENT", "shared ports must sit at matching positions of P1 and P2"
        )
    if {g.p1[t] for t in pos} != set1 & set2:
        raise ValidationError("PORT_ALIGNMENT", "shared ports not positionally aligned")
    return pos


def _normalize_one(g: BiboundariedGraph, shared_pos, is_g3: bool) -> BiboundariedGraph:
    """Permute vertex labels into the layout positions."""
    k = g.ell
    kpp = len(shared_pos)
    kp = k - kpp
    n = g.n
    shared_set = set(shared_pos)
    ns1 = [p for t, p in enumerate(g.p1) if t not in shared_set]
    ns2 = [p for t, p in enumerate(g.p2) if t not in shared_set]
    shared = [g.p1[t] for t in shared_pos]
    pi = {}
    if is_g3:
        slots1 = range(0, kp)
        slots3 = range(kp, k)
        slots2 = range(n - kp, n)
    else:
        slots1 = range(0, kp)
        slots2 = range(n - k, n - kpp)
        slots3 = range(n - kpp, n)
    for v, slot in zip(ns1, slots1):
        pi[v] = slot
    for v, slot in zip(ns2, slots2):
        if v in pi:
            raise ValidationError("PORT_ALIGNMENT", f"port {v} plays two roles")
        pi[v] = slot
    for v, slot in zip(shared, slots3):
        pi[v] = slot
    free_slots = sorted(set(range(n)) - set(pi.values()))
    for v in range(n):
        if v not in pi:
            pi[v] = free_slots.pop(0)
    graph = Digraph(n, ((pi[u], pi[v]) for u, v in g.graph.edges))
    return BiboundariedGraph(graph, (pi[v] for v in g.p1), (pi[v] for v in g.p2))


def normalize_layout(g0, g1, g2, g3) -> GadgetQuadruple:
    """Validate the compiler preconditions and permute each gadget into the
    fixed layout. Raises ValidationError naming the violated condition."""
    gs = (g0, g1, g2, g3)
    k = g0.ell
    if any(g.ell != k for g in gs):
        raise ValidationError("PORT_ALIGNMENT", "gadget port counts differ")
    positions = [_shared_positions(g) for g in gs]
    if len(set(positions)) != 1:
        raise ValidationError("PORT_ALIGNMENT", "shared-port positions differ across gadgets")
    shared_pos = positions[0]
    k_dprime = len(shared_pos)
    k_prime = k - k_dprime
    if g0.n != g1.n:
        raise ValidationError("COND_I", f"|G0|={g0.n} != |G1|={g1.n}")
    if set(g0.p1) & set(g0.p2) != set(g1.p1) & set(g1.p2):
        raise ValidationError("COND_II", "shared port sets of G0 and G1 differ")
    if set(g1.p1) & set(g1.p2) == set(range(g1.n)):
        raise ValidationError("COND_II", "shared ports cover all of G1")
    norm = [_normalize_one(g, shared_pos, is_g3=(i == 3)) for i, g in enumerate(gs)]
    n0, n1g, n2g, n3g = norm
    for p in range(g1.n - k_dprime, g1.n):
        if n0.graph.successors(p) != n1g.graph.successors(p):
            raise ValidationError("COND_III", f"G0({p}) != G1({p})")
    n1 = g1.n - k
    n2 = g2.n - k
    n3 = g3.n
    if n1 <= 0:
        raise ValidationError("COND_II", "G1 has no vertices outside its ports")
    if n2 < 0 or n3 < k:
        raise ValidationError("PORT_ALIGNMENT", "gadget smaller than its port count")
    return GadgetQuadruple(n0, n1g, n2g, n3g, k, k_prime, k_dprime, n1, n2, n3)


# -- label maps and reference successor relation -------------------------


def delta_map(quad: GadgetQuadruple, s: int, j: int, q: int, r: int) -> int:
    """Layout label of gadget-j vertex r in copy q."""
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
    arithmetic (no circuits)."""
    if not isinstance(quad, GadgetQuadruple):
        raise NotValidated("expected a normalized GadgetQuadruple")
    s = S.s
    big_n = quad.big_n(s)
    if not 0 <= x < big_n:
        raise IndexOutOfRange(f"label {x} not in [0, {big_n})")
    ell_hat = (1 << s) - 1
    dm = delta_map
    if x < quad.n2:
        return {dm(quad, s, 2, 0, v) for v in quad.g2.graph.successors(x)}
    t = x - quad.n2
    if t < (1 << s) * quad.n1:
        q, r = divmod(t, quad.n1)
        j = sbar_at(S, q)
        out = {dm(quad, s, j, q, v) for v in quad.gadget(j).graph.successors(r)}
        if r < quad.k_prime:
            if q == 0:
                out |= {
                    dm(quad, s, 2, 0, v)
                    for v in quad.g2.graph.successors(r + quad.n2)
                }
            else:
                i = sbar_at(S, q - 1)
                out |= {
                    dm(quad, s, i, q - 1, v)
                    for v in quad.gadget(i).graph.successors(r + quad.n1)
                }
        return out
    r = x - (quad.n2 + (1 << s) * quad.n1)
    out = {dm(quad, s, 3, 0, v) for v in quad.g3.graph.successors(r)}
    if r < quad.k_prime:
        i = sbar_at(S, ell_hat)
        out |= {
            dm(quad, s, i, ell_hat, v)
            for v in quad.gadget(i).graph.successors(r + quad.n1)
        }
    elif r < quad.k:
        out |= {dm(quad, s, 2, 0, v) for v in quad.g2.graph.successors(r + quad.n2)}
        shared_succ = quad.g1.graph.successors(r + quad.n1)
        for t_copy in range(ell_hat + 1):
            out |= {dm(quad, s, 1, t_copy, v) for v in shared_succ}
    return out


# -- circuit compilation -------------------------------------------------


def compile_reduction(quad: GadgetQuadruple, S: CnfInstance) -> Sgr:
    """Compile the glued chain for S into an adjacency circuit.

    The circuit decides y ∈ succ_ref(quad, S, x) for all x, y < N;
    behavior on labels >= N is unconstrained.
    """
    if not isinstance(quad, GadgetQuadruple):
        raise NotValidated("expected a normalized GadgetQuadruple")
    s = S.s
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

    def y_eq_consts(labels):
        return b.or_many(b.eq_const(y_in, yv) for yv in sorted(labels))

    # region x < n2: the G2 prefix, fully constant
    case2 = b.or_many(
        b.and_(
            b.eq_const(x_in, xv),
            y_eq_consts(dm(quad, s, 2, 0, v) for v in quad.g2.graph.successors(xv)),
        )
        for xv in range(quad.n2)
    )

    # region n2 <= x < n2 + 2^s*n1: Euclidean division recovers (q, r)
    t = b.sub_const(x_in, quad.n2)
    qb, rb = b.divmod_const(t, quad.n1)
    q_low = WireBundle(qb[:s])
    sbar_q = b.not_(b.cnf_eval(S.clauses, q_low))
    qm1 = b.sub_const(qb, 1)
    sbar_qm1 = b.not_(b.cnf_eval(S.clauses, WireBundle(qm1[:s])))
    q_n1 = b.pad(b.mul_const(q_low, quad.n1), nb)
    qm1_n1 = b.pad(b.mul_const(WireBundle(qm1[:s]), quad.n1), nb)

    def gadget_row_cond(gadget, local, offset_bundle):
        """y ∈ δ^q_j(G_j(local)) with q carried by offset_bundle * n1."""
        conds = []
        for v in gadget.graph.successors(local):
            if v < quad.g1.n - quad.k_dprime:
                conds.append(b.eq(y_in, b.add_const(offset_bundle, quad.n2 + v)))
            else:
                conds.append(b.eq_const(y_in, quad.n2 + ell_hat * quad.n1 + v))
        return b.or_many(conds)

    mid_rows = []
    q_is_zero = b.eq_const(qb, 0)
    for r in range(quad.n1):
        parts = [
            b.mux_bit(
                sbar_q,
                gadget_row_cond(quad.g0, r, q_n1),
                gadget_row_cond(quad.g1, r, q_n1),
            )
        ]
        if r < quad.k_prime:
            from_g2 = y_eq_consts(
                dm(quad, s, 2, 0, v) for v in quad.g2.graph.successors(r + quad.n2)
            )
            from_prev = b.mux_bit(
                sbar_qm1,
                gadget_row_cond(quad.g0, r + quad.n1, qm1_n1),
                gadget_row_cond(quad.g1, r + quad.n1, qm1_n1),
            )
            parts.append(b.mux_bit(q_is_zero, from_prev, from_g2))
        mid_rows.append(b.and_(b.eq_const(rb, r), b.or_many(parts)))
    mid = b.or_many(mid_rows)

    # region x >= n2 + 2^s*n1: the G3 suffix; x is in a constant range
    rows3 = []
    i_last = sbar_at(S, ell_hat)
    for r in range(quad.n3):
        xv = mid_end + r
        labels = {dm(quad, s, 3, 0, v) for v in quad.g3.graph.successors(r)}
        extra = []
        if r < quad.k_prime:
            gi = quad.gadget(i_last)
            labels |= {
                dm(quad, s, i_last, ell_hat, v)
                for v in gi.graph.successors(r + quad.n1)
            }
        elif r < quad.k:
            labels |= {
                dm(quad, s, 2, 0, v) for v in quad.g2.graph.successors(r + quad.n2)
            }
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
        rows3.append(b.and_(b.eq_const(x_in, xv), b.or_many([y_eq_consts(labels)] + extra)))
    case3 = b.or_many(rows3)

    out = b.or_many(
        [b.and_(in2, case2), b.and_(in_mid, mid), b.and_(in3, case3)]
    )
    return Sgr(big_n, b.build(out))


# -- quadruple construction from a triple --------------------------------


def build_quadruple(triple: GadgetTriple, omega: Digraph, max_copies=50) -> GadgetQuadruple:
    """Build the compiler's static input from a pump triple and a
    saturating graph.

    The model-forcing gadget is assembled from the n-fold gluing of the
    pump gadget: the shared ports and their out-neighbors are kept at their
    labels, the saturating graph is placed on free labels, and the rest
    stays isolated. The result is re-validated mechanically.
    """
    g1 = triple.g1
    last_error = None
    for copies in range(1, max_copies + 1):
        chain = g1
        for _ in range(copies - 1):
            chain = glue(chain, g1)
        shared = set(chain.p1) & set(chain.p2)
        hverts = set(shared)
        for p in shared:
            hverts.update(chain.graph.successors(p))
        if chain.n < len(hverts) + omega.n:
            continue
        avail = [v for v in range(chain.n) if v not in hverts]
        if len(avail) < omega.n:
            continue
        placement = avail[: omega.n]
        edges = {(u, v) for u, v in chain.graph.edges if u in hverts and v in hverts}
        edges |= {(placement[u], placement[v]) for u, v in omega.edges}
        g0 = BiboundariedGraph(Digraph(chain.n, edges), chain.p1, chain.p2)
        try:
            return normalize_layout(g0, chain, triple.g2, triple.g3)
        except ValidationError as exc:
            last_error = exc
            continue
    if last_error is not None:
        raise ConstructionFailed(last_error.condition, str(last_error))
    raise ConstructionFailed("SIZE", f"no workable copy count up to {max_copies}")


# -- pump checks ---------------------------------------------------------


@dataclass(frozen=True)
class PumpReport:
    expected: bool
    results: tuple  # of (n, observed) pairs
    first_mismatch: int | None = None

    @property
    def ok(self):
        return self.first_mismatch is None


def pump_check(triple: GadgetTriple, formula, expected: bool, n_max: int) -> PumpReport:
    """Evaluate the sentence on the glued chain for 0..n_max middle copies."""
    family = {"1": triple.g1, "2": triple.g2, "3": triple.g3}
    compiled = CompiledFormula(formula)
    results = []
    first_bad = None
    for n in range(n_max + 1):
        word = "2" + "1" * n + "3"
        g = delta(family, word).graph
        observed = compiled.eval(g)
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
    return normalize_layout(g0, _edge_gadget(), _edge_gadget(), _edge_gadget())


def path_triple() -> GadgetTriple:
    """Directed-path pump triple: gluing yields longer loop-free paths."""
    return GadgetTriple(_edge_gadget(), _edge_gadget(), _edge_gadget())
