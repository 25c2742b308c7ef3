"""Independent cross-checks for the reduction pipeline.

Everything here deliberately avoids the code paths it is checking: the SAT
solver enumerates or branches on the CNF directly, and the layout
materializer places gadget copies with its own inline arithmetic instead of
going through the compiled circuit or the reference successor relation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import BadParam, NotValidated, TooLargeToMaterialize
from .graph import Digraph, graph_equal
from .mso import CompiledFormula
from .reduce import (
    CnfInstance,
    GadgetQuadruple,
    compile_reduction,
    succ_ref_graph,
    toy_quadruple,
)
from .sgr import materialize

# -- SAT -----------------------------------------------------------------

_ENUM_LIMIT = 20


def sat_solve(S: CnfInstance):
    """Return (satisfiable, model) where model maps variable -> bool.

    Small instances are enumerated through the model set, and the model is
    its lowest assignment; larger ones go through unit-propagating DPLL.
    """
    if S.s <= _ENUM_LIMIT:
        models = cnf_models(S)
        if not models:
            return False, None
        q = (models & -models).bit_length() - 1
        return True, {v: bool((q >> (v - 1)) & 1) for v in range(1, S.s + 1)}
    return _dpll([list(c) for c in S.clauses], {}, S.s)


def cnf_models(S: CnfInstance) -> int:
    """The model set of S: bit q is set iff assignment q satisfies S
    (variable j+1 takes bit j of q).

    Bitsliced over 2^s lanes, lane q holding assignment q: variable j+1 is
    the mask with bit q set iff bit j of q is 1, a clause ORs its literals'
    masks (complemented for negative literals), and the clauses are ANDed.
    The s masks take 2^s bits each, so it refuses s > _ENUM_LIMIT (20).
    """
    if S.s > _ENUM_LIMIT:
        raise TooLargeToMaterialize(
            f"cnf_models builds 2^{S.s}-bit masks; s must be <= {_ENUM_LIMIT}"
        )
    lanes = 1 << S.s
    full = (1 << lanes) - 1
    masks = []
    for j in range(S.s):
        half = 1 << j
        # period 2^(j+1): 2^j zeros, then 2^j ones, doubled to cover the lanes
        mask, width = ((1 << half) - 1) << half, 2 * half
        while width < lanes:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    models = full
    for clause in S.clauses:
        hit = 0
        for lit in clause:
            mask = masks[abs(lit) - 1]
            hit |= mask if lit > 0 else full ^ mask
        models &= hit
    return models


def _propagate(clauses, assignment):
    """Simplify clauses under assignment, extending it by unit clauses until
    none is left. Returns (open clauses, assignment), or None when a clause
    loses all its literals."""
    while True:
        unit = None
        simplified = []
        for clause in clauses:
            live = []
            satisfied = False
            for lit in clause:
                val = assignment.get(abs(lit))
                if val is None:
                    live.append(lit)
                elif (lit > 0) == val:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not live:
                return None
            if len(live) == 1 and unit is None:
                unit = live[0]
            simplified.append(clause if len(live) == len(clause) else live)
        clauses = simplified
        if unit is None:
            return clauses, assignment
        assignment = dict(assignment)
        assignment[abs(unit)] = unit > 0


def _dpll(clauses, assignment, s):
    """DPLL on an explicit stack, so its depth is not bounded by Python's
    recursion limit. It branches on the first literal of the first open
    clause, True before False, and returns the first model found."""
    stack = [(clauses, assignment)]
    while stack:
        state = _propagate(*stack.pop())
        if state is None:
            continue
        clauses, assignment = state
        if not clauses:
            return True, {v: assignment.get(v, False) for v in range(1, s + 1)}
        branch = abs(clauses[0][0])
        stack.append((clauses, {**assignment, branch: False}))
        stack.append((clauses, {**assignment, branch: True}))
    return False, None


# -- independent layout materialization ----------------------------------


def delta_layout(quad: GadgetQuadruple, S: CnfInstance) -> Digraph:
    """Materialize the glued chain by placing gadget copies directly.

    Labels follow the compiled layout, but the placement arithmetic below
    is local to this function: each copy's edges are dropped onto the label
    line, and the gluing identifications fall out of the slot numbering.
    Like sat_solve's enumeration, it visits all 2^s assignments, so it
    refuses s > _ENUM_LIMIT.
    """
    if not isinstance(quad, GadgetQuadruple):
        raise NotValidated("expected a normalized GadgetQuadruple")
    s = S.s
    if s > _ENUM_LIMIT:
        raise TooLargeToMaterialize(f"delta_layout places 2^{s} copies; s must be <= {_ENUM_LIMIT}")
    ell_hat = (1 << s) - 1
    n1, n2 = quad.n1, quad.n2
    size1 = quad.g1.n
    kpp = quad.k_dprime
    big_n = quad.big_n(s)

    def pre(r):  # prefix gadget slot
        if r < quad.g2.n - kpp:
            return r
        return n2 + ell_hat * n1 + r + size1 - quad.g2.n

    def mid(q, r):  # copy-q slot; shared tails collapse onto the last copy
        if r < size1 - kpp:
            return n2 + q * n1 + r
        return n2 + ell_hat * n1 + r

    def post(r):  # suffix gadget slot
        return n2 + (1 << s) * n1 + r

    edges = set()
    for u, v in quad.g2.graph.edges:
        edges.add((pre(u), pre(v)))
    for q in range(1 << s):
        body = quad.g0 if S.value(q) else quad.g1
        for u, v in body.graph.edges:
            edges.add((mid(q, u), mid(q, v)))
    for u, v in quad.g3.graph.edges:
        edges.add((post(u), post(v)))
    return Digraph(big_n, edges)


# -- end-to-end reports --------------------------------------------------

LOOP_SENTENCE = "ex x. E(x,x)"
DEFAULT_SEED = 2024


@lru_cache(maxsize=8)
def _compiled_sentence(text: str) -> CompiledFormula:
    """check_instance's sentence, parsed and compiled once per text; a
    ParseError is raised again on every call, as failures are not cached."""
    return CompiledFormula.parse(text)


@dataclass(frozen=True)
class InstanceRecord:
    instance: CnfInstance
    satisfiable: bool
    models_sentence: bool
    routes_agree: bool
    succ_ref_agrees: bool
    n_vertices: int
    gate_count: int

    @property
    def ok(self):
        return (
            self.routes_agree
            and self.succ_ref_agrees
            and self.satisfiable == self.models_sentence
        )

    def to_json_obj(self):
        return {
            "s": self.instance.s,
            "clauses": [list(c) for c in self.instance.clauses],
            "satisfiable": self.satisfiable,
            "models_sentence": self.models_sentence,
            "routes_agree": self.routes_agree,
            "succ_ref_agrees": self.succ_ref_agrees,
            "n_vertices": self.n_vertices,
            "gate_count": self.gate_count,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class EndToEndReport:
    records: tuple

    @property
    def ok(self):
        return all(r.ok for r in self.records)

    def to_json_obj(self):
        return {"ok": self.ok, "records": [r.to_json_obj() for r in self.records]}


def check_instance(S: CnfInstance, quad=None, sentence=LOOP_SENTENCE, limit=100000) -> InstanceRecord:
    """Compile S, materialize along every route, evaluate the sentence, and
    compare the verdict with a direct SAT decision."""
    if quad is None:
        quad = toy_quadruple()
    sgr = compile_reduction(quad, S)
    g = materialize(sgr, limit)
    agree = graph_equal(g, delta_layout(quad, S))
    ref = succ_ref_graph(quad, S)
    models = _compiled_sentence(sentence).eval(g)
    sat, _ = sat_solve(S)
    return InstanceRecord(
        S, sat, models, agree, graph_equal(g, ref), sgr.n_vertices, sgr.circuit.gate_count()
    )


def end_to_end(quad=None, sentence=LOOP_SENTENCE, instances=None) -> EndToEndReport:
    """Run check_instance across a battery (the built-in one by default).
    An empty battery checks nothing, so it is refused with BadParam."""
    instances = builtin_battery() if instances is None else tuple(instances)
    if not instances:
        raise BadParam("end_to_end needs at least one instance")
    return EndToEndReport(
        tuple(check_instance(S, quad, sentence) for S in instances)
    )


# -- instance batteries --------------------------------------------------


def builtin_battery(seed=DEFAULT_SEED):
    """small_cnf_battery, then ten seeded instances on three variables."""
    return small_cnf_battery() + seeded_cnf_battery(3, 10, seed)


def small_cnf_battery():
    """Every CNF on one or two variables with at most two clauses, clauses
    drawn from the distinct-variable clauses of length one or two."""
    out = []
    for s in (1, 2):
        lits = [l for v in range(1, s + 1) for l in (v, -v)]
        clauses = [(l,) for l in lits]
        clauses += [
            c
            for c in combinations(lits, 2)
            if len({abs(l) for l in c}) == 2
        ]
        for count in (0, 1, 2):
            for chosen in combinations(clauses, count):
                out.append(CnfInstance(s, chosen))
    return out


def seeded_cnf_battery(s: int, count: int, seed: int):
    """Reproducible random instances: clause counts and widths drawn
    uniformly from small ranges."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n_clauses = rng.randint(1, 2 * s)
        clauses = []
        for _ in range(n_clauses):
            width = rng.randint(1, min(3, s))
            variables = rng.sample(range(1, s + 1), width)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
        out.append(CnfInstance(s, clauses))
    return out
