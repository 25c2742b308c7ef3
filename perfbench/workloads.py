"""The four workloads.

A workload makes a pool of jobs from the seed in ``setup`` and the
expected answer of each job in ``expected`` (from ``oracles``, never from
succmso). ``run`` performs one job through the program-call namespace and
returns what the program answered; ``check`` compares that with the
expected answer. Each job is tagged with the cell it belongs to.

With ``corrupt`` set, a workload feeds itself a wrong expected answer or a
corrupted SGR, so that a live correctness gate fails every job.
"""

from __future__ import annotations

import oracles

LIMIT = 100_000  # the default materialization limit of verify.check_instance


class Job:
    __slots__ = ("cell", "data", "expected")

    def __init__(self, cell, data):
        self.cell = cell
        self.data = data
        self.expected = None


def shared_port_gadgets(api):
    """k=2 with one shared port (k''=1); the gadgets of the shared-port
    quadruple in the repository's reduction tests."""
    bib, dg = api.BiboundariedGraph, api.Digraph
    g1 = bib(dg(4, [(0, 1), (1, 2), (3, 1), (0, 3), (1, 3)]), (0, 3), (2, 3))
    g0 = bib(dg(4, [(0, 0), (0, 2), (3, 1), (0, 3), (2, 3)]), (0, 3), (2, 3))
    g2 = bib(dg(5, [(0, 1), (1, 2), (0, 4), (4, 3), (2, 4)]), (0, 4), (2, 4))
    g3 = bib(dg(3, [(0, 1), (2, 1), (0, 2)]), (0, 2), (1, 2))
    return g0, g1, g2, g3


def _quadruples(api, names):
    makers = {
        "path": lambda: api.build_quadruple(api.path_triple(), api.Digraph(1, [(0, 0)])),
        "toy": api.toy_quadruple,
        "shared": lambda: api.normalize_layout(*shared_port_gadgets(api)),
    }
    return {name: makers[name]() for name in names}


def _cnf_pool(api, rng, cells, per_cell):
    """per_cell seeded CNFs for each (cell, quadruple, s). Clause counts
    cycle through 1..2s rather than being drawn, so every seed gets the same
    mix of circuit sizes and only the literals differ."""
    jobs = []
    for i in range(per_cell):
        for cell, quad, s in cells:
            clauses = oracles.random_cnf(rng, s, 1 + i % (2 * s), i // (2 * s))
            jobs.append(Job(cell, (quad, api.CnfInstance(s, clauses))))
    return jobs


def _chain_size(quad, s):
    return oracles.chain_size(quad.g2.n, quad.g1.n, quad.g3.n, quad.k, s)


class ChainVerify:
    """verify.check_instance on seeded CNFs: compile, materialize all N^2
    pairs, compare the three routes, evaluate the loop sentence, solve SAT."""

    name = "chain_verify"
    CELLS = (("path", 4), ("toy", 5), ("shared", 4))
    PER_CELL = 150
    SENTENCE = "ex x. E(x,x)"

    def __init__(self, corrupt=False):
        self.corrupt = corrupt
        self.gate_counts = []

    def setup(self, rng, api):
        quads = _quadruples(api, {name for name, _ in self.CELLS})
        cells = [(f"{name}-s{s}", quads[name], s) for name, s in self.CELLS]
        return _cnf_pool(api, rng, cells, self.PER_CELL)

    def expected(self, job):
        quad, S = job.data
        sat = oracles.brute_force_sat(S.s, S.clauses)
        return (not sat if self.corrupt else sat), _chain_size(quad, S.s)

    def run(self, api, job):
        rec = api.check_instance(job.data[1], job.data[0], self.SENTENCE, LIMIT)
        return (rec.satisfiable, rec.models_sentence, rec.routes_agree,
                rec.succ_ref_agrees, rec.n_vertices, rec.gate_count)

    def replay(self, api, job):
        """check_instance stage by stage through the same public functions,
        so each stage gets its own span; returns the same record fields."""
        quad, S = job.data
        sgr = api.compile_reduction(quad, S)
        n = sgr.n_vertices
        g = api.materialize(sgr, LIMIT)
        agree = api.graph_equal(g, api.delta_layout(quad, S))
        succ_ref = api.succ_ref
        ref = api.Digraph(n, [(x, y) for x in range(n) for y in succ_ref(quad, S, x)])
        models = api.eval(api.CompiledFormula(api.parse_formula(self.SENTENCE)), g)
        sat, _ = api.sat_solve(S)
        return (sat, models, agree, api.graph_equal(g, ref), n, len(sgr.circuit.gates))

    def check(self, job, observed):
        sat, n = job.expected
        self.gate_counts.append(observed[5])
        return observed[:5] == (sat, sat, True, True, n)


class SuccinctQuery:
    """Large s, never materialized: compile, JSON round trip, succ_ref rows
    at the region boundaries and at random labels, and edge queries on each
    row's first out-neighbours, on random labels and on x itself."""

    name = "succinct_query"
    CELLS = (("toy", 16), ("toy", 20), ("shared", 12))
    PER_CELL = 300
    RANDOM_ROWS = 6
    FIRST_NEIGHBOURS = 16
    PROBES_PER_ROW = 4

    def __init__(self, corrupt=False):
        self.corrupt = corrupt
        self.gate_counts = []

    def setup(self, rng, api):
        quads = _quadruples(api, {name for name, _ in self.CELLS})
        cells = [(f"{name}-s{s}", quads[name], s) for name, s in self.CELLS]
        jobs = _cnf_pool(api, rng, cells, self.PER_CELL)
        for job in jobs:
            quad, S = job.data
            big_n = _chain_size(quad, S.s)
            mid_end = quad.n2 + (1 << S.s) * quad.n1
            rows = {0, quad.n2 - 1, quad.n2, mid_end - 1, *range(mid_end, big_n)}
            rows.update(rng.randrange(big_n) for _ in range(self.RANDOM_ROWS))
            rows = sorted(x for x in rows if 0 <= x < big_n)
            probes = [[rng.randrange(big_n) for _ in range(self.PROBES_PER_ROW)] + [x] for x in rows]
            job.data = (quad, S, rows, probes)
        return jobs

    def expected(self, job):
        quad, S = job.data[:2]
        big_n = _chain_size(quad, S.s)
        return big_n, max((big_n - 1).bit_length(), 1)

    def run(self, api, job):
        """Returns (vertex count, label bits, gates, wrong answers)."""
        quad, S, rows, probes = job.data
        sgr = api.compile_reduction(quad, S)
        text = api.serialize(sgr)
        if self.corrupt:
            text = text.replace('"and"', '"or"', 1)
        back = api.parse_sgr(text)
        wrong = 0 if back == sgr else 1
        succ_ref, edge_query = api.succ_ref, api.edge_query
        first = self.FIRST_NEIGHBOURS
        for x, ys in zip(rows, probes):
            row = succ_ref(quad, S, x)
            for y in sorted(row)[:first]:
                wrong += not edge_query(back, x, y)
            for y in ys:
                wrong += edge_query(back, x, y) != (y in row)
        circuit = back.circuit
        return back.n_vertices, circuit.label_bits, len(circuit.gates), wrong

    def check(self, job, observed):
        self.gate_counts.append(observed[2])
        return observed[:2] == job.expected and observed[3] == 0


SENTENCES = (
    "ex x. E(x,x)",
    "all x. ex y. E(x,y)",
    "ex x. ex y. (~x=y & all R. ((x in R & all u. all v. ((u in R & E(u,v)) -> v in R)) -> y in R))",
    "ex X. (ex x. x in X & all u. (u in X -> ex v. ((v in X & ~u=v) & E(u,v))))",
)


class MsoCheck:
    """Build a Digraph and evaluate the loop, total out-degree, reachability
    (through a set quantifier) and nontrivial-cycle sentences on it. Tiny
    graphs and 7-9 vertex near-DAGs are mixed about 4 to 1."""

    name = "mso_check"
    FOUR_VERTEX_SAMPLE = 4269  # with the 531 graphs on <= 3 vertices: 4800 tiny
    LARGER = 1200

    def __init__(self, corrupt=False):
        self.corrupt = corrupt

    def setup(self, rng, api):
        self.formulas = [api.CompiledFormula(api.parse_formula(t)) for t in SENTENCES]
        jobs = [Job("tiny", (n, e)) for n in range(4) for e in oracles.all_digraphs(n)]
        sample = self.FOUR_VERTEX_SAMPLE
        jobs += [Job("tiny", (4, oracles.random_digraph(rng, 4, (i + 0.5) / sample)))
                 for i in range(sample)]
        # sizes, densities, back edges (2 in 5) and loops (3 in 10) are
        # spread evenly, not drawn, so the cost mix does not depend on the seed
        for i in range(self.LARGER):
            n, p = 7 + i % 3, 0.15 + 0.2 * (i + 0.5) / self.LARGER
            edges = oracles.near_dag(rng, n, p, i % 5 < 2, i % 10 < 3)
            jobs.append(Job("larger", (n, edges)))
        return jobs

    def expected(self, job):
        answers = oracles.mso_answers(*job.data)
        if self.corrupt:
            answers = answers[:3] + (not answers[3],)
        return answers

    def run(self, api, job):
        g = api.Digraph(*job.data)
        ev = api.eval
        f0, f1, f2, f3 = self.formulas
        return ev(f0, g), ev(f1, g), ev(f2, g), ev(f3, g)

    def check(self, job, observed):
        return observed == job.expected


def _decomposition_family(api):
    """Three one-port gadgets with anchored decompositions (root bag P1,
    pointed-leaf bag P2): an edge (width 1), a triangle (width 2) and a fan
    whose decomposition has a node of degree 5 (width 2)."""
    bib, dg, td = api.BiboundariedGraph, api.Digraph, api.TreeDecomposition
    gamma = {
        "e": bib(dg(2, [(0, 1)]), (0,), (1,)),
        "t": bib(dg(3, [(0, 1), (1, 2), (0, 2)]), (0,), (2,)),
        "f": bib(dg(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]), (0,), (4,)),
    }
    decs = {
        "e": td(0, [-1, 0, 1], [{0}, {0, 1}, {1}], 2),
        "t": td(0, [-1, 0, 1], [{0}, {0, 1, 2}, {2}], 2),
        "f": td(0, [-1, 0, 1, 1, 1, 1],
                [{0}, {0, 4}, {0, 1, 4}, {0, 2, 4}, {0, 3, 4}, {4}], 5),
    }
    widths = {"e": 1, "t": 2, "f": 2}
    nodes = {"e": 3, "t": 3, "f": 6}
    return gamma, decs, widths, nodes


class GamesTw:
    """EF games on a graph and a relabelled copy, the idempotence search on
    a point and a loop, exact treewidth of random k-trees, and chain
    decompositions of random words, interleaved."""

    name = "games_tw"
    EF_CELLS = ((3, 2), (4, 2), (5, 2), (2, 3), (3, 3))
    EF_PER_CELL = 120
    Q_PER_CELL = 40
    TW_SIZES = (8, 9, 10)
    TW_WIDTHS = (2, 3, 4)
    TW_PER_CELL = 48
    WORDS = 640

    def __init__(self, corrupt=False):
        self.corrupt = corrupt

    def setup(self, rng, api):
        self.gamma, self.decs, self.widths, self.nodes = _decomposition_family(api)
        jobs = []
        for n, m in self.EF_CELLS:
            for i in range(self.EF_PER_CELL):
                edges = oracles.random_digraph(rng, n, 0.2 + 0.4 * (i + 0.5) / self.EF_PER_CELL)
                jobs.append(Job(f"ef-n{n}m{m}", ("ef", n, edges, oracles.relabel(rng, n, edges), m)))
        for name, edges in (("point", []), ("loop", [(0, 0)])):
            for m in (1, 2):
                jobs += [Job(f"q-{name}-m{m}", ("q", edges, m)) for _ in range(self.Q_PER_CELL)]
        for n in self.TW_SIZES:
            for k in self.TW_WIDTHS:
                jobs += [Job(f"tw-n{n}k{k}", ("tw", n, oracles.k_tree(rng, n, k), k))
                         for _ in range(self.TW_PER_CELL)]
        letters = sorted(self.gamma)
        for i in range(self.WORDS):
            word = "".join(rng.choice(letters) for _ in range(4 + i % 13))
            jobs.append(Job("dec", ("dec", word)))
        return jobs

    def expected(self, job):
        kind = job.data[0]
        if kind == "ef":
            answer = True
        elif kind == "q":
            answer = job.data[2]  # q(point, m) = q(loop, m) = m for m <= 2
        elif kind == "tw":
            answer = job.data[3]
        else:
            word = job.data[1]
            width = max(self.widths[c] for c in word)
            nodes = sum(self.nodes[c] for c in word) - (len(word) - 1)
            answer = (0, width, nodes, True, width)
        if self.corrupt:
            answer = (kind, answer)
        return answer

    def run(self, api, job):
        kind = job.data[0]
        if kind == "ef":
            _, n, eg, eh, m = job.data
            return api.ef_equiv(api.Digraph(n, eg), api.Digraph(n, eh), m)
        if kind == "q":
            return api.q_search(api.Digraph(1, job.data[1]), job.data[2], 4)
        if kind == "tw":
            return api.treewidth_exact(api.Digraph(job.data[1], job.data[2]))
        word = job.data[1]
        t = api.decomposition_of_delta(self.gamma, self.decs, word)
        violations = api.validate(api.delta(self.gamma, word).graph, t)
        t3 = api.normalize_degree3(t)
        return (
            len(violations),
            max(len(b) for b in t.bags) - 1,
            len(t.parents),
            oracles.tree_degree_ok(t3.parents, t3.root),
            max(len(b) for b in t3.bags) - 1,
        )

    def check(self, job, observed):
        return observed == job.expected


WORKLOADS = {w.name: w for w in (ChainVerify, SuccinctQuery, MsoCheck, GamesTw)}
