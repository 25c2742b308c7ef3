"""The benchmark's calls into succmso, optionally wrapped in spans.

Every call the workloads make into the program goes through the namespace
``bind`` returns. Untraced, its attributes are the program's own
functions. Traced, each is wrapped so that the call records a span (id,
parent id, name, start, end) in memory; the span name is
``<module>.<function>`` and the module is the layer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from itertools import count
from types import SimpleNamespace

from succmso import efgame, graph, mso, reduce, sgr, treedec, verify

# -- per-call counters, computed from arguments and results ---------------


def _count_compile(c, args, result, dur):
    c["reduce.gates"] += result.circuit.gate_count()
    c["reduce.label_bits"] += result.circuit.label_bits


def _count_materialize(c, args, result, dur):
    n = args[0].n_vertices
    c["sgr.pairs"] += n * n
    c["circuit.pair_gates"] += n * n * args[0].circuit.gate_count()
    c["sgr.edges_out"] += len(result.edges)


def _count_edge_query(c, args, result, dur):
    c["circuit.query_gates"] += args[0].circuit.gate_count()


def _count_serialize(c, args, result, dur):
    c["sgr.json_bytes"] += len(result)


def _count_succ_ref(c, args, result, dur):
    c["reduce.succ_ref_labels"] += len(result)


def _count_digraph(c, args, result, dur):
    c["graph.edges_built"] += len(result.edges)


def _count_eval(c, args, result, dur):
    size = "small" if args[1].n <= 4 else "large"
    c[f"mso.eval_{size}_ns"] += dur
    c[f"mso.eval_{size}_calls"] += 1


# (span name, attribute, function, counter hook)
CALLS = (
    ("sgr.materialize", "materialize", sgr.materialize, _count_materialize),
    ("sgr.edge_query", "edge_query", sgr.edge_query, _count_edge_query),
    ("sgr.serialize", "serialize", sgr.serialize, _count_serialize),
    ("sgr.parse", "parse_sgr", sgr.parse, None),
    ("reduce.CnfInstance", "CnfInstance", reduce.CnfInstance, None),
    ("reduce.compile_reduction", "compile_reduction", reduce.compile_reduction, _count_compile),
    ("reduce.succ_ref", "succ_ref", reduce.succ_ref, _count_succ_ref),
    ("reduce.normalize_layout", "normalize_layout", reduce.normalize_layout, None),
    ("reduce.build_quadruple", "build_quadruple", reduce.build_quadruple, None),
    ("reduce.toy_quadruple", "toy_quadruple", reduce.toy_quadruple, None),
    ("reduce.path_triple", "path_triple", reduce.path_triple, None),
    ("verify.check_instance", "check_instance", verify.check_instance, None),
    ("verify.delta_layout", "delta_layout", verify.delta_layout, None),
    ("verify.sat_solve", "sat_solve", verify.sat_solve, None),
    ("graph.Digraph", "Digraph", graph.Digraph, _count_digraph),
    ("graph.BiboundariedGraph", "BiboundariedGraph", graph.BiboundariedGraph, None),
    ("graph.graph_equal", "graph_equal", graph.graph_equal, None),
    ("graph.delta", "delta", graph.delta, None),
    ("mso.parse", "parse_formula", mso.parse, None),
    ("mso.CompiledFormula", "CompiledFormula", mso.CompiledFormula, None),
    ("mso.eval", "eval", mso.CompiledFormula.eval, _count_eval),
    ("efgame.ef_equiv", "ef_equiv", efgame.ef_equiv, None),
    ("efgame.q_search", "q_search", efgame.q_search, None),
    ("treedec.treewidth_exact", "treewidth_exact", treedec.treewidth_exact, None),
    ("treedec.decomposition_of_delta", "decomposition_of_delta", treedec.decomposition_of_delta, None),
    ("treedec.validate", "validate", treedec.validate, None),
    ("treedec.normalize_degree3", "normalize_degree3", treedec.normalize_degree3, None),
    ("treedec.TreeDecomposition", "TreeDecomposition", treedec.TreeDecomposition, None),
)


class Tracer:
    """Spans and counters of one phase, kept in memory."""

    def __init__(self):
        self.spans = []  # (id, parent id or 0, name, start ns, end ns)
        self.counters = defaultdict(int)
        self._stack = [0]
        self._ids = count(1)

    def wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        next_id, clock = self._ids.__next__, time.perf_counter_ns

        def traced(*args):
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if hook is not None:
                hook(counters, args, result, end - start)
            return result

        return traced

    def take(self):
        """End the phase: return its spans, its self time and call count
        per span name, and its counters, and start an empty phase.

        A span's self time is its duration minus the durations of its
        children; spans of one thread nest, so children never overlap.
        """
        spans = list(self.spans)
        child_ns = defaultdict(int)
        for _, parent, _, start, end in spans:
            child_ns[parent] += end - start
        self_ns, calls = defaultdict(int), defaultdict(int)
        for sid, _, name, start, end in spans:
            self_ns[name] += end - start - child_ns[sid]
            calls[name] += 1
        counters = dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, dict(self_ns), dict(calls), counters


def bind(tracer=None):
    """The namespace of program calls, traced when a tracer is given."""
    api = SimpleNamespace()
    for name, attr, fn, hook in CALLS:
        setattr(api, attr, fn if tracer is None else tracer.wrap(name, fn, hook))
    return api
