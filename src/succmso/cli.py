"""Batch command-line surface.

Exit codes: 0 for success (and true verdicts), 1 for operation failures and
false verdicts of boolean queries (the verdict is also printed, so shell
pipelines can branch on either), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import efgame, graph, mso, sgr, treedec, verify
from . import reduce as reduce_mod
from .errors import ParseError, SuccmsoError
from .graph import BiboundariedGraph, Digraph

DEFAULT_SEED = verify.DEFAULT_SEED


# -- input helpers -------------------------------------------------------


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_out(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _load_graph(path) -> Digraph:
    g = graph.parse_graph(_read(path))
    return g.graph if isinstance(g, BiboundariedGraph) else g


def _load_bib(path) -> BiboundariedGraph:
    g = graph.parse_graph(_read(path))
    if not isinstance(g, BiboundariedGraph):
        g = BiboundariedGraph(g, (), ())
    return g


def _load_quad(spec) -> reduce_mod.GadgetQuadruple:
    if spec == "toy":
        return reduce_mod.toy_quadruple()
    objs = json.loads(_read(spec))
    gs = [graph.bib_from_json_obj(o) for o in objs]
    if len(gs) != 4:
        raise SuccmsoError(f"expected 4 gadgets in {spec}, got {len(gs)}")
    return reduce_mod.normalize_layout(*gs)


def _load_triple(spec) -> graph.GadgetTriple:
    if spec == "path":
        return reduce_mod.path_triple()
    objs = json.loads(_read(spec))
    gs = [graph.bib_from_json_obj(o) for o in objs]
    if len(gs) != 3:
        raise SuccmsoError(f"expected 3 gadgets in {spec}, got {len(gs)}")
    return graph.GadgetTriple(*gs)


def _load_object(path):
    """A JSON file that must hold an object, such as a letter-keyed family."""
    obj = json.loads(_read(path))
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return obj


def _load_family(path):
    return {letter: graph.bib_from_json_obj(o) for letter, o in _load_object(path).items()}


def _load_cnf(path) -> reduce_mod.CnfInstance:
    return reduce_mod.parse_dimacs(_read(path))


def _battery(spec, seed):
    if spec == "builtin":
        return verify.small_cnf_battery() + verify.seeded_cnf_battery(3, 10, seed)
    return [reduce_mod.parse_dimacs(chunk) for chunk in _read(spec).split("\n%\n") if chunk.strip()]


def _graph_battery(spec):
    if spec == "builtin":
        out = []
        for n in (1, 2):
            pairs = [(u, v) for u in range(n) for v in range(n)]
            for mask in range(1 << len(pairs)):
                out.append(Digraph(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1]))
        return out
    return [_load_graph(spec)]


def _emit(args, human, payload):
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def _verdict(args, value: bool, payload=None) -> int:
    _emit(args, "true" if value else "false", payload if payload is not None else {"verdict": value})
    return 0 if value else 1


# -- subcommand handlers -------------------------------------------------


def _cmd_sgr(args):
    s = sgr.parse(_read(args.sgr))
    if args.sgr_cmd == "materialize":
        g = sgr.materialize(s, args.limit)
        text = graph.format_graph(g)
        if args.json:
            text = json.dumps({"n": g.n, "edges": sorted([u, v] for u, v in g.edges)})
        _write_out(args, text)
        return 0
    if args.sgr_cmd == "edge":
        return _verdict(args, sgr.edge_query(s, args.x, args.y))
    return _verdict(args, sgr.check_size_convention(s))


def _cmd_mso(args):
    if args.mso_cmd == "parse":
        formula = mso.parse(args.formula, allow_free=args.allow_free)
        printed = mso.print_formula(formula)
        _emit(args, printed, {"formula": printed, "rank": mso.rank(formula)})
        return 0
    if args.mso_cmd == "rank":
        formula = mso.parse(args.formula, allow_free=True)
        _emit(args, str(mso.rank(formula)), {"rank": mso.rank(formula)})
        return 0
    formula = mso.parse(args.formula)
    g = _load_graph(args.graph)
    return _verdict(args, mso.eval_formula(g, formula))


def _cmd_td(args):
    if args.td_cmd == "treewidth":
        g = _load_graph(args.graph)
        tw = treedec.treewidth_exact(g)
        _emit(args, str(tw), {"treewidth": tw})
        return 0
    if args.td_cmd == "of-delta":
        gamma = _load_family(args.gadgets)
        decs = {k: treedec.from_json_obj(v) for k, v in _load_object(args.decs).items()}
        t = treedec.decomposition_of_delta(gamma, decs, args.word)
        _write_out(args, treedec.serialize(t))
        return 0
    t = treedec.parse(_read(args.dec))
    if args.td_cmd == "validate":
        g = _load_graph(args.graph)
        violations = treedec.validate(g, t)
        payload = {"valid": not violations, "violations": [repr(v) for v in violations]}
        if args.json:
            print(json.dumps(payload))
        else:
            print("valid" if not violations else "invalid")
            for v in violations:
                print(f"  {v}")
        return 0 if not violations else 1
    if args.td_cmd == "width":
        w = treedec.width(t)
        _emit(args, str(w), {"width": w})
        return 0
    _write_out(args, treedec.serialize(treedec.normalize_degree3(t)))
    return 0


def _cmd_ef(args):
    if args.ef_cmd == "equiv":
        return _verdict(args, efgame.ef_equiv(_load_graph(args.g), _load_graph(args.h), args.m))
    if args.ef_cmd == "qsearch":
        q = efgame.q_search(_load_graph(args.graph), args.m, args.qmax)
        if q is efgame.NOT_FOUND:
            _emit(args, "not found", {"q": None})
            return 1
        _emit(args, str(q), {"q": q})
        return 0
    if args.ef_cmd == "qbound":
        if args.m is None:
            q = efgame.q_bound(args.size, args.m1, args.m2)
        else:
            q = efgame.q_bound_total(args.size, args.m)
        _emit(args, str(q), {"bound": q})
        return 0
    omega = _load_graph(args.omega)
    formula = mso.parse(args.formula)
    verdict = efgame.saturating_scan(omega, formula, _graph_battery(args.battery))
    _emit(args, verdict, {"verdict": verdict})
    return 0 if verdict != efgame.MIXED else 1


def _cmd_graph(args):
    if args.graph_cmd == "iso":
        return _verdict(
            args, graph.isomorphic_small(_load_graph(args.a), _load_graph(args.b))
        )
    if args.graph_cmd == "union":
        g = graph.disjoint_union(_load_graph(args.a), _load_graph(args.b))
        _write_out(args, graph.format_graph(g))
        return 0
    if args.graph_cmd == "glue":
        g = graph.glue(_load_bib(args.a), _load_bib(args.b))
    else:
        g = graph.delta(_load_family(args.gadgets), args.word)
    if args.json:
        _write_out(args, json.dumps(graph.bib_to_json_obj(g)))
    else:
        _write_out(args, graph.format_graph(g))
    return 0


def _cmd_reduce(args):
    cmd = args.reduce_cmd
    if cmd == "sat2sgr":
        quad = _load_quad(args.gadgets)
        s = reduce_mod.compile_reduction(quad, _load_cnf(args.cnf))
        _write_sgr(args, s)
        return 0
    if cmd in ("loop", "clique"):
        op = reduce_mod.reduce_loop if cmd == "loop" else reduce_mod.reduce_clique
        _write_sgr(args, op(_load_cnf(args.cnf)))
        return 0
    if cmd == "build-quad":
        quad = reduce_mod.build_quadruple(_load_triple(args.triple), _load_graph(args.omega))
        _write_out(args, json.dumps(quad.to_json_obj()))
        return 0
    if cmd == "validate-quad":
        try:
            _load_quad(args.gadgets)
        except SuccmsoError as exc:
            _emit(args, f"invalid: {exc}", {"valid": False, "error": exc.name})
            return 1
        return _verdict(args, True, {"valid": True})
    if cmd == "pump-check":
        triple = _load_triple(args.triple)
        formula = mso.parse(args.formula)
        rep = reduce_mod.pump_check(triple, formula, args.expected == "true", args.nmax)
        payload = {
            "ok": rep.ok,
            "results": [[n, v] for n, v in rep.results],
            "first_mismatch": rep.first_mismatch,
        }
        return _verdict(args, rep.ok, payload)
    quad = _load_quad(args.gadgets)
    succs = sorted(reduce_mod.succ_ref(quad, _load_cnf(args.cnf), args.x))
    _emit(args, " ".join(map(str, succs)), {"successors": succs})
    return 0


def _write_sgr(args, s):
    _write_out(args, sgr.serialize(s))
    if not getattr(args, "out", None):
        return
    print(s.n_vertices)


def _cmd_verify(args):
    if args.verify_cmd == "sat":
        ok, model = verify.sat_solve(_load_cnf(args.cnf))
        payload = {"satisfiable": ok, "model": model and {str(k): v for k, v in model.items()}}
        _emit(args, "sat" if ok else "unsat", payload)
        return 0 if ok else 1
    if args.verify_cmd == "delta-layout":
        g = verify.delta_layout(_load_quad(args.gadgets), _load_cnf(args.cnf))
        _write_out(args, graph.format_graph(g))
        return 0
    quad = _load_quad(args.gadgets)
    report = verify.end_to_end(quad, args.formula, _battery(args.battery, args.seed))
    if args.json:
        print(json.dumps(report.to_json_obj()))
    else:
        for rec in report.records:
            status = "pass" if rec.ok else "FAIL"
            print(
                f"{status} s={rec.instance.s} clauses={list(rec.instance.clauses)} "
                f"sat={rec.satisfiable} models={rec.models_sentence} N={rec.n_vertices}"
            )
        print("overall:", "pass" if report.ok else "FAIL")
    return 0 if report.ok else 1


# -- parser --------------------------------------------------------------


def _check_qbound(parser, args):
    """qbound takes --m alone, or --m1 with --m2; anything else exits 2."""
    alone = args.m is not None and args.m1 is None and args.m2 is None
    split = args.m is None and args.m1 is not None and args.m2 is not None
    if not (alone or split):
        parser.error("give --m, or both --m1 and --m2")


def _build_parser():
    top = argparse.ArgumentParser(prog="succmso")
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("sgr")
    ps = p.add_subparsers(dest="sgr_cmd", required=True)
    q = ps.add_parser("materialize")
    q.add_argument("--sgr", required=True)
    q.add_argument("--limit", type=int, default=4096)
    q.add_argument("--out")
    q = ps.add_parser("edge")
    q.add_argument("--sgr", required=True)
    q.add_argument("--x", type=int, required=True)
    q.add_argument("--y", type=int, required=True)
    q = ps.add_parser("check-size")
    q.add_argument("--sgr", required=True)

    p = sub.add_parser("mso")
    ps = p.add_subparsers(dest="mso_cmd", required=True)
    q = ps.add_parser("check")
    q.add_argument("--graph", required=True)
    q.add_argument("--formula", required=True)
    q = ps.add_parser("rank")
    q.add_argument("--formula", required=True)
    q = ps.add_parser("parse")
    q.add_argument("--formula", required=True)
    q.add_argument("--allow-free", action="store_true")

    p = sub.add_parser("td")
    ps = p.add_subparsers(dest="td_cmd", required=True)
    q = ps.add_parser("validate")
    q.add_argument("--graph", required=True)
    q.add_argument("--dec", required=True)
    q = ps.add_parser("width")
    q.add_argument("--dec", required=True)
    q = ps.add_parser("normalize3")
    q.add_argument("--dec", required=True)
    q.add_argument("--out")
    q = ps.add_parser("treewidth")
    q.add_argument("--graph", required=True)
    q = ps.add_parser("of-delta")
    q.add_argument("--gadgets", required=True)
    q.add_argument("--decs", required=True)
    q.add_argument("--word", required=True)
    q.add_argument("--out")

    p = sub.add_parser("ef")
    ps = p.add_subparsers(dest="ef_cmd", required=True)
    q = ps.add_parser("equiv")
    q.add_argument("--g", required=True)
    q.add_argument("--h", required=True)
    q.add_argument("--m", type=int, required=True)
    q = ps.add_parser("qsearch")
    q.add_argument("--graph", required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--qmax", type=int, default=4)
    q = ps.add_parser("qbound")
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--m", type=int, default=None)
    q.add_argument("--m1", type=int, default=None)
    q.add_argument("--m2", type=int, default=None)
    q.set_defaults(check_usage=lambda a, q=q: _check_qbound(q, a))
    q = ps.add_parser("saturate")
    q.add_argument("--omega", required=True)
    q.add_argument("--formula", required=True)
    q.add_argument("--battery", default="builtin")

    p = sub.add_parser("graph")
    ps = p.add_subparsers(dest="graph_cmd", required=True)
    q = ps.add_parser("glue")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--out")
    q = ps.add_parser("delta")
    q.add_argument("--gadgets", required=True)
    q.add_argument("--word", required=True)
    q.add_argument("--out")
    q = ps.add_parser("union")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--out")
    q = ps.add_parser("iso")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)

    p = sub.add_parser("reduce")
    ps = p.add_subparsers(dest="reduce_cmd", required=True)
    q = ps.add_parser("sat2sgr")
    q.add_argument("--cnf", required=True)
    q.add_argument("--gadgets", required=True)
    q.add_argument("--out")
    for name in ("loop", "clique"):
        q = ps.add_parser(name)
        q.add_argument("--cnf", required=True)
        q.add_argument("--out")
    q = ps.add_parser("build-quad")
    q.add_argument("--triple", required=True)
    q.add_argument("--omega", required=True)
    q.add_argument("--out")
    q = ps.add_parser("validate-quad")
    q.add_argument("--gadgets", required=True)
    q = ps.add_parser("pump-check")
    q.add_argument("--triple", required=True)
    q.add_argument("--formula", required=True)
    q.add_argument("--expected", choices=("true", "false"), required=True)
    q.add_argument("--nmax", type=int, default=6)
    q = ps.add_parser("succ-ref")
    q.add_argument("--gadgets", required=True)
    q.add_argument("--cnf", required=True)
    q.add_argument("--x", type=int, required=True)

    p = sub.add_parser("verify")
    ps = p.add_subparsers(dest="verify_cmd", required=True)
    q = ps.add_parser("sat")
    q.add_argument("--cnf", required=True)
    q = ps.add_parser("delta-layout")
    q.add_argument("--gadgets", required=True)
    q.add_argument("--cnf", required=True)
    q.add_argument("--out")
    q = ps.add_parser("end2end")
    q.add_argument("--gadgets", required=True)
    q.add_argument("--formula", default=verify.LOOP_SENTENCE)
    q.add_argument("--battery", default="builtin")
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return top


_HANDLERS = {
    "sgr": _cmd_sgr,
    "mso": _cmd_mso,
    "td": _cmd_td,
    "ef": _cmd_ef,
    "graph": _cmd_graph,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        check_usage = getattr(args, "check_usage", None)
        if check_usage is not None:
            check_usage(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _HANDLERS[args.cmd](args)
    except SuccmsoError as exc:
        print(f"error: {exc.name}: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
