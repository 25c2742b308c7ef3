"""The ``succmso`` command; README states its exit codes and error lines.

Each leaf command carries its handler (``set_defaults(run=...)``), and
``main`` runs it. ``_read`` is the one reader of input files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import efgame, graph, mso, sgr, treedec, verify
from . import reduce as reduce_mod
from .errors import ParseError, SuccmsoError
from .graph import BiboundariedGraph, Digraph


# -- input ---------------------------------------------------------------


def _read(path, parse):
    """parse applied to the UTF-8 text of path: the one reader of input
    files. A SuccmsoError raised while reading keeps its class and gets the
    path put before its message."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except SuccmsoError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _read_json(path, kind, convert):
    """The JSON array or object (kind list or dict) in path, each entry converted."""

    def parse(text):
        value = graph.json_value(text)
        if not isinstance(value, kind):
            raise ParseError(f"expected a JSON {'array' if kind is list else 'object'}")
        if kind is list:
            return list(map(convert, value))
        return {k: convert(v) for k, v in value.items()}

    return _read(path, parse)


def _load_graph(path) -> Digraph:
    g = _read(path, graph.parse_graph)
    return g.graph if isinstance(g, BiboundariedGraph) else g


def _load_bib(path) -> BiboundariedGraph:
    g = _read(path, graph.parse_graph)
    return g if isinstance(g, BiboundariedGraph) else BiboundariedGraph(g, (), ())


# gadget count -> (built-in name, built-in set, assembler for a file's gadgets)
_GADGET_SETS = {
    4: ("toy", reduce_mod.toy_quadruple, reduce_mod.normalize_layout),
    3: ("path", reduce_mod.path_triple, graph.GadgetTriple),
}


def _load_gadgets(spec, count):
    """The built-in quadruple ("toy", count 4) or triple ("path", count 3),
    or a JSON array file of exactly count gadgets."""
    name, builtin, assemble = _GADGET_SETS[count]
    if spec == name:
        return builtin()
    gadgets = _read_json(spec, list, graph.bib_from_json_obj)
    if len(gadgets) != count:
        raise ParseError(f"{spec}: expected {count} gadgets, got {len(gadgets)}")
    return assemble(*gadgets)


def _parse_battery(text):
    """DIMACS CNFs separated by lines holding only % once stripped, so a
    CRLF line end or a separator on the first line is one too; at least one
    CNF. A CNF's error keeps its class and gets the CNF's number and its
    first line in the file put before its message."""
    lines = text.splitlines()
    battery = []
    first = 0  # the chunk's first line, counted from 0
    for i, line in enumerate([*lines, "%"]):
        if line.strip() != "%":
            continue
        chunk = "\n".join(lines[first:i])
        if chunk.strip():
            try:
                battery.append(reduce_mod.parse_dimacs(chunk))
            except SuccmsoError as exc:
                where = f"CNF {len(battery) + 1} (its line 1 is file line {first + 1})"
                exc.args = (f"{where}: {exc}",)
                raise
        first = i + 1
    if not battery:
        raise ParseError("no CNF in the battery")
    return battery


def _battery(spec, seed):
    if spec == "builtin":
        return verify.builtin_battery(verify.DEFAULT_SEED if seed is None else seed)
    return _read(spec, _parse_battery)


def _graph_battery(spec):
    if spec != "builtin":
        return [_load_graph(spec)]
    out = []
    for n in (1, 2):
        pairs = [(u, v) for u in range(n) for v in range(n)]
        for mask in range(1 << len(pairs)):
            out.append(Digraph(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1]))
    return out


# -- output --------------------------------------------------------------


def _write_out(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)
    return 0


def _write_graph(args, g):
    """The text format, or under --json {"n", "edges"} (plus "p1", "p2" for
    a biboundaried graph)."""
    if not args.json:
        text = graph.format_graph(g)
    elif isinstance(g, BiboundariedGraph):
        text = json.dumps(graph.bib_to_json_obj(g))
    else:
        text = json.dumps({"n": g.n, "edges": sorted([u, v] for u, v in g.edges)})
    return _write_out(args, text)


def _write_sgr(args, s):
    """The SGR bundle; with --out, N is printed too."""
    _write_out(args, sgr.serialize(s))
    if args.out:
        _emit(args, str(s.n_vertices), {"N": s.n_vertices})
    return 0


def _emit(args, human, payload):
    print(json.dumps(payload) if args.json else human)
    return 0


def _verdict(args, value: bool, payload=None) -> int:
    _emit(args, "true" if value else "false", {"verdict": value} if payload is None else payload)
    return 0 if value else 1


# -- handlers ------------------------------------------------------------


def _sgr_materialize(args):
    return _write_graph(args, sgr.materialize(_read(args.sgr, sgr.parse), args.limit))


def _sgr_edge(args):
    return _verdict(args, sgr.edge_query(_read(args.sgr, sgr.parse), args.x, args.y))


def _sgr_check_size(args):
    return _verdict(args, sgr.check_size_convention(_read(args.sgr, sgr.parse)))


def _mso_check(args):
    sentence = mso.CompiledFormula.parse(args.formula)
    return _verdict(args, sentence.eval(_load_graph(args.graph)))


def _mso_rank(args):
    rank = mso.CompiledFormula.parse(args.formula, allow_free=True).rank
    return _emit(args, str(rank), {"rank": rank})


def _mso_parse(args):
    compiled = mso.CompiledFormula.parse(args.formula, allow_free=args.allow_free)
    return _emit(args, compiled.text, {"formula": compiled.text, "rank": compiled.rank})


def _td_validate(args):
    violations = treedec.validate(_load_graph(args.graph), _read(args.dec, treedec.parse))
    if args.json:
        print(json.dumps({"valid": not violations, "violations": list(map(repr, violations))}))
    else:
        print("invalid" if violations else "valid")
        for v in violations:
            print(f"  {v}")
    return 1 if violations else 0


def _td_width(args):
    w = treedec.width(_read(args.dec, treedec.parse))
    return _emit(args, str(w), {"width": w})


def _td_normalize3(args):
    t = treedec.normalize_degree3(_read(args.dec, treedec.parse))
    return _write_out(args, treedec.serialize(t))


def _td_treewidth(args):
    tw = treedec.treewidth_exact(_load_graph(args.graph))
    return _emit(args, str(tw), {"treewidth": tw})


def _td_of_delta(args):
    gamma = _read_json(args.gadgets, dict, graph.bib_from_json_obj)
    decs = _read_json(args.decs, dict, treedec.from_json_obj)
    t = treedec.decomposition_of_delta(gamma, decs, args.word)
    return _write_out(args, treedec.serialize(t))


def _ef_equiv(args):
    return _verdict(args, efgame.ef_equiv(_load_graph(args.g), _load_graph(args.h), args.m))


def _ef_qsearch(args):
    q = efgame.q_search(_load_graph(args.graph), args.m, args.qmax)
    _emit(args, "not found" if q is None else str(q), {"q": q})
    return 1 if q is None else 0


# A bound of more bits than this that is a power of two 2^e prints as the
# text "2^e", under --json too: q_bound's guard lets e reach 10^6, far past
# the 4,300 digits str() converts.
_QBOUND_DECIMAL_BITS = 64


def _ef_qbound(args):
    if args.m is None:
        q = efgame.q_bound(args.size, args.m1, args.m2)
    else:
        q = efgame.q_bound_total(args.size, args.m)
    if q.bit_length() > _QBOUND_DECIMAL_BITS and q & (q - 1) == 0:
        shown = f"2^{q.bit_length() - 1}"
        return _emit(args, shown, {"bound": shown})
    return _emit(args, str(q), {"bound": q})


def _ef_saturate(args):
    omega, sentence = _load_graph(args.omega), mso.CompiledFormula.parse(args.formula)
    verdict = efgame.saturating_scan(omega, sentence, _graph_battery(args.battery))
    _emit(args, verdict, {"verdict": verdict})
    return 1 if verdict == efgame.MIXED else 0


def _graph_glue(args):
    return _write_graph(args, graph.glue(_load_bib(args.a), _load_bib(args.b)))


def _graph_delta(args):
    gamma = _read_json(args.gadgets, dict, graph.bib_from_json_obj)
    return _write_graph(args, graph.delta(gamma, args.word))


def _graph_union(args):
    return _write_graph(args, graph.disjoint_union(_load_graph(args.a), _load_graph(args.b)))


def _graph_iso(args):
    return _verdict(args, graph.isomorphic_small(_load_graph(args.a), _load_graph(args.b)))


def _reduce_sat2sgr(args):
    quad, S = _load_gadgets(args.gadgets, 4), _read(args.cnf, reduce_mod.parse_dimacs)
    return _write_sgr(args, reduce_mod.compile_reduction(quad, S))


def _reduce_auxiliary(args):
    return _write_sgr(args, args.reduction(_read(args.cnf, reduce_mod.parse_dimacs)))


def _reduce_build_quad(args):
    triple = _load_gadgets(args.triple, 3)
    quad = reduce_mod.build_quadruple(triple, _load_graph(args.omega))
    return _write_out(args, json.dumps(quad.to_json_obj()))


def _reduce_validate_quad(args):
    try:
        _load_gadgets(args.gadgets, 4)
    except SuccmsoError as exc:
        _emit(args, f"invalid: {exc}", {"valid": False, "error": exc.name})
        return 1
    return _verdict(args, True, {"valid": True})


def _reduce_pump_check(args):
    triple, sentence = _load_gadgets(args.triple, 3), mso.CompiledFormula.parse(args.formula)
    rep = reduce_mod.pump_check(triple, sentence, args.expected == "true", args.nmax)
    payload = {
        "ok": rep.ok,
        "results": [[n, v] for n, v in rep.results],
        "first_mismatch": rep.first_mismatch,
    }
    return _verdict(args, rep.ok, payload)


def _reduce_succ_ref(args):
    quad = _load_gadgets(args.gadgets, 4)
    succs = sorted(reduce_mod.succ_ref(quad, _read(args.cnf, reduce_mod.parse_dimacs), args.x))
    return _emit(args, " ".join(map(str, succs)), {"successors": succs})


def _verify_sat(args):
    ok, model = verify.sat_solve(_read(args.cnf, reduce_mod.parse_dimacs))
    payload = {"satisfiable": ok, "model": model and {str(k): v for k, v in model.items()}}
    _emit(args, "sat" if ok else "unsat", payload)
    return 0 if ok else 1


def _verify_delta_layout(args):
    quad = _load_gadgets(args.gadgets, 4)
    return _write_graph(args, verify.delta_layout(quad, _read(args.cnf, reduce_mod.parse_dimacs)))


def _verify_end2end(args):
    quad = _load_gadgets(args.gadgets, 4)
    report = verify.end_to_end(quad, args.formula, _battery(args.battery, args.seed))
    if args.json:
        print(json.dumps(report.to_json_obj()))
    else:
        for rec in report.records:
            print(
                f"{'pass' if rec.ok else 'FAIL'} s={rec.instance.s} "
                f"clauses={list(rec.instance.clauses)} sat={rec.satisfiable} "
                f"models={rec.models_sentence} N={rec.n_vertices}"
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


def _check_seed(parser, args):
    """--seed draws the built-in battery; a battery file has no use for it."""
    if args.seed is not None and args.battery != "builtin":
        parser.error("--seed applies only to the built-in battery")


def _int_option(token):
    """An integer option's value, under the library's integer rule
    (graph.text_int): ASCII digits with an optional leading "-". Anything
    else is a usage error."""
    try:
        return graph.text_int(token, "the value")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count_option(token):
    """A nonnegative integer option's value (_int_option); a negative one
    is a usage error."""
    value = _int_option(token)
    if value < 0:
        raise argparse.ArgumentTypeError(f"the value is {value}, not a count")
    return value


def _leaf(group, name, run, *required, out=False):
    """Add leaf command name, run by run, with required string flags and,
    if out, an optional --out file."""
    p = group.add_parser(name)
    p.set_defaults(run=run)
    for flag in required:
        p.add_argument(flag, required=True)
    if out:
        p.add_argument("--out")
    return p


@functools.cache
def _build_parser():
    """The command tree, built once per process: parse_args leaves the
    parser unchanged, so every main call can share it."""
    top = argparse.ArgumentParser(prog="succmso")
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(required=True)

    def group(name):
        return sub.add_parser(name).add_subparsers(required=True)

    g = group("sgr")
    q = _leaf(g, "materialize", _sgr_materialize, "--sgr", out=True)
    q.add_argument("--limit", type=_count_option, default=4096)
    q = _leaf(g, "edge", _sgr_edge, "--sgr")
    q.add_argument("--x", type=_int_option, required=True)
    q.add_argument("--y", type=_int_option, required=True)
    _leaf(g, "check-size", _sgr_check_size, "--sgr")

    g = group("mso")
    _leaf(g, "check", _mso_check, "--graph", "--formula")
    _leaf(g, "rank", _mso_rank, "--formula")
    q = _leaf(g, "parse", _mso_parse, "--formula")
    q.add_argument("--allow-free", action="store_true")

    g = group("td")
    _leaf(g, "validate", _td_validate, "--graph", "--dec")
    _leaf(g, "width", _td_width, "--dec")
    _leaf(g, "normalize3", _td_normalize3, "--dec", out=True)
    _leaf(g, "treewidth", _td_treewidth, "--graph")
    _leaf(g, "of-delta", _td_of_delta, "--gadgets", "--decs", "--word", out=True)

    g = group("ef")
    q = _leaf(g, "equiv", _ef_equiv, "--g", "--h")
    q.add_argument("--m", type=_int_option, required=True)
    q = _leaf(g, "qsearch", _ef_qsearch, "--graph")
    q.add_argument("--m", type=_int_option, required=True)
    q.add_argument("--qmax", type=_int_option, default=4)
    q = _leaf(g, "qbound", _ef_qbound)
    q.add_argument("--size", type=_int_option, required=True)
    for flag in ("--m", "--m1", "--m2"):
        q.add_argument(flag, type=_int_option, default=None)
    q.set_defaults(check_usage=lambda a, q=q: _check_qbound(q, a))
    q = _leaf(g, "saturate", _ef_saturate, "--omega", "--formula")
    q.add_argument("--battery", default="builtin")

    g = group("graph")
    _leaf(g, "glue", _graph_glue, "--a", "--b", out=True)
    _leaf(g, "delta", _graph_delta, "--gadgets", "--word", out=True)
    _leaf(g, "union", _graph_union, "--a", "--b", out=True)
    _leaf(g, "iso", _graph_iso, "--a", "--b")

    g = group("reduce")
    _leaf(g, "sat2sgr", _reduce_sat2sgr, "--cnf", "--gadgets", out=True)
    for name, reduction in (("loop", reduce_mod.reduce_loop), ("clique", reduce_mod.reduce_clique)):
        _leaf(g, name, _reduce_auxiliary, "--cnf", out=True).set_defaults(reduction=reduction)
    _leaf(g, "build-quad", _reduce_build_quad, "--triple", "--omega", out=True)
    _leaf(g, "validate-quad", _reduce_validate_quad, "--gadgets")
    q = _leaf(g, "pump-check", _reduce_pump_check, "--triple", "--formula")
    q.add_argument("--expected", choices=("true", "false"), required=True)
    q.add_argument("--nmax", type=_int_option, default=6)
    q = _leaf(g, "succ-ref", _reduce_succ_ref, "--gadgets", "--cnf")
    q.add_argument("--x", type=_int_option, required=True)

    g = group("verify")
    _leaf(g, "sat", _verify_sat, "--cnf")
    _leaf(g, "delta-layout", _verify_delta_layout, "--gadgets", "--cnf", out=True)
    q = _leaf(g, "end2end", _verify_end2end, "--gadgets")
    q.add_argument("--formula", default=verify.LOOP_SENTENCE)
    q.add_argument("--battery", default="builtin")
    seed_help = f"seeds the built-in battery only (default {verify.DEFAULT_SEED})"
    q.add_argument("--seed", type=_int_option, help=seed_help)
    q.set_defaults(check_usage=lambda a, q=q: _check_seed(q, a))
    return top


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
        return args.run(args)
    except (SuccmsoError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
