import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from succmso import cli, sgr, verify
from succmso.circuit import MAX_LABEL_BITS

from test_circuit import JSON
from test_graph import GRAPH_TEXT, gadget_json
from test_kernel import scalar_materialize
from test_sgr import BAD_N, wide_sgr_text, with_n
from test_treedec import DECOMPOSITION_TEXT
from succmso.graph import Digraph, graph_equal, parse_graph
from succmso.mso import CompiledFormula
from succmso.verify import seeded_cnf_battery

LOOP_GRAPH = "graph 2\ne 0 0\n"
EDGE_GADGET = "graph 2\ne 0 1\np1 0\np2 1\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def loop_file(tmp_path):
    p = tmp_path / "loop.txt"
    p.write_text(LOOP_GRAPH)
    return str(p)


@pytest.fixture
def cnf_file(tmp_path):
    p = tmp_path / "f.cnf"
    p.write_text("p cnf 1 1\n1 0\n")
    return str(p)


def test_mso_check_true(capsys, loop_file):
    code, out, _ = run(capsys, "mso", "check", "--graph", loop_file, "--formula", "ex x. E(x,x)")
    assert code == 0
    assert out.strip() == "true"


def test_mso_check_false_verdict_exit_1(capsys, loop_file):
    code, out, _ = run(capsys, "mso", "check", "--graph", loop_file, "--formula", "all x. E(x,x)")
    assert code == 1
    assert out.strip() == "false"


def test_mso_rank_and_parse(capsys):
    code, out, _ = run(capsys, "mso", "rank", "--formula", "ex x. ex y. E(x,y)")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "--json", "mso", "parse", "--formula", "ex x. E(x,x)")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"formula": "ex x. E(x,x)", "rank": 1}
    # quantifier rank is nesting depth, not the number of quantifiers
    code, out, _ = run(capsys, "mso", "rank", "--formula", "(ex x. x=x & ex y. y=y)")
    assert code == 0 and out.strip() == "1"


def test_deeply_nested_formula_is_a_parse_error(capsys):
    code, out, err = run(capsys, "mso", "rank", "--formula", "~" * 5000 + "ex x. x=x")
    assert code == 1 and out == ""
    assert err.startswith("error: ParseError")


def test_first_order_size_guard(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("graph 99999999999\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "mso", "check", "--graph", str(path), "--formula", "ex x. E(x,x)")
    assert time.perf_counter() - start < 5.0
    assert code == 1 and out == ""
    assert err.startswith("error: TooLargeForBruteForce: ")
    assert "Traceback" not in err


def test_validate_size_guard(capsys, tmp_path):
    """A one-bag decomposition of a huge edgeless graph once built one
    VertexUncovered per vertex and ended in a MemoryError."""
    graph, dec = tmp_path / "huge.txt", tmp_path / "one.json"
    graph.write_text("graph 99999999999\n")
    dec.write_text(json.dumps({"root": 0, "parents": [-1], "bags": [[0]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "td", "validate", "--graph", str(graph), "--dec", str(dec))
    assert time.perf_counter() - start < 5.0
    assert code == 1 and out == ""
    assert err.startswith("error: TooLarge: ")
    assert "Traceback" not in err


def test_pump_check_size_guard(capsys):
    """--nmax 100000 once ran for minutes, one chain fold and MSO check per n."""
    start = time.perf_counter()
    code, out, err = run(
        capsys, "reduce", "pump-check", "--triple", "path",
        "--formula", "ex x. E(x,x)", "--expected", "false", "--nmax", "100000",
    )
    assert time.perf_counter() - start < 5.0
    assert code == 1 and out == ""
    assert err.startswith("error: BadParam: ")
    assert "Traceback" not in err


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "mso", "check", "--no-such-flag")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def test_operation_error_exit_1(capsys, loop_file):
    code, _, err = run(capsys, "mso", "check", "--graph", loop_file, "--formula", "ex x. (")
    assert code == 1
    assert "ParseError" in err


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv, code, out, err", [
    (("mso", "check", "--graph", "{loop}", "--formula", "ex x. E(x,x)"), 0, "true\n", ""),
    (("mso", "check", "--graph", "{loop}", "--formula", "all x. E(x,x)"), 1, "false\n", ""),
    (("mso", "check", "--graph", "{loop}", "--formula", "ex x. ("), 1, "",
     r"error: ParseError: [^\n]*\n"),
    (("mso", "check", "--no-such-flag"), 2, "",
     r"usage: succmso mso check .*\nsuccmso mso check: error: [^\n]*\n"),
], ids=["true", "false", "operation-error", "usage-error"])
def test_python_m_exit_codes(loop_file, argv, code, out, err):
    """The exit-code contract holds for the process too, through
    python -m succmso.cli and its __main__ block."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "succmso.cli", *(a.format(loop=loop_file) for a in argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, out)
    assert re.fullmatch(err, proc.stderr, re.DOTALL), proc.stderr


def spy_compiles(monkeypatch):
    """The formulas given to CompiledFormula.__init__ from now on, one
    entry per compile."""
    compiles, init = [], CompiledFormula.__init__

    def spy(self, formula):
        compiles.append(formula)
        init(self, formula)

    monkeypatch.setattr(CompiledFormula, "__init__", spy)
    return compiles


@pytest.mark.parametrize("argv", [
    ("mso", "check", "--graph", "{loop}", "--formula", "ex x. E(x,x)"),
    ("mso", "rank", "--formula", "ex x. E(x,y)"),
    ("mso", "parse", "--formula", "ex x. E(x,x)"),
    ("mso", "parse", "--allow-free", "--formula", "E(x,y)"),
    ("ef", "saturate", "--omega", "{loop}", "--formula", "ex x. E(x,x)"),
    ("reduce", "pump-check", "--triple", "path", "--formula", "ex x. E(x,x)",
     "--expected", "false", "--nmax", "2"),
], ids=["mso-check", "mso-rank", "mso-parse", "mso-parse-free", "ef-saturate", "pump-check"])
def test_one_compile_per_formula_text(capsys, monkeypatch, loop_file, argv):
    """A command that reads a formula text parses and compiles it once."""
    compiles = spy_compiles(monkeypatch)
    code, _, err = run(capsys, *(a.format(loop=loop_file) for a in argv))
    assert code in (0, 1) and err == ""
    assert len(compiles) == 1


def test_one_compile_per_check_instance_sentence(monkeypatch):
    compiles = spy_compiles(monkeypatch)
    verify._compiled_sentence.cache_clear()
    for S in seeded_cnf_battery(2, 2, 11):
        verify.check_instance(S, sentence="ex z. (E(z,z) & z=z)")
    assert len(compiles) == 1


def test_reduce_sat2sgr_and_sgr_commands(capsys, tmp_path, cnf_file):
    out_file = tmp_path / "c.sgr.json"
    code, out, _ = run(
        capsys, "reduce", "sat2sgr", "--cnf", cnf_file, "--gadgets", "toy",
        "--out", str(out_file),
    )
    assert code == 0
    assert out.strip() == "5"  # N printed
    bundle = sgr.parse(out_file.read_text())
    assert bundle.n_vertices == 5

    code, out, _ = run(capsys, "sgr", "edge", "--sgr", str(out_file), "--x", "2", "--y", "2")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "sgr", "check-size", "--sgr", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "sgr", "materialize", "--sgr", str(out_file))
    assert code == 0
    g = parse_graph(out)
    assert graph_equal(g, Digraph(5, [(0, 1), (1, 2), (2, 2), (2, 3), (3, 4)]))


def test_materialize_prints_the_scalar_oracle_edges(capsys, tmp_path):
    """sgr materialize on a compiled toy SGR at s = 4 (N = 19) prints, byte
    for byte, the edges a per-pair scalar evaluation of its circuit finds."""
    S = seeded_cnf_battery(4, 1, 23)[0]
    cnf = tmp_path / "s4.cnf"
    cnf.write_text(f"p cnf {S.s} {len(S.clauses)}\n" + "".join(
        " ".join(map(str, clause)) + " 0\n" for clause in S.clauses))
    sgr_file = tmp_path / "s4.sgr.json"
    code, out, _ = run(capsys, "reduce", "sat2sgr", "--cnf", str(cnf), "--gadgets", "toy",
                       "--out", str(sgr_file))
    assert code == 0 and out.strip() == "19"
    oracle = scalar_materialize(sgr.parse(sgr_file.read_text()))
    edges = sorted(oracle.edges)
    assert edges
    code, out, _ = run(capsys, "sgr", "materialize", "--sgr", str(sgr_file))
    assert code == 0
    assert out == "graph 19\n" + "".join(f"e {u} {v}\n" for u, v in edges) + "\n"
    code, out, _ = run(capsys, "--json", "sgr", "materialize", "--sgr", str(sgr_file))
    assert code == 0
    assert json.loads(out) == {"n": 19, "edges": [list(e) for e in edges]}


def test_reduce_loop_and_clique(capsys, tmp_path, cnf_file):
    for sub in ("loop", "clique"):
        out_file = tmp_path / f"{sub}.json"
        code, _, _ = run(capsys, "reduce", sub, "--cnf", cnf_file, "--out", str(out_file))
        assert code == 0
        assert sgr.parse(out_file.read_text()).n_vertices == 2


def test_reduce_succ_ref(capsys, cnf_file):
    code, out, _ = run(capsys, "reduce", "succ-ref", "--gadgets", "toy", "--cnf", cnf_file, "--x", "2")
    assert code == 0
    assert out.strip() == "2 3"


def test_reduce_validate_and_build_quad(capsys, tmp_path, cnf_file):
    omega = tmp_path / "omega.txt"
    omega.write_text("graph 1\ne 0 0\n")
    quad_file = tmp_path / "quad.json"
    code, _, _ = run(
        capsys, "reduce", "build-quad", "--triple", "path", "--omega", str(omega),
        "--out", str(quad_file),
    )
    assert code == 0
    code, out, _ = run(capsys, "reduce", "validate-quad", "--gadgets", str(quad_file))
    assert code == 0 and out.strip() == "true"
    # satisfied assignment -> one copy is the loop gadget (no 0->1 edge there)
    code, out, _ = run(capsys, "verify", "delta-layout", "--gadgets", str(quad_file), "--cnf", cnf_file)
    assert code == 0
    assert graph_equal(parse_graph(out), Digraph(5, [(0, 1), (1, 2), (2, 2), (3, 4)]))


def test_reduce_validate_quad_rejects(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([
        {"n": 3, "edges": [], "p1": [0], "p2": [1]},
        {"n": 2, "edges": [[0, 1]], "p1": [0], "p2": [1]},
        {"n": 2, "edges": [[0, 1]], "p1": [0], "p2": [1]},
        {"n": 2, "edges": [[0, 1]], "p1": [0], "p2": [1]},
    ]))
    code, out, _ = run(capsys, "reduce", "validate-quad", "--gadgets", str(bad))
    assert code == 1
    assert "invalid" in out


def test_reduce_pump_check(capsys):
    code, out, _ = run(
        capsys, "reduce", "pump-check", "--triple", "path",
        "--formula", "ex x. E(x,x)", "--expected", "false", "--nmax", "4",
    )
    assert code == 0 and out.strip() == "true"


def test_verify_sat(capsys, tmp_path, cnf_file):
    code, out, _ = run(capsys, "verify", "sat", "--cnf", cnf_file)
    assert code == 0 and out.strip() == "sat"
    unsat = tmp_path / "u.cnf"
    unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run(capsys, "verify", "sat", "--cnf", str(unsat))
    assert code == 1 and out.strip() == "unsat"


def test_verify_end2end_builtin(capsys):
    code, out, _ = run(capsys, "verify", "end2end", "--gadgets", "toy")
    assert code == 0
    assert "overall: pass" in out


def test_verify_end2end_json_parses_back(capsys):
    code, out, _ = run(capsys, "--json", "verify", "end2end", "--gadgets", "toy")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and len(obj["records"]) > 40


def test_graph_commands(capsys, tmp_path):
    a = tmp_path / "a.txt"
    a.write_text(EDGE_GADGET)
    code, out, _ = run(capsys, "graph", "glue", "--a", str(a), "--b", str(a))
    assert code == 0
    g = parse_graph(out)
    assert g.graph.edges == frozenset({(0, 1), (1, 2)})
    code, out, _ = run(capsys, "--json", "graph", "glue", "--a", str(a), "--b", str(a))
    assert code == 0
    assert json.loads(out) == {"n": 3, "edges": [[0, 1], [1, 2]], "p1": [0], "p2": [2]}

    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"1": {"n": 2, "edges": [[0, 1]], "p1": [0], "p2": [1]}}))
    code, out, _ = run(capsys, "graph", "delta", "--gadgets", str(fam), "--word", "111")
    assert code == 0
    assert parse_graph(out).n == 4

    code, out, _ = run(capsys, "graph", "union", "--a", str(a), "--b", str(a))
    assert code == 0 and parse_graph(out).n == 4

    code, out, _ = run(capsys, "graph", "iso", "--a", str(a), "--b", str(a))
    assert code == 0 and out.strip() == "true"


def test_td_commands(capsys, tmp_path):
    g = tmp_path / "p3.txt"
    g.write_text("graph 3\ne 0 1\ne 1 2\n")
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps({"root": 0, "parents": [-1, 0], "bags": [[0, 1], [1, 2]], "pointed_leaf": 1}))
    code, out, _ = run(capsys, "td", "validate", "--graph", str(g), "--dec", str(dec))
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, "--json", "td", "validate", "--graph", str(g), "--dec", str(dec))
    assert code == 0 and json.loads(out) == {"valid": True, "violations": []}
    g4 = tmp_path / "p4.txt"
    g4.write_text("graph 4\ne 0 1\ne 1 2\n")
    code, out, _ = run(capsys, "td", "validate", "--graph", str(g4), "--dec", str(dec))
    assert code == 1 and out == "invalid\n  VertexUncovered(vertex=3)\n"
    code, out, _ = run(capsys, "--json", "td", "validate", "--graph", str(g4), "--dec", str(dec))
    assert code == 1
    assert json.loads(out) == {"valid": False, "violations": ["VertexUncovered(vertex=3)"]}
    code, out, _ = run(capsys, "td", "width", "--dec", str(dec))
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "td", "treewidth", "--graph", str(g))
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "td", "normalize3", "--dec", str(dec))
    assert code == 0
    json.loads(out)  # well-formed decomposition JSON


def test_td_of_delta(capsys, tmp_path):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"1": {"n": 2, "edges": [[0, 1]], "p1": [0], "p2": [1]}}))
    decs = tmp_path / "decs.json"
    decs.write_text(json.dumps({"1": {
        "root": 0, "parents": [-1, 0, 1], "bags": [[0], [0, 1], [1]], "pointed_leaf": 2,
    }}))
    code, out, _ = run(capsys, "td", "of-delta", "--gadgets", str(fam), "--decs", str(decs), "--word", "11")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["bags"]) == 5


def test_ef_commands(capsys, tmp_path):
    one = tmp_path / "one.txt"
    one.write_text("graph 1\n")
    two = tmp_path / "two.txt"
    two.write_text("graph 2\n")
    code, out, _ = run(capsys, "ef", "equiv", "--g", str(one), "--h", str(two), "--m", "1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "ef", "equiv", "--g", str(one), "--h", str(two), "--m", "2")
    assert code == 1 and out.strip() == "false"

    code, out, _ = run(capsys, "ef", "qsearch", "--graph", str(one), "--m", "1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "ef", "qbound", "--size", "1", "--m", "1")
    assert code == 0 and out.strip() == "2"

    code, out, _ = run(capsys, "ef", "qbound", "--size", "1", "--m1", "0", "--m2", "1")
    assert code == 0 and out.strip() == "2"

    loop = tmp_path / "loop1.txt"
    loop.write_text("graph 1\ne 0 0\n")
    code, out, _ = run(capsys, "ef", "saturate", "--omega", str(loop), "--formula", "ex x. E(x,x)")
    assert code == 0 and out.strip() == "Sufficient"
    argv = ("ef", "saturate", "--omega", str(one), "--formula", "ex x. E(x,x)", "--battery")
    code, out, _ = run(capsys, *argv, str(loop))
    assert code == 0 and out.strip() == "Sufficient"
    code, out, _ = run(capsys, *argv, str(two))
    assert code == 0 and out.strip() == "Forbidden"


def test_json_round_trip_materialize(capsys, tmp_path, cnf_file):
    out_file = tmp_path / "c.json"
    run(capsys, "reduce", "loop", "--cnf", cnf_file, "--out", str(out_file))
    code, out, _ = run(capsys, "--json", "sgr", "materialize", "--sgr", str(out_file))
    assert code == 0
    obj = json.loads(out)
    assert Digraph(obj["n"], obj["edges"]).n == 2


@pytest.mark.parametrize(
    "moves",
    [(), ("--m1", "1"), ("--m2", "1"), ("--m", "1", "--m1", "0", "--m2", "1")],
)
def test_ef_qbound_needs_m_or_both_splits(capsys, moves):
    code, out, err = run(capsys, "ef", "qbound", "--size", "2", *moves)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: succmso ef qbound")
    assert "Traceback" not in err
    assert err.strip().endswith("error: give --m, or both --m1 and --m2")


@pytest.mark.parametrize("moves, bound", [
    (("--m1", "0", "--m2", "5000"), "1"),
    (("--m", "3000"), "3000"),
])
def test_ef_qbound_of_size_zero(capsys, moves, bound):
    """Both once ended in a RecursionError traceback."""
    code, out, err = run(capsys, "ef", "qbound", "--size", "0", *moves)
    assert (code, out.strip(), err) == (0, bound, "")


@pytest.mark.parametrize("moves", [("--m", "4"), ("--m1", "0", "--m2", "4")])
def test_ef_qbound_past_the_digit_limit_prints_a_power_of_two(capsys, moves):
    """2^524292 has 157,832 digits; printing it once ended in a ValueError
    traceback (int-to-str limit), in text and under --json."""
    code, out, err = run(capsys, "ef", "qbound", "--size", "1", *moves)
    assert (code, out, err) == (0, "2^524292\n", "")
    code, out, err = run(capsys, "--json", "ef", "qbound", "--size", "1", *moves)
    assert (code, json.loads(out), err) == (0, {"bound": "2^524292"}, "")


def test_ef_qbound_in_decimal_up_to_64_bits_or_when_not_a_power_of_two(capsys):
    code, out, _ = run(capsys, "ef", "qbound", "--size", "1", "--m", "3")
    assert (code, out) == (0, f"{2 ** 19}\n")  # the split m1 = 0: 2^(2^4 + 3)
    code, out, _ = run(capsys, "--json", "ef", "qbound", "--size", "0", "--m", str(2 ** 70 + 1))
    assert (code, json.loads(out)) == (0, {"bound": 2 ** 70 + 1})


def test_ef_qbound_past_the_guard_is_one_error_line(capsys):
    code, out, err = run(capsys, "ef", "qbound", "--size", "1", "--m", "5")
    assert (code, out) == (1, "")
    assert err == "error: BoundTooLarge: exponent of 524293 bits exceeds the guard (10^6)\n"


def test_formula_with_trailing_whitespace(capsys, loop_file):
    code, out, err = run(capsys, "mso", "check", "--graph", loop_file, "--formula", "ex x. E(x,x) ")
    assert (code, out, err) == (0, "true\n", "")


def test_dpll_runs_past_the_recursion_limit(capsys, tmp_path):
    """(x1 | x2) & (x3 | x4) & ... with 1,100 clauses: DPLL branches once
    per clause, 1,100 deep, past Python's default recursion limit of 1,000,
    where the recursive solver exited 1 with a RecursionError traceback."""
    n = 1100
    cnf = tmp_path / "deep.cnf"
    cnf.write_text(f"p cnf {2 * n} {n}\n" + "".join(f"{2 * i + 1} {2 * i + 2} 0\n" for i in range(n)))
    code, out, err = run(capsys, "--json", "verify", "sat", "--cnf", str(cnf))
    assert (code, err) == (0, "")
    model = {str(v): v % 2 == 1 for v in range(1, 2 * n + 1)}  # True branch first
    assert json.loads(out) == {"satisfiable": True, "model": model}


def test_no_threads_flag_or_env(capsys, monkeypatch):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "--threads" not in out
    monkeypatch.setenv("SUCCMSO_THREADS", "0")  # once rejected with exit 2; now unread
    code, out, _ = run(capsys, "ef", "qbound", "--size", "1", "--m", "1")
    assert code == 0 and out.strip() == "2"


FAMILY = {"1": {"n": 2, "edges": [[0, 1]], "p1": [0], "p2": [1]}}
DECS = {"1": {"root": 0, "parents": [-1, 0, 1], "bags": [[0], [0, 1], [1]], "pointed_leaf": 2}}
OF_DELTA = ("td", "of-delta", "--gadgets", "{a}", "--decs", "{b}", "--word", "12")
OF_DELTA_11 = OF_DELTA[:-1] + ("11",)
DELTA_11 = ("graph", "delta", "--gadgets", "{a}", "--word", "11")


def _sgr_with_gate(gate, **fields):
    circuit = {"version": 1, "label_bits": 1, "gates": [["input", 0], gate], "output": 1, **fields}
    return {"N": "2", "circuit": circuit}


MATERIALIZE = ("sgr", "materialize", "--sgr", "{a}")


@pytest.mark.parametrize(
    "argv, files, error",
    [
        (("sgr", "materialize", "--sgr", "{a}"), {"a": _sgr_with_gate(["and", 0])}, "ParseError"),
        (("sgr", "materialize", "--sgr", "{a}"), {"a": _sgr_with_gate(["input"])}, "ParseError"),
        (("sgr", "materialize", "--sgr", "{a}"), {"a": _sgr_with_gate(["input", 0.5])}, "ParseError"),
        (OF_DELTA, {"a": FAMILY, "b": DECS}, "BadVertex"),
        (OF_DELTA, {"a": {**FAMILY, "2": FAMILY["1"]}, "b": DECS}, "BadVertex"),
        (("graph", "delta", "--gadgets", "{a}", "--word", "1"), {"a": [FAMILY["1"]]}, "ParseError"),
        (OF_DELTA, {"a": [FAMILY["1"]], "b": DECS}, "ParseError"),
        (OF_DELTA, {"a": FAMILY, "b": [DECS["1"]]}, "ParseError"),
        (DELTA_11, {"a": {"1": {**FAMILY["1"], "n": 2.5}}}, "ParseError"),
        (DELTA_11, {"a": {"1": {**FAMILY["1"], "n": True}}}, "ParseError"),
        (DELTA_11, {"a": {"1": {**FAMILY["1"], "edges": [[0, 1, 1]]}}}, "ParseError"),
        (DELTA_11, {"a": {"1": {**FAMILY["1"], "edges": [[0.7, 1]]}}}, "ParseError"),
        (DELTA_11, {"a": {"1": {**FAMILY["1"], "edges": [["0", "1"]]}}}, "ParseError"),
        (OF_DELTA_11, {"a": FAMILY, "b": {"1": {**DECS["1"], "root": False}}}, "ParseError"),
        (OF_DELTA_11, {"a": FAMILY, "b": {"1": {**DECS["1"], "bags": [[0.0], [0, 1], [1]]}}},
         "ParseError"),
        (OF_DELTA_11, {"a": FAMILY, "b": {"1": {**DECS["1"], "bags": [[0], [0, 2], [1]]}}},
         "BadVertex"),
        (MATERIALIZE, {"a": _sgr_with_gate(["input", 1], label_bits=2.5)}, "ParseError"),
        (MATERIALIZE, {"a": _sgr_with_gate(["input", 1], output=0.0)}, "ParseError"),
        (MATERIALIZE, {"a": _sgr_with_gate(["input", 1], label_bits=True)}, "ParseError"),
        (MATERIALIZE, {"a": _sgr_with_gate(["const", True])}, "ParseError"),
        (MATERIALIZE, {"a": _sgr_with_gate(["input", True])}, "ParseError"),
        (MATERIALIZE, {"a": _sgr_with_gate(["not", True])}, "TopologyError"),
        (MATERIALIZE, {"a": _sgr_with_gate(["input", 1], gates={"0": ["input", 0]})}, "ParseError"),
        (MATERIALIZE, {"a": _sgr_with_gate(["input", 1], version=2)}, "ParseError"),
        (MATERIALIZE, {"a": _sgr_with_gate(["input", 1], version="1")}, "ParseError"),
        (MATERIALIZE, {"a": _sgr_with_gate(["input", 1], version=True)}, "ParseError"),
        (MATERIALIZE, {"a": _sgr_with_gate(["input", 1], version=None)}, "ParseError"),
    ],
    ids=[
        "gate-operand-missing", "input-wire-missing", "input-wire-not-int",
        "letter-not-in-gadgets", "letter-not-in-decs",
        "gadgets-not-object", "of-delta-gadgets-not-object", "decs-not-object",
        "gadget-n-float", "gadget-n-bool", "edge-of-three", "edge-float", "edge-strings",
        "root-bool", "bag-entry-float", "bag-vertex-outside-gadget",
        "label-bits-float", "output-float", "label-bits-bool", "const-bool", "input-wire-bool",
        "not-operand-bool", "gates-not-list",
        "version-2", "version-string", "version-bool", "version-null",
    ],
)
def test_malformed_files_are_operation_errors(capsys, tmp_path, argv, files, error):
    paths = {}
    for name, obj in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {error}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("n_text", BAD_N)
def test_sgr_with_bad_vertex_count_is_a_parse_error(capsys, tmp_path, n_text):
    path = tmp_path / "bad.sgr.json"
    path.write_text(with_n(n_text))
    code, out, err = run(capsys, "sgr", "materialize", "--sgr", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ParseError: ")
    assert "Traceback" not in err


THREE_GADGETS = [FAMILY["1"]] * 3
CNF = "p cnf 1 1\n1 0\n"
PUMP = ("reduce", "pump-check", "--formula", "ex x. E(x,x)", "--expected", "false")


def run_with_files(capsys, tmp_path, argv, files):
    """Write each of files (text or bytes) to <name>.in, beside a CNF file
    {cnf}, a one-vertex graph {ok} and a path {missing} that does not
    exist, and run argv with the paths put in; also returns the paths."""
    paths = {"cnf": tmp_path / "f.cnf", "ok": tmp_path / "ok.txt",
             "missing": tmp_path / "missing.txt"}
    paths["cnf"].write_text(CNF)
    paths["ok"].write_text("graph 1\n")
    for name, content in files.items():
        paths[name] = tmp_path / f"{name}.in"
        if isinstance(content, bytes):
            paths[name].write_bytes(content)
        else:
            paths[name].write_text(content)
    return (*run(capsys, *(arg.format(**paths) for arg in argv)), paths)


@pytest.mark.parametrize(
    "argv, files, error",
    [
        (("reduce", "sat2sgr", "--cnf", "{cnf}", "--gadgets", "{a}"), {"a": "5"}, "ParseError"),
        (PUMP + ("--triple", "{a}"), {"a": "5"}, "ParseError"),
        (("reduce", "build-quad", "--triple", "{a}", "--omega", "{cnf}"), {"a": "5"}, "ParseError"),
        (("reduce", "sat2sgr", "--cnf", "{cnf}", "--gadgets", "{a}"),
         {"a": json.dumps(THREE_GADGETS)}, "ParseError"),
        (("verify", "sat", "--cnf", "{a}"), {"a": b"p cnf 1 1\n\xff\xfe 0\n"}, "ParseError"),
        (("graph", "delta", "--gadgets", "{a}", "--word", "1"), {"a": '{"1": {"n": 2,'},
         "ParseError"),
        (("reduce", "succ-ref", "--gadgets", "{a}", "--cnf", "{cnf}", "--x", "0"),
         {"a": '[{"n": 2'}, "ParseError"),
        (("mso", "check", "--graph", "{missing}", "--formula", "ex x. x=x"), {},
         "FileNotFoundError"),
        (("ef", "equiv", "--g", "{a}", "--h", "{a}", "--m", "-1"), {"a": "graph 1\n"}, "BadParam"),
        (("ef", "qsearch", "--graph", "{a}", "--m", "-1"), {"a": "graph 1\n"}, "BadParam"),
        (("ef", "qbound", "--size", "1", "--m", "-1"), {}, "BoundTooLarge"),
        (("verify", "sat", "--cnf", "{a}"), {"a": "p cnf 3 5\n1 0\n"}, "ParseError"),
        (("verify", "sat", "--cnf", "{a}"), {"a": "p cnf 3 x\n1 0\n"}, "ParseError"),
        (("verify", "sat", "--cnf", "{a}"), {"a": "p cnf 1_0 1\n1 0\n"}, "ParseError"),
        (("mso", "check", "--graph", "{a}", "--formula", "ex x. x=x"), {"a": "graph 1_0\n"},
         "ParseError"),
    ],
    ids=[
        "gadgets-5", "pump-triple-5", "build-quad-triple-5", "three-gadgets", "cnf-not-utf8",
        "truncated-family", "truncated-gadgets", "missing-file", "ef-equiv-negative-m",
        "ef-qsearch-negative-m", "ef-qbound-negative-m", "cnf-clause-count-wrong",
        "cnf-clause-count-not-int", "cnf-underscore", "graph-underscore",
    ],
)
def test_input_failures_follow_the_error_contract(capsys, tmp_path, argv, files, error):
    """Each input once gave a traceback, a bare error name or no name at all."""
    code, out, err, _ = run_with_files(capsys, tmp_path, argv, files)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {error}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


SGR_2 = json.dumps(_sgr_with_gate(["not", 0]))  # N = 2, C(x, y) = not x0

# Every integer option, its value given as {v}, in a call that is
# otherwise well formed.
INT_OPTIONS = {
    "sgr-edge-x": ("sgr", "edge", "--sgr", "{a}", "--x", "{v}", "--y", "0"),
    "sgr-edge-y": ("sgr", "edge", "--sgr", "{a}", "--x", "0", "--y", "{v}"),
    "sgr-materialize-limit": ("sgr", "materialize", "--sgr", "{a}", "--limit", "{v}"),
    "ef-equiv-m": ("ef", "equiv", "--g", "{ok}", "--h", "{ok}", "--m", "{v}"),
    "ef-qsearch-m": ("ef", "qsearch", "--graph", "{ok}", "--m", "{v}"),
    "ef-qsearch-qmax": ("ef", "qsearch", "--graph", "{ok}", "--m", "1", "--qmax", "{v}"),
    "ef-qbound-size": ("ef", "qbound", "--size", "{v}", "--m", "1"),
    "ef-qbound-m": ("ef", "qbound", "--size", "1", "--m", "{v}"),
    "ef-qbound-m1": ("ef", "qbound", "--size", "1", "--m1", "{v}", "--m2", "1"),
    "ef-qbound-m2": ("ef", "qbound", "--size", "1", "--m1", "1", "--m2", "{v}"),
    "pump-check-nmax": PUMP + ("--triple", "path", "--nmax", "{v}"),
    "succ-ref-x": ("reduce", "succ-ref", "--gadgets", "toy", "--cnf", "{cnf}", "--x", "{v}"),
    "end2end-seed": ("verify", "end2end", "--gadgets", "toy", "--seed", "{v}"),
}


def run_int_option(capsys, tmp_path, option, value):
    argv = [arg.replace("{v}", value) for arg in INT_OPTIONS[option]]
    code, out, err, _ = run_with_files(capsys, tmp_path, argv, {"a": SGR_2})
    return code, out, err


@pytest.mark.parametrize("value", ["+4", " 4", "٣", "4_0", "1"],
                         ids=["plus", "space", "arabic-indic", "underscore", "plain"])
@pytest.mark.parametrize("option", sorted(INT_OPTIONS))
def test_integer_options_follow_the_integer_rule(capsys, tmp_path, option, value):
    """Integer options read the library's integer rule (graph.text_int):
    argparse's int() took +4, " 4" and Arabic-Indic 3 as integers and 4_0
    as 40. Only the plain value runs."""
    code, out, err = run_int_option(capsys, tmp_path, option, value)
    if value == "1":
        assert code in (0, 1) and "usage:" not in err
        return
    assert code == 2 and out == ""
    assert err.startswith("usage: succmso ") and "Traceback" not in err
    flag = INT_OPTIONS[option][INT_OPTIONS[option].index("{v}") - 1]
    assert f"error: argument {flag}: the value is {value!r}, not an integer" in err


def test_negative_limit_is_a_usage_error(capsys, tmp_path):
    """sgr materialize --limit -5 once ran and reported N exceeding the limit."""
    code, out, err = run_int_option(capsys, tmp_path, "sgr-materialize-limit", "-5")
    assert code == 2 and out == ""
    assert "error: argument --limit: the value is -5, not a count" in err
    code, out, err = run_int_option(capsys, tmp_path, "sgr-materialize-limit", "0")
    assert code == 1 and err.startswith("error: TooLargeToMaterialize: N=2 exceeds limit 0")


def test_delta_layout_size_guard(capsys, tmp_path):
    cnf = tmp_path / "s40.cnf"
    cnf.write_text("p cnf 40 1\n40 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "delta-layout", "--gadgets", "toy", "--cnf", str(cnf))
    assert time.perf_counter() - start < 5.0
    assert code == 1 and out == ""
    assert err.startswith("error: TooLargeToMaterialize: ")
    assert "Traceback" not in err


def test_seed_applies_only_to_the_builtin_battery(capsys, tmp_path):
    battery = tmp_path / "battery.cnf"
    battery.write_text(CNF + "%\np cnf 1 2\n1 0\n-1 0\n")
    argv = ("verify", "end2end", "--gadgets", "toy", "--battery", str(battery))
    code, out, err = run(capsys, *argv, "--seed", "7")
    assert code == 2 and out == ""
    assert err.strip().endswith("error: --seed applies only to the built-in battery")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.count("pass s=1") == 2
    code, seeded, _ = run(capsys, "verify", "end2end", "--gadgets", "toy", "--seed", "7")
    assert code == 0 and "overall: pass" in seeded
    _, default, _ = run(capsys, "verify", "end2end", "--gadgets", "toy")
    _, explicit, _ = run(capsys, "verify", "end2end", "--gadgets", "toy", "--seed", "2024")
    assert default == explicit != seeded


BATTERY_END = "%\np cnf 1 2\n1 0\n-1 0\n"


@pytest.mark.parametrize(
    "text",
    [
        "%\n" + CNF + BATTERY_END,
        (CNF + BATTERY_END).replace("\n", "\r\n"),
        CNF + " % \n" + BATTERY_END[2:] + "%\n\n",
    ],
    ids=["separator-on-line-1", "crlf", "padded-and-trailing-separators"],
)
def test_battery_separators_are_lines_holding_only_a_percent(capsys, tmp_path, text):
    """A separator on line 1, or padded with blanks, once failed with a
    message about something else: a clause before the header, or a literal
    '%'. The CLI reads a CRLF file with universal newlines; the parser's
    own CRLF case is the test below."""
    battery = tmp_path / "battery.cnf"
    battery.write_bytes(text.encode())
    argv = ("verify", "end2end", "--gadgets", "toy", "--battery", str(battery))
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out.count("pass s=1") == 2


def test_battery_parser_reads_crlf_separators():
    """The CLI reads files with universal newlines, so only a caller of
    _parse_battery with CR line ends saw '%\\r' read as a literal."""
    text = (CNF + BATTERY_END).replace("\n", "\r\n")
    assert [S.clauses for S in cli._parse_battery(text)] == [((1,),), ((1,), (-1,))]


@pytest.mark.parametrize(
    "text, error, where",
    [
        (CNF + "%\np cnf 1 1\n1 x 0\n", "ParseError",
         "CNF 2 (its line 1 is file line 4): line 2: a literal is 'x'"),
        ("%\r\np cnf 1 1\r\n1 x 0\r\n", "ParseError",
         "CNF 1 (its line 1 is file line 2): line 2: a literal is 'x'"),
        (CNF + "%\n" + CNF + "%\nc note\np cnf 1 2\n1 0\n", "ParseError",
         "CNF 3 (its line 1 is file line 7): the header says 2 clauses"),
        (CNF + "%\np cnf 1 1\n2 0\n", "BadLiteral",
         "CNF 2 (its line 1 is file line 4): literal 2 out of range"),
    ],
    ids=["second-cnf", "crlf", "third-cnf-count", "bad-literal-keeps-its-class"],
)
def test_a_battery_error_names_its_cnf_and_first_line(capsys, tmp_path, text, error, where):
    """A bad literal on file line 5, in the second CNF, was reported as
    line 2 with nothing to say which CNF it was in."""
    battery = tmp_path / "battery.cnf"
    battery.write_bytes(text.encode())
    argv = ("verify", "end2end", "--gadgets", "toy", "--battery", str(battery))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith(f"error: {error}: {battery}: {where}")
    assert err.count("\n") == 1


def test_json_applies_to_graph_and_sgr_writers(capsys, tmp_path, cnf_file):
    a = tmp_path / "a.txt"
    a.write_text(EDGE_GADGET)
    code, out, _ = run(capsys, "--json", "graph", "union", "--a", str(a), "--b", str(a))
    assert code == 0 and json.loads(out) == {"n": 4, "edges": [[0, 1], [2, 3]]}
    code, out, _ = run(capsys, "--json", "verify", "delta-layout", "--gadgets", "toy",
                       "--cnf", cnf_file)
    assert code == 0
    assert json.loads(out) == {"n": 5, "edges": [[0, 1], [1, 2], [2, 2], [2, 3], [3, 4]]}
    for sub, extra, n in (("sat2sgr", ("--gadgets", "toy"), 5), ("loop", (), 2),
                          ("clique", (), 2)):
        out_file = tmp_path / f"{sub}.json"
        code, out, _ = run(capsys, "--json", "reduce", sub, "--cnf", cnf_file, *extra,
                           "--out", str(out_file))
        assert code == 0 and json.loads(out) == {"N": n}
        assert sgr.parse(out_file.read_text()).n_vertices == n


def test_label_bits_past_the_cap_is_refused(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(wide_sgr_text(MAX_LABEL_BITS + 1))
    code, out, err = run(capsys, "sgr", "materialize", "--sgr", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ParseError: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("reduce", "sat2sgr", "--cnf", "{cnf}", "--gadgets", "toy"),
    ("reduce", "succ-ref", "--gadgets", "toy", "--cnf", "{cnf}", "--x", "0"),
    ("verify", "sat", "--cnf", "{cnf}"),
], ids=["sat2sgr", "succ-ref", "verify-sat"])
def test_cnf_past_the_variable_cap_is_refused(capsys, tmp_path, argv):
    """About 10^15 variables once ended in a MemoryError traceback, from the
    vertex count 2^s or from the SAT model's dict; a smaller count over the
    cap tried to allocate gigabytes first."""
    path = tmp_path / "huge.cnf"
    path.write_text("p cnf 1000000000000000 1\n1 -2 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, *(arg.format(cnf=path) for arg in argv))
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err.startswith("error: BadLiteral: ") and "exceeds the cap" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, files, error",
    [
        (("ef", "equiv", "--g", "{ok}", "--h", "{a}", "--m", "1"), {"a": "graph 2\ne 0 x\n"},
         "ParseError"),
        (("verify", "sat", "--cnf", "{a}"), {"a": "p cnf 1 1\n1 x 0\n"}, "ParseError"),
        (("sgr", "materialize", "--sgr", "{a}"), {"a": '{"N": "2"}'}, "ParseError"),
        (("td", "validate", "--graph", "{ok}", "--dec", "{a}"),
         {"a": '{"root": 0, "parents": [-1, 0], "bags": [[0], [0]], "pointed_leaf": 0}'},
         "NotALeaf"),
        (("reduce", "sat2sgr", "--cnf", "{cnf}", "--gadgets", "{a}"),
         {"a": json.dumps([{**FAMILY["1"], "edges": [[0, 5]]}] + [FAMILY["1"]] * 3)}, "BadVertex"),
        (("verify", "end2end", "--gadgets", "toy", "--battery", "{a}"),
         {"a": CNF + "%\np cnf 1000000000000000 1\n1 0\n"}, "BadLiteral"),
        (("verify", "sat", "--cnf", "{a}"), {"a": b"p cnf 1 1\n\xff 0\n"}, "ParseError"),
        (("sgr", "materialize", "--sgr", "{a}"), {"a": "[" * 100_000}, "ParseError"),
        # a battery without a CNF once printed "overall: pass" and exited 0
        (("verify", "end2end", "--gadgets", "toy", "--battery", "{a}"), {"a": ""}, "ParseError"),
        (("--json", "verify", "end2end", "--gadgets", "toy", "--battery", "{a}"),
         {"a": "\n \n\n"}, "ParseError"),
        (("verify", "end2end", "--gadgets", "toy", "--battery", "{a}"), {"a": "\n%\n\n%\n"},
         "ParseError"),
    ],
    ids=["graph-text", "dimacs", "sgr", "decomposition", "gadgets", "battery", "not-utf8",
         "json-nested-too-deep", "empty-battery", "blank-battery", "separators-battery"],
)
def test_a_file_that_fails_to_read_is_named(capsys, tmp_path, argv, files, error):
    """The message names the file, so with two graphs (ef equiv) the user
    can tell which one is at fault; the error name is unchanged."""
    code, out, err, paths = run_with_files(capsys, tmp_path, argv, files)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {error}: {paths['a']}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_zero_that_ends_no_clause_is_refused(capsys, tmp_path):
    """"p cnf 1 1" then "1 0 0" once read as satisfiable; DIMACS reads the
    bare 0 as an empty clause."""
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 1 1\n1 0 0\n")
    code, out, err = run(capsys, "verify", "sat", "--cnf", str(path))
    assert code == 1 and out == ""
    assert err == f"error: ParseError: {path}: line 2: a 0 that ends no clause\n"


def test_construction_failure_names_its_condition_once(capsys, tmp_path):
    """The message once read "PORT_ALIGNMENT: PORT_ALIGNMENT: ..."."""
    triple, omega = tmp_path / "triple.json", tmp_path / "omega.txt"
    g1 = {"n": 3, "edges": [], "p1": [0, 1], "p2": [0, 2]}  # shared port at position 0
    g2 = {"n": 3, "edges": [], "p1": [0, 1], "p2": [2, 1]}  # shared port at position 1
    triple.write_text(json.dumps([g1, g2, g2]))
    omega.write_text("graph 1\n")
    code, out, err = run(capsys, "reduce", "build-quad", "--triple", str(triple),
                         "--omega", str(omega))
    assert code == 1 and out == ""
    message = "PORT_ALIGNMENT: shared-port positions differ across gadgets"
    assert err == f"error: ConstructionFailed: {message}\n"


# Each fuzzed reader: a command that reads the file {f}, and its texts. The
# commands can fail after reading only where the test says so.
FAMILY_TEXT = st.one_of(gadget_json().map(lambda g: json.dumps({"1": g})), JSON.map(json.dumps),
                        st.text(max_size=12))
FUZZED_FILES = {
    "graph": (("graph", "union", "--a", "{f}", "--b", "{f}"), GRAPH_TEXT),
    "decomposition": (("td", "width", "--dec", "{f}"), DECOMPOSITION_TEXT),
    "gadgets": (("graph", "delta", "--gadgets", "{f}", "--word", "1"), FAMILY_TEXT),
}


@pytest.mark.parametrize("reader", sorted(FUZZED_FILES))
def test_fuzzed_files_follow_the_error_contract(capsys, tmp_path_factory, reader):
    """On any file the command succeeds, or fails with one stderr line that
    names the error and then the file."""
    argv, texts = FUZZED_FILES[reader]
    path = tmp_path_factory.mktemp(reader) / "input"
    named = re.compile(rf"error: \w+: {re.escape(str(path))}: [^\n]*\n")

    @settings(derandomize=True, max_examples=12, deadline=None, database=None)
    @given(texts)
    def check(text):
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *(arg.format(f=path) for arg in argv))
        assert code in (0, 1)
        if code == 0:
            assert out and err == ""
            return
        assert out == ""
        # a family without the letter "1" is read, then refused by delta
        assert named.fullmatch(err) or err == "error: BadVertex: unknown gadget index '1'\n"

    check()
