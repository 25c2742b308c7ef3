"""Benchmark of succmso: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload chain_verify --seed 1 --seconds 30 --trace 0

Workloads: chain_verify, succinct_query, mso_check, games_tw (see
BENCHMARK.json and perfbench/LAYERS.md); ``--workload all`` runs each in
turn, in its own process, and prints every metric. One process, one thread, one
client in a closed loop: each job starts when the previous one has
finished. Jobs of every cell run interleaved in a seeded shuffled order, so
host drift during the run is spread over all cells. The cells are
interleaved in proportion to their share of the pool, so a run that stops
part way through a pass has still run every cell in its share.

The host's speed drifts by tens of percent over seconds to minutes, so the
timed loop also runs a fixed pure-Python probe between jobs every 200 ms.
The time metrics are taken at reference host speed: each job's latency is
multiplied by REF_NOMINAL_NS over the median of the probes nearest to it,
so a slow stretch of the host scales the probe and the jobs alike and
cancels, while a slower program still reads slower. ``jobs_per_s`` is jobs
over their summed scaled latency. The unscaled wall-clock figures are
printed as ``wall_*`` on the lines before the result. ``setup_s`` is
scaled the same way, by probes taken just after each set-up.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates short chunks of jobs run untraced and the same
jobs run again with a span around every call into succmso, and reports the
per-layer metrics; the spans are written to ``.bench_out/``.

``--self-test`` shows that the correctness gate is live: every workload
is run briefly with wrong expected answers (or a corrupted SGR) and must
fail jobs, and briefly as is and must fail none.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program is
imported from ``src/`` beside this directory; without it the run exits 2.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_CHILDREN = 4  # extra set-ups in fresh processes; setup_s is the median
CHUNK_NS = 500_000_000  # traced runs alternate chunks of this length
SELF_TEST_SECONDS = 1.0
PROBE_EVERY_NS = 200_000_000  # the timed loop probes the host this often
PROBES_PER_JOB = 5  # a job is scaled by the median of its nearest probes
PROBES_PER_SETUP = 5
REF_NOMINAL_NS = 2_000_000  # probe time that defines reference host speed
WORKLOADS = ("chain_verify", "succinct_query", "mso_check", "games_tw")


class MissingProgram(Exception):
    pass


def load_program():
    """Put src/ first on the path and check that succmso comes from there."""
    if not (SRC / "succmso" / "__init__.py").is_file():
        raise MissingProgram(f"no src/succmso beside {HERE.name}/")
    sys.path.insert(0, str(SRC))
    import succmso

    if Path(succmso.__file__).resolve().parent != SRC / "succmso":
        raise MissingProgram(f"succmso was imported from {succmso.__file__}")


def ref_loop(iterations):
    """A fixed pure-Python loop; its time tracks the host, not the program."""
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return acc


def host_ref_ms():
    start = time.perf_counter()
    ref_loop(200_000)
    return (time.perf_counter() - start) * 1e3


PROBE_TABLE = {i: i * 7919 % 10007 for i in range(4000)}


class ProbeItem:
    __slots__ = ("key", "index")

    def __init__(self, key, index):
        self.key = key
        self.index = index


def probe_work():
    """About 2 ms of fixed pure-Python work in two halves: the reference
    loop, and dict, set, tuple and small-object traffic of the kind the
    program does. It never calls succmso."""
    acc = ref_loop(10_000)
    seen, items = set(), []
    for i in range(750):
        key = PROBE_TABLE[i * 31 % 4000]
        seen.add((key, i & 7))
        items.append(ProbeItem(key, i))
        acc += len(seen) + items[-1].key % 5
    return acc


def probe(clock):
    """(midpoint, duration) in ns of one run of probe_work."""
    start = clock()
    probe_work()
    end = clock()
    return (start + end) // 2, end - start


def setup_seconds():
    """Seconds since the process started: as measured, and at reference
    host speed by the median of probes taken right after."""
    wall = time.perf_counter() - STARTED
    ref = statistics.median(probe(time.perf_counter_ns)[1] for _ in range(PROBES_PER_SETUP))
    return wall, wall * REF_NOMINAL_NS / ref


def seeded(workload, seed, purpose):
    return random.Random(f"{workload}:{seed}:{purpose}")


def setup(name, seed, corrupt=False, traced=False):
    """Import the program and build the job pool; runs before the first job.
    Returns the workload, the program-call namespace, the pool and the
    tracer (None when untraced)."""
    load_program()
    import spans
    import workloads

    tracer = spans.Tracer() if traced else None
    wl = workloads.WORKLOADS[name](corrupt)
    api = spans.bind(tracer)
    pool = wl.setup(seeded(name, seed, "inputs"), api)
    return wl, api, pool, tracer


def job_order(name, seed, pool):
    """Endless seeded passes over the pool. In each pass every cell's jobs
    come in a shuffled order, and the cells are interleaved evenly: job j
    of a cell of n jobs runs at about fraction (j + u) / n of the pass,
    with u drawn once per cell and pass."""
    rng = seeded(name, seed, "order")
    cells = {}
    for job in pool:
        cells.setdefault(job.cell, []).append(job)
    while True:
        keyed = []
        for cell, jobs in cells.items():
            rng.shuffle(jobs)
            u = rng.random()
            keyed += [((j + u) / len(jobs), cell, job) for j, job in enumerate(jobs)]
        keyed.sort(key=lambda k: k[:2])
        for _, _, job in keyed:
            yield job


class Tally:
    """Outcome of every job run: latency, pass or fail, cell."""

    def __init__(self):
        self.starts_ns = []
        self.latencies_ns = []
        self.failed = 0
        self.per_cell = Counter()
        self.errors = []

    def run(self, fn, api, wl, job):
        clock = time.perf_counter_ns
        start = clock()
        try:
            observed = fn(api, job)
            error = None
        except Exception:
            error = traceback.format_exc()
        self.starts_ns.append(start)
        self.latencies_ns.append(clock() - start)
        self.per_cell[job.cell] += 1
        try:
            ok = error is None and wl.check(job, observed)
        except Exception:
            error, ok = traceback.format_exc(), False
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append({"cell": job.cell, "error": error or "wrong answer"})

    @property
    def attempted(self):
        return len(self.latencies_ns)


def closed_loop(wl, api, jobs, seconds):
    """Run jobs back to back until the time is up, probing the host between
    jobs every PROBE_EVERY_NS and once at the end; returns (tally, wall ns,
    probes)."""
    tally = Tally()
    probes = []
    clock = time.perf_counter_ns
    start = next_probe = clock()
    deadline = start + int(seconds * 1e9)
    while (now := clock()) < deadline:
        if now >= next_probe:
            probes.append(probe(clock))
            next_probe = now + PROBE_EVERY_NS
        tally.run(wl.run, api, wl, next(jobs))
    wall_ns = clock() - start
    probes.append(probe(clock))
    return tally, wall_ns, probes


def scaled_latencies(tally, probes):
    """Each job's latency at reference host speed: times REF_NOMINAL_NS over
    the median of the PROBES_PER_JOB probes nearest the job's midpoint."""
    times = [t for t, _ in probes]
    medians = {}
    out = []
    for start, ns in zip(tally.starts_ns, tally.latencies_ns):
        i = bisect.bisect_left(times, start + ns // 2)
        lo = max(0, min(i - PROBES_PER_JOB // 2, len(probes) - PROBES_PER_JOB))
        if lo not in medians:
            medians[lo] = statistics.median(d for _, d in probes[lo:lo + PROBES_PER_JOB])
        out.append(ns * REF_NOMINAL_NS / medians[lo])
    return out


def traced_loop(wl, api, traced_api, tracer, jobs, seconds):
    """Alternate a chunk run untraced with the same jobs run traced.

    Returns (tally, untraced ns, traced ns); the tracer holds the spans of
    the traced chunks only.
    """
    # a replay stands for the program call it unfolds; its stages become children
    traced_run = tracer.wrap("verify.check_instance", wl.replay, None) if hasattr(wl, "replay") else wl.run
    tally = Tally()
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    untraced_ns = traced_ns = 0
    while clock() < deadline:
        chunk = []
        start = clock()
        while clock() - start < CHUNK_NS:
            chunk.append(next(jobs))
            tally.run(wl.run, api, wl, chunk[-1])
        middle = clock()
        for job in chunk:
            tally.run(traced_run, traced_api, wl, job)
        end = clock()
        untraced_ns += middle - start
        traced_ns += end - middle
    return tally, untraced_ns, traced_ns


def replay_mismatches(wl, api, pool, per_cell=2):
    """Jobs whose stage-by-stage replay disagrees with the program's own
    check_instance record; 2 jobs per cell."""
    if not hasattr(wl, "replay"):
        return 0, 0
    seen, checked, bad = Counter(), 0, 0
    for job in pool:
        if seen[job.cell] < per_cell:
            seen[job.cell] += 1
            checked += 1
            bad += wl.run(api, job) != wl.replay(api, job)
    return checked, bad


def setup_in_children(name, seed):
    """setup_seconds() of SETUP_CHILDREN fresh processes, one after another."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        out.append(tuple(map(float, proc.stdout.split()[-2:])))
    return out


def commit():
    """The git commit when run in a clone; a benchmark checkout has none."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest():
    """sha256 over the program's sources, to tell checkouts apart."""
    h = hashlib.sha256()
    for path in sorted((SRC / "succmso").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def declared_metrics(trace):
    """(name, unit) of each metric BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def deciles_ms(latencies_ns):
    return [c / 1e6 for c in statistics.quantiles(latencies_ns, n=10, method="inclusive")]


def layer_metrics(setup_stats, timed_stats, extra):
    """Per-layer metrics from the spans of the traced chunks (and, for the
    set-up work, of the set-up phase)."""
    _, self_ns, calls, counters = timed_stats
    _, setup_ns, _, _ = setup_stats

    def secs(*names, also_setup=False):
        total = sum(self_ns.get(n, 0) for n in names)
        if also_setup:
            total += sum(setup_ns.get(n, 0) for n in names)
        return total / 1e9

    def n(name):
        return calls.get(name, 0)

    def k(name):
        return counters.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    quad_build = ("reduce.normalize_layout", "reduce.build_quadruple",
                  "reduce.toy_quadruple", "reduce.path_triple")
    return {
        "circuit.pair_gates": k("circuit.pair_gates"),
        "circuit.ns_per_pair_gate": ratio(self_ns.get("sgr.materialize", 0), k("circuit.pair_gates")),
        "circuit.query_gates": k("circuit.query_gates"),
        "circuit.ns_per_query_gate": ratio(self_ns.get("sgr.edge_query", 0), k("circuit.query_gates")),
        "sgr.materialize_s": secs("sgr.materialize"),
        "sgr.materialize_calls": n("sgr.materialize"),
        "sgr.pairs": k("sgr.pairs"),
        "sgr.edges_out": k("sgr.edges_out"),
        "sgr.edge_query_s": secs("sgr.edge_query"),
        "sgr.edge_queries": n("sgr.edge_query"),
        "sgr.serialize_s": secs("sgr.serialize"),
        "sgr.parse_s": secs("sgr.parse"),
        "sgr.json_bytes": k("sgr.json_bytes"),
        "reduce.compile_s": secs("reduce.compile_reduction"),
        "reduce.compile_calls": n("reduce.compile_reduction"),
        "reduce.gates": k("reduce.gates"),
        "reduce.gates_per_circuit": ratio(k("reduce.gates"), n("reduce.compile_reduction")),
        "reduce.label_bits": ratio(k("reduce.label_bits"), n("reduce.compile_reduction")),
        "reduce.succ_ref_s": secs("reduce.succ_ref"),
        "reduce.succ_ref_calls": n("reduce.succ_ref"),
        "reduce.succ_ref_labels": k("reduce.succ_ref_labels"),
        "reduce.quad_build_s": secs(*quad_build, also_setup=True),
        "verify.check_instance_s": secs("verify.check_instance"),
        "verify.delta_layout_s": secs("verify.delta_layout"),
        "verify.sat_solve_s": secs("verify.sat_solve"),
        "verify.sat_calls": n("verify.sat_solve"),
        "graph.digraph_build_s": secs("graph.Digraph"),
        "graph.digraphs_built": n("graph.Digraph"),
        "graph.edges_built": k("graph.edges_built"),
        "graph.graph_equal_s": secs("graph.graph_equal"),
        "graph.delta_s": secs("graph.delta"),
        "mso.formula_compile_s": secs("mso.parse", "mso.CompiledFormula", also_setup=True),
        "mso.eval_s": secs("mso.eval"),
        "mso.evals": n("mso.eval"),
        "mso.us_per_eval_small": ratio(k("mso.eval_small_ns"), k("mso.eval_small_calls")) / 1e3,
        "mso.us_per_eval_large": ratio(k("mso.eval_large_ns"), k("mso.eval_large_calls")) / 1e3,
        "efgame.ef_equiv_s": secs("efgame.ef_equiv"),
        "efgame.ef_calls": n("efgame.ef_equiv"),
        "efgame.q_search_s": secs("efgame.q_search"),
        "efgame.q_calls": n("efgame.q_search"),
        "treedec.treewidth_s": secs("treedec.treewidth_exact"),
        "treedec.treewidth_calls": n("treedec.treewidth_exact"),
        "treedec.decompose_s": secs("treedec.decomposition_of_delta"),
        "treedec.validate_s": secs("treedec.validate"),
        "treedec.normalize3_s": secs("treedec.normalize_degree3"),
        "bench.oracle_s": extra["oracle_s"],
        "bench.span_coverage": ratio(sum(self_ns.values()), extra["traced_ns"]),
        "bench.trace_overhead_frac": ratio(extra["traced_ns"], extra["untraced_ns"]) - 1,
        "bench.host_ref_ms": extra["host_ref_ms"],
    }


def measure(args):
    """One benchmark run; returns the result object and a record to save."""
    wl, api, pool, tracer = setup(args.workload, args.seed, traced=bool(args.trace))
    setup_s = setup_seconds()
    if tracer:
        import spans

        setup_stats = tracer.take()
        traced_api, api = api, spans.bind()

    host_ref = [host_ref_ms() for _ in range(3)]
    start = time.perf_counter()
    for job in pool:
        job.expected = wl.expected(job)
    oracle_s = time.perf_counter() - start

    jobs = job_order(args.workload, args.seed, pool)
    extra = {"oracle_s": oracle_s}
    if tracer:
        tally, extra["untraced_ns"], extra["traced_ns"] = traced_loop(
            wl, api, traced_api, tracer, jobs, args.seconds)
        timed_stats = tracer.take()
        checked, bad = replay_mismatches(wl, api, pool)
        attempted, failed = tally.attempted + checked, tally.failed + bad
    else:
        tally, wall_ns, probes = closed_loop(wl, api, jobs, args.seconds)
        attempted, failed = tally.attempted, tally.failed
    host_ref += [host_ref_ms() for _ in range(3)]
    extra["host_ref_ms"] = statistics.median(host_ref)

    if tracer:
        metrics = layer_metrics(setup_stats, timed_stats, extra)
    else:
        setups = [setup_s] + setup_in_children(args.workload, args.seed)
        scaled = scaled_latencies(tally, probes)
        deciles = deciles_ms(scaled)
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "jobs_per_s": tally.attempted / (sum(scaled) / 1e9),
            "job_p50_ms": deciles[4],
            "job_p90_ms": deciles[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wall_deciles = deciles_ms(tally.latencies_ns)
        wall = {
            "wall_setup_s": statistics.median(wall for wall, _ in setups),
            "wall_jobs_per_s": tally.attempted / (wall_ns / 1e9),
            "wall_job_p50_ms": wall_deciles[4],
            "wall_job_p90_ms": wall_deciles[8],
            "probe_ms_median": statistics.median(d for _, d in probes) / 1e6,
        }
    gates = getattr(wl, "gate_counts", None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "jobs_per_cell": dict(sorted(tally.per_cell.items())),
        "job_samples": tally.attempted,
        "fail_frac": failed / attempted,
        "gates_per_circuit": statistics.fmean(gates) if gates else None,
        "host_ref_ms": host_ref,
        "setup_s_samples": None if tracer else setups,
        "metrics": metrics,
        "wall": None if tracer else wall,
        "errors": tally.errors,
    }
    if tracer:
        record["replay_checked"], record["replay_mismatched"] = checked, bad
        record["spans"] = {"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                           "setup": setup_stats[0], "timed": timed_stats[0]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, record


def self_test():
    """Every workload fails jobs with a corrupted gate and none without."""
    ok = True
    for name in WORKLOADS:
        for corrupt in (True, False):
            wl, api, pool, _ = setup(name, 1, corrupt=corrupt)
            for job in pool:
                job.expected = wl.expected(job)
            tally, _, _ = closed_loop(wl, api, job_order(name, 1, pool), SELF_TEST_SECONDS)
            frac = tally.failed / tally.attempted
            passed = frac > 0 if corrupt else frac == 0
            ok &= passed
            print(f"{name:15s} {'corrupted' if corrupt else 'as is':9s} "
                  f"fail_frac {frac:.3f} of {tally.attempted:5d} jobs "
                  f"{'ok' if passed else 'UNEXPECTED'}")
    return ok


def run_all(args):
    """Each workload in its own process; their output, prefixed by name."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        for line in proc.stdout.splitlines()[:-1]:
            print(f"{name} {line}")
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="'all' runs every workload in turn, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    try:
        if args.self_test:
            return 0 if self_test() else 1
        if args.setup_only:
            setup(args.workload, args.seed)
            print(*setup_seconds())
            return 0
        result, record = measure(args)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in declared_metrics(args.trace)}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    for name, value in (record["wall"] or {}).items():
        unit = {"wall_setup_s": "s", "wall_jobs_per_s": "1/s"}.get(name, "ms")
        print(f"{name} {value} {unit}")
    print(f"job_samples {record['job_samples']} count")
    print(f"fail_frac {record['fail_frac']} fraction ({result['failed']} of {result['attempted']})")
    if record["gates_per_circuit"] is not None:
        print(f"gates_per_circuit {record['gates_per_circuit']} count")
    print("run " + json.dumps({k: record[k] for k in (
        "workload", "seed", "trace", "nproc", "python", "commit", "source_sha256",
        "jobs_per_cell", "job_samples", "host_ref_ms")}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
