"""DMCS query benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The workload's graph and query sets are
generated from ``--seed``; one client answers queries back to back (a
closed loop) for ``--seconds`` seconds and every answer is checked.
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run is split into an untraced
and a traced half and the JSON holds the per-layer metrics. A result
file with a provenance block goes to ``.perfbench_out/``. The exit code
is 0 only when every correctness check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# Set-up is repeated at least MIN_SETUPS times, and more while the
# repetitions so far took under SETUP_BUDGET_S, up to MAX_SETUPS.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 15, 1.5
# Spark gets one task slot and a JVM sized for one processor. On a shared
# 4-vCPU host, 4 slots made BFS 1.6x slower and spread its time by 38%
# across runs: the jobs are tiny, so their time is thread hand-offs,
# which wait whenever the host deschedules a vCPU.
TASK_SLOTS = 1
# Layers whose cost is paid per set-up rather than per query.
SETUP_LAYERS = {
    "gendata.lfr.lfr_graph", "evaluation.queries.query_sets",
    "graphs.localops.core_numbers", "graphs.localops.truss_numbers",
    "graphs.graph.from_local", "graphs.graph.degrees",
    "graphs.components.connected_components", "graphs.kcore.k_core",
    "graphs.triangles.edge_support", "graphs.graph.to_local",
}
# (metric, unit, layer, field) read straight from the traced half.
LAYER_FIELDS = [
    ("core.fpa.fpa.s", "s", "core.fpa.fpa", "s"),
    ("core.fpa.fpa.self_s", "s", "core.fpa.fpa", "self_s"),
    ("core.nca.nca.s", "s", "core.nca.nca", "s"),
    ("core.nca.nca.self_s", "s", "core.nca.nca", "self_s"),
    ("graphs.local.articulation_points.s", "s", "graphs.local.articulation_points", "s"),
    ("graphs.local.articulation_points.calls", "count", "graphs.local.articulation_points", "calls"),
    ("core.peel.PeelState.init.s", "s", "core.peel.PeelState.init", "s"),
    ("core.peel.PeelState.init.calls", "count", "core.peel.PeelState.init", "calls"),
    ("core.peel.PeelState.remove.s", "s", "core.peel.PeelState.remove", "s"),
    ("core.peel.PeelState.remove.calls", "count", "core.peel.PeelState.remove", "calls"),
    ("core.peel.PeelState.score.calls", "count", "core.peel.PeelState.score", "calls"),
    ("graphs.local.degrees.s", "s", "graphs.local.degrees", "s"),
    ("graphs.local.degrees.calls", "count", "graphs.local.degrees", "calls"),
    ("graphs.local.connected_component.s", "s", "graphs.local.connected_component", "s"),
    ("graphs.local.bfs_dist.s", "s", "graphs.local.bfs_dist", "s"),
    ("graphs.local.bfs_dist.calls", "count", "graphs.local.bfs_dist", "calls"),
    ("core.steiner.steiner_connector.s", "s", "core.steiner.steiner_connector", "s"),
    ("baselines.kc.s", "s", "baselines.kc", "s"),
    ("baselines.huang2015.s", "s", "baselines.huang2015", "s"),
    ("gendata.lfr.lfr_graph.s", "s", "gendata.lfr.lfr_graph", "s"),
    ("evaluation.queries.query_sets.s", "s", "evaluation.queries.query_sets", "s"),
    ("graphs.localops.core_numbers.s", "s", "graphs.localops.core_numbers", "s"),
    ("graphs.localops.truss_numbers.s", "s", "graphs.localops.truss_numbers", "s"),
] + [
    (f"{layer}.{field}", unit, layer, field)
    for layer in ("graphs.graph.from_local", "graphs.graph.degrees",
                  "graphs.components.connected_components", "graphs.kcore.k_core",
                  "graphs.triangles.edge_support", "graphs.graph.to_local",
                  "graphs.bfs.distances")
    for field, unit in (("s", "s"), ("jobs", "count"))
]
# End-to-end metrics in the JSON line: those every workload reports and
# that are never 0 (BENCHMARK.json).
JSON_METRICS = ("setup_s", "query_p50_s", "queries_per_s", "peak_rss_mb")
# Per-algorithm medians, from the untraced half: metric -> algorithm.
ALGO_P50 = {
    "core.fpa.fpa.p50_s": "fpa", "core.fpa.fpa_prune.p50_s": "fpa_prune",
    "baselines.kc.p50_s": "kc", "baselines.huang2015.p50_s": "huang2015",
}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------------ Spark
def start_spark(tmp: Path):
    """Local SparkSession whose scratch files stay under ``tmp``."""
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{TASK_SLOTS}]")
        .config("spark.driver.memory", "1g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # One shuffle partition per task slot: the graphs are small, so
        # more partitions only add per-task scheduling.
        .config("spark.sql.shuffle.partitions", str(TASK_SLOTS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.driver.extraJavaOptions",
                f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -XX:ActiveProcessorCount={TASK_SLOTS}")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def drain_listener_bus(spark) -> None:
    """Wait until the status tracker has seen every finished job."""
    spark.sparkContext._jsc.sc().listenerBus().waitUntilEmpty()


def stop_spark(spark) -> None:
    """Stop the session and the JVM behind it, and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ------------------------------------------------------------- the run
class Run:
    """Closed-loop timing, checks and answer bookkeeping for one workload."""

    def __init__(self, w, tracer, ref) -> None:
        self.w, self.tracer, self.ref = w, tracer, ref
        self.attempted = self.failed = 0
        self.failures: list = []
        self.answers: dict = {}  # (algo, q) -> (digest, quality)
        self.n_ctx = 0

    def _ctx(self, ctx: str) -> None:
        if self.tracer is not None:
            self.tracer.ctx = ctx

    def _record(self, what, bad) -> None:
        self.attempted += 1
        if bad:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"op": str(what), "failures": bad})

    def setup(self, seed: int):
        """Repeated set-ups; returns their wall times and index times."""
        times, index_times = [], []
        while len(times) < MIN_SETUPS or (
                sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS):
            self._ctx(f"s{len(times)}")
            t0 = perf_counter()
            index_times.append(self.w.setup(seed))
            times.append(perf_counter() - t0)
            self.ref.after("setup", times[-1])
            self._ctx("c")
            self._record(f"setup {len(times) - 1}", self.w.check_setup())
        return times, index_times

    def query(self, item, phase=None):
        """Answer and check one query. A query timed in ``phase`` is
        followed by the reference task; returns its wall time, or None
        if it raised."""
        timed = phase is not None
        algo, q = item
        self._ctx(f"q{self.n_ctx}" if timed else "c")
        self.n_ctx += timed
        t0 = perf_counter()
        try:
            res = self.w.run(algo, q)
            dt = perf_counter() - t0
        except Exception:  # a failing query is counted, the loop goes on
            self._ctx("c")
            traceback.print_exc(file=sys.stderr)
            self._record(item, [traceback.format_exc(limit=3).splitlines()[-1]])
            return None
        self._ctx("c")
        bad = self.w.check(algo, q, res)
        self._record(item, bad)
        if not bad and item not in self.answers:
            self.answers[item] = (self.w.answer_digest(res), self.w.quality(q, res))
        if timed:
            self.ref.after(phase, dt)
        return dt

    def loop(self, seconds: float, phase: str):
        """Closed loop over the workload's items for ``seconds``; returns
        [(algo, wall seconds)] of the queries that completed."""
        items, out, i = self.w.items, [], 0
        deadline = perf_counter() + seconds
        while True:
            item = items[i % len(items)]
            dt = self.query(item, phase)
            if dt is not None:
                out.append((item[0], dt))
            i += 1
            if perf_counter() >= deadline:
                return out


def tail(times):
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it,
    as (percentile, value, samples beyond), or None."""
    xs, n = sorted(times), len(times)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        k = max(1, -(-int(p * n) // 100))  # nearest-rank index, 1-based
        if n - k >= 10:
            return p, xs[k - 1], n - k
    return None


def provenance(w, args, spark, n_items, n_timed) -> dict:
    def git_rev():
        head = ROOT / ".git" / "HEAD"
        try:
            ref = head.read_text().strip()
            if ref.startswith("ref: "):
                name = ref[5:]
                path = ROOT / ".git" / name
                if path.exists():
                    return path.read_text().strip()
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        return line.split()[0]
                return None
            return ref
        except OSError:
            return None

    def java_version():
        if spark is not None:
            return spark.sparkContext._jvm.System.getProperty("java.version")
        try:
            r = subprocess.run(["java", "-version"], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return (r.stderr.splitlines() or [None])[0]

    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode())
        src.update(p.read_bytes())
    import pyspark

    return {
        "git_rev": git_rev(),
        "src_sha256": src.hexdigest(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "java": java_version(),
        "spark_master": spark.sparkContext.master if spark else None,
        "spark_task_slots": spark.sparkContext.defaultParallelism if spark else None,
        "workload": w.name,
        "seeds": {"graph": w.graph_seed, "queries": args.seed},
        "query_sets": len({q for _, q in w.items}),
        "queries_in_mix": n_items,
        "queries_timed": n_timed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(w, spark_s, setup, timed, phase, run) -> dict:
    """The end-to-end metrics, times in reference seconds (reference.py),
    and the same times in wall seconds. ``setup`` is what Run.setup
    returned."""
    setup_times, index_times = setup
    k_setup, k_query = run.ref.scale("setup"), run.ref.scale(phase)
    wall = [dt for _, dt in timed]
    times = [dt * k_query for dt in wall]
    quality = [qv for _, qv in run.answers.values() if qv is not None]
    t = tail(times)
    idx = [x for x in index_times if x is not None]
    setup_wall = spark_s + statistics.median(setup_times)
    wall_metrics = {
        "setup_s": metric(setup_wall, "s"),
        "index_s": metric(statistics.median(idx), "s") if idx else None,
        "query_p50_s": metric(statistics.median(wall), "s"),
        "queries_per_s": metric(len(wall) / sum(wall), "1/s"),
        "reference_task_s": ({"setup": run.ref.mean("setup"), phase: run.ref.mean(phase)}
                             if run.ref.enabled else None),
    }
    return {
        "setup_s": metric(setup_wall * k_setup, "s"),
        "index_s": metric(statistics.median(idx) * k_setup, "s") if idx else None,
        "query_p50_s": metric(statistics.median(times), "s"),
        "query_tail_s": (dict(metric(t[1], "s"), percentile=t[0], samples_beyond=t[2])
                         if t else None),
        "queries_per_s": metric(len(times) / sum(times), "1/s"),
        "error_rate": metric(run.failed / run.attempted, "ratio"),
        "dm_mean": metric(statistics.fmean(d for d, _ in quality), "DM") if quality else None,
        "nmi_median": metric(statistics.median(n for _, n in quality), "NMI") if quality else None,
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, wall_metrics


def per_layer(w, tracer, untraced, traced, ref) -> dict:
    from tracer import summarize

    if w.spark:
        drain_listener_bus(w.session)
        for ctx, name, jobs in w.job_counts():
            if ctx[:1] in ("s", "q"):
                tracer.add(f"{name}.jobs", jobs, ctx=ctx)
    s = summarize(tracer.layer_totals(), SETUP_LAYERS, len(traced))
    get = lambda layer, field: s.get(layer, {}).get(field, 0)  # noqa: E731
    out = {m: metric(get(layer, field), unit) for m, unit, layer, field in LAYER_FIELDS}
    removes = get("core.peel.PeelState.remove", "calls")
    out["graphs.local.articulation_points.per_removal"] = metric(
        get("graphs.local.articulation_points", "calls") / removes if removes else 0, "ratio")
    inits = get("core.peel.PeelState.init", "calls")
    out["core.peel.PeelState.init.nodes"] = metric(
        get("core.peel.PeelState.init", "nodes") / inits if inits else 0, "count")
    for m, algo in ALGO_P50.items():
        xs = [dt * ref.scale("query") for a, dt in untraced if a == algo]
        out[m] = metric(statistics.median(xs) if xs else 0, "s")
    # Both halves in reference seconds, so host drift between them does
    # not read as overhead.
    p50_off = statistics.median(dt for _, dt in untraced) * ref.scale("query")
    p50_on = statistics.median(dt for _, dt in traced) * ref.scale("traced")
    out["trace.overhead_frac"] = metric(p50_on / p50_off - 1, "ratio")
    out["reference.task_s"] = metric(ref.mean("traced") or 0, "s")
    return out, s


def show(name, m) -> str:
    if m is None:
        return f"  {name:<14} n/a"
    extra = ""
    if "percentile" in m:
        extra = f"  (p{m['percentile']:g}, {m['samples_beyond']} samples beyond it)"
    return f"  {name:<14} {m['value']:.6g} {m['unit']}{extra}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        fail(f"no program source at {ROOT / 'src' / 'repro'}; run from a full checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    sys.path.insert(0, str(ROOT / "src"))
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)

    from reference import Reference
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    run = Run(w, tracer, Reference(w.host_adjusted))
    spark_s = 0.0
    try:
        if w.spark:
            t0 = perf_counter()
            w.session = start_spark(tmp)
            spark_s = perf_counter() - t0
            run.ref.after("setup", spark_s)
        if tracer is not None:
            tracer.install()
            w.tracer = tracer
        setup = run.setup(args.seed)
        if w.spark:  # first BFS pays for code generation; keep it out of the timing
            run.query(w.items[0])
        if tracer is None:
            phase = "query"
            timed = run.loop(args.seconds, phase)
            untraced = timed
        else:
            tracer.uninstall()
            w.tracer = None
            untraced = run.loop(args.seconds / 2, "query")
            tracer.install()
            w.tracer = tracer
            phase = "traced"
            timed = run.loop(args.seconds / 2, phase)
            tracer.uninstall()
        if not timed or not untraced:
            print(json.dumps(run.failures, indent=1), file=sys.stderr)
            raise RuntimeError("no timed query completed")
        e2e, wall = end_to_end(w, spark_s, setup, timed, phase, run)
        layers, layers_full = (per_layer(w, tracer, untraced, timed, run.ref) if tracer
                               else (None, None))
        prov = provenance(w, args, w.session, len(w.items), run.n_ctx)
    finally:
        if w.session is not None:
            stop_spark(w.session)
        shutil.rmtree(tmp, ignore_errors=True)

    correct = run.failed == 0
    by_algo: dict = {}
    for (algo, q), (dig, _) in sorted(run.answers.items()):
        by_algo.setdefault(algo, []).append(f"{','.join(map(str, q))}:{dig}")
    digests = {a: {"sha256": hashlib.sha256("\n".join(v).encode()).hexdigest()[:16],
                   "queries": len(v)} for a, v in by_algo.items()}
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    result = {
        "provenance": prov, "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "failures": run.failures, "end_to_end": e2e, "wall": wall,
        "setup_wall_s": setup[0], "query_wall_s": timed,
        "per_layer": layers, "layers": layers_full,
        "digests": digests,
        "answers": {f"{a}|{','.join(map(str, q))}": d for (a, q), (d, _) in run.answers.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.csv")

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(timed)} timed queries, {len(setup[0])} set-ups")
    if tracer is None:
        for name, m in e2e.items():
            print(show(name, m))
        if run.ref.enabled:
            print("  the same in wall time:")
            for name, m in wall.items():
                if name != "reference_task_s":
                    print(show(name, m))
            print("  reference task (s): " + ", ".join(
                f"{k} {v:.6g}" for k, v in wall["reference_task_s"].items()))
    else:
        for name, m in layers.items():
            print(show(name, m))
    for algo, d in digests.items():
        print(f"  digest {algo:<10} {d['sha256']} over {d['queries']} distinct queries")
    for f in run.failures:
        print(f"  FAILED {f['op']}: {'; '.join(f['failures'])}")
    print(f"  result file {OUT.relative_to(ROOT) / (stem + '.json')}")
    shown = {n: e2e[n] for n in JSON_METRICS} if tracer is None else layers
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {n: metric(m["value"], m["unit"]) for n, m in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
