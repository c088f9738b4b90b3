"""The benchmark's four workloads.

Each workload builds its inputs from the seed (``setup``), exposes the
list of queries the closed loop cycles through (``items``), answers one
query (``run``) and checks one answer (``check``). Program entry points
are looked up on their modules at call time, so the tracer's wrappers
are reached when it is installed.
"""
from __future__ import annotations

import hashlib
import importlib
import itertools
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

DATASETS = importlib.import_module("repro.evaluation.datasets")
QUERIES = importlib.import_module("repro.evaluation.queries")
METRICS = importlib.import_module("repro.evaluation.metrics")
LOCALOPS = importlib.import_module("repro.graphs.localops")
FPA = importlib.import_module("repro.core.fpa")
NCA = importlib.import_module("repro.core.nca")
KCORE_CS = importlib.import_module("repro.baselines.kcore_cs")
KTRUSS_CS = importlib.import_module("repro.baselines.ktruss_cs")

Item = Tuple[str, Tuple[int, ...]]  # (algorithm, query nodes)

# The graphs are fixed and the seed picks the query sets: the e11 LFR
# (Figure 11's largest size) and the default LFR of Table 2, scaled as in
# repro.evaluation.datasets. A graph drawn per seed would add about 5% of
# run-to-run spread to NCA's query time through |E| alone.
LFR_20K = dict(seed=7, n=20000, d_avg=12, d_max=60, max_c=200)
LFR_1K = dict(seed=0)
# Algorithms whose answer must score at least the DM of the component of
# Q: the peel starts from that component as its incumbent.
PEELERS = {"fpa", "fpa_prune", "nca"}
DM_TOL = 1e-9


def digest(nodes) -> str:
    return hashlib.sha256(",".join(map(str, sorted(nodes))).encode()).hexdigest()[:16]


def reachable(adj: Dict[int, Set[int]], start: int, within: Optional[Set[int]] = None) -> Set[int]:
    """Nodes reachable from ``start``, optionally only through ``within``."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen and (within is None or u in within):
                seen.add(u)
                stack.append(u)
    return seen


def density_modularity(adj: Dict[int, Set[int]], m: int, nodes: Set[int]) -> float:
    """DM(G, C) = (2 l_C − d_C² / 2|E|) / 2|C|, computed independently of
    the program's incremental bookkeeping."""
    l2 = sum(1 for v in nodes for u in adj[v] if u in nodes)  # 2 l_C
    d = sum(len(adj[v]) for v in nodes)
    return (l2 - d * d / (2.0 * m)) / (2.0 * len(nodes))


def round_robin(groups: Sequence[Sequence]) -> List:
    """Interleave groups so any prefix of the loop holds an even mix."""
    return [x for row in itertools.zip_longest(*groups) for x in row if x is not None]


class CommunitySearch:
    """Local DMCS queries on one LFR graph."""

    spark = False
    session = None

    def __init__(self, name: str, lfr_kw: dict, q_sizes: Sequence[int], n_sets: int,
                 algos: Sequence[str], index: bool, host_adjusted: bool) -> None:
        self.name, self.lfr_kw, self.q_sizes = name, lfr_kw, q_sizes
        self.graph_seed = lfr_kw["seed"]
        self.n_sets, self.algos, self.index = n_sets, algos, index
        self.host_adjusted = host_adjusted

    def setup(self, seed: int) -> Optional[float]:
        """Generate graph and query sets (and the core/truss index);
        returns the index time, or None when the workload has none."""
        self.g = self.comms = self.cores = self.truss = None  # free the last rep first
        g, comms = DATASETS.lfr(**self.lfr_kw)
        qsets = round_robin([
            QUERIES.query_sets(g, comms, n_sets=self.n_sets, q_size=k, seed=seed)
            for k in self.q_sizes
        ])
        index_s = None
        if self.index:
            t0 = perf_counter()
            self.cores = LOCALOPS.core_numbers(g)
            self.truss = LOCALOPS.truss_numbers(g)
            index_s = perf_counter() - t0
        self.g, self.comms = g, comms
        # huang2015 only on single-node queries: with |Q| > 1 it falls back
        # to peeling the whole component whenever Q shares no k-truss, which
        # took up to 6 s on 5 of 400 such queries (milliseconds on the rest)
        # and would decide a whole run on its own.
        self.items: List[Item] = [
            (a, tuple(q)) for q in qsets for a in self.algos
            if not (a == "huang2015" and len(q) > 1)
        ]
        self._dm_start: Dict[Tuple[int, ...], float] = {}
        return index_s

    def check_setup(self) -> List[str]:
        return [] if self.items else ["no query sets generated"]

    def run(self, algo: str, q: Tuple[int, ...]):
        g = self.g
        if algo == "fpa":
            return FPA.fpa(g, q)
        if algo == "fpa_prune":
            return FPA.fpa(g, q, prune=True)
        if algo == "nca":
            return NCA.nca(g, q)
        if algo == "kc":
            return KCORE_CS.kc(g, q, k=3, cores=self.cores)
        if algo == "huang2015":
            return KTRUSS_CS.huang2015(g, q, truss=self.truss)
        raise ValueError(f"unknown algorithm {algo!r}")

    def check(self, algo: str, q: Tuple[int, ...], res) -> List[str]:
        if res is None:
            return ["no community returned"]
        adj, res = self.g.adj, set(res)
        out = []
        if not set(q) <= res:
            out.append("query nodes missing from the community")
        if not res or reachable(adj, next(iter(res)), res) != res:
            out.append("community not connected")
        if algo in PEELERS and res:
            start = self._dm_start.get(q)
            if start is None:
                comp = reachable(adj, q[0])
                start = self._dm_start[q] = density_modularity(adj, self.g.m, comp)
            if density_modularity(adj, self.g.m, res) < start - DM_TOL * abs(start):
                out.append("DM below the DM of the component of Q")
        return out

    def quality(self, q: Tuple[int, ...], res) -> Tuple[float, float]:
        """(DM, NMI against the best-matching ground truth) of an answer."""
        res = set(res)
        dm = density_modularity(self.g.adj, self.g.m, res)
        nmi = METRICS.score_against_best_truth(self.g.n, res, self.comms, q)[0]
        return dm, nmi

    def answer_digest(self, res) -> str:
        return digest(res)


class SparkSubstrate:
    """The Spark graph substrate: an index pass per set-up, BFS per query.

    Each substrate call runs under its own Spark job group, so the number
    of jobs it launched can be read back from the status tracker. The
    calls return lazy DataFrames; each is materialised inside its timed
    call, and the collected result is what the check compares.
    """

    spark = True
    host_adjusted = False  # the work is in the JVM, which the reference task does not follow
    graph_seed = LFR_1K["seed"]

    def __init__(self, name: str, n_sets: int) -> None:
        self.name, self.n_sets = name, n_sets
        self.session = None
        self.tracer = None
        self.calls: List[Tuple[str, str, str]] = []  # (ctx, span name, job group)

    def _call(self, name: str, fn):
        sc = self.session.sparkContext
        group = f"perfbench-{len(self.calls)}"
        ctx = self.tracer.ctx if self.tracer else ""
        self.calls.append((ctx, name, group))
        sc.setJobGroup(group, name)
        if self.tracer is None:
            return fn()
        with self.tracer.span(name):
            return fn()

    def setup(self, seed: int) -> float:
        graph_mod = importlib.import_module("repro.graphs.graph")
        components = importlib.import_module("repro.graphs.components")
        kcore = importlib.import_module("repro.graphs.kcore")
        triangles = importlib.import_module("repro.graphs.triangles")
        g, comms = DATASETS.lfr(**LFR_1K)
        qsets = QUERIES.query_sets(g, comms, n_sets=self.n_sets, q_size=1, seed=seed)
        spark = self.session
        t0 = perf_counter()

        def ingest():
            G = graph_mod.Graph.from_local(spark, g)
            G.edges.count()
            return G

        G = self._call("graphs.graph.from_local", ingest)
        self.out = {
            "degrees": self._call("graphs.graph.degrees", lambda: G.degrees().toPandas()),
            "components": self._call("graphs.components.connected_components",
                                     lambda: components.connected_components(G).toPandas()),
            "k_core": self._call("graphs.kcore.k_core",
                                 lambda: kcore.k_core(G, 3).edges.toPandas()),
            "edge_support": self._call("graphs.triangles.edge_support",
                                       lambda: triangles.edge_support(G).toPandas()),
            "to_local": self._call("graphs.graph.to_local", G.to_local),
        }
        index_s = perf_counter() - t0
        self.g, self.G, self.comms = g, G, comms
        self.items: List[Item] = [("bfs", tuple(q)) for q in qsets]
        return index_s

    def check_setup(self) -> List[str]:
        """Compare the index pass with the local mirrors."""
        g, out, bad = self.g, self.out, []
        deg = {v: d for v, d in g.degrees().items() if d > 0}
        if dict(zip(out["degrees"]["id"], out["degrees"]["degree"])) != deg:
            bad.append("degrees differ from the local graph")
        comp_min = {}
        for c in g.connected_components():
            if len(c) > 1:
                lo = min(c)
                comp_min.update((v, lo) for v in c)
        if dict(zip(out["components"]["id"], out["components"]["component"])) != comp_min:
            bad.append("component labels differ from the local components")
        cores = LOCALOPS.core_numbers(g)
        kc_nodes = set(out["k_core"]["src"]) | set(out["k_core"]["dst"])
        if kc_nodes != {v for v, c in cores.items() if c >= 3}:
            bad.append("3-core differs from the local core numbers")
        sup = out["edge_support"]
        if dict(zip(zip(sup["src"], sup["dst"]), sup["support"])) != LOCALOPS.edge_support(g):
            bad.append("edge support differs from the local triangle counts")
        if set(out["to_local"].edges()) != set(g.edges()):
            bad.append("to_local edges differ from the local graph")
        return bad

    def run(self, algo: str, q: Tuple[int, ...]):
        bfs = importlib.import_module("repro.graphs.bfs")
        return self._call("graphs.bfs.distances", lambda: bfs.distances(self.G, q).toPandas())

    def check(self, algo: str, q: Tuple[int, ...], res) -> List[str]:
        got = dict(zip(res["id"].tolist(), res["dist"].tolist()))
        return [] if got == self.g.bfs_dist(q) else ["BFS distances differ from the local BFS"]

    def quality(self, q, res):
        return None

    def answer_digest(self, res) -> str:
        return digest(f"{i}:{d}" for i, d in zip(res["id"].tolist(), res["dist"].tolist()))

    def job_counts(self) -> List[Tuple[str, str, int]]:
        """(ctx, span name, jobs) per substrate call made so far."""
        tracker = self.session.sparkContext.statusTracker()
        return [(ctx, name, len(tracker.getJobIdsForGroup(group)))
                for ctx, name, group in self.calls]


# host_adjusted: report times in reference seconds (reference.py). On the
# n=1000 graph the program's time follows the reference task's as the host
# drifts. FPA on the 20K graph, which spends most of its time copying
# 20K-node frozensets, does not: over 26 runs of one query, each between
# two runs of the task, the logs of the two times correlated at 0.38, and
# scaling doubled the query's spread (standard deviation 7.5% of the mean
# unscaled, 15% scaled). Its set-up did no better scaled than unscaled
# over ten seeds. So that workload reports wall seconds.
WORKLOADS = {
    # Peel loop dominates: ~20K removals per query over a 108K-edge graph.
    "fpa-lfr20k": lambda: CommunitySearch(
        "fpa-lfr20k", LFR_20K, q_sizes=(1,), n_sets=10, algos=("fpa",), index=False,
        host_adjusted=False),
    # Tarjan pass per removal dominates; no time budget, so answers do not
    # depend on timing.
    "nca-lfr1k": lambda: CommunitySearch(
        "nca-lfr1k", LFR_1K, q_sizes=(1,), n_sets=10, algos=("nca",), index=False,
        host_adjusted=True),
    # Fixed per-query costs dominate: component BFS, Steiner seed,
    # PeelState set-up, baselines over a build-once core/truss index.
    "mixed-lfr1k": lambda: CommunitySearch(
        "mixed-lfr1k", LFR_1K, q_sizes=(1, 2, 4), n_sets=30,
        algos=("fpa", "fpa_prune", "kc", "huang2015"), index=True,
        host_adjusted=True),
    # The only workload that reaches repro.graphs.{graph,bfs,components,kcore,triangles}.
    "spark-lfr1k": lambda: SparkSubstrate("spark-lfr1k", n_sets=10),
}
