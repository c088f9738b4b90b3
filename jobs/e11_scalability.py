"""Figure 11 (as table) — scalability: running time vs node count.

Paper: 10K..100K nodes; ours: 2K..20K (DESIGN.md §5 scale-down). NCA
rescans every candidate's Λ after each removal and tests connectivity
with a search over the current subgraph, so its cost grows roughly
quadratically and is run only up to ``NCA_MAX_N`` nodes; larger sizes
are reported as ``nca_capped=True`` (the paper likewise reports NCA only
where it finishes). The claim under test is relative: NCA slowest,
kc/highcore fastest, FPA in between with a near-linear slope. NCA runs
under a per-query time budget.
"""
import time

import pandas as pd

from repro.baselines import highcore, kc
from repro.core import fpa, nca
from repro.evaluation.datasets import lfr
from repro.evaluation.queries import query_sets
from repro.graphs.localops import core_numbers

from _common import Timer, emit, get_spark

SIZES = [2000, 5000, 10000, 20000]
NCA_BUDGET = 120.0
NCA_MAX_N = 10000


def run(spark=None, n_queries: int = 3) -> pd.DataFrame:
    rows = []
    for n in SIZES:
        g, comms = lfr(seed=7, n=n, d_avg=12, d_max=60, max_c=min(200, n // 5))
        queries = query_sets(g, comms, n_sets=n_queries, q_size=1, seed=3)
        cores = core_numbers(g)
        algos = {
            "kc": lambda gg, q: kc(gg, q, k=3, cores=cores),
            "highcore": lambda gg, q: highcore(gg, q, cores=cores),
            "FPA": lambda gg, q: fpa(gg, q),
            "NCA": lambda gg, q: (
                nca(gg, q, time_budget=NCA_BUDGET) if n <= NCA_MAX_N else None
            ),
        }
        for name, fn in algos.items():
            times = []
            for q in queries:
                with Timer() as t:
                    res = fn(g, q)
                if res is not None:
                    times.append(t.seconds)
            rows.append(
                dict(
                    n=n,
                    E=g.m,
                    algo=name,
                    median_seconds=round(pd.Series(times).median(), 4) if times else None,
                    runs=len(times),
                    nca_capped=(name == "NCA" and (n > NCA_MAX_N)),
                )
            )
            print(f"[e11] n={n} {name} done")
    return emit("e11_scalability", pd.DataFrame(rows))


if __name__ == "__main__":
    run()
