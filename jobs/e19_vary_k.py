"""Figure 19 (as table) — sensitivity of the parameterized baselines to
k (kc/kecc at k, kt at k+1) vs parameter-free FPA, on the DBLP-lite and
Youtube-lite analogs.
"""
import pandas as pd

from repro.baselines import kc as kc_fn
from repro.baselines import kecc_cs, kt as kt_fn
from repro.core import fpa
from repro.evaluation.datasets import overlapping
from repro.evaluation.harness import run_algorithms, summarize
from repro.evaluation.queries import query_sets
from repro.graphs.localops import core_numbers, truss_numbers

from _common import emit

K_VALUES = [3, 4, 5, 6]


def run(n_queries: int = 8) -> pd.DataFrame:
    roster = {
        name: gc for name, gc in overlapping().items()
        if name in ("DBLP-lite", "Youtube-lite")
    }
    frames = []
    for name, (g, comms) in roster.items():
        cores = core_numbers(g)
        truss = truss_numbers(g)
        queries = query_sets(g, comms, n_sets=n_queries, q_size=1, seed=8)
        for k in K_VALUES:
            algos = {
                "kc": lambda gg, q, k=k: kc_fn(gg, q, k=k, cores=cores),
                "kt": lambda gg, q, k=k: kt_fn(gg, q, k=k + 1, truss=truss),
                "kecc": lambda gg, q, k=k: kecc_cs(gg, q, k=k),
                "FPA": lambda gg, q: fpa(gg, q),
            }
            df = run_algorithms(g, comms, algos, queries, dataset=name)
            s = summarize(df)
            s.insert(1, "k", k)
            frames.append(s)
            print(f"[e19] finished {name} k={k}")
    return emit("e19_vary_k", pd.concat(frames, ignore_index=True))


if __name__ == "__main__":
    run()
