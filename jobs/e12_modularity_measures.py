"""Figure 12 (as table) — FPA with density modularity vs classic
modularity vs generalized modularity density as the incumbent-selection
measure (§6.2.3). Also reports the community-size ratio the paper quotes
(CM communities ~18x larger than DM communities).
"""
import pandas as pd

from repro.core import fpa
from repro.evaluation.datasets import lfr
from repro.evaluation.harness import run_algorithms, summarize
from repro.evaluation.queries import query_sets

from _common import emit

MEASURES = {"DM": "dm", "CM": "cm", "GMD": "gmd"}


def run(n_queries: int = 8) -> pd.DataFrame:
    g, comms = lfr(seed=12)
    queries = query_sets(g, comms, n_sets=n_queries, q_size=1, seed=2)
    algos = {
        label: (lambda gg, q, m=m: fpa(gg, q, prune=False, measure=m))
        for label, m in MEASURES.items()
    }
    df = run_algorithms(g, comms, algos, queries, dataset="lfr-default")
    s = summarize(df)
    mean_sizes = df.groupby("algo")["size"].mean()
    s["mean_size"] = s["algo"].map(mean_sizes).round(1)
    dm_size = mean_sizes.get("DM", float("nan"))
    s["size_vs_DM"] = (s["mean_size"] / dm_size).round(2)
    return emit("e12_modularity_measures", s)


if __name__ == "__main__":
    run()
