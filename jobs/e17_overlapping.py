"""Figures 17 + 18 (as tables) — effectiveness and efficiency on graphs
with overlapping ground-truth communities (DBLP/Youtube/LiveJournal-lite
analogs, DESIGN.md §5). Roster mirrors the paper's large-graph set:
kc, kt, kecc, highcore, hightruss, FPA (NCA/GN/clique exceed budgets at
this scale, as in the paper).
"""
import pandas as pd

from repro.evaluation.datasets import overlapping
from repro.evaluation.harness import run_algorithms, standard_algorithms, summarize
from repro.evaluation.queries import query_sets

from _common import emit

ROSTER = ["kc", "kt", "kecc", "highcore", "hightruss", "FPA"]


def run(n_queries: int = 10) -> pd.DataFrame:
    frames = []
    for name, (g, comms) in overlapping().items():
        queries = query_sets(g, comms, n_sets=n_queries, q_size=1, seed=7)
        algos = standard_algorithms(g, include=ROSTER)
        df = run_algorithms(g, comms, algos, queries, dataset=name)
        frames.append(summarize(df))
        print(f"[e17] finished {name}")
    return emit("e17_overlapping", pd.concat(frames, ignore_index=True))


if __name__ == "__main__":
    run()
