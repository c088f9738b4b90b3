"""Figures 15 + 16 (as tables) — effectiveness and efficiency on the
four small graphs with two distinct ground-truth communities
(Karate exact; Dolphin/Mexican/Polblogs analogs per DESIGN.md §5).

Full §6.1 roster including GN and clique (they fit at this scale;
GN's node cap, ``gn.MAX_NODES``, cuts Polblogs exactly as in the paper).
"""
import pandas as pd

from repro.evaluation.datasets import small_real
from repro.evaluation.harness import run_algorithms, standard_algorithms, summarize
from repro.evaluation.queries import query_sets

from _common import emit


def run(n_queries: int = 10) -> pd.DataFrame:
    frames = []
    for name, (g, comms) in small_real().items():
        queries = query_sets(g, comms, n_sets=n_queries, q_size=1, seed=6)
        algos = standard_algorithms(g)
        df = run_algorithms(g, comms, algos, queries, dataset=name)
        frames.append(summarize(df))
        print(f"[e15] finished {name}")
    return emit("e15_small_real", pd.concat(frames, ignore_index=True))


if __name__ == "__main__":
    run()
